"""Tests for the flow engine.

The single-harmonic initial data phi0 = a cos y evolves in closed form,
phi(t) = a exp(-t) cos y, which pins the exact path pointwise; scipy
quadrature supplies independent values for the volume-weighted
diagnostics; and the finite-difference path is compared step for step
against direct heat marches with the same scheme.
"""

import dataclasses
import math

import numpy as np
import pytest
import scipy.sparse.linalg as spla
from scipy.integrate import quad

import foliflow as ff
from foliflow import checks, fdref, flows
from foliflow import fiber as fb
from foliflow import geometry as geo
from foliflow.errors import (DegenerateTrajectoryError, HypothesisViolationError,
                             InputError, SolveError, UnsupportedScenarioError)

BASE4 = ff.FiberGrid(1, (2.0 * math.pi,), (4,))
BASE8 = ff.FiberGrid(1, (2.0 * math.pi,), (8,))
CIRCLE = ff.FiberGrid(1, (2.0 * math.pi,), (64,))
TORUS = ff.FiberGrid(2, (2.0 * math.pi, 2.0 * math.pi), (32, 32))


def single_mode_state(amp=0.2):
    return ff.ProductState.from_harmonics(BASE4, CIRCLE, {(0, 1): amp})


def plain_config(**kwargs):
    defaults = dict(t_end=2.0, samples=(0.0, 0.5, 1.0, 2.0))
    defaults.update(kwargs)
    return ff.FlowConfig(**defaults)


def prescribed_config(x, **kwargs):
    return plain_config(variant="prescribed", x_field=x, **kwargs)


class TestFlowConfig:
    @pytest.mark.parametrize("kwargs", [
        {"variant": "backwards"},
        {"t_end": math.nan},
        {"samples": (0.0, math.nan)},
        {"t_end": 0.0},
        {"t_end": -1.0},
        {"samples": ()},
        {"samples": (1.0, 0.5)},
        {"samples": (-0.5, 1.0)},
        {"samples": (0.0, 5.0)},
        {"tol_converge": 0.0},
        {"x_field": np.zeros((1, 64))},
        {"variant": "prescribed"},
    ])
    def test_rejects_bad_parameters(self, kwargs):
        with pytest.raises(InputError):
            plain_config(**kwargs)

    def test_samples_coerced_to_floats(self):
        config = plain_config(samples=(0, 1, 2))
        assert config.samples == (0.0, 1.0, 2.0)


class TestPlainFlow:
    def test_single_mode_closed_form(self):
        """phi(t) = 0.2 exp(-t) cos y at every sample."""
        traj = ff.run_extrinsic_flow(single_mode_state(), plain_config())
        y = CIRCLE.coordinates()[0]
        for state, t in zip(traj.states, traj.sample_times):
            expected = 0.2 * math.exp(-t) * np.cos(y)
            np.testing.assert_allclose(
                state.phi, np.broadcast_to(expected, state.shape), atol=1e-12)
        np.testing.assert_array_equal(traj.fiber_rate, np.ones(BASE4.shape))
        assert traj.sample_times == (0.0, 0.5, 1.0, 2.0)

    def test_evaluate_arbitrary_time(self):
        traj = ff.run_extrinsic_flow(single_mode_state(), plain_config())
        y = CIRCLE.coordinates()[0]
        state = traj.evaluate(0.37)
        np.testing.assert_allclose(
            state.phi,
            np.broadcast_to(0.2 * math.exp(-0.37) * np.cos(y), state.shape),
            atol=1e-12)
        with pytest.raises(InputError):
            traj.evaluate(-0.1)

    @pytest.mark.parametrize("variant", ["plain", "normalized"])
    def test_limit_is_the_eager_closed_form_built_once(self, variant):
        """The limit, built on request from the kept driving spectrum, is the eager form's bits.

        That form transforms the nodal driving scalar again
        (``fiber.time_integral_values`` at t = inf).  A plain run hands out
        the one built array on every later request.
        """
        state = ff.ProductState.from_harmonics(
            BASE4, TORUS, {(0, 1, 0): 0.2, (1, 1, 2): (0.05, 0.02)}, {(1, 0, 0): 0.3})
        traj = ff.run_extrinsic_flow(state, plain_config(variant=variant))
        driving0 = geo.phi_fields(state).div_h
        eager = state.phi - fb.time_integral_values(
            driving0, TORUS, math.inf, rate_scale=geo.fiber_rate(state)) / state.n
        if variant == "normalized":
            eager = flows.project_unit_volume(state.replace_phi(eager, math.inf)).phi
        assert traj.limit.phi.tobytes() == eager.tobytes()
        (again,) = traj.at((math.inf,))
        assert (again.phi is traj.limit.phi) == (variant == "plain")

    def test_nonzero_driving_mean_refused_in_the_first_step(self, monkeypatch):
        """The t = inf limit is built late, but a driving scalar without it is refused at once."""
        monkeypatch.setattr(flows, "driving_scalar", lambda fields, x: fields.div_h + 1.0)
        with pytest.raises(InputError, match="fiber mean is nonzero"):
            flows.sample_flow(single_mode_state(), plain_config())

    def test_limit_is_flat_product(self):
        traj = ff.run_extrinsic_flow(single_mode_state(), plain_config())
        assert math.isinf(traj.limit.t)
        assert np.max(np.abs(traj.limit.phi)) < 1e-14
        assert np.max(np.abs(geo.phi_fields(traj.limit).h)) < 1e-14

    def test_torus_mode_rate(self):
        # mode (1, 2) decays at the eigenvalue 5
        state = ff.ProductState.from_harmonics(BASE4, TORUS, {(0, 1, 2): 0.1})
        config = ff.FlowConfig(t_end=1.0, samples=(0.0, 1.0))
        traj = ff.run_extrinsic_flow(state, config)
        d0, d1 = traj.diagnostics
        assert d1.max_div_h == pytest.approx(d0.max_div_h * math.exp(-5.0),
                                             rel=1e-9)

    def test_heat_equation_residual(self):
        """Central difference of phi in t reproduces the leaf Laplacian."""
        traj = ff.run_extrinsic_flow(single_mode_state(), plain_config())
        h = 1e-4
        mid = traj.evaluate(0.8)
        dphi = (traj.evaluate(0.8 + h).phi - traj.evaluate(0.8 - h).phi) / (2 * h)
        np.testing.assert_allclose(dphi, geo.div_perp(geo.grad_perp(mid.phi, mid), mid),
                                   atol=1e-8)

    def test_base_varying_psi_stays_exact(self):
        state = ff.ProductState.from_harmonics(BASE4, CIRCLE, {(0, 1): 0.2},
                                               {(1, 0): 0.3})
        traj = ff.run_extrinsic_flow(state, plain_config())
        np.testing.assert_array_equal(traj.fiber_rate, geo.fiber_rate(state))
        # each fiber decays at exp(-2 psi) times the flat eigenvalue
        y = CIRCLE.coordinates()[0]
        psi_col = state.psi[:, :1]
        expected = 0.2 * np.exp(-np.exp(-2.0 * psi_col) * 1.0) * np.cos(y)
        np.testing.assert_allclose(traj.evaluate(1.0).phi, expected, atol=1e-12)

    def test_zero_data_short_circuits(self):
        state = ff.ProductState.from_harmonics(BASE4, CIRCLE, {})
        traj = ff.run_extrinsic_flow(state, plain_config())
        assert traj.converged_time == 0.0
        for s in traj.states:
            np.testing.assert_array_equal(s.phi, state.phi)

    def test_diagnostics_closed_forms(self):
        traj = ff.run_extrinsic_flow(single_mode_state(), plain_config())
        record = traj.diagnostics[2]  # t = 1
        assert record.max_div_h == pytest.approx(0.2 * math.exp(-1.0), rel=1e-10)
        assert record.max_driving == record.max_div_h
        assert record.tangent_label == "umbilical"
        assert record.umbilical_residual < 1e-14
        assert record.d_theta_sup == 0.0

    @pytest.mark.parametrize("name", ["umbilical_residual", "d_theta_sup"])
    def test_umbilical_residual_is_stated(self, name):
        record = ff.run_extrinsic_flow(single_mode_state(), plain_config()).diagnostics[0]
        assert name not in {f.name for f in dataclasses.fields(record)}
        assert getattr(record, name) == 0.0
        with pytest.raises(AttributeError):
            setattr(record, name, 1.0)

    def test_diagnose_takes_one_sup_norm_per_distribution(self, monkeypatch):
        """classify measures harmonicity only; umbilicity is not measured.

        Its |H|^2_g is the int |H|^2 integrand, built once, and its
        |Hperp|^2_g comes from grad psi without building Hperp.
        """
        state = ff.ProductState.from_harmonics(BASE4, TORUS, {(0, 1, 2): 0.1},
                                               {(1, 0, 0): 0.1})
        calls = []
        for name in ("leaf_inner", "second_fundamental", "fiber_mean_curvature"):
            original = getattr(geo, name)

            def counting(*args, name=name, original=original):
                calls.append(name)
                return original(*args)

            monkeypatch.setattr(geo, name, counting)
        record = flows._diagnose(geo.phi_fields(state), np.zeros((2,) + state.shape))
        assert calls == ["leaf_inner"]
        assert (record.tangent_label, record.normal_label) == ("umbilical", "umbilical")

    def test_diagnose_builds_one_volume_weight(self, monkeypatch):
        """vol, int Div_perp H and int |H|^2 share one weight, with the floats of one call each."""
        state = ff.ProductState.from_harmonics(BASE4, TORUS, {(0, 1, 2): 0.1},
                                               {(1, 0, 0): 0.1})
        fields = geo.phi_fields(state)
        expected = (geo.volume(state), geo.integrate(state, fields.div_h),
                    geo.integrate(state, geo.leaf_inner(state, fields.h, fields.h)))
        calls, weight = [], geo.volume_form_weight

        def counting(state):
            calls.append(state.t)
            return weight(state)

        monkeypatch.setattr(geo, "volume_form_weight", counting)
        record = flows._diagnose(geo.phi_fields(state), np.zeros((2,) + state.shape))
        assert calls == [0.0]
        assert (record.vol, record.int_div_h, record.int_h2) == expected

    def test_normalization_rate_builds_one_volume_weight(self, monkeypatch):
        """r takes vol and int Div_perp H from one weight, with the floats of one call each."""
        state = ff.ProductState.from_harmonics(BASE4, TORUS, {(0, 1, 2): 0.1},
                                               {(1, 0, 0): 0.1})
        div_h = geo.phi_fields(state).div_h
        expected = float(-(2.0 / state.n) * geo.integrate(state, div_h) / geo.volume(state))
        calls, weight = [], geo.volume_form_weight

        def counting(state):
            calls.append(state.t)
            return weight(state)

        monkeypatch.setattr(geo, "volume_form_weight", counting)
        assert flows.normalization_rate(state) == expected
        assert calls == [0.0]
        assert flows.normalization_rate(state, div_h) == expected
        assert calls == [0.0, 0.0]

    def test_rate_and_int_h2_quad_oracles(self):
        """r = -2 int |H|^2 dvol / vol, both integrals from scipy.quad."""
        traj = ff.run_extrinsic_flow(single_mode_state(), plain_config())
        record = traj.diagnostics[0]
        h2 = quad(lambda y: (0.2 * math.sin(y)) ** 2 * math.exp(0.2 * math.cos(y)),
                  0.0, 2.0 * math.pi)[0]
        vol = quad(lambda y: math.exp(0.2 * math.cos(y)), 0.0, 2.0 * math.pi)[0]
        assert record.int_h2 == pytest.approx(2.0 * math.pi * h2, rel=1e-12)
        assert record.vol == pytest.approx(2.0 * math.pi * vol, rel=1e-12)
        assert record.rate == pytest.approx(-2.0 * h2 / vol, rel=1e-10)
        assert flows.normalization_rate(traj.states[0]) == pytest.approx(
            record.rate, rel=1e-12)

    def test_rate_from_supplied_div_h_is_bitwise(self):
        state = ff.ProductState.from_harmonics(BASE4, CIRCLE, {(0, 1): 0.2, (1, 2): 0.05},
                                               {(1, 0): 0.1})
        div_h = geo.div_perp(geo.phi_fields(state).h, state)
        assert flows.normalization_rate(state, div_h) == flows.normalization_rate(state)

    def test_target_field_is_zero_unless_prescribed(self):
        """Without a target X is a read-only zero broadcast, which holds no grid of memory."""
        state = single_mode_state()
        for variant in ("plain", "normalized"):
            traj = ff.run_extrinsic_flow(state, plain_config(variant=variant))
            assert traj.x.shape == (1,) + state.shape
            assert not np.any(traj.x)
            assert not traj.x.flags.writeable and traj.x.strides == (0,) * traj.x.ndim


class TestNormalizedFlow:
    def test_unit_volume_at_all_samples(self):
        traj = ff.run_extrinsic_flow(single_mode_state(), plain_config(variant="normalized"))
        for state in traj.states + (traj.limit,):
            assert geo.volume(state) == pytest.approx(1.0, abs=1e-12)

    def test_rescaling_identity_with_plain(self):
        """Normalized state = plain state rescaled to unit volume."""
        state = single_mode_state()
        plain = ff.run_extrinsic_flow(state, plain_config())
        norm = ff.run_extrinsic_flow(state, plain_config(variant="normalized"))
        for t in (0.0, 1.0, 2.0):
            ps = plain.evaluate(t)
            shift = math.log(geo.volume(ps)) / ps.n
            np.testing.assert_allclose(norm.evaluate(t).phi, ps.phi - shift,
                                       atol=1e-13)

    def test_rate_is_nonpositive(self):
        traj = ff.run_extrinsic_flow(single_mode_state(), plain_config(variant="normalized"))
        for record in traj.diagnostics:
            assert record.rate <= 1e-12

    def test_normalized_pde_residual(self):
        """d/dt phi = Lap phi - r/2 for the unit-volume flow."""
        traj = ff.run_extrinsic_flow(single_mode_state(), plain_config(variant="normalized"))
        h = 1e-4
        mid = traj.evaluate(0.5)
        dphi = (traj.evaluate(0.5 + h).phi - traj.evaluate(0.5 - h).phi) / (2 * h)
        r = flows.normalization_rate(mid)
        np.testing.assert_allclose(dphi, geo.div_perp(geo.grad_perp(mid.phi, mid), mid) - r / 2.0,
                                   atol=1e-8)

    def test_project_unit_volume(self):
        state = single_mode_state()
        projected = flows.project_unit_volume(state)
        assert geo.volume(projected) == pytest.approx(1.0, abs=1e-13)
        again = flows.project_unit_volume(projected)
        np.testing.assert_allclose(again.phi, projected.phi, atol=1e-14)


class TestFloatRange:
    """Initial data whose exp factors overflow, and volumes that degenerate."""

    @pytest.mark.parametrize("phi_terms, psi_terms", [
        ({(0, 1): 1e300}, {}),
        ({(0, 1): 400.0}, {}),              # exp(-2 phi) overflows, the density does not
        ({(0, 0): 0.1}, {(1, 0): 360.0}),   # exp(+-2 psi) overflows
        ({(0, 0): 354.0}, {(0, 0): 354.0}),  # the volume's sum over 256 points overflows
    ], ids=["phi-huge", "phi-leaf", "psi-leaf", "density-sum"])
    def test_overflowing_initial_data_refused_before_evolving(self, phi_terms, psi_terms,
                                                              monkeypatch):
        monkeypatch.setattr(flows, "_plain_phis", None)    # evolving would raise TypeError
        state = ff.ProductState.from_harmonics(BASE4, CIRCLE, phi_terms, psi_terms)
        with pytest.raises(InputError, match="phi0 and psi leave the float range"):
            ff.run_extrinsic_flow(state, plain_config())

    def test_large_but_representable_data_runs(self):
        traj = ff.run_extrinsic_flow(single_mode_state(300.0), plain_config())
        assert all(math.isfinite(d.vol) and d.vol > 0 for d in traj.diagnostics)

    def test_codim1_overflow_refused(self):
        y = CIRCLE.coordinates()[0]
        tau0 = np.broadcast_to(1e300 * np.cos(y), (8, 64))
        with pytest.raises(InputError, match="float range"):
            ff.run_codim1(tau0, BASE8, CIRCLE, plain_config())

    @pytest.mark.parametrize("level", [-800.0, 800.0], ids=["underflow", "overflow"])
    def test_degenerate_volume_refused(self, level):
        phi = np.full(BASE4.shape + CIRCLE.shape, level)
        state = ff.ProductState(BASE4, CIRCLE, phi, np.zeros_like(phi))
        for evaluate in (flows.normalization_rate, flows.project_unit_volume):
            with pytest.raises(DegenerateTrajectoryError, match="not positive and finite"):
                evaluate(state)

    def test_huge_sample_time_keeps_the_volume(self):
        """The null mode's multiplier t meets no round-off fiber mean of the driving scalar.

        phi0 = 0.2 cos y has fiber mean 0, so the limit metric is flat with
        volume (2 pi)^2 = 39.48; a drifting fiber mean took it to 3.6e-126
        at t = 1e20 and to 0 at t = 1e300.
        """
        for t in (1e20, 1e300):
            traj = ff.run_extrinsic_flow(single_mode_state(),
                                         plain_config(samples=(0.0, t), t_end=t))
            assert traj.diagnostics[-1].vol == pytest.approx(4.0 * math.pi ** 2, rel=1e-12)

    @pytest.mark.parametrize("fiber, phi0, psi", [
        (CIRCLE, {(0, 1): 0.2, (1, 3): 0.05}, {(1, 0): 0.3}),
        (TORUS, {(0, 1, 0): 0.2, (1, 1, 2): 0.05}, {(1, 0, 0): 0.3}),
    ], ids=["p1", "p2"])
    def test_exact_path_conserves_the_fiber_mean(self, fiber, phi0, psi):
        """At t = 1e10 the fiber mean of phi has not drifted (it moved by 2.9e-8 before)."""
        state = ff.ProductState.from_harmonics(BASE4, fiber, phi0, psi)
        traj = ff.run_extrinsic_flow(state, plain_config(samples=(0.0, 1e10), t_end=1e10))
        assert traj.fiber_rate is not None
        axes = state.fiber_axes
        drift = traj.states[-1].phi.mean(axis=axes) - state.phi.mean(axis=axes)
        assert np.max(np.abs(drift)) < 1e-15


class TestPrescribedFlow:
    def test_constant_target_cancels_harmonic_part(self):
        """X = 0.1 d/dy exactly absorbs a 0.1 d/dy harmonic remainder."""
        state = ff.ProductState.from_harmonics(BASE4, CIRCLE,
                                               {(0, 1): 0.2}, None)
        x = np.full((1,) + state.shape, 0.1)
        traj = ff.run_extrinsic_flow(state, prescribed_config(x))
        h_inf = geo.phi_fields(traj.limit).h
        assert np.max(np.abs(h_inf)) < 1e-13
        drive = geo.div_perp(h_inf - x, traj.limit)
        assert np.max(np.abs(drive)) < 1e-12

    def test_limit_theta_is_fiber_mean(self):
        state = single_mode_state()
        y = CIRCLE.coordinates()[0]
        x = np.broadcast_to(0.1 + 0.05 * np.cos(2.0 * y), (1,) + state.shape)
        traj = ff.run_extrinsic_flow(state, prescribed_config(x))
        h0 = geo.phi_fields(state).h
        np.testing.assert_array_equal(traj.x, x)
        expected = x + np.mean(h0 - x, axis=-1, keepdims=True)
        np.testing.assert_allclose(geo.phi_fields(traj.limit).h,
                                   expected, atol=1e-12)

    def test_target_equal_to_h0_is_static(self):
        state = single_mode_state()
        x = geo.phi_fields(state).h
        traj = ff.run_extrinsic_flow(state, prescribed_config(x))
        assert traj.converged_time == 0.0
        np.testing.assert_array_equal(traj.evaluate(1.7).phi, state.phi)

    def test_steep_target_equal_to_h0_drives_exactly_nothing(self):
        """The run and its diagnostics take the same Div_perp(H - X): exactly 0.

        Here |Div_perp H| ~ 2e6, so the round-off of a different form,
        Div_perp H - Div_perp X, would alone exceed tol_converge.
        """
        state = ff.ProductState.from_harmonics(BASE4, CIRCLE, {(0, 30): 5.0}, {(1, 0): -3.0})
        x = geo.phi_fields(state).h
        traj = ff.run_extrinsic_flow(state, prescribed_config(x))
        assert traj.diagnostics[0].max_div_h > 1e6
        assert [d.max_driving for d in traj.diagnostics] == [0.0] * 4
        assert traj.converged_time == 0.0

    def test_nonclosed_target_rejected_p2(self):
        state = ff.ProductState.from_harmonics(BASE4, TORUS, {(0, 1, 2): 0.1})
        y1, y2 = np.meshgrid(*TORUS.coordinates(), indexing="ij")
        x = np.broadcast_to(np.stack([np.sin(y2), np.zeros(TORUS.shape)])[:, None],
                            (2,) + state.shape)
        config = ff.FlowConfig(t_end=1.0, samples=(1.0,), variant="prescribed", x_field=x)
        with pytest.raises(HypothesisViolationError):
            ff.run_extrinsic_flow(state, config)

    def test_bad_x_shape_rejected(self):
        with pytest.raises(InputError, match=r"x_field shape \(1, 32\) is not \(p,\) \+ grid"):
            ff.run_extrinsic_flow(single_mode_state(), prescribed_config(np.zeros((1, 32))))


class TestCodimensionOne:
    def test_separable_closed_form(self):
        """tau(t, x, y) = (1 + 0.3 cos x) exp(-t) cos y."""
        x = BASE8.coordinates()[0]
        y = CIRCLE.coordinates()[0]
        tau0 = (1.0 + 0.3 * np.cos(x))[:, None] * np.cos(y)[None, :]
        traj = ff.run_codim1(tau0, BASE8, CIRCLE, plain_config())
        for state, t in zip(traj.states, traj.sample_times):
            np.testing.assert_allclose(ff.tau_of_state(state),
                                       tau0 * math.exp(-t), atol=1e-12)

    def test_initial_scalar_reproduced(self):
        y = CIRCLE.coordinates()[0]
        tau0 = np.broadcast_to(0.4 * np.sin(2.0 * y), (8, 64))
        traj = ff.run_codim1(tau0, BASE8, CIRCLE, plain_config())
        np.testing.assert_allclose(ff.tau_of_state(traj.states[0]), tau0,
                                   atol=1e-13)

    def test_reeb_integral_vanishes_along_run(self):
        x = BASE8.coordinates()[0]
        y = CIRCLE.coordinates()[0]
        tau0 = (1.0 + 0.3 * np.cos(x))[:, None] * np.cos(y)[None, :]
        traj = ff.run_codim1(tau0, BASE8, CIRCLE, plain_config())
        for state in traj.states:
            tau = ff.tau_of_state(state)
            assert abs(geo.integrate(state, np.exp(state.psi) * tau)) < 1e-13

    def test_limit_scalar_vanishes(self):
        y = CIRCLE.coordinates()[0]
        tau0 = np.broadcast_to(np.cos(y), (8, 64))
        traj = ff.run_codim1(tau0, BASE8, CIRCLE, plain_config())
        assert np.max(np.abs(ff.tau_of_state(traj.limit))) < 1e-14

    def test_nonzero_fiber_mean_rejected(self):
        tau0 = np.ones((8, 64))
        with pytest.raises(UnsupportedScenarioError):
            ff.run_codim1(tau0, BASE8, CIRCLE, plain_config())

    def test_two_dimensional_fiber_rejected(self):
        with pytest.raises(UnsupportedScenarioError):
            ff.run_codim1(np.zeros((8,) + TORUS.shape), BASE8, TORUS,
                          plain_config())

    def test_shape_checked(self):
        with pytest.raises(InputError):
            ff.run_codim1(np.zeros((8, 32)), BASE8, CIRCLE, plain_config())

    def test_tau_requires_one_dimensional_fiber(self):
        state = ff.ProductState.from_harmonics(BASE4, TORUS, {})
        with pytest.raises(InputError):
            ff.tau_of_state(state)

    def test_tau_with_fiber_varying_psi(self):
        """tau = g(N, H) = exp(psi) H for the unit normal N = exp(-psi) d/dy."""
        state = ff.ProductState.from_harmonics(BASE4, CIRCLE, {(0, 1): 0.2, (1, 1): 0.05},
                                               {(0, 1): 0.1, (1, 2): 0.05})
        h = geo.phi_fields(state).h
        np.testing.assert_array_equal(ff.tau_of_state(state), np.exp(state.psi) * h[0])
        # closed form: H = -n exp(-2 psi) phi_y, so tau = -exp(-psi) phi_y
        x, y = np.meshgrid(BASE4.coordinates()[0], CIRCLE.coordinates()[0], indexing="ij")
        phi_y = -0.2 * np.sin(y) - 0.05 * np.sin(x + y)
        psi = 0.1 * np.cos(y) + 0.05 * np.cos(x + 2.0 * y)
        np.testing.assert_allclose(ff.tau_of_state(state), -np.exp(-psi) * phi_y, atol=1e-13)


class TestTrajectoryAt:
    def traj(self, path):
        if path == "chebyshev":
            state = p2_twisted_state()
        elif path == "static":      # phi0 constant along the fibers: zero driving
            state = ff.ProductState.from_harmonics(BASE4, CIRCLE, {(1, 0): 0.2}, {(1, 1): 0.1})
        else:
            psi = {(0, 1): 0.1} if path == "fd" else None
            state = ff.ProductState.from_harmonics(BASE4, CIRCLE, {(0, 1): 0.2}, psi)
        return ff.run_extrinsic_flow(state, plain_config())

    @pytest.mark.parametrize("path", ["exact", "fd", "chebyshev", "static"])
    def test_samples_reproduce_the_states(self, path):
        traj = self.traj(path)
        for state, sample in zip(traj.at(traj.sample_times), traj.states, strict=True):
            np.testing.assert_array_equal(state.phi, sample.phi)
        (limit,) = traj.at((math.inf,))
        np.testing.assert_array_equal(limit.phi, traj.limit.phi)

    @pytest.mark.parametrize("path", ["exact", "fd"])
    @pytest.mark.parametrize("times, message", [
        ((math.nan,), "trajectory time must be >= 0, got nan"),
        ((0.5, -0.1), "trajectory time must be >= 0, got -0.1"),
        ((0.5, 0.25), "trajectory times must ascend, got 0.25 after 0.5"),
    ])
    def test_bad_times_refused_naming_the_time(self, path, times, message):
        with pytest.raises(InputError, match=message):
            self.traj(path).at(times)

    @pytest.mark.parametrize("path", ["exact", "fd"])
    def test_evaluate_refuses_nan_naming_it(self, path):
        with pytest.raises(InputError, match="trajectory time must be >= 0, got nan"):
            self.traj(path).evaluate(math.nan)

    @pytest.mark.parametrize("fiber, phi0, psi", [
        (CIRCLE, {(0, 1): 0.2}, {(1, 0): 0.3}),
        (TORUS, {(0, 1, 2): 0.1}, {(1, 0, 0): 0.2}),
        (CIRCLE, {}, {(1, 0): 0.3}),                     # zero driving short-circuits
    ], ids=["p1-base-twist", "p2-base-twist", "static"])
    def test_exact_fiber_rate_is_the_geometry_rate(self, fiber, phi0, psi):
        state = ff.ProductState.from_harmonics(BASE4, fiber, phi0, psi)
        traj = ff.run_extrinsic_flow(state, plain_config())
        np.testing.assert_array_equal(traj.fiber_rate, geo.fiber_rate(state))

    def test_fd_path_has_no_fiber_rate(self):
        assert self.traj("fd").fiber_rate is None


class TestSampleFlow:
    """sample_flow's states exist before their diagnosis, which holds no sample spectrum."""

    @pytest.mark.parametrize("psi", [{(1, 0): 0.1}, {(0, 1): 0.1}], ids=["exact", "fd"])
    def test_states_come_before_their_diagnosis(self, monkeypatch, psi):
        state = ff.ProductState.from_harmonics(BASE4, CIRCLE, {(0, 1): 0.2}, psi)
        calls, diagnose_one = [], flows._diagnose

        def counting(fields, x):
            calls.append(fields.state.t)
            return diagnose_one(fields, x)

        monkeypatch.setattr(flows, "_diagnose", counting)
        states, diagnose = flows.sample_flow(state, plain_config())
        assert calls == [] and [s.t for s in states] == [0.0, 0.5, 1.0, 2.0]
        traj = diagnose()
        assert calls == [0.0, 0.5, 1.0, 2.0] and traj.states is states

    @pytest.mark.parametrize("path", ["exact", "fd", "chebyshev"])
    def test_limit_is_built_once_after_the_pass(self, calls, path):
        """Each path builds its t = inf limit on the first request, which the pass makes."""
        if path == "exact":
            state, made = single_mode_state(), calls(fb, "time_integral_limit_spectrum")
        else:
            state = (p2_twisted_state() if path == "chebyshev" else
                     ff.ProductState.from_harmonics(BASE4, CIRCLE, {(0, 1): 0.2}, {(0, 1): 0.1}))
            made = calls(flows, "_mean_limit")
        _, diagnose = flows.sample_flow(state, plain_config())
        assert made == []
        traj = diagnose()
        assert len(made) == 1
        list(traj.at((0.5, math.inf)))
        assert len(made) == 1

    def test_no_sample_spectrum_is_held_between_the_steps(self, traced_memory):
        """Between the steps the run keeps its states and a few run-wide fields.

        One spectrum per sample would add about one field per sample.
        """
        state = ff.ProductState.from_harmonics(BASE4, TORUS, {(0, 1, 2): 0.1},
                                               {(1, 0, 0): 0.1})
        config = plain_config(samples=tuple(0.2 * k for k in range(11)))
        with traced_memory() as traced:
            states, diagnose = flows.sample_flow(state, config)
        assert traced.retained < (len(states) + 9) * state.phi.nbytes, (
            traced.retained / state.phi.nbytes)
        assert [record.t for record in diagnose().diagnostics] == list(config.samples)


class TestFiniteDifferencePath:
    def fd_state(self):
        return ff.ProductState.from_harmonics(BASE4, CIRCLE, {(0, 1): 0.2},
                                              {(0, 1): 0.1})

    def test_engine_matches_direct_march(self):
        state = self.fd_state()
        config = plain_config(samples=(0.0, 0.5))
        traj = ff.run_extrinsic_flow(state, config)
        assert traj.fiber_rate is None
        direct = ff.fd_heat_run(state.phi, state.psi, CIRCLE, (0.5,),
                                config.fd_scheme)[0]
        np.testing.assert_array_equal(traj.states[1].phi, direct)

    def test_samples_march_as_one_chain(self, calls):
        """64 distinct 64-point profiles, 5 uniform samples: one factorization per chunk.

        The dense route packs 16 such fibers per chunk, so the chain makes 4
        factorizations where one march per sample interval makes 16.
        """
        base = ff.FiberGrid(1, (2.0 * math.pi,), (64,))
        state = ff.ProductState.from_harmonics(base, CIRCLE, {(0, 1): 0.2, (1, 2): 0.05},
                                               {(1, 1): 0.1})
        config = plain_config(samples=(0.0, 0.5, 1.0, 1.5, 2.0))
        sizes = calls(spla, "splu", key=lambda matrix: matrix.shape[0])
        states, _ = flows.sample_flow(state, config)
        assert sizes == [16 * 64] * 4
        phi, t0 = state.phi, 0.0
        for sample in states:
            if sample.t != t0:
                phi = ff.fd_heat_run(phi, state.psi, CIRCLE, (sample.t - t0,),
                                     config.fd_scheme)[0]
            np.testing.assert_array_equal(sample.phi, phi)
            t0 = sample.t

    def test_request_marches_as_one_chain_from_zero(self, calls):
        """A request's times march from phi(0) as one chain, samples among them.

        A chain factors once per distinct (steps, dt) of its intervals and
        chunk of fibers.  check_bperp_scaling's 513 nodes on [0, 2], 1/256
        apart, are one chain on the stepped route, where the 64 distinct
        64-point profiles are one chunk: one factorization (one march per
        node made 510).  Its end states 0 and 2 are a second chain, whose
        2000 steps take the dense route, 16 fibers per chunk: four more.
        Spans that are exact in floating point give each state bit for bit
        as a march of its own from the request's previous time.
        """
        base = ff.FiberGrid(1, (2.0 * math.pi,), (64,))
        state = ff.ProductState.from_harmonics(base, CIRCLE, {(0, 1): 0.2, (1, 2): 0.05},
                                               {(1, 1): 0.1})
        traj = ff.run_extrinsic_flow(state, plain_config(samples=(0.0, 1.0, 2.0)))
        scheme = traj.config.fd_scheme
        times = (0.125, 0.25, 0.375, 1.0, 1.5)
        phi, t0, expected = state.phi, 0.0, []
        for t in times:
            phi = ff.fd_heat_run(phi, state.psi, CIRCLE, (t - t0,), scheme)[0]
            expected.append(phi)
            t0 = t

        marches = calls(flows, "fd_heat_run",
                        key=lambda u0, psi, grid, times, scheme: np.asarray(times))
        factorizations = calls(spla, "splu")
        for got, want in zip(traj.at(times), expected, strict=True):
            np.testing.assert_array_equal(got.phi, want)
        assert [m.tolist() for m in marches] == [list(times)]
        marches.clear()
        factorizations.clear()
        checks.check_bperp_scaling(traj)   # FD fails it at second order (TestCheckerMatrix)
        assert [len(m) for m in marches] == [513, 2]
        keys = [{key for key in fdref._chain_steps(chain, scheme, state.psi, CIRCLE) if key}
                for chain in marches]
        assert [len(k) for k in keys] == [1, 1]
        assert len(factorizations) == 1 + 4

    def test_request_chain_holds_at_most_chain_bytes_of_states(self, calls, monkeypatch):
        """A request of more than flows._CHAIN_BYTES of states marches as chains of that many.

        Each chain starts from the last state of the one before, so with
        exact spans the states stay those of one chain.
        """
        state = self.fd_state()
        traj = ff.run_extrinsic_flow(state, plain_config(samples=(0.0, 1.0)))
        times = (0.125, 0.25, 0.375, 0.5, 1.5)
        whole = [s.phi for s in traj.at(times)]
        monkeypatch.setattr(flows, "_CHAIN_BYTES", 2 * state.phi.nbytes)
        marches = calls(flows, "fd_heat_run",
                        key=lambda u0, psi, grid, times, scheme: list(times))
        for got, want in zip(traj.at(times), whole, strict=True):
            np.testing.assert_array_equal(got.phi, want)
        assert marches == [[0.125, 0.25], [0.125, 0.25], [1.0]]

    def test_a_state_depends_on_its_request_alone(self, calls):
        """Runs that differ only in their samples give the same states, bit for bit.

        No sample anchors a request: each marches from phi(0).  The run
        marches once, its samples, and its diagnosis not at all.
        """
        state = ff.ProductState.from_harmonics(BASE4, CIRCLE, {(0, 1): 0.2}, {(1, 1): 0.1})
        marches = calls(flows, "fd_heat_run",
                        key=lambda u0, psi, grid, times, scheme: list(times))
        runs = []
        for samples in ((0.0, 0.5, 1.0), (0.0, 0.3, 1.0)):
            marches.clear()
            _, diagnose = flows.sample_flow(state, plain_config(t_end=1.0, samples=samples))
            assert marches == [list(samples)]
            runs.append(diagnose())
            assert marches == [list(samples)]
        for times in ((0.7,), (0.25, 0.7, 0.9)):
            first, second = ([s.phi for s in traj.at(times)] for traj in runs)
            for a, b in zip(first, second, strict=True):
                np.testing.assert_array_equal(a, b)

    def test_cache_reuse_is_consistent(self):
        state = self.fd_state()
        traj = ff.run_extrinsic_flow(state, plain_config(samples=(0.0, 0.5)))
        first = traj.evaluate(0.3).phi
        again = traj.evaluate(0.3).phi
        np.testing.assert_array_equal(first, again)
        direct = ff.fd_heat_run(state.phi, state.psi, CIRCLE, (0.3,),
                                ff.FdScheme())[0]
        np.testing.assert_array_equal(first, direct)

    def test_evaluate_is_independent_of_earlier_evaluations(self):
        state = ff.ProductState.from_harmonics(BASE8, CIRCLE, {(0, 1): 0.2, (1, 1): 0.1},
                                               {(1, 1): 0.1})
        config = plain_config()
        fresh = ff.run_extrinsic_flow(state, config).evaluate(1.2345).phi
        warmed = ff.run_extrinsic_flow(state, config)
        warmed.evaluate(1.0003)
        np.testing.assert_array_equal(warmed.evaluate(1.2345).phi, fresh)

    def test_request_starts_from_zero_or_previous_time(self):
        state = self.fd_state()
        traj = ff.run_extrinsic_flow(state, plain_config(samples=(0.0, 0.5)))
        scheme = traj.config.fd_scheme
        first, second, third = traj.at((0.3, 0.4, 0.7))
        np.testing.assert_array_equal(
            first.phi, ff.fd_heat_run(state.phi, state.psi, CIRCLE, (0.3,), scheme)[0])
        np.testing.assert_array_equal(
            second.phi, ff.fd_heat_run(first.phi, state.psi, CIRCLE, (0.4 - 0.3,), scheme)[0])
        np.testing.assert_array_equal(
            third.phi,
            ff.fd_heat_run(second.phi, state.psi, CIRCLE, (0.7 - 0.4,), scheme)[0])
        np.testing.assert_array_equal(
            traj.evaluate(0.7).phi,
            ff.fd_heat_run(state.phi, state.psi, CIRCLE, (0.7,), scheme)[0])

    def test_limit_is_weighted_fiber_average(self):
        state = self.fd_state()
        traj = ff.run_extrinsic_flow(state, plain_config(samples=(0.5,)))
        mean = geo.fiber_average(state, state.phi)
        np.testing.assert_allclose(
            traj.limit.phi,
            np.broadcast_to(mean.reshape(4, 1), state.shape), atol=1e-14)

    def test_prescribed_needs_fiber_constant_psi(self):
        state = self.fd_state()
        x = np.full((1,) + state.shape, 0.1)
        with pytest.raises(UnsupportedScenarioError):
            ff.run_extrinsic_flow(state, prescribed_config(x))


TORUS8 = ff.FiberGrid(2, (2.0 * math.pi, 2.0 * math.pi), (8, 8))


def p2_twisted_state(fiber=TORUS8, base=BASE4):
    """A p = 2 state whose psi varies along the fibers and over the base."""
    return ff.ProductState.from_harmonics(
        base, fiber, {(0, 1, 0): 0.2, (0, 1, 1): 0.1, (1, 3, 2): 0.05, (0, 0, 3): 0.1},
        {(1, 1, 0): 0.1, (0, 1, 1): (0.03, 0.02)})


def dense_p2_flow(state, t):
    """exp(t Lap_perp) phi0 per fiber from one eigh of the symmetrized dense operator.

    For p = 2, Lap_perp = exp(-2 psi) Lap; with c = exp(-2 psi),
    c^{1/2} (-Lap) c^{1/2} is symmetric and similar to -Lap_perp.  -Lap is
    the full complex FFT's symbol |k|^2, built here without ``fiber``.
    """
    fiber, size = state.fiber, math.prod(state.fiber.shape)
    k1, k2 = (2.0 * math.pi * np.fft.fftfreq(n, 1.0 / n) / side
              for n, side in zip(fiber.shape, fiber.sides))
    eye = np.eye(size).reshape((size,) + fiber.shape)
    images = np.fft.ifft2(np.fft.fft2(eye) * (k1[:, None] ** 2 + k2[None, :] ** 2))
    neg_lap = images.real.reshape(size, size).T
    out = np.empty(state.shape)
    for b in np.ndindex(state.base.shape):
        root = np.sqrt(np.exp(-2.0 * state.psi[b]).reshape(-1))
        lam, vectors = np.linalg.eigh(root[:, None] * neg_lap * root[None, :])
        u = state.phi[b].reshape(-1) / root
        out[b] = (root * (vectors @ (np.exp(-t * lam) * (vectors.T @ u)))).reshape(fiber.shape)
    return out


def p2_probe_state():
    """The p2 probe: n = 1, p = 2, base 8, fiber 32^2, psi twisting base and fiber."""
    return ff.ProductState.from_harmonics(
        BASE8, TORUS, {(0, 1, 0): (0.1, 0.02), (1, 0, 1): (0.03, 0.01), (0, 1, 1): 0.02},
        {(1, 0, 1): (0.08, 0.02), (0, 1, 0): 0.05})


class TestChebyshevPath:
    """Fiber-varying psi with p = 2: a Chebyshev series in exp(-2 psi) Lap, no march."""

    def rho(self, state):
        return float(np.max(state.exp_psi(-2))) * float(np.max(fb.symbols(state.fiber)[0]))

    @pytest.mark.parametrize("x", [0.0, 1e-3, 0.5, 10.0, 200.0, 2000.0, 1e5])
    def test_coefficients_are_scaled_bessel_values(self, x):
        """c_0 = ive(0, x), c_j = 2 (-1)^j ive(j, x), and the cut drops only the tail.

        The series stops where the rfft's coefficient falls to 2^-53, so a
        dropped coefficient is at most that plus the rfft's own error.
        """
        from scipy.special import ive

        coefficients = flows._chebyshev_coefficients(2.0 * x, 1.0)
        j = np.arange(len(coefficients) + 64)
        expected = np.where(j == 0, 1.0, 2.0) * (-1.0) ** j * ive(j, x)
        assert np.max(np.abs(coefficients - expected[:len(coefficients)])) <= 2.3e-16
        assert np.max(np.abs(expected[len(coefficients):])) <= 2.0 ** -52

    @pytest.mark.parametrize("t, tol", [(0.01, 2e-15), (0.3, 2e-15), (1.0, 2e-15),
                                        (10.0, 2e-15), (100.0, 1e-14)])
    def test_states_match_a_dense_eigh_reference(self, t, tol):
        """By t = 100 the reference's own fiber mean has drifted by 6.2e-15 (the series': 2.6e-16)."""
        state = p2_twisted_state()
        traj = ff.run_extrinsic_flow(state, plain_config())
        assert traj.fiber_rate is None
        np.testing.assert_allclose(traj.evaluate(t).phi, dense_p2_flow(state, t),
                                   rtol=0.0, atol=tol)

    def test_no_march_and_no_factorization(self, calls):
        marches = calls(flows, "fd_heat_run")
        factorizations = calls(spla, "splu")
        traj = ff.run_extrinsic_flow(p2_twisted_state(), plain_config())
        checks.run_checks(traj, ["monotonicity", "volume_ode", "bperp_scaling"])
        assert marches == [] and factorizations == []

    def test_a_state_depends_only_on_its_time(self):
        traj = ff.run_extrinsic_flow(p2_twisted_state(), plain_config())
        for got, sample in zip(traj.at(traj.sample_times), traj.states, strict=True):
            np.testing.assert_array_equal(got.phi, sample.phi)
        alone = traj.evaluate(0.7).phi
        np.testing.assert_array_equal(next(traj.at((0.7, 1.9))).phi, alone)
        np.testing.assert_array_equal(list(traj.at((0.1, 0.7)))[1].phi, alone)
        np.testing.assert_array_equal(traj.states[0].phi, traj.initial.phi)

    def test_fiber_mean_is_conserved_and_is_the_limit(self):
        state = p2_twisted_state()
        traj = ff.run_extrinsic_flow(state, plain_config())
        mean = geo.fiber_average(state, state.phi)
        for sample in traj.states + (traj.evaluate(50.0),):
            np.testing.assert_allclose(geo.fiber_average(sample, sample.phi), mean,
                                       rtol=0.0, atol=1e-15)
        np.testing.assert_array_equal(
            traj.limit.phi, np.broadcast_to(mean.reshape(4, 1, 1), state.shape))

    def test_normalized_sums_build_no_node_state(self, calls):
        """The normalized rate integral comes from the volumes at the end nodes alone.

        R = (2/n) log(vol_plain(1) / vol_plain(0)) is exact in time, so none
        of the 513 nodes is projected and no per-node r is taken (the sum of
        per-node r made 513 calls of each).  TestBperpScaling's
        ``test_summed_phi_matches_per_node_speeds`` holds the exponent to the
        per-node rates.
        """
        traj = ff.run_extrinsic_flow(p2_twisted_state(), plain_config(variant="normalized"))
        nodes = np.linspace(0.0, 1.0, 513)
        weights = checks._simpson_weights(1.0, 513)
        made = calls(flows, "normalization_rate", "project_unit_volume")
        phi_sum, rate_sum = traj.weighted_sums(nodes, weights)
        assert made == [] and rate_sum < 0.0
        plain = ff.run_extrinsic_flow(traj.initial, plain_config())
        np.testing.assert_array_equal(phi_sum, plain.weighted_sums(nodes, weights)[0])

    def test_weighted_sums_take_one_series(self, calls):
        """One recurrence whose coefficients are sum_k w_k c_j(t_k) gives sum_k w_k phi(t_k)."""
        traj = ff.run_extrinsic_flow(p2_twisted_state(), plain_config())
        times = np.linspace(0.0, 1.0, 9)
        weights = np.random.default_rng(3).random(9)
        series = calls(flows, "_chebyshev_sums")
        phi_sum, rate_sum = traj.weighted_sums(times, weights)
        assert len(series) == 1 and rate_sum == 0.0
        per_time = sum(w * s.phi for w, s in zip(weights, traj.at(times)))
        np.testing.assert_allclose(phi_sum, per_time, rtol=0.0, atol=1e-14)

    def test_too_small_rho_is_refused_not_grown(self):
        """With rho half the bound, S = 2A/rho - I reaches 3 and T_j grows as cosh(1.76 j)."""
        state = p2_twisted_state()
        rho = self.rho(state)
        coefficients = [flows._chebyshev_coefficients(1.0, rho)]
        np.testing.assert_allclose(flows._chebyshev_sums(state, rho, coefficients)[0],
                                   dense_p2_flow(state, 1.0), rtol=0.0, atol=2e-15)
        small = [flows._chebyshev_coefficients(1.0, 0.5 * rho)]
        with pytest.raises(SolveError, match="does not bound the leaf Laplacian"):
            flows._chebyshev_sums(state, 0.5 * rho, small)

    def test_more_than_max_terms_refused_naming_t(self):
        traj = ff.run_extrinsic_flow(p2_twisted_state(), plain_config())
        with pytest.raises(InputError, match=r"t = 1e\+09 takes up to .* MAX_TERMS = 32768"):
            traj.evaluate(1e9)
        rho = self.rho(traj.initial)
        longest = 2.0 * ((flows.MAX_TERMS - 16.0) / 9.0) ** 2 / rho
        assert len(flows._chebyshev_coefficients(0.999 * longest, rho)) <= flows.MAX_TERMS
        with pytest.raises(InputError, match="MAX_TERMS"):
            flows._chebyshev_coefficients(1.001 * longest, rho)

    def test_flat_operator_fault_is_caught_on_the_p2_probe(self, monkeypatch):
        """The series built from psi = 0 fails the flow-law checks; the correct run passes all.

        The fault evolves phi by the flat heat equation, which the
        per-state identities cannot see.
        """
        config = plain_config(t_end=1.0, samples=(0.0, 0.25, 0.5, 0.75, 1.0))
        names = ["divergence_identity", "preservation", "volume_ode", "monotonicity"]
        state = p2_probe_state()
        correct = checks.run_checks(ff.run_extrinsic_flow(state, config), names)
        assert all(r.passed for r in correct), [str(r) for r in correct]
        series = flows._chebyshev_sums

        def flat(initial, rho, rows):
            flat_state = ff.ProductState(initial.base, initial.fiber, initial.phi,
                                         np.zeros(initial.shape))
            return series(flat_state, float(np.max(fb.symbols(initial.fiber)[0])), rows)

        monkeypatch.setattr(flows, "_chebyshev_sums", flat)
        mutant = checks.run_checks(ff.run_extrinsic_flow(state, config), names)
        failed = {r.name for r in mutant if not r.passed}
        assert failed & {"monotonicity", "volume_ode"}, [str(r) for r in mutant]
        assert all(r.passed for r in mutant if r.name == "divergence_identity")
