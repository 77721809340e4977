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
from scipy.integrate import quad

import foliflow as ff
from foliflow import fiber as fb
from foliflow import flows
from foliflow import geometry as geo
from foliflow.errors import (HypothesisViolationError, InputError,
                             UnsupportedScenarioError)

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
        assert traj.exact_path
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

    def test_limit_is_flat_product(self):
        traj = ff.run_extrinsic_flow(single_mode_state(), plain_config())
        assert math.isinf(traj.limit.t)
        assert np.max(np.abs(traj.limit.phi)) < 1e-14
        assert np.max(np.abs(ff.twisted_mean_curvature(traj.limit))) < 1e-14

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
        np.testing.assert_allclose(dphi, geo.laplacian_perp(mid.phi, mid),
                                   atol=1e-8)

    def test_base_varying_psi_stays_exact(self):
        state = ff.ProductState.from_harmonics(BASE4, CIRCLE, {(0, 1): 0.2},
                                               {(1, 0): 0.3})
        traj = ff.run_extrinsic_flow(state, plain_config())
        assert traj.exact_path
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

    def test_umbilical_residual_is_stated(self):
        record = ff.run_extrinsic_flow(single_mode_state(), plain_config()).diagnostics[0]
        assert "umbilical_residual" not in {f.name for f in dataclasses.fields(record)}
        assert record.umbilical_residual == 0.0
        with pytest.raises(AttributeError):
            record.umbilical_residual = 1.0

    def test_diagnose_takes_one_sup_norm_per_distribution(self, monkeypatch):
        """classify measures harmonicity only; umbilicity is not measured."""
        state = ff.ProductState.from_harmonics(BASE4, TORUS, {(0, 1, 2): 0.1},
                                               {(1, 0, 0): 0.1})
        calls = []
        for name in ("h_norm_sup", "hperp_norm_sup"):
            original = getattr(geo, name)

            def counting(state, field, name=name, original=original):
                calls.append(name)
                return original(state, field)

            monkeypatch.setattr(geo, name, counting)
        flows._diagnose(state, np.zeros((2,) + state.shape), "plain")
        assert sorted(calls) == ["h_norm_sup", "hperp_norm_sup"]

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
        div_h = geo.div_perp(ff.twisted_mean_curvature(state), state)
        assert flows.normalization_rate(state, div_h) == flows.normalization_rate(state)

    def test_target_field_is_zero_unless_prescribed(self):
        state = single_mode_state()
        for run in (ff.run_extrinsic_flow, ff.run_normalized):
            traj = run(state, plain_config())
            assert traj.x.shape == (1,) + state.shape
            assert not np.any(traj.x)


class TestNormalizedFlow:
    def test_unit_volume_at_all_samples(self):
        traj = ff.run_normalized(single_mode_state(), plain_config())
        for state in traj.states + (traj.limit,):
            assert geo.volume(state) == pytest.approx(1.0, abs=1e-12)

    def test_rescaling_identity_with_plain(self):
        """Normalized state = plain state rescaled to unit volume."""
        state = single_mode_state()
        plain = ff.run_extrinsic_flow(state, plain_config())
        norm = ff.run_normalized(state, plain_config())
        for t in (0.0, 1.0, 2.0):
            ps = plain.evaluate(t)
            shift = math.log(geo.volume(ps)) / ps.n
            np.testing.assert_allclose(norm.evaluate(t).phi, ps.phi - shift,
                                       atol=1e-13)

    def test_rate_is_nonpositive(self):
        traj = ff.run_normalized(single_mode_state(), plain_config())
        for record in traj.diagnostics:
            assert record.rate <= 1e-12

    def test_normalized_pde_residual(self):
        """d/dt phi = Lap phi - r/2 for the unit-volume flow."""
        traj = ff.run_normalized(single_mode_state(), plain_config())
        h = 1e-4
        mid = traj.evaluate(0.5)
        dphi = (traj.evaluate(0.5 + h).phi - traj.evaluate(0.5 - h).phi) / (2 * h)
        r = flows.normalization_rate(mid)
        np.testing.assert_allclose(dphi, geo.laplacian_perp(mid.phi, mid) - r / 2.0,
                                   atol=1e-8)

    def test_project_unit_volume(self):
        state = single_mode_state()
        projected = flows.project_unit_volume(state)
        assert geo.volume(projected) == pytest.approx(1.0, abs=1e-13)
        again = flows.project_unit_volume(projected)
        np.testing.assert_allclose(again.phi, projected.phi, atol=1e-14)


class TestPrescribedFlow:
    def test_constant_target_cancels_harmonic_part(self):
        """X = 0.1 d/dy exactly absorbs a 0.1 d/dy harmonic remainder."""
        state = ff.ProductState.from_harmonics(BASE4, CIRCLE,
                                               {(0, 1): 0.2}, None)
        x = np.full((1,) + CIRCLE.shape, 0.1)
        traj = ff.run_prescribed(state, x, plain_config())
        h_inf = ff.twisted_mean_curvature(traj.limit)
        assert np.max(np.abs(h_inf)) < 1e-13
        x_full = np.full((1,) + state.shape, 0.1)
        drive = geo.div_perp(h_inf - x_full, traj.limit)
        assert np.max(np.abs(drive)) < 1e-12

    def test_limit_theta_is_fiber_mean(self):
        state = single_mode_state()
        y = CIRCLE.coordinates()[0]
        x = (0.1 + 0.05 * np.cos(2.0 * y))[None, :]
        traj = ff.run_prescribed(state, x, plain_config())
        h0 = ff.twisted_mean_curvature(state)
        x_full = traj.x
        np.testing.assert_array_equal(x_full, np.broadcast_to(x[:, None], (1,) + state.shape))
        expected = x_full + np.mean(h0 - x_full, axis=-1, keepdims=True)
        np.testing.assert_allclose(ff.twisted_mean_curvature(traj.limit),
                                   expected, atol=1e-12)

    def test_target_equal_to_h0_is_static(self):
        state = single_mode_state()
        x = ff.twisted_mean_curvature(state)
        traj = ff.run_prescribed(state, x, plain_config())
        assert traj.converged_time == 0.0
        np.testing.assert_array_equal(traj.evaluate(1.7).phi, state.phi)

    def test_nonclosed_target_rejected_p2(self):
        state = ff.ProductState.from_harmonics(BASE4, TORUS, {(0, 1, 2): 0.1})
        y1, y2 = np.meshgrid(*TORUS.coordinates(), indexing="ij")
        x = np.stack([np.sin(y2), np.zeros(TORUS.shape)])
        config = ff.FlowConfig(t_end=1.0, samples=(1.0,))
        with pytest.raises(HypothesisViolationError):
            ff.run_prescribed(state, x, config)

    def test_bad_x_shape_rejected(self):
        with pytest.raises(InputError):
            ff.run_prescribed(single_mode_state(), np.zeros((1, 32)),
                              plain_config())


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
        h = ff.twisted_mean_curvature(state)
        np.testing.assert_array_equal(ff.tau_of_state(state), np.exp(state.psi) * h[0])
        # closed form: H = -n exp(-2 psi) phi_y, so tau = -exp(-psi) phi_y
        x, y = np.meshgrid(BASE4.coordinates()[0], CIRCLE.coordinates()[0], indexing="ij")
        phi_y = -0.2 * np.sin(y) - 0.05 * np.sin(x + y)
        psi = 0.1 * np.cos(y) + 0.05 * np.cos(x + 2.0 * y)
        np.testing.assert_allclose(ff.tau_of_state(state), -np.exp(-psi) * phi_y, atol=1e-13)


class TestTrajectoryAt:
    def traj(self, path):
        psi = {(0, 1): 0.1} if path == "fd" else None
        state = ff.ProductState.from_harmonics(BASE4, CIRCLE, {(0, 1): 0.2}, psi)
        return ff.run_extrinsic_flow(state, plain_config())

    @pytest.mark.parametrize("path", ["exact", "fd"])
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


class TestFiniteDifferencePath:
    def fd_state(self):
        return ff.ProductState.from_harmonics(BASE4, CIRCLE, {(0, 1): 0.2},
                                              {(0, 1): 0.1})

    def test_engine_matches_direct_march(self):
        state = self.fd_state()
        config = plain_config(samples=(0.0, 0.5))
        traj = ff.run_extrinsic_flow(state, config)
        assert not traj.exact_path
        direct = ff.fd_heat_run(state.phi, state.psi[0], CIRCLE, 0.5,
                                config.fd_scheme)
        np.testing.assert_array_equal(traj.states[1].phi, direct)

    def test_cache_reuse_is_consistent(self):
        state = self.fd_state()
        traj = ff.run_extrinsic_flow(state, plain_config(samples=(0.0, 0.5)))
        first = traj.evaluate(0.3).phi
        again = traj.evaluate(0.3).phi
        np.testing.assert_array_equal(first, again)
        direct = ff.fd_heat_run(state.phi, state.psi[0], CIRCLE, 0.3,
                                ff.FdScheme())
        np.testing.assert_array_equal(first, direct)

    def test_evaluate_is_independent_of_earlier_evaluations(self):
        state = ff.ProductState.from_harmonics(BASE8, CIRCLE, {(0, 1): 0.2, (1, 1): 0.1},
                                               {(1, 1): 0.1})
        config = plain_config()
        fresh = ff.run_extrinsic_flow(state, config).evaluate(1.2345).phi
        warmed = ff.run_extrinsic_flow(state, config)
        warmed.evaluate(1.0003)
        np.testing.assert_array_equal(warmed.evaluate(1.2345).phi, fresh)

    def test_request_starts_from_latest_sample_or_previous_time(self):
        state = self.fd_state()
        traj = ff.run_extrinsic_flow(state, plain_config(samples=(0.0, 0.5)))
        scheme = traj.config.fd_scheme
        first, second, after_sample = traj.at((0.3, 0.4, 0.7))
        np.testing.assert_array_equal(first.phi, traj.evaluate(0.3).phi)
        np.testing.assert_array_equal(
            second.phi, ff.fd_heat_run(first.phi, state.psi[0], CIRCLE, 0.4 - 0.3, scheme))
        np.testing.assert_array_equal(
            after_sample.phi,
            ff.fd_heat_run(traj.states[1].phi, state.psi[0], CIRCLE, 0.7 - 0.5, scheme))

    def test_limit_is_weighted_fiber_average(self):
        state = self.fd_state()
        traj = ff.run_extrinsic_flow(state, plain_config(samples=(0.5,)))
        mean = geo.fiber_average(state, state.phi)
        np.testing.assert_allclose(
            traj.limit.phi,
            np.broadcast_to(mean.reshape(4, 1), state.shape), atol=1e-14)

    def test_prescribed_needs_exact_path(self):
        x = np.full((1,) + CIRCLE.shape, 0.1)
        with pytest.raises(UnsupportedScenarioError):
            ff.run_prescribed(self.fd_state(), x, plain_config())
