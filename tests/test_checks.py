"""Tests for the invariant checkers.

Each checker is exercised on a scenario where the checked identity has a
hand-computable outcome: the single-harmonic flow (everything in closed
form), a base-twisted run with a genuinely nonzero normal shape operator,
and degenerate or unsupported inputs that must raise instead of
reporting.  Quadrature oracles come from scipy.integrate.quad.
"""

import dataclasses
import math
import tracemalloc

import numpy as np
import pytest
from scipy.integrate import quad, simpson

import foliflow as ff
from foliflow import checks, flows
from foliflow import fiber as fb
from foliflow import geometry as geo
from foliflow.errors import (DegenerateTrajectoryError, InputError,
                             UnsupportedScenarioError)

BASE4 = ff.FiberGrid(1, (2.0 * math.pi,), (4,))
BASE8 = ff.FiberGrid(1, (2.0 * math.pi,), (8,))
CIRCLE = ff.FiberGrid(1, (2.0 * math.pi,), (64,))
TORUS = ff.FiberGrid(2, (2.0 * math.pi, 2.0 * math.pi), (32, 32))


def single_mode_traj(samples=(0.0, 0.5, 1.0, 2.0), variant="plain"):
    state = ff.ProductState.from_harmonics(BASE4, CIRCLE, {(0, 1): 0.2})
    config = ff.FlowConfig(t_end=max(samples), samples=samples,
                           variant=variant)
    return ff.run_extrinsic_flow(state, config)


def counting_at(traj):
    """(traj whose ``at`` counts the times requested, the one-entry time counter)."""
    calls = [0]

    def at(times):
        times = list(times)
        calls[0] += len(times)
        return traj.at(times)

    return dataclasses.replace(traj, at=at), calls


def counting_sums(traj):
    """(traj whose ``weighted_sums`` counts its calls, the one-entry call counter)."""
    calls = [0]

    def weighted_sums(times, weights):
        calls[0] += 1
        return traj.weighted_sums(times, weights)

    return dataclasses.replace(traj, weighted_sums=weighted_sums), calls


def fd_path_traj(variant="plain"):
    state = ff.ProductState.from_harmonics(BASE4, CIRCLE, {(0, 1): 0.2},
                                           {(0, 1): 0.1})
    config = ff.FlowConfig(t_end=1.0, samples=(0.0, 0.5, 1.0), variant=variant)
    return ff.run_extrinsic_flow(state, config)


class TestCheckReport:
    def test_boundary_residual_passes(self):
        report = checks.CheckReport("x", 1e-8, 1e-8, 0.0)
        assert report.passed

    def test_exceeding_residual_fails(self):
        report = checks.CheckReport("x", 2e-8, 1e-8, 0.0)
        assert not report.passed
        assert "FAIL" in str(report)

    def test_str_mentions_name_and_pass(self):
        text = str(checks.CheckReport("volume_ode", 0.0, 1e-4, 1.5))
        assert "volume_ode" in text and "pass" in text


class TestDivergenceIdentity:
    def test_product_state_trivial(self):
        state = ff.ProductState.from_harmonics(BASE4, CIRCLE, {})
        lhs, rhs = checks.divergence_identity_sides(state)
        assert lhs == 0.0 and rhs == 0.0

    def test_sides_match_quadrature(self):
        """Both sides equal int |H|^2 dvol = 2 pi int 0.04 sin^2 e^{0.2 cos}."""
        state = ff.ProductState.from_harmonics(BASE4, CIRCLE, {(0, 1): 0.2})
        lhs, rhs = checks.divergence_identity_sides(state)
        expected = 2.0 * math.pi * quad(
            lambda y: 0.04 * math.sin(y) ** 2 * math.exp(0.2 * math.cos(y)),
            0.0, 2.0 * math.pi)[0]
        assert lhs == pytest.approx(expected, rel=1e-12)
        assert rhs == pytest.approx(expected, rel=1e-12)
        assert checks.check_divergence_identity(state).passed

    def test_gradient_test_field(self):
        state = ff.ProductState.from_harmonics(BASE4, CIRCLE, {(0, 1): 0.2},
                                               {(0, 1): 0.1})
        f = fb.harmonic_field((BASE4, CIRCLE), {(0, 2): (0.0, 0.5)})
        xi = geo.grad_perp(f, state)
        report = checks.check_divergence_identity(state, xi)
        assert report.residual < 1e-12

    def test_xi_shape_checked(self):
        state = ff.ProductState.from_harmonics(BASE4, CIRCLE, {})
        with pytest.raises(InputError):
            checks.check_divergence_identity(state, np.zeros((2,) + state.shape))


class TestCodim1Identity:
    def test_reeb_default_probe(self):
        y = CIRCLE.coordinates()[0]
        tau0 = np.broadcast_to(np.cos(y), (8, 64))
        traj = ff.run_codim1(tau0, BASE8, CIRCLE,
                             ff.FlowConfig(t_end=1.0, samples=(0.0, 1.0)))
        for state in traj.states:
            assert checks.check_codim1_identity(state).residual < 1e-13

    def test_tau_as_test_function(self):
        # f = tau turns the identity into int N(tau) = int tau^2 > 0
        y = CIRCLE.coordinates()[0]
        tau0 = np.broadcast_to(np.cos(y), (8, 64))
        traj = ff.run_codim1(tau0, BASE8, CIRCLE,
                             ff.FlowConfig(t_end=1.0, samples=(0.5,)))
        state = traj.states[0]
        tau = ff.tau_of_state(state)
        assert checks.check_codim1_identity(state, tau).residual < 1e-12
        assert geo.integrate(state, tau * tau) > 0.0

    def test_holds_with_fiber_varying_psi(self):
        state = ff.ProductState.from_harmonics(BASE4, CIRCLE, {(0, 1): 0.2},
                                               {(0, 1): 0.1})
        f = fb.harmonic_field((BASE4, CIRCLE), {(0, 1): (0.0, 0.7)})
        assert checks.check_codim1_identity(state, f).residual < 1e-12

    def test_p2_rejected(self):
        state = ff.ProductState.from_harmonics(BASE4, TORUS, {})
        with pytest.raises(InputError):
            checks.check_codim1_identity(state)

    def test_f_shape_checked(self):
        state = ff.ProductState.from_harmonics(BASE4, CIRCLE, {})
        with pytest.raises(InputError):
            checks.check_codim1_identity(state, np.zeros(64))


class TestHarmonicRigidity:
    def test_constant_function_trivial(self):
        state = ff.ProductState.from_harmonics(BASE4, CIRCLE, {(0, 1): 0.2})
        f = np.full(state.shape, 2.5)
        assert checks.check_harmonic_function_rigidity(state, f).residual == 0.0

    def test_flat_product_hand_identity(self):
        # H = 0, w = 1: d/dy(sin cos) + sin^2 = cos^2 pointwise
        state = ff.ProductState.from_harmonics(BASE4, CIRCLE, {})
        y = CIRCLE.coordinates()[0]
        f = np.ascontiguousarray(np.broadcast_to(np.sin(y), state.shape))
        assert checks.check_harmonic_function_rigidity(state, f).residual < 1e-13

    def test_twisted_state_with_psi(self):
        state = ff.ProductState.from_harmonics(BASE4, CIRCLE, {(0, 1): 0.2},
                                               {(0, 1): 0.1})
        f = fb.harmonic_field((BASE4, CIRCLE), {(0, 2): (0.4, 0.1)})
        assert checks.check_harmonic_function_rigidity(state, f).residual < 1e-10

    def test_shape_checked(self):
        state = ff.ProductState.from_harmonics(BASE4, CIRCLE, {})
        with pytest.raises(InputError):
            checks.check_harmonic_function_rigidity(state, np.zeros(64))


class TestPreservation:
    def test_twisted_run_keeps_structure(self):
        reports = checks.check_preservation(single_mode_traj())
        assert {r.name for r in reports} == {"umbilical", "closed_theta",
                                             "normal_flags"}
        assert all(r.passed for r in reports)

    def test_needs_three_states(self):
        traj = single_mode_traj(samples=(0.0, 1.0))
        with pytest.raises(InputError):
            checks.check_preservation(traj)


class TestMonotonicity:
    def test_single_mode_dissipation(self):
        reports = checks.check_monotonicity(single_mode_traj())
        assert len(reports) == 4
        assert all(r.passed for r in reports)

    def test_prescribed_driving_form(self):
        state = ff.ProductState.from_harmonics(BASE4, CIRCLE, {(0, 1): 0.2})
        x = np.full((1,) + state.shape, 0.1)
        config = ff.FlowConfig(t_end=1.0, samples=(0.0, 0.5, 1.0), variant="prescribed",
                               x_field=x)
        traj = ff.run_extrinsic_flow(state, config)
        assert all(r.passed for r in checks.check_monotonicity(traj))


class TestVolumeOde:
    def test_plain_flow(self):
        report = checks.check_volume_ode(single_mode_traj())
        assert report.passed and report.residual < 1e-4

    def test_normalized_flow_both_sides_vanish(self):
        report = checks.check_volume_ode(single_mode_traj(variant="normalized"))
        assert report.passed

    def test_explicit_sample_time(self):
        report = checks.check_volume_ode(single_mode_traj(), t=1.0)
        assert report.sample_time == 1.0 and report.passed

    def test_time_before_one_step_refused(self):
        # the central difference would evaluate the trajectory at t - VOLUME_ODE_STEP < 0
        with pytest.raises(InputError, match=r"volume_ode.*VOLUME_ODE_STEP.*\bt = 0\b"):
            checks.check_volume_ode(single_mode_traj(), t=0.0)

    def test_short_run_refused_naming_t_end(self):
        traj = single_mode_traj(samples=(0.0, 0.0015))
        with pytest.raises(InputError, match=r"volume_ode.*VOLUME_ODE_STEP.*t_end = 0.0015"):
            checks.check_volume_ode(traj)

    def test_fd_residual_ignores_checkers_run_before(self):
        alone = checks.check_volume_ode(fd_path_traj())
        traj = fd_path_traj()
        checks.check_monotonicity(traj)
        assert checks.check_volume_ode(traj).residual == alone.residual

    @pytest.mark.parametrize("t", [math.inf, math.nan])
    def test_non_finite_time_refused_before_evaluation(self, t):
        traj, calls = counting_at(single_mode_traj())
        with pytest.raises(InputError, match=rf"volume_ode needs a finite t, got t = {t}"):
            checks.check_volume_ode(traj, t=t)
        assert calls == [0]

    def test_degenerate_volume_refused(self):
        """States whose volume underflows to 0 would give 0 = 0 and a pass."""
        traj = single_mode_traj()

        def at(times):
            return (s.replace_phi(s.phi - 800.0, s.t) for s in traj.at(times))

        with pytest.raises(DegenerateTrajectoryError, match="is 0, not positive and finite"):
            checks.check_volume_ode(dataclasses.replace(traj, at=at))


BPERP_PATHS = {
    # psi = 0.1 cos x varies over the base only on the exact paths
    "exact-p1": (ff.FiberGrid(1, (2.0 * math.pi,), (64,)), {(0, 1): 0.2}, {(1, 0): 0.1}),
    "exact-p2": (TORUS, {(0, 1, 0): 0.2, (0, 0, 1): 0.1}, {(1, 0, 0): 0.1}),
    "fd-p1": (ff.FiberGrid(1, (2.0 * math.pi,), (32,)), {(0, 1): 0.2}, {(1, 1): 0.1}),
}


def bperp_cross_form_traj(path, variant):
    fiber, phi0, psi = BPERP_PATHS[path]
    state = ff.ProductState.from_harmonics(BASE4, fiber, phi0, psi)
    x = None
    if variant == "prescribed":
        y = np.linspace(0.0, 2.0 * math.pi, fiber.shape[0], endpoint=False)
        x = np.broadcast_to(0.1 + 0.05 * np.cos(2.0 * y), (1,) + state.shape)
    config = ff.FlowConfig(t_end=1.0, samples=(0.0, 0.5, 1.0), variant=variant, x_field=x)
    return ff.run_extrinsic_flow(state, config)


class TestBperpScaling:
    def base_twisted_traj(self, variant="plain"):
        # psi = 0.1 cos x is fiber-constant but bends the base distribution
        state = ff.ProductState.from_harmonics(
            BASE4, CIRCLE, {(0, 1): 0.2}, {(1, 0): 0.1})
        config = ff.FlowConfig(t_end=1.0,
                               samples=(0.0, 0.5, 1.0), variant=variant)
        return ff.run_extrinsic_flow(state, config)

    def test_nonzero_shape_coefficient_scales(self):
        traj = self.base_twisted_traj()
        b0 = geo.second_fundamental(traj.initial).bperp_coeff
        assert np.max(np.abs(b0)) > 0.05
        report = checks.check_bperp_scaling(traj)
        assert report.passed and report.residual < 1e-8

    def test_normalized_variant(self):
        report = checks.check_bperp_scaling(self.base_twisted_traj("normalized"))
        assert report.passed

    def test_residual_is_relative_to_sup_bperp(self):
        """Unit volume scales b_perp up to ~182; the residual stays at round-off."""
        traj = self.base_twisted_traj("normalized")
        bt = geo.second_fundamental(traj.evaluate(1.0)).bperp_coeff
        assert np.max(np.abs(bt)) > 100.0
        assert checks.check_bperp_scaling(traj).residual < 1e-12

    @pytest.mark.parametrize("variant", ["plain", "normalized"])
    def test_scaled_exponent_fails(self, monkeypatch, variant):
        exponent = checks._bperp_exponent
        monkeypatch.setattr(checks, "_bperp_exponent",
                            lambda *args: exponent(*args) * (1.0 + 1e-6))
        assert not checks.check_bperp_scaling(self.base_twisted_traj(variant)).passed

    @pytest.mark.parametrize("variant, t_end", [("plain", 60.0), ("normalized", 30.0)])
    def test_unresolved_decay_refused(self, variant, t_end):
        """Past t ~ 30 the 513 nodes no longer follow the decay (residual 2.6e-8 and up)."""
        state = ff.ProductState.from_harmonics(
            BASE4, ff.FiberGrid(1, (2.0 * math.pi,), (32,)), {(0, 1): 0.2}, {(1, 0): 0.1})
        traj = ff.run_extrinsic_flow(
            state, ff.FlowConfig(t_end=t_end, samples=(0.0, 1.0), variant=variant))
        with pytest.raises(DegenerateTrajectoryError, match=r"error estimate .* exceeds 1.0e-08"):
            checks.check_bperp_scaling(traj)
        assert checks.check_bperp_scaling(traj, t=10.0).passed

    def test_error_estimate_needs_every_other_node_to_be_a_rule(self):
        assert checks.check_bperp_scaling(self.base_twisted_traj(), quad_nodes=129).passed
        with pytest.raises(InputError, match="quad_nodes must be 1 mod 4, got 131"):
            checks.check_bperp_scaling(self.base_twisted_traj(), quad_nodes=131)

    def test_rejects_nonpositive_time(self):
        with pytest.raises(InputError):
            checks.check_bperp_scaling(self.base_twisted_traj(), t=0.0)

    @pytest.mark.parametrize("nodes", [3, 5, 17, 513])
    def test_streamed_simpson_matches_scipy(self, nodes):
        t = 1.7
        taus = np.linspace(0.0, t, nodes)
        field = 1.0 + np.random.default_rng(nodes).random((4, 64))
        samples = [field * (1.5 + np.sin(3.0 * tau)) for tau in taus]
        streamed = np.zeros_like(field)
        for weight, sample in zip(checks._simpson_weights(t, nodes), samples):
            streamed += weight * sample
        expected = simpson(np.stack(samples), x=taus, axis=0)
        np.testing.assert_allclose(streamed, expected, rtol=1e-14, atol=0.0)

    @pytest.mark.parametrize("nodes", [0, 1, 2, 4, 512, 7.5, 513.0, True])
    def test_even_or_too_few_nodes_rejected(self, nodes):
        with pytest.raises(InputError, match=rf"odd node count >= 3, got {nodes}$"):
            checks.check_bperp_scaling(self.base_twisted_traj(), quad_nodes=nodes)

    @pytest.mark.parametrize("t", [math.inf, math.nan])
    def test_non_finite_time_refused_before_evaluation(self, t):
        traj, calls = counting_at(self.base_twisted_traj())
        with pytest.raises(InputError, match=rf"bperp_scaling needs a finite t, got t = {t}"):
            checks.check_bperp_scaling(traj, t=t)
        assert calls == [0]

    def test_matches_stacked_quadrature(self):
        """The node sums agree with a stacked scipy Simpson rule.

        The check sums phi over the nodes and removes the fiber mean before
        it differentiates once, so the demeaned sum must match the stacked
        rule.  Under the normalized variant the exact path takes the
        integral of r in closed form, the limit of its Simpson sums: the
        gap shrinks at fourth order (1.0e-10, 6.3e-12 and 2.4e-14 at 65,
        129 and 513 nodes).
        """
        nodes = np.linspace(0.0, 1.0, 65)
        for variant in ("plain", "normalized"):
            traj = self.base_twisted_traj(variant)
            states = [traj.evaluate(float(tau)) for tau in nodes]
            axes = traj.initial.fiber_axes
            demeaned = [s.phi - s.phi.mean(axis=axes, keepdims=True) for s in states]
            phi_sum, rate_sum, weight_sum = checks._bperp_node_sums(traj, 1.0, 65)
            np.testing.assert_allclose(
                phi_sum, simpson(np.stack(demeaned), x=nodes, axis=0), rtol=0.0, atol=1e-14)
            if variant == "normalized":
                gaps = {}
                for count in (65, 129, 513):
                    taus = np.linspace(0.0, 1.0, count)
                    rates = [ff.normalization_rate(s) for s in traj.at(taus)]
                    gaps[count] = abs(rate_sum - simpson(rates, x=taus))
                assert gaps[513] <= 1e-13
                assert gaps[65] >= 12.0 * gaps[129]
            else:
                assert rate_sum == 0.0
            assert weight_sum == pytest.approx(1.0, rel=0.0, abs=1e-14)

    @pytest.mark.parametrize("path, variant", [
        ("exact-p1", "plain"), ("exact-p1", "normalized"), ("exact-p1", "prescribed"),
        ("exact-p2", "plain"), ("exact-p2", "normalized"),
        ("fd-p1", "plain"), ("fd-p1", "normalized"),
    ])
    def test_summed_phi_matches_per_node_speeds(self, path, variant):
        """One speed applied to the summed phi equals the Simpson sum of per-node speeds.

        The reference writes out s = -(2/n) Div_perp(H - X) - r at each of
        the 513 nodes.  Summing phi without removing each node's fiber mean
        moves the normalized exact-p1 exponent by 3.8e-12.
        """
        traj = bperp_cross_form_traj(path, variant)
        nodes = np.linspace(0.0, 1.0, 513)
        reference = np.zeros(traj.initial.shape)
        for state, weight in zip(traj.at(nodes), checks._simpson_weights(1.0, 513)):
            driving = geo.div_perp(geo.twisted_mean_curvature(state) - traj.x, state)
            speed = -(2.0 / state.n) * driving
            if variant == "normalized":
                speed = speed - ff.normalization_rate(state)
            reference -= weight * speed
        exponent = checks._bperp_exponent(traj, 1.0, 513)
        assert np.max(np.abs(reference)) > 0.2
        assert np.max(np.abs(exponent - reference)) <= 1e-12

    def test_prescribed_variant(self):
        assert checks.check_bperp_scaling(bperp_cross_form_traj("exact-p1", "prescribed")).passed

    def test_fd_run_retains_no_node_states(self):
        """No node state (8 KB each on base 16 x 64 points) outlives the check.

        129 nodes keep the traced run short; kept nodes would hold 1 MB.
        """
        state = ff.ProductState.from_harmonics(
            ff.FiberGrid(1, (2.0 * math.pi,), (16,)), CIRCLE,
            {(0, 1): 0.2, (1, 1): 0.1}, {(0, 1): 0.1})
        traj = ff.run_extrinsic_flow(state, ff.FlowConfig(
            t_end=1.0, samples=(0.0, 0.25, 0.5, 0.75, 1.0)))
        tracemalloc.start()
        try:
            before = tracemalloc.get_traced_memory()[0]
            checks.check_bperp_scaling(traj, quad_nodes=129)
            retained = tracemalloc.get_traced_memory()[0] - before
        finally:
            tracemalloc.stop()
        assert retained < 0.5 * 2 ** 20

    def test_speed_operator_applied_once(self, monkeypatch):
        """On the exact path no node state is built and r is never evaluated.

        The speed operator runs once per Simpson rule: on the 513 nodes and,
        for the error estimate, on every other node.
        """
        div_calls, rate_calls = [], []
        div_perp = geo.div_perp
        normalization_rate = flows.normalization_rate

        def counting_div_perp(xi, state):
            div_calls.append(state.t)
            return div_perp(xi, state)

        def counting_rate(state, div_h=None):
            rate_calls.append(state.t)
            return normalization_rate(state, div_h)

        runs = []
        for variant in ("plain", "normalized"):
            traj, calls = counting_at(self.base_twisted_traj(variant))
            runs.append(counting_sums(traj) + (calls,))
        monkeypatch.setattr(geo, "div_perp", counting_div_perp)
        monkeypatch.setattr(flows, "normalization_rate", counting_rate)
        for traj, sums_calls, calls in runs:
            div_calls.clear()
            assert checks.check_bperp_scaling(traj).passed
            assert div_calls == [1.0, 1.0]  # one call per rule, on summed states stamped t = 1
            assert sums_calls == [2]        # every node of a rule in one weighted_sums call
            assert calls == [2]            # the start and end states
            assert rate_calls == []

    @pytest.mark.parametrize("variant", ["plain", "normalized"])
    def test_fd_sums_chain_the_marched_nodes(self, monkeypatch, variant):
        """The FD sums march the nodes as ``at`` does, once per node between samples.

        The phi sum is that of the unprojected (plain) states, bit for bit;
        the normalized rate sum is the weighted per-node r of the projected
        states.  Of the 513 nodes on [0, 1], the three that hit the samples
        0, 0.5 and 1 are anchors; every other node is one march.
        """
        traj = fd_path_traj(variant)
        nodes = np.linspace(0.0, 1.0, 513)
        weights = checks._simpson_weights(1.0, 513)
        phi_sum, rate_sum = traj.weighted_sums(nodes, weights)
        expected = np.zeros(traj.initial.shape)
        for weight, state in zip(weights, fd_path_traj().at(nodes)):
            expected += weight * state.phi
        assert np.array_equal(phi_sum, expected)
        expected_rate = 0.0
        if variant == "normalized":
            for weight, state in zip(weights, traj.at(nodes)):
                expected_rate += weight * ff.normalization_rate(state)
            assert expected_rate < 0.0
        assert rate_sum == expected_rate

        marches = [0]
        fd_heat_run = flows.fd_heat_run

        def counting_fd_heat_run(*args):
            marches[0] += 1
            return fd_heat_run(*args)

        monkeypatch.setattr(flows, "fd_heat_run", counting_fd_heat_run)
        checks.check_bperp_scaling(traj)
        assert marches == [513 - 3]

    def test_exact_sums_memory_stays_a_few_fields(self):
        """513 nodes on a 4^2 x 32^2 grid peak below 16 fields (128 KB each).

        The summed multiplier is accumulated in place; stacking the 513
        per-node multipliers would take about 513 times its size.
        """
        base = ff.FiberGrid(2, (2.0 * math.pi,) * 2, (4, 4))
        state = ff.ProductState.from_harmonics(
            base, TORUS, {(0, 0, 0, 1): 0.2, (1, 0, 1, 0): 0.1}, {(1, 0, 0, 0): 0.1})
        traj = ff.run_extrinsic_flow(
            state, ff.FlowConfig(t_end=1.0, samples=(0.0, 1.0), variant="normalized"))
        assert traj.fiber_rate is not None
        nodes = np.linspace(0.0, 1.0, 513)
        weights = checks._simpson_weights(1.0, 513)
        tracemalloc.start()
        try:
            traj.weighted_sums(nodes, weights)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 16 * state.phi.nbytes


class TestUniformEquivalence:
    def test_single_mode_constant_closed_form(self):
        """Driving 0.2 cos y over gap 1 gives exactly c = exp(0.4)."""
        c = checks.uniform_equivalence_constant(single_mode_traj())
        assert c == pytest.approx(math.exp(0.4), rel=1e-12)

    def test_bound_holds_along_run(self):
        assert checks.check_uniform_equivalence(single_mode_traj()).passed

    def test_fd_path_rejected(self):
        with pytest.raises(UnsupportedScenarioError,
                           match="^uniform_equivalence needs a psi constant"):
            checks.uniform_equivalence_constant(fd_path_traj())

    def test_normalized_run_compared_with_its_own_start(self):
        """vol_0 is about 40, so the unprojected initial phi sits log(vol_0) away."""
        traj = single_mode_traj(variant="normalized")
        assert geo.volume(traj.initial) > 39.0
        report = checks.check_uniform_equivalence(traj)
        assert report.passed, str(report)

    def test_normalized_drift_needs_the_doubled_bound(self):
        """The projection's shift moves too: relative to t = 0 phi strays past B."""
        traj = single_mode_traj(variant="normalized")
        bound = math.log(checks.uniform_equivalence_constant(traj)) / 2.0
        start = traj.evaluate(0.0)
        worst = max(float(np.max(np.abs(s.phi - start.phi)))
                    for s in traj.states + (traj.limit,))
        assert bound < worst <= 2.0 * bound

    def test_fiber_gap_is_the_flat_gap_times_the_fiber_rate(self):
        state = ff.ProductState.from_harmonics(BASE4, CIRCLE, {(0, 1): 0.2}, {(1, 0): 0.1})
        traj = ff.run_extrinsic_flow(state, ff.FlowConfig(t_end=1.0, samples=(0.0, 1.0)))
        np.testing.assert_array_equal(checks._fiber_gap(traj, "probe"),
                                      checks.flat_spectral_gap(CIRCLE) * traj.fiber_rate)
        with pytest.raises(UnsupportedScenarioError, match="^probe needs a psi constant"):
            checks._fiber_gap(fd_path_traj(), "probe")

    def test_gap_of_anisotropic_torus(self):
        grid = ff.FiberGrid(2, (2.0 * math.pi, 4.0 * math.pi), (16, 16))
        assert checks.flat_spectral_gap(grid) == pytest.approx(0.25)


class TestOracleAgreement:
    def test_circle_run_within_tolerance(self):
        report = checks.check_oracle_agreement(single_mode_traj())
        assert 0.0 < report.residual < 1e-4
        assert report.passed

    def test_march_uses_the_run_scheme(self):
        state = ff.ProductState.from_harmonics(BASE4, CIRCLE, {(0, 1): 0.2})
        default, coarse = (
            checks.check_oracle_agreement(ff.run_extrinsic_flow(state, ff.FlowConfig(
                t_end=1.0, samples=(0.0, 1.0), fd_scheme=scheme))).residual
            for scheme in (ff.FdScheme(), ff.FdScheme(dt=0.25)))
        assert coarse != default

    def test_torus_native_resolution(self):
        state = ff.ProductState.from_harmonics(BASE4, TORUS, {(0, 1, 2): 0.1})
        config = ff.FlowConfig(t_end=1.0, samples=(0.0, 1.0))
        traj = ff.run_extrinsic_flow(state, config)
        assert checks.check_oracle_agreement(traj).residual < 1e-3

    def test_frozen_trajectory_fails(self):
        """The march is compared with the run's own phi, not a fresh multiplier."""
        traj = single_mode_traj()
        frozen = dataclasses.replace(
            traj, at=lambda times: (traj.initial.replace_phi(traj.initial.phi, t)
                                    for t in times))
        report = checks.check_oracle_agreement(frozen)
        assert report.residual > 0.1 and not report.passed

    def test_normalized_rejected(self):
        with pytest.raises(UnsupportedScenarioError):
            checks.check_oracle_agreement(single_mode_traj(variant="normalized"))

    def test_fd_path_rejected(self):
        with pytest.raises(UnsupportedScenarioError,
                           match="^oracle_agreement needs a psi constant"):
            checks.check_oracle_agreement(fd_path_traj())


class TestFdConvergenceOrder:
    def test_measured_order_is_two(self):
        report = checks.check_fd_convergence_order()
        assert report.residual < 0.05

    def test_errors_shrink_with_resolution(self):
        errs = [checks.fd_flow_error(pts, 1.0, 1e-3) for pts in (64, 128, 256)]
        assert errs[0] > errs[1] > errs[2]

    def test_needs_two_resolutions(self):
        with pytest.raises(InputError):
            checks.check_fd_convergence_order(resolutions=(64,))


class TestDecayRate:
    def test_single_mode_slope(self):
        assert checks.estimate_decay_rate(single_mode_traj()) == pytest.approx(
            -1.0, rel=1e-10)

    def test_torus_mode_slope(self):
        state = ff.ProductState.from_harmonics(BASE4, TORUS, {(0, 1, 2): 0.1})
        config = ff.FlowConfig(t_end=1.0,
                               samples=(0.0, 0.25, 0.5, 0.75, 1.0))
        traj = ff.run_extrinsic_flow(state, config)
        assert checks.estimate_decay_rate(traj) == pytest.approx(-5.0, rel=1e-9)

    def test_mixed_modes_need_late_window(self):
        state = ff.ProductState.from_harmonics(BASE4, CIRCLE,
                                               {(0, 1): 0.2, (0, 2): 0.1})
        config = ff.FlowConfig(t_end=7.0,
                               samples=tuple(float(k) for k in range(8)))
        traj = ff.run_extrinsic_flow(state, config)
        early = checks.check_decay_rate(traj)
        late = checks.check_decay_rate(traj, skip=4)
        assert not early.passed
        assert late.passed

    def test_zero_trajectory_degenerate(self):
        state = ff.ProductState.from_harmonics(BASE4, CIRCLE, {})
        config = ff.FlowConfig(t_end=2.0, samples=(0.0, 0.5, 1.0, 2.0))
        traj = ff.run_extrinsic_flow(state, config)
        with pytest.raises(DegenerateTrajectoryError):
            checks.estimate_decay_rate(traj)

    def test_one_distinct_time_degenerate(self):
        traj = single_mode_traj(samples=(0.5, 0.5, 0.5, 0.5))
        with pytest.raises(DegenerateTrajectoryError, match="2 distinct sample times"):
            checks.estimate_decay_rate(traj)

    def test_too_few_samples_degenerate(self):
        traj = single_mode_traj(samples=(0.0, 0.5, 1.0))
        with pytest.raises(DegenerateTrajectoryError):
            checks.estimate_decay_rate(traj)

    def test_explicit_expected_rate(self):
        report = checks.check_decay_rate(single_mode_traj(), expected=-1.0)
        assert report.residual < 1e-10

    def test_fd_path_rejected(self):
        with pytest.raises(UnsupportedScenarioError, match="^decay_rate needs a psi constant"):
            checks.check_decay_rate(fd_path_traj())

    def test_fd_path_fits_against_a_given_rate(self):
        state = ff.ProductState.from_harmonics(BASE4, CIRCLE, {(0, 1): 0.2}, {(0, 1): 0.1})
        config = ff.FlowConfig(t_end=1.5, samples=(0.0, 0.5, 1.0, 1.5))
        traj = ff.run_extrinsic_flow(state, config)
        slope = checks.estimate_decay_rate(traj)
        assert checks.check_decay_rate(traj, expected=slope).residual == 0.0


class TestRunChecks:
    def test_unknown_name_rejected(self):
        with pytest.raises(InputError, match="no_such_check"):
            checks.run_checks(single_mode_traj(), ["no_such_check"])

    def test_reports_concatenate_in_order(self):
        traj = single_mode_traj()
        reports = checks.run_checks(traj, ["divergence_identity", "volume_ode"])
        assert [r.name for r in reports] == ["divergence_identity"] * 4 + ["volume_ode"]

    def test_registry_names_are_stable(self):
        assert set(checks.CHECKERS) == {
            "divergence_identity", "codim1_identity", "harmonic_rigidity",
            "preservation", "monotonicity", "volume_ode", "bperp_scaling",
            "uniform_equivalence", "oracle_agreement", "decay_rate",
            "fd_convergence_order",
        }

    def test_rigidity_probe_runs_on_torus(self):
        state = ff.ProductState.from_harmonics(BASE4, TORUS, {(0, 1, 2): 0.1})
        config = ff.FlowConfig(t_end=1.0, samples=(0.0, 1.0))
        traj = ff.run_extrinsic_flow(state, config)
        reports = checks.run_checks(traj, ["harmonic_rigidity"])
        assert all(r.passed for r in reports)


MATRIX_BASE = ff.FiberGrid(1, (2.0 * math.pi,), (4,))
P1_PHI0, P1_PSI = {(0, 1): 0.2}, {(1, 0): 0.1}
MATRIX_PATHS = {
    # exact paths: psi = 0.1 cos x varies over the base only
    "exact-p1": (1, P1_PHI0, P1_PSI),
    "exact-p2": (2, {(0, 1, 0): 0.2, (0, 0, 1): 0.1}, {(1, 0, 0): 0.1}),
    # finite-difference path: psi varies along each fiber
    "fd-p1": (1, {(0, 1): 0.2}, {(1, 1): 0.1}),
    # the other variants on the exact p = 1 data
    "exact-p1-normalized": (1, P1_PHI0, P1_PSI),
    "exact-p1-prescribed": (1, P1_PHI0, P1_PSI),
    # codim1 derives phi0 from tau0 (two fiber modes) and keeps psi = 0
    "exact-p1-codim1": (1, {(0, 1): 0.2, (1, 2): 0.05}, None),
}
MATRIX_X = {(0, 1): 0.05, (1, 2): 0.02}   # prescribed target, one fiber component
MATRIX_REFUSALS = {
    ("exact-p2", "codim1_identity"): InputError,
    ("fd-p1", "uniform_equivalence"): UnsupportedScenarioError,
    ("fd-p1", "oracle_agreement"): UnsupportedScenarioError,
    ("fd-p1", "decay_rate"): UnsupportedScenarioError,
    ("exact-p1-normalized", "oracle_agreement"): UnsupportedScenarioError,
    ("exact-p1-prescribed", "oracle_agreement"): UnsupportedScenarioError,
}
FD_MISMATCH = ("FD states are second-order stencils but the diagnostics are spectral, "
               "so the residual shrinks only at second order")
BASE_TWIST_DECAY = ("max |driving| over fibers with different exp(-2 psibar) decays at no "
                    "single rate, yet the expected slope uses the slowest fiber")
EARLY_WINDOW_DECAY = ("the fit over t in [0, 2] mixes modes that have not decayed yet, so "
                      "the slope is not the spectral gap")
MATRIX_FAILURES = {
    ("exact-p1", "decay_rate"): BASE_TWIST_DECAY,
    ("exact-p2", "decay_rate"): BASE_TWIST_DECAY,
    ("fd-p1", "monotonicity"): FD_MISMATCH,
    ("fd-p1", "volume_ode"): FD_MISMATCH,
    ("fd-p1", "bperp_scaling"): FD_MISMATCH,
    ("exact-p1-normalized", "decay_rate"): BASE_TWIST_DECAY,
    ("exact-p1-prescribed", "decay_rate"): EARLY_WINDOW_DECAY,
    ("exact-p1-codim1", "decay_rate"): EARLY_WINDOW_DECAY,
}


def _matrix_cells():
    for path in MATRIX_PATHS:
        for name in checks.CHECKERS:
            marks = ()
            if (path, name) in MATRIX_FAILURES:
                marks = pytest.mark.xfail(strict=True, raises=AssertionError,
                                          reason=MATRIX_FAILURES[path, name])
            yield pytest.param(path, name, marks=marks, id=f"{path}-{name}")


def _matrix_traj(path):
    p, phi0, psi = MATRIX_PATHS[path]
    fiber = ff.FiberGrid(p, (2.0 * math.pi,) * p, (32,) * p)
    config = ff.FlowConfig(t_end=2.0, samples=(0.0, 0.5, 1.0, 1.5, 2.0))
    if path.endswith("codim1"):
        return ff.run_codim1(fb.harmonic_field((MATRIX_BASE, fiber), phi0),
                             MATRIX_BASE, fiber, config)
    state = ff.ProductState.from_harmonics(MATRIX_BASE, fiber, phi0, psi)
    if path.endswith("normalized"):
        config = dataclasses.replace(config, variant="normalized")
    if path.endswith("prescribed"):
        x = fb.harmonic_field((MATRIX_BASE, fiber), MATRIX_X)[None]
        config = dataclasses.replace(config, variant="prescribed", x_field=x)
    return ff.run_extrinsic_flow(state, config)


class TestCheckerMatrix:
    """Every checker on every solver path passes or refuses with a typed error.

    Each cell builds its own trajectory (base 4, 32 points per fiber
    dimension, samples 0..2 in steps of 0.5).  The plain variant runs on
    every path; normalized, prescribed and codim1 runs use the exact p = 1
    path.
    """

    @pytest.mark.parametrize("path, name", _matrix_cells())
    def test_cell(self, path, name):
        traj = _matrix_traj(path)
        assert (traj.fiber_rate is not None) == path.startswith("exact")
        refusal = MATRIX_REFUSALS.get((path, name))
        if refusal is not None:
            with pytest.raises(refusal):
                checks.CHECKERS[name](traj)
            return
        reports = checks.CHECKERS[name](traj)
        assert reports and all(r.passed for r in reports), [str(r) for r in reports]
