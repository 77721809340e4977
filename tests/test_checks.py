"""Tests for the invariant checkers.

Each checker is exercised on a scenario where the checked identity has a
hand-computable outcome: the single-harmonic flow (everything in closed
form), a base-twisted run with a genuinely nonzero normal shape operator,
and degenerate or unsupported inputs that must raise instead of
reporting.  Quadrature oracles come from scipy.integrate.quad.
"""

import dataclasses
import math
import re
from pathlib import Path

import numpy as np
import pytest
import scipy.sparse.linalg as spla
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
        """The check runs at the middle sample, here 1.0."""
        report = checks.check_volume_ode(single_mode_traj(samples=(0.0, 0.25, 1.0, 1.5, 2.0)))
        assert report.sample_time == 1.0 and report.passed

    def test_short_run_refused_naming_t_end(self):
        traj = single_mode_traj(samples=(0.0, 0.0015))
        with pytest.raises(InputError, match=r"volume_ode.*VOLUME_ODE_STEP.*t_end = 0.0015"):
            checks.check_volume_ode(traj)

    def test_fd_residual_ignores_checkers_run_before(self):
        alone = checks.check_volume_ode(fd_path_traj())
        traj = fd_path_traj()
        checks.check_monotonicity(traj)
        assert checks.check_volume_ode(traj).residual == alone.residual

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
    "chebyshev-p2": (TORUS, {(0, 1, 0): 0.2, (0, 0, 1): 0.1}, {(1, 1, 0): 0.1}),
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

        def run(end):
            return ff.run_extrinsic_flow(
                state, ff.FlowConfig(t_end=end, samples=(0.0, 1.0), variant=variant))

        with pytest.raises(DegenerateTrajectoryError, match=r"error estimate .* exceeds 1.0e-08"):
            checks.check_bperp_scaling(run(t_end))
        assert checks.check_bperp_scaling(run(10.0)).passed

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
        ("chebyshev-p2", "plain"), ("chebyshev-p2", "normalized"),
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
            driving = geo.div_perp(geo.phi_fields(state).h - traj.x, state)
            speed = -(2.0 / state.n) * driving
            if variant == "normalized":
                speed = speed - ff.normalization_rate(state)
            reference -= weight * speed
        exponent = checks._bperp_exponent(traj, 1.0, 513)
        assert np.max(np.abs(reference)) > 0.2
        assert np.max(np.abs(exponent - reference)) <= 1e-12

    def test_prescribed_variant(self):
        assert checks.check_bperp_scaling(bperp_cross_form_traj("exact-p1", "prescribed")).passed

    @pytest.mark.parametrize("path", BPERP_PATHS)
    def test_psi_store_keeps_no_base_gradient(self, path):
        """b_perp reads psi's base gradient at its two end states and keeps none of it."""
        traj = bperp_cross_form_traj(path, "plain")
        checks.run_checks(traj, ["bperp_scaling"])
        assert "base_gradient" not in traj.initial._psi_fields

    @pytest.mark.parametrize("path", BPERP_PATHS)
    def test_no_target_stays_a_zero_broadcast(self, path, calls):
        """Without a target the speed reads the run's zero-strided X, not a grid of zeros."""
        traj = bperp_cross_form_traj(path, "plain")
        targets = calls(checks, "driving_scalar", key=lambda fields, x: x)
        checks.check_bperp_scaling(traj)
        assert targets and all(x is traj.x for x in targets)
        assert not any(traj.x.strides)

    def test_prescribed_target_is_weighted_by_the_summed_weights(self, calls):
        traj = bperp_cross_form_traj("exact-p1", "prescribed")
        targets = calls(checks, "driving_scalar", key=lambda fields, x: x)
        checks._bperp_exponent(traj, 1.0, 5)
        np.testing.assert_array_equal(targets[0], checks._simpson_weights(1.0, 5).sum() * traj.x)

    def test_fd_run_retains_no_node_states(self, traced_memory):
        """No node state (8 KB each on base 16 x 64 points) outlives the check.

        Kept, the 513 marched nodes would hold 4 MB.
        """
        state = ff.ProductState.from_harmonics(
            ff.FiberGrid(1, (2.0 * math.pi,), (16,)), CIRCLE,
            {(0, 1): 0.2, (1, 1): 0.1}, {(0, 1): 0.1})
        traj = ff.run_extrinsic_flow(state, ff.FlowConfig(
            t_end=1.0, samples=(0.0, 0.25, 0.5, 0.75, 1.0)))
        with traced_memory() as traced:
            checks.check_bperp_scaling(traj)
        assert traced.retained < 0.5 * 2 ** 20

    def test_speed_operator_applied_once(self, monkeypatch):
        """On the exact path no node state is built and r is never evaluated.

        The speed operator runs once per Simpson rule: on the 513 nodes and,
        for the error estimate, on every other node.  Each application builds
        the summed state's phi-derived fields once (``geometry.phi_fields``).
        """
        div_calls, rate_calls = [], []
        phi_fields = geo.phi_fields
        normalization_rate = flows.normalization_rate

        def counting_phi_fields(state):
            div_calls.append(state.t)
            return phi_fields(state)

        def counting_rate(state, div_h=None):
            rate_calls.append(state.t)
            return normalization_rate(state, div_h)

        runs = []
        for variant in ("plain", "normalized"):
            traj, calls = counting_at(self.base_twisted_traj(variant))
            runs.append(counting_sums(traj) + (calls,))
        monkeypatch.setattr(geo, "phi_fields", counting_phi_fields)
        monkeypatch.setattr(flows, "normalization_rate", counting_rate)
        for traj, sums_calls, calls in runs:
            div_calls.clear()
            assert checks.check_bperp_scaling(traj).passed
            assert div_calls == [1.0, 1.0]  # one call per rule, on summed states stamped t = 1
            assert sums_calls == [2]        # every node of a rule in one weighted_sums call
            assert calls == [2]            # the start and end states
            assert rate_calls == []

    @pytest.mark.parametrize("variant", ["plain", "normalized"])
    def test_fd_sums_chain_the_marched_nodes(self, calls, variant):
        """The FD sums march the nodes as ``at`` does, as one chain from 0.

        The phi sum is that of the unprojected (plain) states, bit for bit;
        the normalized rate sum is the weighted per-node r of the projected
        states.  The 513 nodes on [0, 1] are 1/512 apart, one step key, and
        the one psi profile is one chunk, so their chain makes one
        factorization (one march per node made 510), and the check's end
        states 0 and 1 one more.
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

        marches = calls(flows, "fd_heat_run")
        factorizations = calls(spla, "splu")
        checks.check_bperp_scaling(traj)
        assert len(marches) == 2
        assert len(factorizations) == 2

    def test_exact_sums_memory_stays_a_few_fields(self, traced_memory):
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
        with traced_memory() as traced:
            traj.weighted_sums(nodes, weights)
        assert traced.peak < 16 * state.phi.nbytes


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
        errs = [checks.fd_flow_error(pts) for pts in checks.ORDER_RESOLUTIONS]
        assert errs[0] > errs[1] > errs[2]


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
        early, late = (
            checks.check_decay_rate(ff.run_extrinsic_flow(state, ff.FlowConfig(
                t_end=7.0, samples=tuple(float(k) for k in range(start, 8)))))
            for start in (0, 4))
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

    def test_fd_path_rejected(self):
        with pytest.raises(UnsupportedScenarioError, match="^decay_rate needs a psi constant"):
            checks.check_decay_rate(fd_path_traj())

    def test_fd_path_is_fitted_though_not_judged(self):
        """check_decay_rate refuses an FD run; its slope can still be fitted.

        Over [0, 1.5] it reads -1.125, near the flat gap 1 that psi shifts.
        """
        state = ff.ProductState.from_harmonics(BASE4, CIRCLE, {(0, 1): 0.2}, {(0, 1): 0.1})
        config = ff.FlowConfig(t_end=1.5, samples=(0.0, 0.5, 1.0, 1.5))
        traj = ff.run_extrinsic_flow(state, config)
        assert -1.2 < checks.estimate_decay_rate(traj) < -1.0


class TestSettings:
    def test_fixed_settings_keep_what_their_rules_need(self):
        # every other node of the bperp_scaling rule must itself be a Simpson rule
        assert checks.BPERP_NODES % 4 == 1 and checks.BPERP_NODES >= 5
        # a slope needs at least two resolutions
        assert len(set(checks.ORDER_RESOLUTIONS)) >= 2

    def test_readme_names_every_constant(self):
        """README's check-tolerance section names every module constant of checks."""
        readme = (Path(__file__).resolve().parents[1] / "README.md").read_text(encoding="utf-8")
        section = readme.split("### Check tolerances", 1)[1].split("\n## ", 1)[0]
        constants = [name for name in vars(checks) if name.isupper()]
        assert "BPERP_NODES" in constants
        assert [name for name in constants
                if not re.search(rf"\b{name}\b", section)] == []


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

    EXACT_N2P2_CHECKS = ["divergence_identity", "preservation", "uniform_equivalence",
                         "volume_ode", "harmonic_rigidity"]

    @staticmethod
    def exact_n2p2_state():
        """n = p = 2, psi varying over the base only: the exact path, as in the exact-n2p2 bench."""
        base = ff.FiberGrid(2, (2.0 * math.pi,) * 2, (4, 4))
        fiber = ff.FiberGrid(2, (2.0 * math.pi,) * 2, (32, 32))
        return ff.ProductState.from_harmonics(
            base, fiber, {(0, 0, 1, 0): 0.1, (1, 0, 0, 1): (0.05, 0.02), (0, 1, 1, 1): 0.03},
            {(1, 0, 0, 0): 0.1})

    FFT_NAMES = ("fft", "ifft", "rfft", "irfft", "fftn", "ifftn", "rfftn", "irfftn")

    def test_fft_budget_of_an_exact_run(self, calls):
        """Flow plus checks take at most 15 FFT calls per sample, the run's fixed ones included.

        Each sample's H and Div_perp H come from its spectrum once, not once
        per consumer (it took about 37 per sample when every consumer
        rebuilt them from nodal phi).  A library trajectory's rigidity rows
        take each state's H from a transform of its own.
        """
        ffts = calls(np.fft, *self.FFT_NAMES)
        samples = tuple(0.4 * k for k in range(11))
        traj = ff.run_extrinsic_flow(self.exact_n2p2_state(),
                                     ff.FlowConfig(t_end=4.0, samples=samples))
        assert traj.fiber_rate is not None
        reports = checks.run_checks(traj, self.EXACT_N2P2_CHECKS)
        assert reports and all(r.passed for r in reports)
        assert len(ffts) <= 15 * len(samples), sorted(ffts)

    def test_fft_budget_of_the_one_pass_run(self, calls):
        """With the check names known before the pass, each sample takes 6 FFT calls.

        Its phi (1 inverse) when sampled; then in the pass H (2 inverse),
        Div_perp H (1 inverse) and the rigidity row (1 forward, 1 inverse),
        which takes no transform of phi.  With the run's 22 fixed calls an
        11-sample run takes 88 (121 when each record measured d theta with
        2 forward and 1 inverse, 125 when the rigidity probe built psi's
        fiber gradient and the t = inf limit transformed the driving scalar
        again, 158 when the rows rebuilt H).
        """
        def run(samples):
            ffts = calls(np.fft, *self.FFT_NAMES)
            state = self.exact_n2p2_state()
            states, diagnose = flows.sample_flow(
                state, ff.FlowConfig(t_end=4.0, samples=samples))
            _, reports = checks.diagnose_and_check(state, diagnose, self.EXACT_N2P2_CHECKS)
            assert reports and all(r.passed for r in reports)
            return len(ffts)

        eleven = run(tuple(0.4 * k for k in range(11)))
        six = run(tuple(0.8 * k for k in range(6)))
        assert eleven - six == 6 * (11 - 6)
        assert eleven == 88

    def test_one_pass_peak_stays_a_few_fields_above_what_the_run_keeps(self, traced_memory):
        """The one-pass run peaks less than 11 fields above the set it retains.

        Beside what it keeps, a sample's pass holds H, the volume weight and
        the stacks of its later steps: the spectrum goes once H and Div_perp H
        exist and Div_perp H once the record is taken.  No X, psi gradient or
        t = inf limit is built before the pass.  Holding those, and each
        sample's spectrum and Div_perp H through its rows, took 12.8 fields.
        """
        state = self.exact_n2p2_state()
        with traced_memory() as traced:
            states, diagnose = flows.sample_flow(
                state, ff.FlowConfig(t_end=4.0, samples=tuple(0.4 * k for k in range(11))))
            _, reports = checks.diagnose_and_check(state, diagnose, self.EXACT_N2P2_CHECKS)
        assert reports and all(r.passed for r in reports)
        above = (traced.peak - traced.retained) / state.phi.nbytes
        assert above < 11, above

    def test_in_pass_rigidity_rows_match_the_per_state_check(self):
        """The rows the pass takes equal check_harmonic_function_rigidity per state.

        The identity holds for any state, so its residual is round-off, and
        a pass that handed the probe another state's H or volume weight
        would read O(0.1).  On the FD path the pass's fields are the ones a
        library trajectory builds, so its rows are the same floats.
        """
        for state, exact in ((self.exact_n2p2_state(), True),
                             (fd_path_traj().initial, False)):
            config = ff.FlowConfig(t_end=1.0, samples=(0.0, 0.5, 1.0))
            _, diagnose = flows.sample_flow(state, config)
            traj, rows = checks.diagnose_and_check(state, diagnose, ["harmonic_rigidity"])
            assert [record.rigidity is not None for record in traj.diagnostics] == [True] * 3
            fiber = state.fiber
            wave = np.sin(2.0 * math.pi * fiber.coordinates()[0] / fiber.sides[0])
            f = np.broadcast_to(wave, state.shape)
            for row, sample in zip(rows, traj.states):
                direct = checks.check_harmonic_function_rigidity(sample, f)
                assert (row.name, row.sample_time) == (direct.name, direct.sample_time)
                assert row.residual == pytest.approx(direct.residual, rel=0.0, abs=1e-13)
                assert row.residual < 1e-12
            library = checks.run_checks(ff.run_extrinsic_flow(state, config),
                                        ["harmonic_rigidity"])
            if not exact:
                assert [r.residual for r in library] == [r.residual for r in rows]

    def test_no_phi_derived_field_outlives_the_run(self, traced_memory):
        """The trajectory retains its states, the driving spectrum, the limit and two exp(psi).

        That is about 15 fields for 11 states.  A full-grid zero X, or psi's
        fiber or base gradient (2 fields each), breaks the bound, and so
        would H or Div_perp H kept on each state.
        """
        state = self.exact_n2p2_state()
        field_bytes = state.phi.nbytes
        with traced_memory() as traced:
            traj = ff.run_extrinsic_flow(
                state, ff.FlowConfig(t_end=4.0, samples=tuple(0.4 * k for k in range(11))))
            checks.run_checks(traj, self.EXACT_N2P2_CHECKS)
        assert traced.retained < (len(traj.states) + 5) * field_bytes, (
            traced.retained / field_bytes)

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
    # psi varies along each fiber: the finite-difference path for p = 1, the
    # Chebyshev propagator for p = 2
    "fd-p1": (1, {(0, 1): 0.2}, {(1, 1): 0.1}),
    "chebyshev-p2": (2, {(0, 1, 0): 0.2, (0, 0, 1): 0.1}, {(1, 1, 0): 0.1}),
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
    ("chebyshev-p2", "codim1_identity"): InputError,
    ("chebyshev-p2", "uniform_equivalence"): UnsupportedScenarioError,
    ("chebyshev-p2", "oracle_agreement"): UnsupportedScenarioError,
    ("chebyshev-p2", "decay_rate"): UnsupportedScenarioError,
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
    path.  Only the exact paths set ``fiber_rate``.
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

    @pytest.mark.parametrize("path", MATRIX_PATHS)
    def test_labels_are_those_of_the_full_fields(self, path):
        """Each record's labels are the sups of |H|_g and the full |Hperp|_g field.

        The run keeps sup |dpsi|^2 as one scalar in psi's store, never psi's
        base gradient.
        """
        traj = _matrix_traj(path)
        store = traj.initial._psi_fields
        assert "base_gradient_sq_sup" in store and "base_gradient" not in store

        def label(sq):
            return "totally_geodesic" if math.sqrt(np.max(sq)) <= geo.CLASSIFY_TOL else "umbilical"

        for state, record in zip(traj.states, traj.diagnostics, strict=True):
            h = geo.phi_fields(state).h
            hperp_sq = state.p ** 2 * np.exp(-2.0 * state.phi) * np.sum(
                geo.base_gradient(state.psi, state) ** 2, axis=0)
            assert (record.tangent_label, record.normal_label) == (
                label(geo.leaf_inner(state, h, h)), label(hperp_sq))
