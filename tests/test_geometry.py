"""Tests for the product-metric geometry operators.

Oracles: hand-differentiated closed forms for the conformal operators,
scipy quadrature and modified Bessel functions for volume integrals
(int exp(a cos y) dy = 2 pi I0(a)), and the leafwise integration by
parts identity, which pins the weight convention of every operator.
"""

import dataclasses
import math

import hypothesis as hyp
import hypothesis.strategies as st
import numpy as np
import pytest
from scipy.integrate import quad
from scipy.special import i0

import foliflow as ff
from foliflow import fiber as fb
from foliflow import geometry as geo
from foliflow import checks
from foliflow.errors import DegenerateTrajectoryError, InputError

BASE4 = ff.FiberGrid(1, (2.0 * math.pi,), (4,))
CIRCLE = ff.FiberGrid(1, (2.0 * math.pi,), (64,))
TORUS = ff.FiberGrid(2, (2.0 * math.pi, 2.0 * math.pi), (32, 32))


def twisted_circle(amp=0.2):
    """phi0 = amp cos y, psi = 0, n = p = 1."""
    return ff.ProductState.from_harmonics(BASE4, CIRCLE, {(0, 1): amp})


def random_state(seed, base=BASE4, fiber=CIRCLE, psi_scale=0.1):
    rng = np.random.default_rng(seed)
    dims = base.dim + fiber.dim

    def terms():
        out = {}
        for _ in range(3):
            mode = tuple(int(m) for m in rng.integers(-3, 4, dims))
            amp = rng.normal(scale=0.2, size=2)
            if all(m == 0 for m in mode):
                amp[1] = 0.0
            out[mode] = (float(amp[0]), float(amp[1]))
        return out

    phi = fb.harmonic_field((base, fiber), terms())
    psi = psi_scale * fb.harmonic_field((base, fiber), terms())
    return ff.ProductState(base, fiber, phi, psi, 0.0)


class TestProductState:
    def test_shape_and_dimensions(self):
        state = twisted_circle()
        assert state.n == 1 and state.p == 1
        assert state.shape == (4, 64)
        assert state.fiber_axes == (1,)

    def test_shape_mismatch_rejected(self):
        with pytest.raises(InputError):
            ff.ProductState(BASE4, CIRCLE, np.zeros((4, 32)), np.zeros((4, 64)))

    def test_nonfinite_rejected(self):
        phi = np.zeros((4, 64))
        phi[0, 0] = np.nan
        with pytest.raises(InputError):
            ff.ProductState(BASE4, CIRCLE, phi, np.zeros((4, 64)))

    def test_psi_fiber_constant_detection(self):
        state = ff.ProductState.from_harmonics(BASE4, CIRCLE, {}, {(1, 0): 0.2})
        assert geo.psi_is_fiber_constant(state)
        state = ff.ProductState.from_harmonics(BASE4, CIRCLE, {}, {(0, 1): 0.2})
        assert not geo.psi_is_fiber_constant(state)


SCALES = (-2, -1, 1, 2)


class TestPsiFields:
    """exp(scale psi) and the psi gradients are computed once per psi."""

    def test_replace_phi_reuses_cached_fields(self):
        state = random_state(7, fiber=TORUS)
        exps = [state.exp_psi(s) for s in SCALES]
        fields = (state.psi_fiber_gradient, state.psi_base_gradient)
        later = state.replace_phi(state.phi * 0.5, 1.0)
        for scale, value in zip(SCALES, exps):
            assert later.exp_psi(scale) is value
        assert later.psi_fiber_gradient is fields[0]
        assert later.psi_base_gradient is fields[1]

    def test_leaf_density_shares_the_conformal_factor_when_p_is_2(self):
        state = random_state(7, fiber=TORUS)
        assert state.exp_psi(state.p) is state.exp_psi(2)
        assert state.exp_psi(2.0) is state.exp_psi(2)

    def test_cached_fields_match_direct_computation(self):
        state = random_state(8, fiber=TORUS)
        for scale in SCALES:
            np.testing.assert_array_equal(state.exp_psi(scale), np.exp(scale * state.psi))
        np.testing.assert_array_equal(state.psi_fiber_gradient,
                                      fb.gradient_values(state.psi, TORUS))
        np.testing.assert_array_equal(state.psi_base_gradient,
                                      geo.base_gradient(state.psi, state))

    @pytest.mark.parametrize("rebuild", [
        lambda s, psi: ff.ProductState(s.base, s.fiber, s.phi, psi, s.t),
        lambda s, psi: dataclasses.replace(s, psi=psi),
    ])
    def test_new_psi_never_sees_stale_fields(self, rebuild):
        old = random_state(9, fiber=TORUS)
        xi = np.stack([fb.harmonic_field((BASE4, TORUS), {(0, 1, 2): (0.1, 0.3)}),
                       fb.harmonic_field((BASE4, TORUS), {(1, 2, 1): (0.2, 0.1)})])
        geo.div_perp(xi, old)      # fills the old state's store
        old.psi_base_gradient
        old.exp_psi(2)
        psi = 0.1 * fb.harmonic_field((BASE4, TORUS), {(1, 1, 3): (0.4, 0.2)})
        new = rebuild(old, psi)
        psi_grad = fb.gradient_values(psi, TORUS)
        direct = np.zeros(new.shape)
        for k in range(2):
            direct += fb.gradient_values(xi[k], TORUS)[k]
            direct += 2 * psi_grad[k] * xi[k]
        np.testing.assert_array_equal(geo.div_perp(xi, new), direct)
        np.testing.assert_array_equal(new.psi_base_gradient,
                                      geo.base_gradient(psi, new))
        np.testing.assert_array_equal(new.exp_psi(2), np.exp(2 * psi))

    def test_leaf_inner_and_fiber_rate_match_direct_computation(self):
        state = random_state(10, fiber=TORUS, psi_scale=0.3)
        a = state.psi_fiber_gradient
        b = geo.grad_perp(state.phi, state)
        np.testing.assert_array_equal(geo.leaf_inner(state, a, b),
                                      np.exp(2 * state.psi) * np.sum(a * b, axis=0))
        np.testing.assert_array_equal(geo.fiber_rate(state),
                                      np.exp(-2 * state.psi.mean(axis=(1, 2))))

    def test_cache_is_not_part_of_repr(self):
        state = twisted_circle()
        for scale in SCALES:
            state.exp_psi(scale)
        assert "_psi_fields" not in repr(state)
        assert "exp" not in repr(state)


class TestFiberVectorShape:
    """Every fiber-tangent argument has one shape check, naming the argument."""

    @pytest.mark.parametrize("name, call", [
        ("xi", geo.div_perp),
        ("h", lambda h, state: geo.h_norm_sup(state, h)),
        ("h", lambda h, state: geo.theta_h(state, h)),
        ("xi", lambda xi, state: checks.divergence_identity_sides(state, xi)),
    ], ids=["div_perp", "h_norm_sup", "theta_h", "divergence_identity_sides"])
    def test_wrong_shape_names_the_argument(self, name, call):
        state = twisted_circle()
        with pytest.raises(InputError, match=rf"^{name} shape \(2, 4, 64\) is not "
                                             rf"\(p,\) \+ grid shape \(1, 4, 64\)$"):
            call(np.zeros((2,) + state.shape), state)


class TestConformalOperators:
    def test_grad_perp_scaling(self):
        """grad_perp u = exp(-2 psi) * flat fiber derivative."""
        state = ff.ProductState.from_harmonics(BASE4, CIRCLE, {}, {(0, 1): 0.1})
        y = CIRCLE.coordinates()[0]
        u = np.broadcast_to(np.sin(y), state.shape)
        expected = np.exp(-2.0 * state.psi) * np.cos(y)
        np.testing.assert_allclose(geo.grad_perp(u, state)[0], expected, atol=1e-12)

    def test_div_perp_weighted_formula(self):
        # p=1: Div xi = xi' + psi' xi against a hand derivative
        state = ff.ProductState.from_harmonics(BASE4, CIRCLE, {}, {(0, 1): 0.1})
        y = CIRCLE.coordinates()[0]
        xi = np.broadcast_to(np.sin(y), (1,) + state.shape)
        expected = np.cos(y) + (-0.1 * np.sin(y)) * np.sin(y)
        np.testing.assert_allclose(geo.div_perp(xi, state),
                                   np.broadcast_to(expected, state.shape),
                                   atol=1e-12)

    def test_laplacian_is_div_of_grad(self):
        state = random_state(5)
        u = fb.harmonic_field((BASE4, CIRCLE), {(1, 2): (0.3, 0.1)})
        composed = geo.div_perp(geo.grad_perp(u, state), state)
        np.testing.assert_allclose(geo.laplacian_perp(u, state), composed, atol=1e-13)

    def test_laplacian_conformal_covariance_2d(self):
        """For p = 2 the leaf Laplacian is exp(-2 psi) times the flat one."""
        state = ff.ProductState.from_harmonics(
            BASE4, TORUS, {}, {(0, 1, 1): (0.1, 0.05)}
        )
        u = fb.harmonic_field((BASE4, TORUS), {(0, 1, 2): (0.2, 0.0)})
        flat = -5.0 * u  # eigenvalue of mode (1,2)
        np.testing.assert_allclose(geo.laplacian_perp(u, state),
                                   np.exp(-2.0 * state.psi) * flat, atol=1e-12)

    @hyp.settings(max_examples=10, deadline=None)
    @hyp.given(seed=st.integers(0, 2 ** 16))
    def test_leafwise_adjointness(self, seed):
        """int (Div xi) u dmu = -int g(xi, grad u) dmu on each leaf.

        dmu is the leaf volume exp(p psi) dy; this is the integration by
        parts that makes the flow dissipative.
        """
        rng = np.random.default_rng(seed)
        state = random_state(seed)

        def mode():
            # avoid the zero mode, whose sine component is degenerate
            k = tuple(int(m) for m in rng.integers(-3, 4, 2))
            return k if any(k) else (1, 1)

        u = fb.harmonic_field((BASE4, CIRCLE), {mode(): (0.3, 0.2)})
        xi = np.stack([fb.harmonic_field((BASE4, CIRCLE), {mode(): (0.1, 0.4)})])
        weight = np.exp(state.p * state.psi)
        lhs = np.mean(geo.div_perp(xi, state) * u * weight, axis=1)
        grad = geo.grad_perp(u, state)
        pairing = np.exp(2.0 * state.psi) * np.sum(xi * grad, axis=0)
        rhs = -np.mean(pairing * weight, axis=1)
        np.testing.assert_allclose(lhs, rhs, atol=1e-12)


class TestMeanCurvature:
    def test_twisted_closed_form(self):
        """phi = 0.2 cos y gives H = 0.2 sin y d/dy on the flat circle."""
        state = twisted_circle()
        y = CIRCLE.coordinates()[0]
        np.testing.assert_allclose(ff.twisted_mean_curvature(state)[0],
                                   np.broadcast_to(0.2 * np.sin(y), state.shape),
                                   atol=1e-13)

    def test_product_is_minimal(self):
        state = ff.ProductState.from_harmonics(BASE4, CIRCLE, {})
        assert np.max(np.abs(ff.twisted_mean_curvature(state))) == 0.0

    def test_fiber_constant_phi_is_minimal(self):
        # phi depending only on the base does not bend the fibers
        state = ff.ProductState.from_harmonics(BASE4, CIRCLE, {(2, 0): 0.4})
        assert np.max(np.abs(ff.twisted_mean_curvature(state))) < 1e-15

    def test_conformal_rescaling_of_components(self):
        # contravariant components carry the exp(-2 psi) factor
        c = 0.3
        flat = twisted_circle()
        scaled = ff.ProductState(BASE4, CIRCLE, flat.phi, np.full(flat.shape, c))
        np.testing.assert_allclose(ff.twisted_mean_curvature(scaled),
                                   math.exp(-2.0 * c) * ff.twisted_mean_curvature(flat),
                                   atol=1e-14)

    def test_second_fundamental_umbilical_split(self):
        """Both forms are their mean curvatures over the rank: nothing traceless is kept."""
        state = random_state(9)
        data = ff.second_fundamental(state)
        assert [f.name for f in dataclasses.fields(data)] == ["h", "hperp"]
        np.testing.assert_array_equal(data.b_coeff, data.h / state.n)
        np.testing.assert_array_equal(data.bperp_coeff, data.hperp / state.p)

    def test_base_shape_operator(self):
        """hperp = -p exp(-2 phi) (base gradient of psi)."""
        state = ff.ProductState.from_harmonics(BASE4, CIRCLE, {(0, 1): 0.2},
                                               {(1, 0): 0.1})
        x = BASE4.coordinates()[0]
        expected = np.exp(-2.0 * state.phi) * 0.1 * np.sin(x)[:, None]
        np.testing.assert_allclose(ff.second_fundamental(state).hperp[0],
                                   expected, atol=1e-13)


class TestConformalChange:
    def test_matches_recomputed_state(self):
        state = twisted_circle()
        data = ff.second_fundamental(state)
        inc = fb.harmonic_field((BASE4, CIRCLE), {(0, 2): (0.0, 0.1)})
        b_new, h_new = ff.conformal_change(data.b_coeff, data.h, inc, state)
        shifted = ff.ProductState(BASE4, CIRCLE, state.phi + inc, state.psi)
        np.testing.assert_allclose(h_new, ff.twisted_mean_curvature(shifted),
                                   atol=1e-13)
        np.testing.assert_allclose(b_new, h_new / state.n, atol=1e-13)

    def test_fiber_constant_increment_is_invisible(self):
        # rescaling the base factor alone leaves the fiber geometry alone
        state = twisted_circle()
        data = ff.second_fundamental(state)
        inc = fb.harmonic_field((BASE4, CIRCLE), {(1, 0): 0.5})
        b_new, h_new = ff.conformal_change(data.b_coeff, data.h, inc, state)
        np.testing.assert_allclose(h_new, data.h, atol=1e-14)
        np.testing.assert_allclose(b_new, data.b_coeff, atol=1e-14)


class TestIntegration:
    def test_volume_bessel_oracle(self):
        """vol = 2 pi * int exp(0.2 cos y) dy = 4 pi^2 I0(0.2)."""
        state = twisted_circle()
        expected = 4.0 * math.pi ** 2 * i0(0.2)
        assert ff.volume(state) == pytest.approx(expected, rel=1e-14)

    def test_volume_quad_oracle_with_psi(self):
        state = ff.ProductState.from_harmonics(BASE4, CIRCLE, {(0, 1): 0.2},
                                               {(0, 1): (0.0, 0.3)})
        integrand = lambda y: math.exp(0.2 * math.cos(y) + 0.3 * math.sin(y))
        expected = 2.0 * math.pi * quad(integrand, 0.0, 2.0 * math.pi)[0]
        assert ff.volume(state) == pytest.approx(expected, rel=1e-12)

    def test_integrate_shape_checked(self):
        with pytest.raises(InputError):
            ff.integrate(twisted_circle(), np.ones(64))

    @pytest.mark.parametrize("level, vol", [(-800.0, "0"), (800.0, "inf")],
                             ids=["underflow", "overflow"])
    def test_degenerate_volume_refused(self, level, vol):
        phi = np.full(BASE4.shape + CIRCLE.shape, level)
        state = ff.ProductState(BASE4, CIRCLE, phi, np.zeros_like(phi), 0.5)
        with pytest.raises(DegenerateTrajectoryError,
                           match=rf"^the volume at t = 0.5 is {vol}, not positive and finite$"):
            geo.volume(state)

    def test_fiber_average_weighting(self):
        """The per-fiber average uses the leaf volume exp(p psi) dy."""
        state = ff.ProductState.from_harmonics(BASE4, CIRCLE, {}, {(0, 1): 0.4})
        y = CIRCLE.coordinates()[0]
        vals = np.broadcast_to(np.sin(y), state.shape)
        w = np.exp(0.4 * np.cos(y))
        expected = float((np.sin(y) * w).sum() / w.sum())
        np.testing.assert_allclose(geo.fiber_average(state, vals), expected,
                                   atol=1e-14)

    def test_integrate_splits_base_and_fiber(self):
        # phi(x, y) = a(x) + b(y) factorizes the volume integral
        state = ff.ProductState.from_harmonics(BASE4, CIRCLE,
                                               {(1, 0): 0.3, (0, 1): 0.2})
        base_part = np.exp(0.3 * np.cos(BASE4.coordinates()[0])).mean() * BASE4.volume
        fiber_part = i0(0.2) * CIRCLE.volume
        assert ff.volume(state) == pytest.approx(base_part * fiber_part, rel=1e-12)


class TestThetaForm:
    def test_components_lower_h(self):
        state = random_state(3)
        theta = ff.theta_h(state)
        h = ff.twisted_mean_curvature(state)
        np.testing.assert_allclose(theta, np.exp(2.0 * state.psi) * h, atol=0)

    def test_twisted_form_closed_p2(self):
        state = ff.ProductState.from_harmonics(BASE4, TORUS, {(0, 1, 2): 0.2})
        assert geo.d_theta_sup(state) < 1e-13

    def test_p1_always_closed(self):
        assert geo.d_theta_sup(twisted_circle()) == 0.0

    def test_non_closed_form(self):
        # sin(y2) dy1 has exterior derivative -cos(y2) dy1 ^ dy2, sup 1
        state = ff.ProductState.from_harmonics(BASE4, TORUS)
        h = np.stack([fb.harmonic_field((BASE4, TORUS), {(0, 0, 1): (0.0, 1.0)}),
                      np.zeros(state.shape)])
        assert geo.d_theta_sup(state, h) == pytest.approx(1.0, abs=1e-12)


class TestClassification:
    def test_product_totally_geodesic(self):
        report = ff.classify(ff.ProductState.from_harmonics(BASE4, CIRCLE, {}))
        assert report.tangent.label == "totally_geodesic"
        assert report.normal.label == "totally_geodesic"

    def test_twisted_umbilical_not_geodesic(self):
        report = ff.classify(twisted_circle())
        assert not report.tangent.totally_geodesic
        assert report.tangent.label == "umbilical"

    def test_base_twist_breaks_normal_minimality(self):
        state = ff.ProductState.from_harmonics(BASE4, CIRCLE, {}, {(1, 0): 0.3})
        report = ff.classify(state)
        assert not report.normal.harmonic
        assert report.normal.label == "umbilical"

    def test_umbilicity_is_stated_not_measured(self):
        flags = ff.classify(ff.ProductState.from_harmonics(BASE4, CIRCLE, {})).tangent
        assert [f.name for f in dataclasses.fields(flags)] == ["harmonic"]
        assert {f.name for f in dataclasses.fields(ff.ClassificationReport)} == {
            "tangent", "normal"}

    def test_norm_sup_oracles(self):
        state = twisted_circle()
        h = ff.twisted_mean_curvature(state)
        # |H|_g = exp(psi) |h| with psi = 0 here; sup of 0.2 |sin| on the grid
        expected = 0.2 * np.max(np.abs(np.sin(CIRCLE.coordinates()[0])))
        assert geo.h_norm_sup(state, h) == pytest.approx(expected, abs=1e-15)
