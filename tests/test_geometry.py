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
    """exp(scale psi) and psi's fiber gradient are computed once per psi.

    psi's base gradient is not kept: ``fiber_mean_curvature`` builds it per call.
    """

    def test_replace_phi_reuses_cached_fields(self):
        state = random_state(7, fiber=TORUS)
        exps = [state.exp_psi(s) for s in SCALES]
        gradient = state.psi_fiber_gradient
        later = state.replace_phi(state.phi * 0.5, 1.0)
        for scale, value in zip(SCALES, exps):
            assert later.exp_psi(scale) is value
        assert later.psi_fiber_gradient is gradient

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
        np.testing.assert_array_equal(
            geo.fiber_mean_curvature(state),
            -2 * np.exp(-2.0 * state.phi) * geo.base_gradient(state.psi, state))
        assert "base_gradient" not in state._psi_fields

    @pytest.mark.parametrize("rebuild", [
        lambda s, psi: ff.ProductState(s.base, s.fiber, s.phi, psi, s.t),
        lambda s, psi: dataclasses.replace(s, psi=psi),
    ])
    def test_new_psi_never_sees_stale_fields(self, rebuild):
        old = random_state(9, fiber=TORUS)
        xi = np.stack([fb.harmonic_field((BASE4, TORUS), {(0, 1, 2): (0.1, 0.3)}),
                       fb.harmonic_field((BASE4, TORUS), {(1, 2, 1): (0.2, 0.1)})])
        geo.div_perp(xi, old)      # fills the old state's store
        old.exp_psi(2)
        psi = 0.1 * fb.harmonic_field((BASE4, TORUS), {(1, 1, 3): (0.4, 0.2)})
        new = rebuild(old, psi)
        psi_grad = fb.gradient_values(psi, TORUS)
        direct = np.zeros(new.shape)
        for k in range(2):
            direct += fb.gradient_values(xi[k], TORUS)[k]
            direct += 2 * psi_grad[k] * xi[k]
        np.testing.assert_array_equal(geo.div_perp(xi, new), direct)
        np.testing.assert_array_equal(
            geo.fiber_mean_curvature(new), -2 * np.exp(-2.0 * new.phi) * geo.base_gradient(psi, new))
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
        ("h", lambda h, state: geo.d_theta_sup(state, h)),
        ("xi", lambda xi, state: checks.divergence_identity_sides(state, xi)),
    ], ids=["div_perp", "theta_h", "divergence_identity_sides"])
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

    @pytest.mark.parametrize("fiber", [CIRCLE, TORUS], ids=["p1", "p2"])
    def test_div_perp_on_fiber_constant_psi_builds_no_psi_gradient(self, fiber):
        """Fiber-constant psi: no fiber gradient is stored, and the bits are the full formula's."""
        d = fiber.dim
        state = ff.ProductState.from_harmonics(BASE4, fiber, {(0,) + (1,) * d: 0.2},
                                               {(1,) + (0,) * d: 0.3, (2,) + (0,) * d: (0.1, 0.2)})
        xi = np.stack([fb.harmonic_field((BASE4, fiber), {(1,) + (k + 1,) * d: (0.3, 0.1),
                                                           (0,) + (1,) * d: 0.2})
                       for k in range(d)])
        out = geo.div_perp(xi, state)
        assert "fiber_gradient" not in state._psi_fields
        psi_grad = fb.gradient_values(state.psi, fiber)
        full = np.zeros(state.shape)
        for k in range(d):
            full += fb.gradient_values(xi[k], fiber, axis=k)
            full += d * psi_grad[k] * xi[k]
        assert np.max(np.abs(full)) > 0.1
        assert out.tobytes() == full.tobytes()

    def test_laplacian_conformal_covariance_2d(self):
        """For p = 2 the leaf Laplacian is exp(-2 psi) times the flat one."""
        state = ff.ProductState.from_harmonics(
            BASE4, TORUS, {}, {(0, 1, 1): (0.1, 0.05)}
        )
        u = fb.harmonic_field((BASE4, TORUS), {(0, 1, 2): (0.2, 0.0)})
        flat = -5.0 * u  # eigenvalue of mode (1,2)
        np.testing.assert_allclose(geo.div_perp(geo.grad_perp(u, state), state),
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
        np.testing.assert_allclose(geo.phi_fields(state).h[0],
                                   np.broadcast_to(0.2 * np.sin(y), state.shape),
                                   atol=1e-13)

    def test_product_is_minimal(self):
        state = ff.ProductState.from_harmonics(BASE4, CIRCLE, {})
        assert np.max(np.abs(geo.phi_fields(state).h)) == 0.0

    def test_fiber_constant_phi_is_minimal(self):
        # phi depending only on the base does not bend the fibers
        state = ff.ProductState.from_harmonics(BASE4, CIRCLE, {(2, 0): 0.4})
        assert np.max(np.abs(geo.phi_fields(state).h)) < 1e-15

    def test_conformal_rescaling_of_components(self):
        # contravariant components carry the exp(-2 psi) factor
        c = 0.3
        flat = twisted_circle()
        scaled = ff.ProductState(BASE4, CIRCLE, flat.phi, np.full(flat.shape, c))
        np.testing.assert_allclose(geo.phi_fields(scaled).h,
                                   math.exp(-2.0 * c) * geo.phi_fields(flat).h,
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


class TestPhiFields:
    """geometry.phi_fields, the one builder of H and Div_perp H.

    The reference is the general route: H = -n grad_perp phi and
    Div_perp H = div_perp(H), each derivative a nodal transform pair.
    """

    @pytest.mark.parametrize("fiber, phi_terms, psi_terms", [
        (CIRCLE, {(0, 1): 0.2, (1, 3): 0.05, (2, 2): (0.03, 0.02)}, {(1, 0): 0.3}),
        (TORUS, {(0, 1, 0): 0.2, (1, 1, 2): 0.05, (0, 2, 1): (0.03, 0.01)},
         {(1, 0, 0): 0.3}),
    ], ids=["p1", "p2"])
    def test_fiber_constant_psi_matches_the_general_route(self, fiber, phi_terms, psi_terms):
        state = ff.ProductState.from_harmonics(BASE4, fiber, phi_terms, psi_terms)
        assert geo.psi_is_fiber_constant(state)
        fields = geo.phi_fields(state)
        np.testing.assert_allclose(fields.h, -state.n * geo.grad_perp(state.phi, state),
                                   rtol=0, atol=1e-12)
        reference = geo.div_perp(geo.phi_fields(state).h, state)
        assert np.max(np.abs(reference)) > 0.1
        np.testing.assert_allclose(fields.div_h, reference, rtol=0, atol=1e-12)
        assert geo.d_theta_sup(state, fields.h) <= 1e-12

    def test_fiber_varying_psi_takes_the_general_route(self, monkeypatch):
        state = random_state(3)
        assert not geo.psi_is_fiber_constant(state)
        calls = []
        div_perp = geo.div_perp

        def counting_div_perp(xi, state):
            calls.append(state.t)
            return div_perp(xi, state)

        monkeypatch.setattr(geo, "div_perp", counting_div_perp)
        fields = geo.phi_fields(state)
        np.testing.assert_array_equal(fields.div_h, div_perp(fields.h, state))
        assert calls == [0.0]

    @pytest.mark.parametrize("fiber", [CIRCLE, TORUS], ids=["p1", "p2"])
    def test_null_entries_of_a_given_spectrum_are_not_read(self, fiber):
        """A fiber-constant shift of phi, as a volume projection makes, changes no field."""
        state = ff.ProductState.from_harmonics(BASE4, fiber, {(0,) * 1 + (1,) * fiber.dim: 0.2},
                                               {(1,) + (0,) * fiber.dim: 0.1})
        spectrum = fb.spectrum(state.phi, fiber)
        shifted = spectrum.copy()
        shifted[(Ellipsis,) + (0,) * fiber.dim] += 123.0
        plain, moved = geo.PhiFields(state, spectrum), geo.PhiFields(state, shifted)
        np.testing.assert_array_equal(plain.h, moved.h)
        np.testing.assert_array_equal(plain.div_h, moved.div_h)

    def test_fields_are_not_kept_on_the_state(self):
        state = random_state(5)
        fields = geo.phi_fields(state)
        assert fields.h is not None and fields.div_h is not None
        assert set(vars(state)) == {f.name for f in dataclasses.fields(state)}
        for key in state._psi_fields:     # the psi store holds psi-derived entries only
            assert key in ("fiber_gradient", "base_gradient", "fiber_constant") or key[0] == "exp"


class TestConformalChange:
    def test_matches_recomputed_state(self):
        state = twisted_circle()
        data = ff.second_fundamental(state)
        inc = fb.harmonic_field((BASE4, CIRCLE), {(0, 2): (0.0, 0.1)})
        b_new, h_new = ff.conformal_change(data.b_coeff, data.h, inc, state)
        shifted = ff.ProductState(BASE4, CIRCLE, state.phi + inc, state.psi)
        np.testing.assert_allclose(h_new, geo.phi_fields(shifted).h,
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
        """d theta is the curl of theta_i = exp(2 psi) H^i, to the bit of the stacked form's.

        H here is any fiber field, so its form is not closed.
        """
        state = random_state(3, fiber=TORUS)
        h = np.stack([fb.harmonic_field((BASE4, TORUS), {(0, 0, 1): (0.3, 0.1), (1, 2, 1): 0.2}),
                      fb.harmonic_field((BASE4, TORUS), {(1, 1, 0): (0.1, 0.4)})])
        theta = np.exp(2.0 * state.psi) * h
        ik1, ik2 = fb.symbols(TORUS)[1]
        curl = fb.nodal(ik1 * fb.spectrum(theta[1], TORUS) - ik2 * fb.spectrum(theta[0], TORUS),
                        TORUS)
        assert geo.d_theta_sup(state, h) == float(np.max(np.abs(curl))) > 1e-3

    def test_twisted_form_closed_p2(self):
        state = ff.ProductState.from_harmonics(BASE4, TORUS, {(0, 1, 2): 0.2})
        assert geo.d_theta_sup(state, geo.phi_fields(state).h) < 1e-13

    def test_p1_always_closed(self):
        state = twisted_circle()
        assert geo.d_theta_sup(state, geo.phi_fields(state).h) == 0.0

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

    @pytest.mark.parametrize("scale, harmonic", [(0.9, True), (1.1, False)])
    def test_normal_flag_reads_the_metric_norm_of_hperp(self, scale, harmonic):
        """The fibers are harmonic iff sup exp(phi) |Hperp| <= CLASSIFY_TOL.

        Hperp from ``second_fundamental`` is linear in the psi amplitude, so
        the amplitude is set to put that sup at scale * CLASSIFY_TOL, with
        p = 2 and a phi that varies, so neither p^2 nor exp(-2 phi) is 1.
        """
        def state(amp):
            return ff.ProductState.from_harmonics(
                BASE4, TORUS, {(1, 0, 0): 0.5, (0, 1, 0): 0.2}, {(1, 0, 1): amp})

        def hperp_sup(state):
            hperp = ff.second_fundamental(state).hperp
            return float(np.sqrt(np.max(np.exp(2.0 * state.phi) * np.sum(hperp ** 2, axis=0))))

        amp = scale * geo.CLASSIFY_TOL / hperp_sup(state(1.0))
        assert hperp_sup(state(amp)) == pytest.approx(scale * geo.CLASSIFY_TOL, rel=1e-12)
        assert ff.classify(state(amp)).normal.harmonic is harmonic

    @pytest.mark.parametrize("scale, harmonic, exps",
                             [(1e-3, True, 0), (0.9, True, 1), (1.1, False, 1), (1e3, False, 0)])
    def test_normal_flag_takes_the_field_only_when_its_bounds_straddle(self, calls, scale,
                                                                        harmonic, exps):
        """sup |dpsi|^2 and phi's extremes bound sup |Hperp|^2_g; a settled bound needs no exp.

        phi = 0.5 cos x spans [-0.5, 0.5] and |dpsi| peaks where phi = 0, so
        the bounds are a factor e apart on either side of the sup: at 0.9
        and 1.1 times CLASSIFY_TOL they straddle it and the exact sup, one
        exp(-2 phi), decides; far from it the bound does.
        """
        def state(amp):
            return ff.ProductState.from_harmonics(BASE4, TORUS, {(1, 0, 0): 0.5},
                                                  {(1, 0, 0): amp})

        hperp = ff.second_fundamental(state(1.0)).hperp
        unit = float(np.sqrt(np.max(np.exp(2.0 * state(1.0).phi) * np.sum(hperp ** 2, axis=0))))
        sample = state(scale * geo.CLASSIFY_TOL / unit)
        h_sq = np.zeros(sample.shape)
        made = calls(np, "exp")
        assert ff.classify(sample, h_sq).normal.harmonic is harmonic
        assert len(made) == exps

    def test_normal_flag_keeps_one_scalar_of_psi(self):
        """classify stores sup |dpsi|^2, bit for bit the stacked gradient's, and no gradient."""
        state = ff.ProductState.from_harmonics(BASE4, TORUS, {(1, 0, 0): 0.5},
                                               {(1, 0, 0): 0.3, (2, 1, 0): (0.1, 0.05)})
        ff.classify(state)
        assert "base_gradient" not in state._psi_fields
        stacked = geo.base_gradient(state.psi, state)
        assert state._psi_fields["base_gradient_sq_sup"] == float(
            np.max(np.sum(stacked ** 2, axis=0))) > 0.05

    def test_umbilicity_is_stated_not_measured(self):
        flags = ff.classify(ff.ProductState.from_harmonics(BASE4, CIRCLE, {})).tangent
        assert [f.name for f in dataclasses.fields(flags)] == ["harmonic"]
        assert {f.name for f in dataclasses.fields(ff.ClassificationReport)} == {
            "tangent", "normal"}
