"""Tests for the exact fiber heat machinery.

Every expected value is either a closed form (single Fourier modes decay
by exp(-lambda t)), a direct summation oracle computed in the test, or
an exact conservation property of the spectral representation.

Tolerances: closed-form comparisons at 64 points sit at round-off, so
1e-12 is used where exactness is the contract and 1e-10 where a few
transform round trips accumulate.
"""

import math

import hypothesis as hyp
import hypothesis.strategies as st
import numpy as np
import pytest

import foliflow as ff
from foliflow import fiber as fb
from foliflow.errors import InputError

RNG = np.random.default_rng(0)

CIRCLE = ff.FiberGrid(1, (2.0 * math.pi,), (64,))
TORUS = ff.FiberGrid(2, (2.0 * math.pi, 2.0 * math.pi), (32, 32))


def random_field(grid, seed, max_mode=5):
    """Band-limited random real field, reproducible from the seed."""
    rng = np.random.default_rng(seed)
    terms = {}
    for _ in range(4):
        mode = tuple(int(m) for m in rng.integers(-max_mode, max_mode + 1, grid.dim))
        amp = rng.normal(scale=0.5, size=2)
        if all(m == 0 for m in mode):
            amp[1] = 0.0
        terms[mode] = (float(amp[0]), float(amp[1]))
    return fb.harmonic_field((grid,), terms)


class TestFiberGrid:
    def test_basic_properties(self):
        assert CIRCLE.shape == (64,)
        assert CIRCLE.volume == pytest.approx(2.0 * math.pi)
        assert CIRCLE.spacing(0) == pytest.approx(2.0 * math.pi / 64)
        assert TORUS.cell == pytest.approx((2.0 * math.pi / 32) ** 2)

    def test_coordinates_start_at_zero(self):
        y = CIRCLE.coordinates()[0]
        assert y[0] == 0.0
        assert y[-1] == pytest.approx(2.0 * math.pi * 63 / 64)

    @pytest.mark.parametrize("bad", [
        dict(dim=3, sides=(1.0, 1.0, 1.0), points=(8, 8, 8)),
        dict(dim=1, sides=(-1.0,), points=(8,)),
        dict(dim=1, sides=(1.0,), points=(6,)),   # not a power of two
        dict(dim=1, sides=(1.0,), points=(2,)),   # below minimum
        dict(dim=2, sides=(1.0,), points=(8, 8)),
        dict(dim=1, sides=(math.nan,), points=(8,)),
        dict(dim=2, sides=(1.0, math.inf), points=(8, 8)),
    ])
    def test_validation(self, bad):
        with pytest.raises(InputError):
            ff.FiberGrid(**bad)


class TestEigenvalue:
    """Closed-form flat-torus eigenvalues."""

    def test_circle_mode_one(self):
        assert ff.eigenvalue((1,), CIRCLE) == pytest.approx(1.0, abs=1e-15)

    def test_zero_mode(self):
        assert ff.eigenvalue((0, 0), TORUS) == 0.0

    def test_torus_mode_one_two(self):
        assert ff.eigenvalue((1, 2), TORUS) == pytest.approx(5.0, abs=1e-12)

    def test_side_length_scaling(self):
        grid = ff.FiberGrid(1, (1.0,), (8,))
        assert ff.eigenvalue((1,), grid) == pytest.approx(4.0 * math.pi ** 2)

    def test_dimension_mismatch(self):
        with pytest.raises(InputError):
            ff.eigenvalue((1,), TORUS)


class TestHeatEvolve:
    def test_constant_fixed_point(self):
        u = ff.SpectralField(CIRCLE, np.full(64, 1.7))
        out = ff.heat_evolve(u, 3.0)
        np.testing.assert_allclose(out.values, 1.7, rtol=0, atol=1e-14)

    def test_single_mode_circle(self):
        """cos y decays by exactly exp(-t) on the unit circle."""
        u = ff.SpectralField.from_harmonics(CIRCLE, {(1,): 1.0})
        out = ff.heat_evolve(u, 1.0)
        np.testing.assert_allclose(out.values, math.exp(-1.0) * u.values, atol=1e-14)

    def test_diagonal_torus_mode(self):
        # sin(x1 + 2 x2) carries eigenvalue 5
        u = ff.SpectralField.from_harmonics(TORUS, {(1, 2): (0.0, 1.0)})
        out = ff.heat_evolve(u, 0.7)
        np.testing.assert_allclose(out.values, math.exp(-3.5) * u.values, atol=1e-14)

    def test_negative_time_rejected(self):
        u = ff.SpectralField.zeros(CIRCLE)
        with pytest.raises(InputError):
            ff.heat_evolve(u, -0.1)

    def test_infinite_time_gives_mean(self):
        u = ff.SpectralField.from_harmonics(CIRCLE, {(0,): 0.4, (2,): (0.3, 0.1)})
        out = ff.heat_evolve(u, math.inf)
        np.testing.assert_allclose(out.values, 0.4, atol=1e-15)

    @hyp.settings(max_examples=10, deadline=None)
    @hyp.given(
        seed=st.integers(0, 2 ** 16),
        t1=st.floats(0.0, 2.0),
        t2=st.floats(0.0, 2.0),
    )
    def test_semigroup(self, seed, t1, t2):
        u = ff.SpectralField(CIRCLE, random_field(CIRCLE, seed))
        two_step = ff.heat_evolve(ff.heat_evolve(u, t1), t2)
        one_step = ff.heat_evolve(u, t1 + t2)
        np.testing.assert_allclose(two_step.values, one_step.values,
                                   rtol=1e-12, atol=1e-12)

    @hyp.settings(max_examples=10, deadline=None)
    @hyp.given(seed=st.integers(0, 2 ** 16), t=st.floats(0.0, 5.0))
    def test_mean_conserved(self, seed, t):
        u = ff.SpectralField(TORUS, random_field(TORUS, seed))
        out = ff.heat_evolve(u, t)
        assert out.mean() == pytest.approx(u.mean(), abs=1e-13)

    @hyp.settings(max_examples=10, deadline=None)
    @hyp.given(seed=st.integers(0, 2 ** 16), t=st.floats(0.0, 5.0))
    def test_mean_zero_decay_bound(self, seed, t):
        """|u(t)|_2 <= exp(-lambda_1 t) |u_0|_2 for mean-zero data."""
        vals = random_field(CIRCLE, seed)
        vals = vals - vals.mean()
        u = ff.SpectralField(CIRCLE, vals)
        out = ff.heat_evolve(u, t)
        assert out.norm_l2() <= math.exp(-t) * u.norm_l2() + 1e-12

    def test_derivative_matches_laplacian(self):
        """(u(t+h) - u(t))/h tends to the flat Laplacian of u(t)."""
        u = ff.SpectralField(CIRCLE, random_field(CIRCLE, 7))
        t, h = 0.5, 1e-6
        ut = ff.heat_evolve(u, t).values
        uth = ff.heat_evolve(u, t + h).values
        lap = fb.gradient_values(fb.gradient_values(ut, CIRCLE)[0], CIRCLE)[0]
        np.testing.assert_allclose((uth - ut) / h, lap, atol=5e-5)


class TestHeatTimeIntegral:
    def test_zero_field(self):
        out = ff.heat_time_integral(ff.SpectralField.zeros(CIRCLE), 4.0)
        assert out.norm_sup() == 0.0

    def test_constant_mode_zero_rule(self):
        u = ff.SpectralField(CIRCLE, np.full(64, 0.3))
        out = ff.heat_time_integral(u, 2.0)
        np.testing.assert_allclose(out.values, 0.6, atol=1e-14)

    def test_single_mode_closed_form(self):
        u = ff.SpectralField.from_harmonics(CIRCLE, {(1,): 1.0})
        out = ff.heat_time_integral(u, 1.5)
        np.testing.assert_allclose(out.values, (1.0 - math.exp(-1.5)) * u.values,
                                   atol=1e-14)

    def test_infinite_horizon(self):
        """cos y integrates to cos y / lambda_1 = cos y over [0, inf)."""
        u = ff.SpectralField.from_harmonics(CIRCLE, {(1,): 1.0})
        out = ff.heat_time_integral(u, math.inf)
        np.testing.assert_allclose(out.values, u.values, atol=1e-14)

    def test_infinite_horizon_needs_zero_mean(self):
        u = ff.SpectralField(CIRCLE, np.ones(64))
        with pytest.raises(InputError):
            ff.heat_time_integral(u, math.inf)

    def test_derivative_is_evolved_field(self):
        u = ff.SpectralField(TORUS, random_field(TORUS, 3))
        t, h = 0.8, 1e-6
        a = fb.time_integral_values(u.values, TORUS, t + h)
        b = fb.time_integral_values(u.values, TORUS, t)
        mid = fb.evolve_values(u.values, TORUS, t + h / 2)
        np.testing.assert_allclose((a - b) / h, mid, atol=1e-9)


class TestHeatKernel:
    def test_positive_time_required(self):
        with pytest.raises(InputError):
            ff.heat_kernel(0.0, 0.0, 1.0, CIRCLE)

    def test_symmetry(self):
        a = ff.heat_kernel(1.0, 0.7, 1.9, CIRCLE)
        b = ff.heat_kernel(1.0, 1.9, 0.7, CIRCLE)
        assert a == b

    def test_theta_sum_oracle(self):
        """Direct cosine-series summation reproduces the kernel at t=1."""
        for x, y in [(0.0, 0.0), (0.3, 1.1), (2.0, 5.5)]:
            direct = (1.0 + 2.0 * sum(
                math.exp(-l * l) * math.cos(l * (x - y)) for l in range(1, 64)
            )) / (2.0 * math.pi)
            assert ff.heat_kernel(1.0, x, y, CIRCLE) == pytest.approx(direct, abs=1e-15)

    def test_equilibrium_deviation_equals_tail(self):
        """At t=10 the distance to 1/vol is exactly the spectral tail.

        The sup over (x, y) sits on the diagonal and equals
        (1/pi) sum_{l>=1} exp(-10 l^2), about 1.4451e-5; convergence to
        the equilibrium is exponential but has not reached 1e-8 by t=10.
        """
        tail = sum(math.exp(-10.0 * l * l) for l in range(1, 10)) / math.pi
        dev = abs(ff.heat_kernel(10.0, 0.4, 0.4, CIRCLE) - 1.0 / (2.0 * math.pi))
        assert dev == pytest.approx(tail, rel=1e-12)
        assert dev == pytest.approx(1.4451246475e-5, rel=1e-9)

    def test_equilibrium_reached_by_t20(self):
        worst = max(
            abs(ff.heat_kernel(20.0, x, y, CIRCLE) - 1.0 / (2.0 * math.pi))
            for x in np.linspace(0.0, 2.0 * math.pi, 5)
            for y in np.linspace(0.0, 2.0 * math.pi, 5)
        )
        assert worst < 1e-8

    def test_reproduces_evolution(self):
        """Quadrature of G(t,x,.) u0 matches heat_evolve at grid nodes."""
        u = ff.SpectralField.from_harmonics(CIRCLE, {(1,): 0.5, (2,): (0.1, 0.2)})
        t = 0.7
        evolved = ff.heat_evolve(u, t).values
        y = CIRCLE.coordinates()[0]
        for i in (0, 17, 40):
            kernel_row = np.array([ff.heat_kernel(t, y[i], yj, CIRCLE) for yj in y])
            quad = float(np.sum(kernel_row * u.values) * CIRCLE.cell)
            assert quad == pytest.approx(evolved[i], abs=1e-12)


class TestOneForms:
    def test_constant_form_is_fixed_point(self):
        w = ff.OneFormField.from_harmonics(TORUS, [{(0, 0): 0.3}, {(0, 0): -0.2}])
        out = ff.oneform_heat_evolve(w, 2.5)
        np.testing.assert_allclose(out.components, w.components, atol=1e-15)
        assert ff.is_harmonic(out)

    def test_circle_limit_keeps_harmonic_part(self):
        """(0.2 sin y - 0.1) dy flows to the constant form -0.1 dy."""
        w = ff.OneFormField.from_harmonics(CIRCLE, [{(0,): -0.1, (1,): (0.0, 0.2)}])
        out = ff.oneform_heat_evolve(w, math.inf)
        np.testing.assert_allclose(out.components, -0.1, atol=1e-15)

    def test_single_mode_decay_equality(self):
        w = ff.OneFormField.from_harmonics(CIRCLE, [{(3,): (0.4, 0.0)}])
        out = ff.oneform_heat_evolve(w, 0.5)
        np.testing.assert_allclose(out.components,
                                   math.exp(-4.5) * w.components, atol=1e-14)

    @hyp.settings(max_examples=10, deadline=None)
    @hyp.given(seed=st.integers(0, 2 ** 16), t=st.floats(0.0, 3.0))
    def test_closedness_preserved(self, seed, t):
        # exact forms stay exact: w0 = d(potential)
        potential = random_field(TORUS, seed)
        w = ff.OneFormField(TORUS, fb.gradient_values(potential, TORUS))
        assert ff.d_perp(w).norm_sup() < 1e-12
        out = ff.oneform_heat_evolve(w, t)
        assert ff.d_perp(out).norm_sup() < 1e-10

    def test_d_perp_sign(self):
        # sin(x2) dx1 has exterior derivative -cos(x2) dx1 ^ dx2
        w = ff.OneFormField.from_harmonics(TORUS, [{(0, 1): (0.0, 1.0)}, {}])
        x2 = np.broadcast_to(TORUS.coordinates()[1], TORUS.shape)
        np.testing.assert_allclose(ff.d_perp(w).values, -np.cos(x2), atol=1e-12)

    def test_d_perp_vanishes_on_circle(self):
        w = ff.OneFormField.from_harmonics(CIRCLE, [{(1,): (0.0, 1.0)}])
        assert ff.d_perp(w).norm_sup() == 0.0

    def test_delta_perp_sign(self):
        # codifferential of sin y dy is -cos y
        w = ff.OneFormField.from_harmonics(CIRCLE, [{(1,): (0.0, 1.0)}])
        y = CIRCLE.coordinates()[0]
        np.testing.assert_allclose(ff.delta_perp(w).values, -np.cos(y), atol=1e-12)
        assert not ff.is_harmonic(w)


class TestHarmonicField:
    def test_zero_mode_sine_rejected(self):
        with pytest.raises(InputError):
            fb.harmonic_field((CIRCLE,), {(0,): (0.1, 0.2)})

    def test_mode_length_checked(self):
        with pytest.raises(InputError):
            fb.harmonic_field((TORUS,), {(1,): 0.5})

    def test_cos_sin_combination(self):
        y = CIRCLE.coordinates()[0]
        vals = fb.harmonic_field((CIRCLE,), {(2,): (0.3, -0.4)})
        np.testing.assert_allclose(vals, 0.3 * np.cos(2 * y) - 0.4 * np.sin(2 * y),
                                   atol=1e-14)

    def test_spectral_field_coeff_normalization(self):
        u = ff.SpectralField.from_harmonics(CIRCLE, {(0,): 0.7, (3,): (0.2, 0.4)})
        assert u.coeff((0,)) == pytest.approx(0.7)
        # a cos + b sin at mode 3 stores (a - i b)/2 at +3
        assert u.coeff((3,)) == pytest.approx(complex(0.1, -0.2))
        assert u.coeff((-3,)) == pytest.approx(complex(0.1, 0.2))


class TestResampleAndAntiderivative:
    def test_antiderivative_of_cos(self):
        vals = fb.harmonic_field((CIRCLE,), {(1,): 1.0})
        y = CIRCLE.coordinates()[0]
        np.testing.assert_allclose(fb.antiderivative_values(vals, CIRCLE),
                                   np.sin(y), atol=1e-13)

    def test_antiderivative_requires_zero_mean(self):
        with pytest.raises(InputError):
            fb.antiderivative_values(np.ones(64), CIRCLE)

    def test_antiderivative_then_derivative_roundtrip(self):
        vals = random_field(CIRCLE, 11)
        vals = vals - vals.mean()
        prim = fb.antiderivative_values(vals, CIRCLE)
        np.testing.assert_allclose(fb.gradient_values(prim, CIRCLE)[0], vals,
                                   atol=1e-12)

    @pytest.mark.parametrize("new_points", [128, 256])
    def test_upsample_band_limited(self, new_points):
        vals = fb.harmonic_field((CIRCLE,), {(1,): 0.2, (5,): (0.1, 0.3)})
        fine = fb.resample_values(vals, CIRCLE, new_points)
        grid = ff.FiberGrid(1, CIRCLE.sides, (new_points,))
        expected = fb.harmonic_field((grid,), {(1,): 0.2, (5,): (0.1, 0.3)})
        np.testing.assert_allclose(fine, expected, atol=1e-13)

    def test_downsample_inverts_upsample(self):
        vals = random_field(CIRCLE, 13, max_mode=10)
        back = fb.resample_values(fb.resample_values(vals, CIRCLE, 256),
                                  ff.FiberGrid(1, CIRCLE.sides, (256,)), 64)
        np.testing.assert_allclose(back, vals, atol=1e-12)


class TestSingleAxisGradient:
    """gradient_values(..., axis=k) is component k of the full result, bit for bit."""

    @pytest.mark.parametrize("grid, lead", [(CIRCLE, ()), (CIRCLE, (3, 2)),
                                            (TORUS, ()), (TORUS, (4,))])
    def test_matches_full_component(self, grid, lead):
        values = np.random.default_rng(11).normal(size=lead + grid.shape)
        full = fb.gradient_values(values, grid)
        for k in range(grid.dim):
            single = fb.gradient_values(values, grid, axis=k)
            assert single.shape == values.shape
            np.testing.assert_array_equal(single, full[k])

    @pytest.mark.parametrize("axis", [-1, 2])
    def test_axis_out_of_range_rejected(self, axis):
        with pytest.raises(InputError):
            fb.gradient_values(np.zeros(TORUS.shape), TORUS, axis=axis)

