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
        assert TORUS.volume == pytest.approx((2.0 * math.pi) ** 2)

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
        dict(dim=1, sides=(1.0,), points=(32.9,)),
        dict(dim=1, sides=(1.0,), points=(math.nan,)),
        dict(dim=2, sides=(1.0, 1.0), points=(32, math.inf)),
    ])
    def test_validation(self, bad):
        with pytest.raises(InputError):
            ff.FiberGrid(**bad)

    @pytest.mark.parametrize("count", [32.9, math.nan, math.inf])
    def test_non_integral_points_named(self, count):
        with pytest.raises(InputError, match="points"):
            ff.FiberGrid(1, (1.0,), (count,))

    @pytest.mark.parametrize("dim, sides, points", [
        (1, (1e-155,), (32,)),
        (2, (1.0, 1e-155), (4, 4)),
        (1, (5e-324,), (4,)),           # pi N / L itself is inf
        (2, (1.26e-153, 1.26e-153), (4, 4)),  # each square finite, their sum not
    ], ids=["circle", "torus-axis", "subnormal", "sum"])
    def test_sides_whose_spectrum_overflows_refused(self, dim, sides, points):
        with pytest.raises(InputError, match=r"too short for .* points: the largest "
                                             r"eigenvalue .* is not a finite float"):
            ff.FiberGrid(dim, sides, points)

    def test_refused_exactly_where_the_spectrum_overflows(self):
        # (pi 32 / L)^2 is 1e304 at L = 1e-150 and 1e314 at L = 1e-155
        grid = ff.FiberGrid(1, (1e-150,), (32,))
        assert math.isfinite(float(np.max(fb._symbols(grid)[0])))
        with pytest.raises(InputError, match="too short"):
            ff.FiberGrid(1, (1e-155,), (32,))

    @pytest.mark.parametrize("count", [32.0, np.int64(32), np.int32(32), 32])
    def test_integral_points_accepted(self, count):
        grid = ff.FiberGrid(1, (1.0,), (count,))
        assert grid.points == (32,) and type(grid.points[0]) is int


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


def l2(values, grid):
    """Flat L2 norm over one fiber, sqrt(int u^2 dy)."""
    return math.sqrt(float(np.mean(values ** 2)) * grid.volume)


class TestHeatEvolve:
    def test_constant_fixed_point(self):
        out = fb.evolve_values(np.full(64, 1.7), CIRCLE, 3.0)
        np.testing.assert_allclose(out, 1.7, rtol=0, atol=1e-14)

    def test_single_mode_circle(self):
        """cos y decays by exactly exp(-t) on the unit circle."""
        u = fb.harmonic_field((CIRCLE,), {(1,): 1.0})
        out = fb.evolve_values(u, CIRCLE, 1.0)
        np.testing.assert_allclose(out, math.exp(-1.0) * u, atol=1e-14)

    def test_diagonal_torus_mode(self):
        # sin(x1 + 2 x2) carries eigenvalue 5
        u = fb.harmonic_field((TORUS,), {(1, 2): (0.0, 1.0)})
        out = fb.evolve_values(u, TORUS, 0.7)
        np.testing.assert_allclose(out, math.exp(-3.5) * u, atol=1e-14)

    def test_negative_time_rejected(self):
        with pytest.raises(InputError):
            fb.evolve_values(np.zeros(64), CIRCLE, -0.1)

    def test_nan_time_rejected(self):
        with pytest.raises(InputError, match="got nan"):
            fb.evolve_values(np.zeros(64), CIRCLE, math.nan)

    def test_infinite_time_gives_mean(self):
        u = fb.harmonic_field((CIRCLE,), {(0,): 0.4, (2,): (0.3, 0.1)})
        out = fb.evolve_values(u, CIRCLE, math.inf)
        np.testing.assert_allclose(out, 0.4, atol=1e-15)

    @hyp.settings(max_examples=10, deadline=None)
    @hyp.given(
        seed=st.integers(0, 2 ** 16),
        t1=st.floats(0.0, 2.0),
        t2=st.floats(0.0, 2.0),
    )
    def test_semigroup(self, seed, t1, t2):
        u = random_field(CIRCLE, seed)
        two_step = fb.evolve_values(fb.evolve_values(u, CIRCLE, t1), CIRCLE, t2)
        one_step = fb.evolve_values(u, CIRCLE, t1 + t2)
        np.testing.assert_allclose(two_step, one_step, rtol=1e-12, atol=1e-12)

    @hyp.settings(max_examples=10, deadline=None)
    @hyp.given(seed=st.integers(0, 2 ** 16), t=st.floats(0.0, 5.0))
    def test_mean_conserved(self, seed, t):
        u = random_field(TORUS, seed)
        out = fb.evolve_values(u, TORUS, t)
        assert out.mean() == pytest.approx(u.mean(), abs=1e-13)

    @hyp.settings(max_examples=10, deadline=None)
    @hyp.given(seed=st.integers(0, 2 ** 16), t=st.floats(0.0, 5.0))
    def test_mean_zero_decay_bound(self, seed, t):
        """|u(t)|_2 <= exp(-lambda_1 t) |u_0|_2 for mean-zero data."""
        u = random_field(CIRCLE, seed)
        u = u - u.mean()
        out = fb.evolve_values(u, CIRCLE, t)
        assert l2(out, CIRCLE) <= math.exp(-t) * l2(u, CIRCLE) + 1e-12

    def test_derivative_matches_laplacian(self):
        """(u(t+h) - u(t))/h tends to the flat Laplacian of u(t)."""
        u = random_field(CIRCLE, 7)
        t, h = 0.5, 1e-6
        ut = fb.evolve_values(u, CIRCLE, t)
        uth = fb.evolve_values(u, CIRCLE, t + h)
        lap = fb.gradient_values(fb.gradient_values(ut, CIRCLE)[0], CIRCLE)[0]
        np.testing.assert_allclose((uth - ut) / h, lap, atol=5e-5)


class TestHeatTimeIntegral:
    def test_zero_field(self):
        out = fb.time_integral_values(np.zeros(64), CIRCLE, 4.0)
        assert np.max(np.abs(out)) == 0.0

    def test_nan_time_rejected(self):
        with pytest.raises(InputError, match="got nan"):
            fb.time_integral_values(np.zeros(64), CIRCLE, math.nan)

    def test_constant_mode_zero_rule(self):
        out = fb.time_integral_values(np.full(64, 0.3), CIRCLE, 2.0)
        np.testing.assert_allclose(out, 0.6, atol=1e-14)

    def test_single_mode_closed_form(self):
        u = fb.harmonic_field((CIRCLE,), {(1,): 1.0})
        out = fb.time_integral_values(u, CIRCLE, 1.5)
        np.testing.assert_allclose(out, (1.0 - math.exp(-1.5)) * u, atol=1e-14)

    def test_infinite_horizon(self):
        """cos y integrates to cos y / lambda_1 = cos y over [0, inf)."""
        u = fb.harmonic_field((CIRCLE,), {(1,): 1.0})
        out = fb.time_integral_values(u, CIRCLE, math.inf)
        np.testing.assert_allclose(out, u, atol=1e-14)

    def test_infinite_horizon_needs_zero_mean(self):
        with pytest.raises(InputError):
            fb.time_integral_values(np.ones(64), CIRCLE, math.inf)

    def test_derivative_is_evolved_field(self):
        u = random_field(TORUS, 3)
        t, h = 0.8, 1e-6
        a = fb.time_integral_values(u, TORUS, t + h)
        b = fb.time_integral_values(u, TORUS, t)
        mid = fb.evolve_values(u, TORUS, t + h / 2)
        np.testing.assert_allclose((a - b) / h, mid, atol=1e-9)


class TestRateScale:
    """A per-fiber rate_scale c runs each fiber at the scalar time c*t."""

    RATES = np.array([[0.3, 1.0, 2.5], [1.7, 0.05, 4.0]])

    @pytest.mark.parametrize("grid", [CIRCLE, TORUS], ids=["circle", "torus"])
    @pytest.mark.parametrize("helper", [fb.evolve_values, fb.time_integral_values],
                             ids=["evolve", "time_integral"])
    def test_matches_per_fiber_scalar_time(self, grid, helper):
        stack = np.stack([np.stack([random_field(grid, 10 * i + j) for j in range(3)])
                          for i in range(2)])
        # zero fiber means, so the t = inf time integral exists
        stack -= stack.mean(axis=tuple(range(2, stack.ndim)), keepdims=True)
        for t in (0.4, math.inf):
            scaled = helper(stack, grid, t, rate_scale=self.RATES)
            for idx, c in np.ndenumerate(self.RATES):
                expected = helper(stack[idx], grid, c * t)
                if helper is fb.time_integral_values:
                    # int_0^t exp(-c lambda s) ds = (1/c) int_0^{ct} exp(-lambda s) ds
                    expected = expected / c
                np.testing.assert_allclose(scaled[idx], expected, rtol=0, atol=1e-14)

    @pytest.mark.parametrize("helper", [fb.evolve_values, fb.time_integral_values],
                             ids=["evolve", "time_integral"])
    @pytest.mark.parametrize("shape", [(3,), (3, 2), (2, 3, 1), ()],
                             ids=["short", "transposed", "long", "scalar"])
    def test_shape_mismatch_rejected(self, helper, shape):
        with pytest.raises(InputError, match="rate_scale"):
            helper(np.zeros((2, 3) + CIRCLE.shape), CIRCLE, 0.5,
                   rate_scale=np.ones(shape))


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
        """Quadrature of G(t,x,.) u0 matches evolve_values at grid nodes."""
        u = fb.harmonic_field((CIRCLE,), {(1,): 0.5, (2,): (0.1, 0.2)})
        t = 0.7
        evolved = fb.evolve_values(u, CIRCLE, t)
        y = CIRCLE.coordinates()[0]
        for i in (0, 17, 40):
            kernel_row = np.array([ff.heat_kernel(t, y[i], yj, CIRCLE) for yj in y])
            quad = float(np.sum(kernel_row * u) * CIRCLE.spacing(0))
            assert quad == pytest.approx(evolved[i], abs=1e-12)


class TestOneForms:
    """A 1-form on the flat fiber is a stack of components; its Hodge heat
    flow is the scalar flow of each component."""

    @staticmethod
    def curl(w):
        return (fb.gradient_values(w[1], TORUS, axis=0)
                - fb.gradient_values(w[0], TORUS, axis=1))

    def test_constant_form_is_fixed_point(self):
        w = np.stack([np.full(TORUS.shape, 0.3), np.full(TORUS.shape, -0.2)])
        out = fb.evolve_values(w, TORUS, 2.5)
        np.testing.assert_allclose(out, w, atol=1e-15)
        # every partial of every component vanishes, so d and the codifferential do
        assert np.max(np.abs(fb.gradient_values(out, TORUS))) <= 1e-10

    def test_circle_limit_keeps_harmonic_part(self):
        """(0.2 sin y - 0.1) dy flows to the constant form -0.1 dy."""
        w = fb.harmonic_field((CIRCLE,), {(0,): -0.1, (1,): (0.0, 0.2)})[None]
        out = fb.evolve_values(w, CIRCLE, math.inf)
        np.testing.assert_allclose(out, -0.1, atol=1e-15)

    def test_single_mode_decay_equality(self):
        w = fb.harmonic_field((CIRCLE,), {(3,): (0.4, 0.0)})[None]
        out = fb.evolve_values(w, CIRCLE, 0.5)
        np.testing.assert_allclose(out, math.exp(-4.5) * w, atol=1e-14)

    @hyp.settings(max_examples=10, deadline=None)
    @hyp.given(seed=st.integers(0, 2 ** 16), t=st.floats(0.0, 3.0))
    def test_closedness_preserved(self, seed, t):
        # exact forms stay exact: w0 = d(potential)
        potential = random_field(TORUS, seed)
        w = fb.gradient_values(potential, TORUS)
        assert np.max(np.abs(self.curl(w))) < 1e-12
        out = fb.evolve_values(w, TORUS, t)
        assert np.max(np.abs(self.curl(out))) < 1e-10


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
        vals = fb.harmonic_field((CIRCLE,), {(0,): 0.7, (3,): (0.2, 0.4)})
        coeff = np.fft.fft(vals) / vals.size
        assert coeff[0] == pytest.approx(0.7)
        # a cos + b sin at mode 3 stores (a - i b)/2 at +3
        assert coeff[3] == pytest.approx(complex(0.1, -0.2))
        assert coeff[-3] == pytest.approx(complex(0.1, 0.2))


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



class TestAnisotropicSymbols:
    """The cached Fourier symbols on a torus with unequal sides and point counts."""

    GRID = ff.FiberGrid(2, (6.0, 7.0), (16, 8))
    K = (2.0 * math.pi * 3 / 6.0, 2.0 * math.pi * 2 / 7.0)   # mode (3, 2)

    def phase(self):
        x, y = self.GRID.coordinates()
        return self.K[0] * x + self.K[1] * y

    @pytest.mark.parametrize("lead", [(), (2,)])
    def test_gradient_of_mixed_mode(self, lead):
        u = np.broadcast_to(np.cos(self.phase()), lead + self.GRID.shape)
        expected = [-k * np.sin(self.phase()) for k in self.K]
        full = fb.gradient_values(u, self.GRID)
        for axis in range(2):
            np.testing.assert_allclose(fb.gradient_values(u, self.GRID, axis=axis),
                                       np.broadcast_to(expected[axis], u.shape), atol=1e-12)
            np.testing.assert_allclose(full[axis], np.broadcast_to(expected[axis], u.shape),
                                       atol=1e-12)

    @pytest.mark.parametrize("t", [0.3, math.inf])
    def test_multipliers_with_per_stack_rate(self, t):
        rates = np.array([0.5, 1.0, 3.0])
        u = np.sin(self.phase())
        lam = self.K[0] ** 2 + self.K[1] ** 2
        stack = np.stack([u, 2.0 * u, -u])
        evolved = fb.evolve_values(stack, self.GRID, t, rate_scale=rates)
        integral = fb.time_integral_values(stack, self.GRID, t, rate_scale=rates)
        for i, c in enumerate(rates):
            decay = math.exp(-c * lam * t)
            np.testing.assert_allclose(evolved[i], decay * stack[i], atol=1e-12)
            np.testing.assert_allclose(integral[i], (1.0 - decay) / (c * lam) * stack[i],
                                       atol=1e-12)

    def test_nyquist_zeroed_only_along_its_own_axis(self):
        x, y = self.GRID.coordinates()
        ky = 2.0 * math.pi / 7.0
        nyq_x = np.cos(2.0 * math.pi * 8 * x / 6.0) * np.sin(ky * y)   # Nyquist of axis 0
        grad = fb.gradient_values(nyq_x, self.GRID)
        np.testing.assert_allclose(grad[0], 0.0, atol=1e-12)
        np.testing.assert_allclose(grad[1], ky * np.cos(2.0 * math.pi * 8 * x / 6.0)
                                   * np.cos(ky * y), atol=1e-12)
        kx = 2.0 * math.pi / 6.0
        nyq_y = np.sin(kx * x) * np.cos(2.0 * math.pi * 4 * y / 7.0)   # Nyquist of axis 1
        grad = fb.gradient_values(nyq_y, self.GRID)
        np.testing.assert_allclose(grad[0], kx * np.cos(kx * x)
                                   * np.cos(2.0 * math.pi * 4 * y / 7.0), atol=1e-12)
        np.testing.assert_allclose(grad[1], 0.0, atol=1e-12)

    def test_symbols_shared_and_read_only(self):
        lam, iks = fb._symbols(self.GRID)
        again = fb._symbols(ff.FiberGrid(2, [6, 7], [16, 8]))
        assert again[0] is lam and all(a is b for a, b in zip(again[1], iks))
        assert lam.shape == (16, 5) and [ik.shape for ik in iks] == [(16, 1), (1, 5)]
        for array in (lam, *iks):
            with pytest.raises(ValueError):
                array[0, 0] = 1.0
