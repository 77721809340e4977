"""Tests for the finite-difference reference path.

The centered periodic stencil diagonalizes on grid Fourier modes with the
exact discrete symbol s(k) = 2 (1 - cos(k h)) / h^2, and the theta scheme
amplifies an eigenvector by a known rational factor per step.  Both facts
give machine-precision oracles that never touch the spectral code; the
variable-coefficient cases fall back on hand formulas plus Richardson
order measurements.  The march has a stepped and a dense route; the
written-out stepped march below is the reference for both.
"""

import math
import tracemalloc

import hypothesis as hyp
import hypothesis.strategies as st
import numpy as np
import pytest
import scipy.sparse as sp
from scipy.sparse.linalg import splu

import foliflow as ff
from foliflow import fdref
from foliflow.errors import InputError

CIRCLE = ff.FiberGrid(1, (2.0 * math.pi,), (256,))
SMALL = ff.FiberGrid(1, (2.0 * math.pi,), (64,))
TORUS8 = ff.FiberGrid(2, (2.0 * math.pi, 2.0 * math.pi), (8, 8))
TORUS16 = ff.FiberGrid(2, (6.0, 7.0), (16, 16))


def discrete_symbol(k, grid, axis=0):
    h = grid.spacing(axis)
    return 2.0 * (1.0 - math.cos(k * h)) / h ** 2


def laplacian(u, psi, grid):
    """The centered conformal Laplacian of u, through its sparse matrix."""
    return (fdref.operator_matrix(psi, grid) @ u.reshape(-1)).reshape(u.shape)


class CountingSolver:
    """A SuperLU factorization that counts its solve calls."""

    def __init__(self, matrix):
        self.size = matrix.shape[0]
        self.solves = 0
        self._lu = splu(matrix)

    def solve(self, rhs):
        self.solves += 1
        return self._lu.solve(rhs)


@pytest.fixture
def factorizations(monkeypatch):
    """Every factorization fdref makes, in order, as a CountingSolver."""
    made = []

    def counting(matrix):
        made.append(CountingSolver(matrix))
        return made[-1]

    monkeypatch.setattr(fdref.spla, "splu", counting)
    return made


def route(factorizations):
    """Which route of the march ran: the dense one solves once per chunk."""
    routes = {"dense" if f.solves == 1 else "stepped" for f in factorizations}
    assert len(routes) == 1
    return routes.pop()


# On SMALL up to t = 0.5 or 0.3 these dt give 50 or 30 steps (stepped,
# 64^2 > 25 * steps) and 500 or 300 steps (dense).
ROUTE_DT = {"stepped": 1e-2, "dense": 1e-3}


class TestFdScheme:
    def test_defaults(self):
        scheme = ff.FdScheme()
        assert scheme.dt == 1e-3 and scheme.theta == 0.5

    @pytest.mark.parametrize("kwargs", [
        {"dt": 0.0},
        {"dt": -1e-3},
        {"theta": -0.1},
        {"theta": 1.5},
        {"dt": math.nan},
        {"dt": math.inf},
        {"theta": math.nan},
    ])
    def test_rejects_bad_parameters(self, kwargs):
        with pytest.raises(InputError):
            ff.FdScheme(**kwargs)

    def test_explicit_step_restriction_enforced(self):
        # theta = 0.3 at 256 points allows dt <= h^2 / (2 * 0.4) ~ 7.5e-4
        u0 = np.cos(CIRCLE.coordinates()[0])
        psi = np.zeros(CIRCLE.shape)
        with pytest.raises(InputError):
            ff.fd_heat_run(u0, psi, CIRCLE, 1.0, ff.FdScheme(dt=1e-3, theta=0.3))

    def test_stable_explicit_step_accepted(self):
        y = CIRCLE.coordinates()[0]
        psi = np.zeros(CIRCLE.shape)
        out = ff.fd_heat_run(np.cos(y), psi, CIRCLE, 0.1,
                             ff.FdScheme(dt=2e-4, theta=0.0))
        assert np.max(np.abs(out - math.exp(-0.1) * np.cos(y))) < 1e-4


class TestFdLaplacian:
    def test_flat_cosine_discrete_symbol(self):
        """Grid cosines are exact eigenvectors of the centered stencil."""
        y = CIRCLE.coordinates()[0]
        u = np.cos(3.0 * y)
        psi = np.zeros(CIRCLE.shape)
        expected = -discrete_symbol(3, CIRCLE) * u
        np.testing.assert_allclose(laplacian(u, psi, CIRCLE), expected, atol=1e-11)

    def test_symbol_is_second_order_accurate(self):
        h = CIRCLE.spacing(0)
        assert abs(discrete_symbol(1, CIRCLE) - 1.0) < 1.01 * h ** 2 / 12.0

    def test_constant_psi_exact_scaling(self):
        y = SMALL.coordinates()[0]
        u = np.sin(2.0 * y)
        flat = laplacian(u, np.zeros(SMALL.shape), SMALL)
        scaled = laplacian(u, np.full(SMALL.shape, 0.3), SMALL)
        np.testing.assert_allclose(scaled, math.exp(-0.6) * flat, atol=1e-13)

    def test_torus_mode_discrete_symbol(self):
        rng = np.random.default_rng(0)
        psi = 0.1 * rng.standard_normal(TORUS8.shape)
        y1, y2 = np.meshgrid(*TORUS8.coordinates(), indexing="ij")
        u = np.cos(y1 + 2.0 * y2)
        s = discrete_symbol(1, TORUS8, 0) + discrete_symbol(2, TORUS8, 1)
        np.testing.assert_allclose(laplacian(u, psi, TORUS8),
                                   -np.exp(-2.0 * psi) * s * u, atol=1e-12)

    def test_shape_validation(self):
        """The operator refuses psi off the grid, and the march u0 off the grid."""
        with pytest.raises(InputError):
            fdref.operator_matrix(np.zeros(32), SMALL)
        with pytest.raises(InputError):
            ff.fd_heat_run(np.zeros(32), np.zeros(32), SMALL, 0.1, ff.FdScheme())

    def test_variable_psi_second_order(self):
        """Richardson order against the hand continuum formula."""
        errors = {}
        for pts in (64, 128):
            grid = ff.FiberGrid(1, (2.0 * math.pi,), (pts,))
            y = grid.coordinates()[0]
            psi = 0.1 * np.cos(y)
            exact = np.exp(-0.2 * np.cos(y)) * (-np.sin(y)
                                                + 0.1 * np.sin(y) * np.cos(y))
            fd = laplacian(np.sin(y), psi, grid)
            errors[pts] = np.max(np.abs(fd - exact))
        order = math.log2(errors[64] / errors[128])
        assert abs(order - 2.0) < 0.05


class TestOperatorMatrix:
    def test_rows_annihilate_constants(self):
        rng = np.random.default_rng(2)
        psi = 0.3 * rng.standard_normal(SMALL.shape)
        mat = fdref.operator_matrix(psi, SMALL)
        assert np.max(np.abs(mat @ np.ones(SMALL.shape))) < 1e-12

    def test_wrong_psi_shape(self):
        with pytest.raises(InputError):
            fdref.operator_matrix(np.zeros(16), SMALL)

    @pytest.mark.parametrize("psi_shape", [(3, 16), (2, 3) + SMALL.shape, (64, 2), ()],
                             ids=["wrong-grid", "two-stack-axes", "wrong-order", "scalar"])
    def test_non_stack_shapes_rejected(self, psi_shape):
        with pytest.raises(InputError):
            fdref.operator_matrix(np.zeros(psi_shape), SMALL)

    @pytest.mark.parametrize("grid", [SMALL, TORUS16], ids=["p1", "p2"])
    @pytest.mark.parametrize("k", [1, 3])
    def test_stack_is_block_diagonal_of_profiles(self, grid, k):
        stack = random_profiles(np.random.default_rng(k), k, grid)
        mat = fdref.operator_matrix(stack, grid)
        assert mat.has_sorted_indices
        blocks = sp.block_diag([fdref.operator_matrix(q, grid) for q in stack], format="csr")
        for attr in ("indptr", "indices", "data"):
            np.testing.assert_array_equal(getattr(mat, attr), getattr(blocks, attr))
        if k == 1:
            single = fdref.operator_matrix(stack[0], grid)
            assert single.has_sorted_indices
            for attr in ("indptr", "indices", "data"):
                np.testing.assert_array_equal(getattr(mat, attr), getattr(single, attr))


class TestFdHeatRun:
    @pytest.mark.parametrize("expected", ROUTE_DT)
    def test_constant_stationary_under_variable_psi(self, expected, factorizations):
        psi = 0.2 * np.cos(SMALL.coordinates()[0])
        out = ff.fd_heat_run(np.full(SMALL.shape, 3.7), psi, SMALL, 0.5,
                             ff.FdScheme(dt=ROUTE_DT[expected]))
        assert route(factorizations) == expected
        np.testing.assert_allclose(out, 3.7, atol=1e-12)

    def test_cosine_exact_amplification(self):
        """1000 trapezoidal steps on an eigenvector, reproduced in closed form."""
        y = CIRCLE.coordinates()[0]
        s = discrete_symbol(1, CIRCLE)
        dt, steps = 1e-3, 1000
        rho = (1.0 - 0.5 * dt * s) / (1.0 + 0.5 * dt * s)
        out = ff.fd_heat_run(np.cos(y), np.zeros(CIRCLE.shape), CIRCLE, 1.0,
                             ff.FdScheme(dt=dt))
        np.testing.assert_allclose(out, rho ** steps * np.cos(y), atol=1e-10)

    def test_cosine_tracks_continuum_decay(self):
        # discretization gap is h^2 / 12 in the rate, about 1.85e-5 at t = 1
        y = CIRCLE.coordinates()[0]
        out = ff.fd_heat_run(np.cos(y), np.zeros(CIRCLE.shape), CIRCLE, 1.0,
                             ff.FdScheme(dt=1e-3))
        gap = np.max(np.abs(out - math.exp(-1.0) * np.cos(y)))
        assert gap < 2.5e-5

    @pytest.mark.parametrize("expected", ROUTE_DT)
    def test_flat_mean_conserved(self, expected, factorizations):
        rng = np.random.default_rng(3)
        u0 = rng.standard_normal(SMALL.shape) + 0.7
        out = ff.fd_heat_run(u0, np.zeros(SMALL.shape), SMALL, 0.3,
                             ff.FdScheme(dt=ROUTE_DT[expected]))
        assert route(factorizations) == expected
        assert abs(out.mean() - u0.mean()) < 1e-12

    @pytest.mark.parametrize("expected", ROUTE_DT)
    @hyp.settings(max_examples=10, deadline=None,
                  suppress_health_check=[hyp.HealthCheck.function_scoped_fixture])
    @hyp.given(seed=st.integers(0, 2 ** 16))
    def test_implicit_euler_maximum_principle(self, expected, factorizations, seed):
        rng = np.random.default_rng(seed)
        u0 = rng.standard_normal(SMALL.shape)
        psi = 0.2 * np.cos(SMALL.coordinates()[0])
        out = ff.fd_heat_run(u0, psi, SMALL, 0.5,
                             ff.FdScheme(dt=ROUTE_DT[expected], theta=1.0))
        assert route(factorizations) == expected
        assert out.max() <= u0.max() + 1e-10
        assert out.min() >= u0.min() - 1e-10

    def test_batched_axes_match_individual_runs(self):
        rng = np.random.default_rng(4)
        u0 = rng.standard_normal((2, 3) + SMALL.shape)
        psi = 0.1 * np.sin(SMALL.coordinates()[0])
        scheme = ff.FdScheme(dt=5e-3)
        batched = ff.fd_heat_run(u0, psi, SMALL, 0.4, scheme)
        for i in range(2):
            for j in range(3):
                single = ff.fd_heat_run(u0[i, j], psi, SMALL, 0.4, scheme)
                np.testing.assert_allclose(batched[i, j], single, atol=1e-13)

    def test_time_validation(self):
        u0 = np.zeros(SMALL.shape)
        with pytest.raises(InputError):
            ff.fd_heat_run(u0, u0, SMALL, -0.1, ff.FdScheme())

    @pytest.mark.parametrize("t_end", [math.nan, math.inf])
    def test_non_finite_time_refused_naming_t_end(self, t_end):
        u0 = np.zeros(SMALL.shape)
        with pytest.raises(InputError, match=rf"t_end must be finite.*got {t_end}"):
            ff.fd_heat_run(u0, u0, SMALL, t_end, ff.FdScheme())

    def test_zero_time_returns_copy(self):
        u0 = np.cos(SMALL.coordinates()[0])
        out = ff.fd_heat_run(u0, np.zeros(SMALL.shape), SMALL, 0.0, ff.FdScheme())
        np.testing.assert_array_equal(out, u0)
        assert out is not u0


def single_profile_march(u0, psi, grid, t_end, scheme):
    """The one-factorization theta march on one psi profile, written out."""
    steps = max(1, int(np.ceil(t_end / scheme.dt - 1e-12)))
    dt = t_end / steps
    lap = fdref.operator_matrix(psi, grid)
    eye = sp.identity(lap.shape[0], format="csr")
    solver = splu((eye - scheme.theta * dt * lap).tocsc())
    rhs = (eye + (1.0 - scheme.theta) * dt * lap).tocsr()
    size = lap.shape[0]
    work = u0.reshape(-1, size).T.copy()
    for _ in range(steps):
        work = solver.solve(rhs @ work)
    return work.T.reshape(u0.shape)


def random_profiles(rng, count, grid):
    coords = np.stack(np.meshgrid(*grid.coordinates(), indexing="ij"))
    amps = 0.1 * rng.standard_normal((count, grid.dim))
    return np.stack([0.2 * np.cos(np.tensordot(a, coords, axes=1) + a.sum())
                     for a in amps])


class TestPerMemberPsi:
    """psi of u0's shape: one profile per batch member, chunked factorizations."""

    scheme = ff.FdScheme(dt=1e-2)

    @pytest.fixture
    def splu_calls(self, monkeypatch):
        calls = []

        def counting(matrix, *args, **kwargs):
            calls.append(matrix.shape[0])
            return splu(matrix, *args, **kwargs)

        monkeypatch.setattr(fdref.spla, "splu", counting)
        return calls

    def test_distinct_profiles_match_individual_runs_bitwise(self, splu_calls):
        rng = np.random.default_rng(5)
        psi = random_profiles(rng, 6, SMALL).reshape((2, 3) + SMALL.shape)
        u0 = rng.standard_normal(psi.shape)
        out = ff.fd_heat_run(u0, psi, SMALL, 0.2, self.scheme)
        assert splu_calls == [6 * 64]
        for i in range(2):
            for j in range(3):
                single = ff.fd_heat_run(u0[i, j], psi[i, j], SMALL, 0.2, self.scheme)
                np.testing.assert_array_equal(out[i, j], single)

    def test_ragged_groups_match_per_profile_runs_bitwise(self, splu_calls):
        rng = np.random.default_rng(6)
        profiles = random_profiles(rng, 3, SMALL)
        owner = np.array([2, 0, 1, 2, 1, 2])  # profiles shared by 1, 2 and 3 members
        u0 = rng.standard_normal((6,) + SMALL.shape)
        out = ff.fd_heat_run(u0, profiles[owner], SMALL, 0.2, self.scheme)
        assert splu_calls == [3 * 64]
        for k in range(3):
            members = np.nonzero(owner == k)[0]
            stacked = single_profile_march(u0[members], profiles[k], SMALL, 0.2,
                                           self.scheme)
            np.testing.assert_array_equal(out[members], stacked)

    def test_profiles_beyond_one_chunk_match_per_profile_runs_bitwise(self, splu_calls):
        rng = np.random.default_rng(7)
        psi = random_profiles(rng, 65, SMALL)
        u0 = rng.standard_normal(psi.shape)
        out = ff.fd_heat_run(u0, psi, SMALL, 0.05, self.scheme)
        assert splu_calls == [fdref._BLOCK_UNKNOWNS, 64]
        for k in range(65):
            np.testing.assert_array_equal(
                out[k], single_profile_march(u0[k], psi[k], SMALL, 0.05, self.scheme))

    def test_shared_profile_is_one_factorization(self, splu_calls):
        rng = np.random.default_rng(8)
        psi = random_profiles(rng, 1, SMALL)[0]
        u0 = rng.standard_normal((4,) + SMALL.shape)
        shared = ff.fd_heat_run(u0, psi, SMALL, 0.2, self.scheme)
        np.testing.assert_array_equal(
            shared, single_profile_march(u0, psi, SMALL, 0.2, self.scheme))
        repeated = ff.fd_heat_run(u0, np.broadcast_to(psi, u0.shape), SMALL, 0.2,
                                  self.scheme)
        np.testing.assert_array_equal(repeated, shared)
        assert splu_calls == [64, 64]

    def test_torus_fiber_alone_in_its_chunk_is_bitwise(self, splu_calls):
        grid = ff.FiberGrid(2, (2.0 * math.pi, 2.0 * math.pi), (64, 64))
        rng = np.random.default_rng(9)
        psi = random_profiles(rng, 2, grid)
        u0 = rng.standard_normal(psi.shape)
        out = ff.fd_heat_run(u0, psi, grid, 0.02, self.scheme)
        assert splu_calls == [64 * 64, 64 * 64]
        for k in range(2):
            np.testing.assert_array_equal(
                out[k], single_profile_march(u0[k], psi[k], grid, 0.02, self.scheme))

    def test_torus_multi_profile_chunk_agrees(self, splu_calls):
        grid = ff.FiberGrid(2, (6.0, 7.0), (16, 16))
        rng = np.random.default_rng(10)
        psi = random_profiles(rng, 5, grid)
        u0 = rng.standard_normal(psi.shape)
        out = ff.fd_heat_run(u0, psi, grid, 0.1, self.scheme)
        assert splu_calls == [5 * 256]
        for k in range(5):
            np.testing.assert_allclose(
                out[k], single_profile_march(u0[k], psi[k], grid, 0.1, self.scheme),
                rtol=0, atol=1e-13)

    @pytest.mark.parametrize("psi_shape", [(3,) + SMALL.shape, (64, 2), (32,)],
                             ids=["wrong-batch", "wrong-order", "wrong-grid"])
    def test_other_psi_shapes_rejected(self, psi_shape):
        u0 = np.zeros((2,) + SMALL.shape)
        with pytest.raises(InputError):
            ff.fd_heat_run(u0, np.zeros(psi_shape), SMALL, 0.1, self.scheme)


class TestDenseRoute:
    """Step matrices raised to the step count, against the stepped march."""

    scheme = ff.FdScheme(dt=1e-3)

    @pytest.mark.parametrize("steps, expected", [(163, "stepped"), (164, "dense")])
    def test_rule_picks_route(self, factorizations, steps, expected):
        # 64^2 = 4096 lies between 25 * 163 and 25 * 164
        u0 = np.cos(SMALL.coordinates()[0])
        ff.fd_heat_run(u0, np.zeros(SMALL.shape), SMALL, steps * 1e-3, self.scheme)
        assert route(factorizations) == expected
        assert factorizations[0].solves == (steps if expected == "stepped" else 1)

    @pytest.mark.parametrize("grid", [SMALL, TORUS8], ids=["p1", "p2"])
    def test_matches_stepped_march(self, factorizations, grid):
        rng = np.random.default_rng(11)
        psi = random_profiles(rng, 3, grid)
        u0 = rng.standard_normal(psi.shape)
        out = ff.fd_heat_run(u0, psi, grid, 0.5, self.scheme)
        assert route(factorizations) == "dense"
        for k in range(3):
            np.testing.assert_allclose(
                out[k], single_profile_march(u0[k], psi[k], grid, 0.5, self.scheme),
                rtol=0, atol=1e-13)

    def test_chunk_boundary_matches_individual_runs_bitwise(self, factorizations):
        rng = np.random.default_rng(12)
        psi = random_profiles(rng, 20, SMALL)
        u0 = rng.standard_normal(psi.shape)
        out = ff.fd_heat_run(u0, psi, SMALL, 0.5, self.scheme)
        assert [f.size for f in factorizations] == [16 * 64, 4 * 64]
        assert route(factorizations) == "dense"
        for k in range(20):
            np.testing.assert_array_equal(
                out[k], ff.fd_heat_run(u0[k], psi[k], SMALL, 0.5, self.scheme))

    def test_peak_memory_stays_flat(self):
        rng = np.random.default_rng(13)
        psi = random_profiles(rng, 64, SMALL)
        u0 = rng.standard_normal(psi.shape)
        ff.fd_heat_run(u0, psi, SMALL, 0.5, self.scheme)  # warm lazy imports
        tracemalloc.start()
        try:
            ff.fd_heat_run(u0, psi, SMALL, 0.5, self.scheme)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak <= 3e6


class TestFdMeanCurvature:
    def test_product_state_vanishes(self):
        state = ff.ProductState.from_harmonics(
            ff.FiberGrid(1, (2.0 * math.pi,), (4,)), SMALL, {})
        assert np.max(np.abs(ff.fd_mean_curvature_from_metric(state))) == 0.0

    def test_twisted_closed_form(self):
        base = ff.FiberGrid(1, (2.0 * math.pi,), (4,))
        state = ff.ProductState.from_harmonics(base, CIRCLE, {(0, 1): 0.2})
        y = CIRCLE.coordinates()[0]
        h = ff.fd_mean_curvature_from_metric(state)
        np.testing.assert_allclose(h[0], np.broadcast_to(0.2 * np.sin(y),
                                                         state.shape), atol=1e-4)

    def test_base_dimension_scaling(self):
        base = ff.FiberGrid(2, (2.0 * math.pi, 2.0 * math.pi), (4, 4))
        state = ff.ProductState.from_harmonics(base, CIRCLE, {(0, 0, 1): 0.2})
        y = CIRCLE.coordinates()[0]
        h = ff.fd_mean_curvature_from_metric(state)
        np.testing.assert_allclose(h[0], np.broadcast_to(0.4 * np.sin(y),
                                                         state.shape), atol=2e-4)

    def test_second_order_against_spectral(self):
        base = ff.FiberGrid(1, (2.0 * math.pi,), (4,))
        errors = {}
        for pts in (64, 128):
            grid = ff.FiberGrid(1, (2.0 * math.pi,), (pts,))
            state = ff.ProductState.from_harmonics(base, grid, {(0, 1): 0.2})
            gap = (ff.fd_mean_curvature_from_metric(state)
                   - ff.twisted_mean_curvature(state))
            errors[pts] = np.max(np.abs(gap))
        order = math.log2(errors[64] / errors[128])
        assert abs(order - 2.0) < 0.05
