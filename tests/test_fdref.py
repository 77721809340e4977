"""Tests for the finite-difference reference path.

The centered periodic stencil diagonalizes on grid Fourier modes with the
exact discrete symbol s(k) = 2 (1 - cos(k h)) / h^2, and the theta scheme
amplifies an eigenvector by a known rational factor per step.  Both facts
give machine-precision oracles that never touch the spectral code; the
variable-coefficient cases fall back on hand formulas plus Richardson
order measurements.
"""

import math

import hypothesis as hyp
import hypothesis.strategies as st
import numpy as np
import pytest

import foliflow as ff
from foliflow import fdref
from foliflow.errors import InputError

CIRCLE = ff.FiberGrid(1, (2.0 * math.pi,), (256,))
SMALL = ff.FiberGrid(1, (2.0 * math.pi,), (64,))
TORUS8 = ff.FiberGrid(2, (2.0 * math.pi, 2.0 * math.pi), (8, 8))


def discrete_symbol(k, grid, axis=0):
    h = grid.spacing(axis)
    return 2.0 * (1.0 - math.cos(k * h)) / h ** 2


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
        np.testing.assert_allclose(ff.fd_laplacian_conformal(u, psi, CIRCLE),
                                   expected, atol=1e-11)

    def test_symbol_is_second_order_accurate(self):
        h = CIRCLE.spacing(0)
        assert abs(discrete_symbol(1, CIRCLE) - 1.0) < 1.01 * h ** 2 / 12.0

    def test_constant_psi_exact_scaling(self):
        y = SMALL.coordinates()[0]
        u = np.sin(2.0 * y)
        flat = ff.fd_laplacian_conformal(u, np.zeros(SMALL.shape), SMALL)
        scaled = ff.fd_laplacian_conformal(u, np.full(SMALL.shape, 0.3), SMALL)
        np.testing.assert_allclose(scaled, math.exp(-0.6) * flat, atol=1e-13)

    def test_torus_mode_discrete_symbol(self):
        rng = np.random.default_rng(0)
        psi = 0.1 * rng.standard_normal(TORUS8.shape)
        y1, y2 = np.meshgrid(*TORUS8.coordinates(), indexing="ij")
        u = np.cos(y1 + 2.0 * y2)
        s = discrete_symbol(1, TORUS8, 0) + discrete_symbol(2, TORUS8, 1)
        np.testing.assert_allclose(ff.fd_laplacian_conformal(u, psi, TORUS8),
                                   -np.exp(-2.0 * psi) * s * u, atol=1e-12)

    def test_shape_validation(self):
        u = np.zeros(SMALL.shape)
        with pytest.raises(InputError):
            ff.fd_laplacian_conformal(u, np.zeros(32), SMALL)
        with pytest.raises(InputError):
            ff.fd_laplacian_conformal(np.zeros(32), np.zeros(32), SMALL)

    def test_variable_psi_second_order(self):
        """Richardson order against the hand continuum formula."""
        errors = {}
        for pts in (64, 128):
            grid = ff.FiberGrid(1, (2.0 * math.pi,), (pts,))
            y = grid.coordinates()[0]
            psi = 0.1 * np.cos(y)
            exact = np.exp(-0.2 * np.cos(y)) * (-np.sin(y)
                                                + 0.1 * np.sin(y) * np.cos(y))
            fd = ff.fd_laplacian_conformal(np.sin(y), psi, grid)
            errors[pts] = np.max(np.abs(fd - exact))
        order = math.log2(errors[64] / errors[128])
        assert abs(order - 2.0) < 0.05


class TestOperatorMatrix:
    @hyp.settings(max_examples=10, deadline=None)
    @hyp.given(seed=st.integers(0, 2 ** 16))
    def test_matvec_matches_stencil_1d(self, seed):
        rng = np.random.default_rng(seed)
        psi = 0.2 * rng.standard_normal(SMALL.shape)
        u = rng.standard_normal(SMALL.shape)
        mat = fdref.operator_matrix(psi, SMALL)
        np.testing.assert_allclose(mat @ u,
                                   ff.fd_laplacian_conformal(u, psi, SMALL),
                                   atol=1e-12)

    def test_matvec_matches_stencil_2d(self):
        rng = np.random.default_rng(1)
        psi = 0.2 * rng.standard_normal(TORUS8.shape)
        u = rng.standard_normal(TORUS8.shape)
        mat = fdref.operator_matrix(psi, TORUS8)
        np.testing.assert_allclose((mat @ u.reshape(-1)).reshape(TORUS8.shape),
                                   ff.fd_laplacian_conformal(u, psi, TORUS8),
                                   atol=1e-12)

    def test_rows_annihilate_constants(self):
        rng = np.random.default_rng(2)
        psi = 0.3 * rng.standard_normal(SMALL.shape)
        mat = fdref.operator_matrix(psi, SMALL)
        assert np.max(np.abs(mat @ np.ones(SMALL.shape))) < 1e-12

    def test_wrong_psi_shape(self):
        with pytest.raises(InputError):
            fdref.operator_matrix(np.zeros(16), SMALL)


class TestFdHeatRun:
    def test_constant_stationary_under_variable_psi(self):
        psi = 0.2 * np.cos(SMALL.coordinates()[0])
        out = ff.fd_heat_run(np.full(SMALL.shape, 3.7), psi, SMALL, 0.5,
                             ff.FdScheme(dt=1e-2))
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

    def test_flat_mean_conserved(self):
        rng = np.random.default_rng(3)
        u0 = rng.standard_normal(SMALL.shape) + 0.7
        out = ff.fd_heat_run(u0, np.zeros(SMALL.shape), SMALL, 0.3,
                             ff.FdScheme(dt=1e-2))
        assert abs(out.mean() - u0.mean()) < 1e-12

    @hyp.settings(max_examples=10, deadline=None)
    @hyp.given(seed=st.integers(0, 2 ** 16))
    def test_implicit_euler_maximum_principle(self, seed):
        rng = np.random.default_rng(seed)
        u0 = rng.standard_normal(SMALL.shape)
        psi = 0.2 * np.cos(SMALL.coordinates()[0])
        out = ff.fd_heat_run(u0, psi, SMALL, 0.5, ff.FdScheme(dt=1e-2, theta=1.0))
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

    def test_zero_time_returns_copy(self):
        u0 = np.cos(SMALL.coordinates()[0])
        out = ff.fd_heat_run(u0, np.zeros(SMALL.shape), SMALL, 0.0, ff.FdScheme())
        np.testing.assert_array_equal(out, u0)
        assert out is not u0


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
