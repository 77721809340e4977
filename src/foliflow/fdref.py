"""Second-order finite-difference reference path for the fiber heat flow.

This module deliberately avoids Fourier transforms so that it can serve as
an independent cross-check of the spectral machinery: centered stencils
for the conformal leaf Laplacian, a theta time-stepping scheme with sparse
periodic solves, and a mean-curvature evaluation that differences the raw
metric components.  It is also the authoritative evolution path whenever
psi varies along a fiber, where the leaf Laplacian has variable
coefficients and no exact multiplier exists.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np
import scipy.sparse as sp
import scipy.sparse.linalg as spla

from .errors import InputError, SolveError
from .fiber import FiberGrid
from . import geometry


@dataclass(frozen=True)
class FdScheme:
    """Theta-scheme parameters: dt is a step ceiling, theta the implicitness.

    theta = 0.5 (trapezoidal) is the default and is unconditionally stable,
    as is anything above it; below 0.5 the usual parabolic step restriction
    applies and is enforced at run time.
    """

    dt: float = 1e-3
    theta: float = 0.5

    def __post_init__(self):
        if not (np.isfinite(self.dt) and self.dt > 0):
            raise InputError(f"dt must be finite and positive, got {self.dt}")
        if not 0.0 <= self.theta <= 1.0:
            raise InputError(f"theta must lie in [0, 1], got {self.theta}")


def _roll_diff(arr: np.ndarray, axis: int, h: float) -> np.ndarray:
    return (np.roll(arr, -1, axis=axis) - np.roll(arr, 1, axis=axis)) / (2.0 * h)


def _roll_second(arr: np.ndarray, axis: int, h: float) -> np.ndarray:
    return (np.roll(arr, -1, axis=axis) - 2.0 * arr + np.roll(arr, 1, axis=axis)) / h ** 2


def fd_laplacian_conformal(u: np.ndarray, psi: np.ndarray, grid: FiberGrid) -> np.ndarray:
    """Centered-difference leaf Laplacian for the metric exp(2*psi) * flat.

    dim 1:  exp(-2*psi) (u'' - psi' u');  dim 2:  exp(-2*psi) * flat Laplacian
    (the conformal factor drops out of the derivative terms only in two
    dimensions).  Acts on the trailing grid axes, broadcasting over leading
    ones; psi must have the same shape as u.
    """
    u = np.asarray(u, dtype=float)
    psi = np.asarray(psi, dtype=float)
    if u.shape != psi.shape:
        raise InputError(f"u shape {u.shape} != psi shape {psi.shape}")
    if u.shape[-grid.dim:] != grid.shape:
        raise InputError(f"field shape {u.shape} does not end with grid shape {grid.shape}")
    first = u.ndim - grid.dim
    if grid.dim == 1:
        h = grid.spacing(0)
        return np.exp(-2.0 * psi) * (
            _roll_second(u, first, h) - _roll_diff(psi, first, h) * _roll_diff(u, first, h)
        )
    flat = _roll_second(u, first, grid.spacing(0)) + _roll_second(u, first + 1, grid.spacing(1))
    return np.exp(-2.0 * psi) * flat


def _shift_matrix(n: int, s: int) -> sp.csr_matrix:
    rows = np.arange(n)
    return sp.csr_matrix((np.ones(n), (rows, (rows + s) % n)), shape=(n, n))


def operator_matrix(psi: np.ndarray, grid: FiberGrid) -> sp.csr_matrix:
    """Sparse matrix of the centered conformal Laplacian on one fiber."""
    psi = np.asarray(psi, dtype=float)
    if psi.shape != grid.shape:
        raise InputError(f"psi shape {psi.shape} != grid shape {grid.shape}")
    if grid.dim == 1:
        n = grid.points[0]
        h = grid.spacing(0)
        conf = np.exp(-2.0 * psi)
        dpsi = _roll_diff(psi, 0, h)
        up = conf * (1.0 / h ** 2 - dpsi / (2.0 * h))
        down = conf * (1.0 / h ** 2 + dpsi / (2.0 * h))
        main = -2.0 * conf / h ** 2
        rows = np.arange(n)
        data = np.concatenate([main, up, down])
        cols = np.concatenate([rows, (rows + 1) % n, (rows - 1) % n])
        return sp.csr_matrix((data, (np.tile(rows, 3), cols)), shape=(n, n))
    n1, n2 = grid.points
    h1, h2 = grid.spacing(0), grid.spacing(1)
    eye1, eye2 = sp.identity(n1, format="csr"), sp.identity(n2, format="csr")
    lap1 = (_shift_matrix(n1, 1) + _shift_matrix(n1, -1) - 2.0 * eye1) / h1 ** 2
    lap2 = (_shift_matrix(n2, 1) + _shift_matrix(n2, -1) - 2.0 * eye2) / h2 ** 2
    flat = sp.kron(lap1, eye2) + sp.kron(eye1, lap2)
    conf = sp.diags(np.exp(-2.0 * psi).reshape(-1))
    return (conf @ flat).tocsr()


def _validate_explicit_step(dt: float, theta: float, psi: np.ndarray, grid: FiberGrid):
    if theta >= 0.5:
        return
    h2 = min(grid.spacing(k) for k in range(grid.dim)) ** 2
    diffusivity = float(np.max(np.exp(-2.0 * psi)))
    bound = h2 / (2.0 * grid.dim * diffusivity * (1.0 - 2.0 * theta))
    if dt > bound:
        raise InputError(
            f"theta = {theta} < 0.5 demands dt <= {bound:.3e}; got dt = {dt:.3e}"
        )


def fd_heat_run(u0: np.ndarray, psi: np.ndarray, grid: FiberGrid, t_end: float,
                scheme: FdScheme) -> np.ndarray:
    """March du/dt = Lap_conformal u on the grid from 0 to t_end.

    u0 may carry leading batch axes; all batch members share the single
    psi profile (shape = grid.shape), so one factorization covers the whole
    stack.  The requested dt is shrunk uniformly so the steps tile [0, t_end]
    exactly.  With the flat stencil (psi = 0) the column sums of the operator
    vanish, so the scheme conserves the grid mean of u to solver round-off.
    """
    u0 = np.asarray(u0, dtype=float)
    psi = np.asarray(psi, dtype=float)
    if psi.shape != grid.shape:
        raise InputError(f"psi shape {psi.shape} != grid shape {grid.shape}")
    if u0.shape[-grid.dim:] != grid.shape:
        raise InputError(f"u0 shape {u0.shape} does not end with grid shape {grid.shape}")
    if t_end < 0:
        raise InputError(f"t_end must be nonnegative, got {t_end}")
    if t_end == 0:
        return u0.copy()
    steps = max(1, int(np.ceil(t_end / scheme.dt - 1e-12)))
    dt = t_end / steps
    _validate_explicit_step(dt, scheme.theta, psi, grid)

    lap = operator_matrix(psi, grid)
    size = lap.shape[0]
    eye = sp.identity(size, format="csr")
    lhs = (eye - scheme.theta * dt * lap).tocsc()
    rhs = (eye + (1.0 - scheme.theta) * dt * lap).tocsr()
    try:
        solver = spla.splu(lhs)
    except RuntimeError as exc:  # singular factorization
        raise SolveError(f"implicit step factorization failed: {exc}") from exc

    lead = u0.shape[: u0.ndim - grid.dim]
    work = u0.reshape(-1, size).T.copy()  # columns are batch members
    for _ in range(steps):
        work = solver.solve(rhs @ work)
    if not np.all(np.isfinite(work)):
        raise SolveError("finite-difference march produced non-finite values")
    return work.T.reshape(lead + grid.shape)


def fd_mean_curvature_from_metric(state: "geometry.ProductState") -> np.ndarray:
    """Leaf mean curvature by differencing the raw metric components.

    The Koszul formula on coordinate fields gives, for the block-diagonal
    conformal metric with identical diagonal entries exp(2*phi) over the
    base and exp(2*psi) over the fiber,

        H^j = -(1/2) g^{jj} sum_a g^{aa} d_j g_aa
            = -(n/2) exp(-2*psi) exp(-2*phi) d_j exp(2*phi),

    with d_j replaced by a centered difference along fiber axis j.  Agrees
    with the spectral twisted_mean_curvature to second order in the fiber
    spacing.
    """
    g_base_diag = np.exp(2.0 * state.phi)  # every base diagonal entry
    out = np.empty((state.p,) + state.shape)
    for j in range(state.p):
        axis = state.n + j
        h = state.fiber.spacing(j)
        d = _roll_diff(g_base_diag, axis, h)
        out[j] = -(state.n / 2.0) * np.exp(-2.0 * state.psi) * d / g_base_diag
    return out
