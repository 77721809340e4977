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


def operator_matrix(psi: np.ndarray, grid: FiberGrid) -> sp.csr_matrix:
    """Sparse matrix of the centered conformal Laplacian on one or more fibers.

    psi is one profile (grid.shape) or a stack of k profiles ((k,) + grid.shape);
    a stack gives the block-diagonal operator on the k fibers in stack order,
    from one sparse construction.  The result is canonical CSR with sorted
    indices, so a one-profile stack gives the same matrix as its profile.
    """
    psi = np.asarray(psi, dtype=float)
    if psi.shape == grid.shape:
        psi = psi[np.newaxis]
    if psi.shape[1:] != grid.shape:
        raise InputError(f"psi shape {psi.shape} is neither the grid shape {grid.shape} "
                         f"nor a stack of profiles (k,) + {grid.shape}")
    conf = np.exp(-2.0 * psi)
    # (column, value) of each stencil entry; rolling the index array along a
    # grid axis keeps every periodic neighbour inside its own fiber's block
    index = np.arange(psi.size).reshape(psi.shape)
    if grid.dim == 1:
        h = grid.spacing(0)
        dpsi = _roll_diff(psi, 1, h)
        stencil = [
            (index, -2.0 * conf / h ** 2),
            (np.roll(index, -1, axis=1), conf * (1.0 / h ** 2 - dpsi / (2.0 * h))),
            (np.roll(index, 1, axis=1), conf * (1.0 / h ** 2 + dpsi / (2.0 * h))),
        ]
    else:
        inv = [1.0 / grid.spacing(axis) ** 2 for axis in range(2)]
        stencil = [(index, conf * (-2.0 * inv[0] + -2.0 * inv[1]))]
        stencil += [(np.roll(index, shift, axis=1 + axis), conf * inv[axis])
                    for axis in range(2) for shift in (-1, 1)]
    rows = np.tile(index.reshape(-1), len(stencil))
    cols = np.concatenate([c.reshape(-1) for c, _ in stencil])
    data = np.concatenate([v.reshape(-1) for _, v in stencil])
    return sp.csr_matrix((data, (rows, cols)), shape=(psi.size, psi.size))


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


# Unknowns per block-diagonal factorization.  A block-diagonal LU has exactly
# the fill of its blocks, so packing many small fibers into one factorization
# costs no arithmetic and replaces thousands of tiny solve calls by a few.  A
# factor that outgrows the cache slows every step down, hence the bound: a
# p = 2 run over 16 distinct fibers of 64^2 took 1.6-1.8 s and 79 MB with it,
# 2.1-2.6 s and 177 MB as one block (2-core Xeon VM).
_BLOCK_UNKNOWNS = 4096


def _theta_march(lap: sp.csr_matrix, work: np.ndarray, steps: int, dt: float,
                 theta: float) -> np.ndarray:
    """Apply `steps` theta steps of du/dt = lap u to the columns of work."""
    eye = sp.identity(lap.shape[0], format="csr")
    lhs = (eye - theta * dt * lap).tocsc()
    rhs = (eye + (1.0 - theta) * dt * lap).tocsr()
    try:
        solver = spla.splu(lhs)
    except RuntimeError as exc:  # singular factorization
        raise SolveError(f"implicit step factorization failed: {exc}") from exc
    for _ in range(steps):
        work = solver.solve(rhs @ work)
    return work


def fd_heat_run(u0: np.ndarray, psi: np.ndarray, grid: FiberGrid, t_end: float,
                scheme: FdScheme) -> np.ndarray:
    """March du/dt = Lap_conformal u on the grid from 0 to t_end.

    u0 may carry leading batch axes, and psi takes one of two shapes:
    grid.shape, one profile shared by every batch member, or u0.shape, one
    profile per member.  Members whose profiles are bit-equal are marched
    together as the columns of one right-hand side.  Distinct profiles are
    packed, in turn, into chunks of at most max(fiber size, _BLOCK_UNKNOWNS)
    unknowns, and each chunk is marched through one factorization of its
    block-diagonal implicit operator, with zero columns padding the groups
    that have fewer members.  The requested dt is shrunk uniformly so the
    steps tile [0, t_end] exactly.  With the flat stencil (psi = 0) the
    column sums of the operator vanish, so the scheme conserves the grid mean
    of u to solver round-off.
    """
    u0 = np.asarray(u0, dtype=float)
    psi = np.asarray(psi, dtype=float)
    if u0.shape[-grid.dim:] != grid.shape:
        raise InputError(f"u0 shape {u0.shape} does not end with grid shape {grid.shape}")
    size = int(np.prod(grid.shape))
    flat = u0.reshape(-1, size)
    if psi.shape == grid.shape:
        profiles = psi[np.newaxis]
        inverse = np.zeros(len(flat), dtype=int)
    elif psi.shape == u0.shape:
        profiles, inverse = np.unique(psi.reshape(-1, size), axis=0, return_inverse=True)
        profiles, inverse = profiles.reshape((-1,) + grid.shape), inverse.reshape(-1)
    else:
        raise InputError(
            f"psi shape {psi.shape} is neither the grid shape {grid.shape} "
            f"nor the u0 shape {u0.shape}"
        )
    if t_end < 0:
        raise InputError(f"t_end must be nonnegative, got {t_end}")
    if t_end == 0:
        return u0.copy()
    steps = max(1, int(np.ceil(t_end / scheme.dt - 1e-12)))
    dt = t_end / steps
    _validate_explicit_step(dt, scheme.theta, psi, grid)

    counts = np.bincount(inverse, minlength=len(profiles))
    groups = np.split(np.argsort(inverse, kind="stable"), np.cumsum(counts)[:-1])
    per_chunk = max(1, _BLOCK_UNKNOWNS // size)
    out = np.empty_like(flat)
    for first in range(0, len(profiles), per_chunk):
        chunk = groups[first:first + per_chunk]
        width = max(len(g) for g in chunk)
        work = np.zeros((len(chunk), size, width))  # one column per member rank
        for block, members in zip(work, chunk):
            block[:, :len(members)] = flat[members].T
        work = _theta_march(operator_matrix(profiles[first:first + per_chunk], grid),
                            work.reshape(-1, width), steps, dt, scheme.theta)
        for block, members in zip(work.reshape(len(chunk), size, width), chunk):
            out[members] = block[:, :len(members)].T
    if not np.all(np.isfinite(out)):
        raise SolveError("finite-difference march produced non-finite values")
    return out.reshape(u0.shape)


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
