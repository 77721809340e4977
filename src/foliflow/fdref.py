"""Second-order finite-difference reference path for the fiber heat flow.

This module deliberately avoids Fourier transforms so that it can serve as
an independent cross-check of the spectral machinery: the centered
conformal leaf Laplacian on a stack of fiber profiles as a sparse
block-diagonal matrix, and a theta time-stepping scheme with one sparse
periodic factorization per chunk of fibers.  It is also the authoritative
evolution path whenever psi varies along a fiber, where the leaf Laplacian
has variable coefficients and no exact multiplier exists.

The theta march takes one of two routes through the same factorization.
Small fibers over many steps form each fiber's dense step matrix with one
solve and raise it to the step count by repeated squaring; large fibers or
few steps apply one sparse solve per step.  Both give the same scheme, and
differ only at round-off.

scipy is loaded on the first march, not with this module, so importing
the package, or any run that never marches, does not load it.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import TYPE_CHECKING

import numpy as np

from .errors import InputError, SolveError
from .fiber import FiberGrid

# scipy.sparse is imported inside the two functions that use it: its import
# costs about 0.4 s and 30 MB (2-core Xeon VM), and only a march needs it.
if TYPE_CHECKING:
    import scipy.sparse as sp


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


def operator_matrix(psi: np.ndarray, grid: FiberGrid) -> sp.csr_matrix:
    """Sparse matrix of the centered conformal Laplacian on a stack of fibers.

    psi is a stack of k profiles, (k,) + grid.shape; the result is the
    block-diagonal operator on the k fibers in stack order, from one sparse
    construction, in canonical CSR with sorted indices.  The stencil is
    Lap_perp u = exp(-2 psi) (Lap u + (p - 2) grad psi . grad u), each
    axis contributing centered second and first differences.
    """
    import scipy.sparse as sp

    psi = np.asarray(psi, dtype=float)
    if psi.shape[1:] != grid.shape:
        raise InputError(f"psi shape {psi.shape} is not a stack of profiles "
                         f"(k,) + {grid.shape}")
    conf = np.exp(-2.0 * psi)
    # (column, value) of each stencil entry; rolling the index array along a
    # grid axis keeps every periodic neighbour inside its own fiber's block
    index = np.arange(psi.size).reshape(psi.shape)
    spacings = [grid.spacing(axis) for axis in range(grid.dim)]
    stencil = [(index, sum(-2.0 * conf / h ** 2 for h in spacings))]
    for axis, h in enumerate(spacings):
        drift = (grid.dim - 2) * _roll_diff(psi, 1 + axis, h) / (2.0 * h)
        stencil += [(np.roll(index, -1, axis=1 + axis), conf * (1.0 / h ** 2 + drift)),
                    (np.roll(index, 1, axis=1 + axis), conf * (1.0 / h ** 2 - drift))]
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


# Unknowns per block-diagonal factorization on the stepped route.  A
# block-diagonal LU has exactly the fill of its blocks, so packing many small
# fibers into one factorization costs no arithmetic and replaces thousands of
# tiny solve calls by a few.  A factor that outgrows the cache slows every step
# down, hence the bound: a p = 2 run over 16 distinct fibers of 64^2 took
# 1.6-1.8 s and 79 MB with it, 2.1-2.6 s and 177 MB as one block (2-core Xeon
# VM).  The dense route packs by _DENSE_ENTRIES as well.
_BLOCK_UNKNOWNS = 4096

# The dense route is taken iff size^2 <= _DENSE_STEPS_PER_ENTRY * steps for
# fibers of `size` points.  Squaring costs ~size^3 log(steps) per fiber against
# ~size * steps for the stepped solves, plus a fixed per-call overhead that the
# stepped route pays on every step.  Measured ms per 4096-unknown call,
# stepped/dense (theta = 0.5, dt = 1e-3, 2-core Xeon VM), this bound picks the
# faster route in every cell below; of the 30 cells measured, p = 2 included,
# its one miss is a near-tie (8^2 at 100 steps):
#   size \ steps   10        100      250      500      1000
#   32            5.8/10.6  30/19    116/13   104/11   211/11
#   64            4.6/17    19/20    43/22    82/23    159/28
#   128           5.5/161   21/108   45/134   87/120   190/149
#   256           5.5/216   19/261   43/259   79/281   155/423
_DENSE_STEPS_PER_ENTRY = 25

# Step-matrix entries per dense chunk (16 fibers of 64 points).  Packing up to
# _BLOCK_UNKNOWNS instead held 9.1 MB at the traced peak of a 64-profile,
# 64-point, 500-step call and raised the fd-p1 benchmark's peak RSS from 66 to
# 74 MB; with this cap the peak is 2.3 MB (stepped route: 0.9 MB) and the call
# is no slower (27-28 ms either way).
_DENSE_ENTRIES = 2 ** 16

# Most theta steps one march takes.  Each step adds round-off of about 2^-52
# relative, so 2^22 steps keep the drift near 1e-9.  Beyond it the march
# drifts silently: on a 16-point circle to t_end = 1e-6 (u0 = 0.2 cos y +
# 0.3 sin 2y, psi = 0.1 cos y, sup |u| = 0.44), the gap to the one-step march
# was 4.1e-11 at dt = 1e-12, 2.9e-8 at dt = 1e-15 and 6.6e-6 at dt = 1e-300.
MAX_STEPS = 2 ** 22


def _theta_march(lap: sp.csr_matrix, work: np.ndarray, steps: int, dt: float,
                 theta: float, dense: bool) -> np.ndarray:
    """Apply `steps` theta steps of du/dt = lap u to the columns of each block.

    work is (blocks, size, width) and lap the block-diagonal operator on the
    blocks in order.  Both routes factor I - theta dt lap once.  The stepped
    route solves once per step.  The dense route solves once against the
    stacked block identities, giving every block's step matrix
    S_b = (I - theta dt L_b)^-1 (I + (1 - theta) dt L_b), raises the stack of
    S_b to `steps` by repeated squaring and applies it to the block's columns.
    """
    import scipy.sparse as sp
    import scipy.sparse.linalg as spla

    blocks, size, width = work.shape
    eye = sp.identity(lap.shape[0], format="csr")
    lhs = (eye - theta * dt * lap).tocsc()
    rhs = (eye + (1.0 - theta) * dt * lap).tocsr()
    try:
        solver = spla.splu(lhs)
    except RuntimeError as exc:  # singular factorization
        raise SolveError(f"implicit step factorization failed: {exc}") from exc
    if dense:
        step = solver.solve(rhs @ np.tile(np.eye(size), (blocks, 1)))
        return np.linalg.matrix_power(step.reshape(blocks, size, size), steps) @ work
    work = work.reshape(-1, width)
    for _ in range(steps):
        work = solver.solve(rhs @ work)
    return work.reshape(blocks, size, width)


def fd_heat_run(u0: np.ndarray, psi: np.ndarray, grid: FiberGrid, t_end: float,
                scheme: FdScheme) -> np.ndarray:
    """March du/dt = Lap_conformal u on the grid from 0 to t_end.

    u0 may carry leading batch axes, and psi has u0's shape: one profile
    per member.  Members whose profiles are bit-equal are marched together
    as the columns of one right-hand side.  Distinct profiles are packed,
    in turn, into chunks, and each chunk is marched through one
    factorization of its block-diagonal implicit operator, with zero columns
    padding the groups that have fewer members.  The requested dt is shrunk
    uniformly so the steps tile [0, t_end] exactly; more than MAX_STEPS
    steps raise InputError.  Fibers of `size` points
    take the dense route of _theta_march iff
    size^2 <= _DENSE_STEPS_PER_ENTRY * steps, in chunks of at most
    _DENSE_ENTRIES step-matrix entries (and _BLOCK_UNKNOWNS unknowns);
    otherwise they take the stepped route in chunks of at most
    max(size, _BLOCK_UNKNOWNS) unknowns.  With the flat stencil (psi = 0) the
    column sums of the operator vanish, so the scheme conserves the grid mean
    of u to solver round-off.
    """
    u0 = np.asarray(u0, dtype=float)
    psi = np.asarray(psi, dtype=float)
    if u0.shape[-grid.dim:] != grid.shape:
        raise InputError(f"u0 shape {u0.shape} does not end with grid shape {grid.shape}")
    if psi.shape != u0.shape:
        raise InputError(f"psi shape {psi.shape} is not the u0 shape {u0.shape}")
    size = int(np.prod(grid.shape))
    flat = u0.reshape(-1, size)
    profiles, inverse = np.unique(psi.reshape(-1, size), axis=0, return_inverse=True)
    profiles, inverse = profiles.reshape((-1,) + grid.shape), inverse.reshape(-1)
    if not (np.isfinite(t_end) and t_end >= 0):
        raise InputError(f"t_end must be finite and nonnegative, got {t_end}")
    if t_end == 0:
        return u0.copy()
    ratio = t_end / scheme.dt - 1e-12
    if not ratio <= MAX_STEPS:      # inf included
        raise InputError(f"dt = {scheme.dt:g} over t_end = {t_end:g} takes more than "
                         f"MAX_STEPS = {MAX_STEPS} theta steps, whose round-off drifts")
    steps = max(1, int(np.ceil(ratio)))
    dt = t_end / steps
    _validate_explicit_step(dt, scheme.theta, psi, grid)

    counts = np.bincount(inverse, minlength=len(profiles))
    groups = np.split(np.argsort(inverse, kind="stable"), np.cumsum(counts)[:-1])
    dense = size ** 2 <= _DENSE_STEPS_PER_ENTRY * steps
    per_chunk = _BLOCK_UNKNOWNS // size
    if dense:
        per_chunk = min(per_chunk, _DENSE_ENTRIES // size ** 2)
    per_chunk = max(1, per_chunk)
    out = np.empty_like(flat)
    for first in range(0, len(profiles), per_chunk):
        chunk = groups[first:first + per_chunk]
        width = max(len(g) for g in chunk)
        work = np.zeros((len(chunk), size, width))  # one column per member rank
        for block, members in zip(work, chunk):
            block[:, :len(members)] = flat[members].T
        work = _theta_march(operator_matrix(profiles[first:first + per_chunk], grid),
                            work, steps, dt, scheme.theta, dense)
        for block, members in zip(work, chunk):
            out[members] = block[:, :len(members)].T
    if not np.all(np.isfinite(out)):
        raise SolveError("finite-difference march produced non-finite values")
    return out.reshape(u0.shape)
