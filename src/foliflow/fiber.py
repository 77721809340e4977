"""Exact heat-equation machinery on flat periodic fibers.

Everything in this module lives on a uniform grid over a circle or a flat
torus with side lengths L_1..L_p.  The flat Laplacian diagonalizes in the
Fourier basis: the mode with integer vector l = (l_1..l_p) has eigenvalue

    lambda_l = sum_k (2*pi*l_k / L_k)**2,

so the heat semigroup exp(t*Lap), its running time integral and the heat
kernel are exact Fourier multipliers, as are the spectral first
derivatives and the periodic antiderivative.  No time-stepping happens
here.

Fields are stored nodally.  Transforms go through real FFTs, which keep
the conjugate (Hermitian) symmetry of the spectrum intact after every
multiplier application, so evolved fields stay exactly real.  The
symbols every multiplier reads are built once per grid; ``spectrum`` and
``nodal`` move a field to their layout and back, so a caller that keeps
a spectrum applies further multipliers without transforming again.

Array-level helpers (evolve_values, time_integral_values, ...) act on the
trailing ``grid.dim`` axes and broadcast over any leading axes, so whole
stacks of fibers evolve at once.  The flow engine keeps its driving
scalar as a spectrum, applies ``time_integral_sum_spectrum`` to it and
returns through ``nodal``; for the t = inf limit it applies
``time_integral_limit_spectrum`` to the same spectrum.  The
``rate_scale`` argument scales every eigenvalue by a per-stack factor,
which is how a fiber-constant conformal factor exp(2*psi) enters: the
leaf Laplacian is then exp(-2*psi) times the flat one.
"""

from __future__ import annotations

import functools
import math
import numbers
from dataclasses import dataclass

import numpy as np

from .errors import InputError

DEFAULT_POINTS = 64
KERNEL_CUTOFF = 64

# Relative slack used when a fiber mean must vanish for an operation
# (infinite-horizon time integrals) to be well defined.
MEAN_ZERO_TOL = 1e-12


@dataclass(frozen=True)
class FiberGrid:
    """Uniform periodic grid on a flat circle (dim 1) or torus (dim 2).

    The same class also discretizes the base factor of a product; nothing
    here is specific to the fiber role except the name.
    """

    dim: int
    sides: tuple[float, ...]
    points: tuple[int, ...]

    def __post_init__(self):
        if self.dim not in (1, 2):
            raise InputError(f"grid dimension must be 1 or 2, got {self.dim}")
        sides = tuple(float(s) for s in np.atleast_1d(self.sides))
        if len(sides) != self.dim:
            raise InputError(f"expected {self.dim} side lengths, got {len(sides)}")
        if not all(math.isfinite(s) and s > 0 for s in sides):
            raise InputError(f"side lengths must be finite and positive, got {sides}")
        pts = np.atleast_1d(self.points)
        if not all(isinstance(p, numbers.Real) and math.isfinite(p) and p == int(p)
                   for p in pts):
            raise InputError(f"points must be {self.dim} finite integer count(s), "
                             f"got {pts.tolist()}")
        pts = tuple(int(p) for p in pts)
        if len(pts) != self.dim:
            raise InputError(f"expected {self.dim} point counts, got {len(pts)}")
        for p in pts:
            if p < 4 or (p & (p - 1)) != 0:
                raise InputError(f"points per dimension must be a power of two >= 4, got {p}")
        # the largest flat eigenvalue, sum_k (pi N_k / L_k)^2; a float product
        # overflows to inf where ** would raise OverflowError
        wave = [math.pi * p / s for p, s in zip(pts, sides)]
        if not math.isfinite(sum(w * w for w in wave)):
            raise InputError(f"side lengths {sides} are too short for {pts} points: the "
                             f"largest eigenvalue sum_k (pi N_k / L_k)^2 is not a finite float")
        object.__setattr__(self, "sides", sides)
        object.__setattr__(self, "points", pts)

    @property
    def shape(self) -> tuple[int, ...]:
        return self.points

    @property
    def volume(self) -> float:
        """Flat volume prod(L_k); positive by construction."""
        return float(np.prod(self.sides))

    def coordinates(self) -> tuple[np.ndarray, ...]:
        """Open meshgrid of node coordinates, x_k = j*L_k/N_k."""
        axes = [self.sides[k] * np.arange(self.points[k]) / self.points[k] for k in range(self.dim)]
        return tuple(np.meshgrid(*axes, indexing="ij", sparse=True)) if self.dim > 1 else (axes[0],)

    def spacing(self, axis: int = 0) -> float:
        return self.sides[axis] / self.points[axis]


def eigenvalue(mode: tuple[int, ...], grid: FiberGrid) -> float:
    """Flat-Laplacian eigenvalue of one integer Fourier mode.

    On a circle of circumference 2*pi (radius one) the mode l gives l**2.
    """
    mode = tuple(np.atleast_1d(mode).astype(int))
    if len(mode) != grid.dim:
        raise InputError(f"mode has {len(mode)} entries for a {grid.dim}-dimensional grid")
    return float(sum((2.0 * math.pi * l / L) ** 2 for l, L in zip(mode, grid.sides)))


def _rfft_axes(values: np.ndarray, grid: FiberGrid) -> tuple[int, ...]:
    if values.ndim < grid.dim or values.shape[-grid.dim:] != grid.shape:
        raise InputError(
            f"field shape {values.shape} does not end with grid shape {grid.shape}"
        )
    return tuple(range(values.ndim - grid.dim, values.ndim))


@functools.cache
def symbols(grid: FiberGrid) -> tuple[np.ndarray, tuple[np.ndarray, ...]]:
    """Fourier symbols of the grid, laid out like rfftn output; built once per grid.

    Returns the flat-Laplacian eigenvalues |k|**2 and one ik factor per
    axis, shaped to broadcast along its own axis only.  Each ik has the
    Nyquist mode of its own axis zeroed, since the odd derivative of that
    mode is ambiguous.  The arrays are shared, hence read-only.
    """
    lam = 0.0
    iks = []
    for k, (n, side) in enumerate(zip(grid.points, grid.sides)):
        half = k == grid.dim - 1    # rfftn keeps the non-negative half of the last axis
        m = np.arange(n // 2 + 1, dtype=float) if half else np.fft.fftfreq(n, d=1.0 / n)
        w = 2.0 * math.pi * m / side
        shape = [1] * grid.dim
        shape[k] = m.size
        lam = lam + (w ** 2).reshape(shape)
        w[np.abs(m) == n // 2] = 0.0
        iks.append((1j * w).reshape(shape))
    for a in (lam, *iks):
        a.flags.writeable = False
    return lam, tuple(iks)


def require_zero_means(values: np.ndarray, grid: FiberGrid, message: str) -> None:
    """Raise InputError(message) unless each mean over the trailing grid axes is round-off."""
    means = values.mean(axis=_rfft_axes(values, grid))
    scale = max(1.0, float(np.max(np.abs(values))) if values.size else 1.0)
    if np.max(np.abs(means)) > MEAN_ZERO_TOL * scale:
        raise InputError(message)


def _scaled_eigenvalues(values: np.ndarray, grid: FiberGrid,
                        rate_scale: np.ndarray | None) -> np.ndarray:
    """Eigenvalues of rate_scale * Lap, with a per-stack scale broadcast over mode axes.

    ``values`` are the field or its spectrum: only their leading axes are read.
    """
    lam = symbols(grid)[0]
    if rate_scale is None:
        return lam
    rate = np.asarray(rate_scale, dtype=float)
    lead = values.shape[: values.ndim - grid.dim]
    if rate.shape != lead:
        raise InputError(f"rate_scale shape {rate.shape} does not match leading axes {lead}")
    return rate.reshape(rate.shape + (1,) * grid.dim) * lam


def spectrum(values: np.ndarray, grid: FiberGrid) -> np.ndarray:
    """Real FFT of the trailing grid axes, laid out like the arrays of ``symbols``."""
    values = np.asarray(values, dtype=float)
    return np.fft.rfftn(values, axes=_rfft_axes(values, grid))


def nodal(spectrum: np.ndarray, grid: FiberGrid) -> np.ndarray:
    """Nodal values of a spectrum laid out as ``spectrum`` returns it."""
    axes = tuple(range(spectrum.ndim - grid.dim, spectrum.ndim))
    return np.fft.irfftn(spectrum, s=grid.shape, axes=axes)


def _apply_multiplier(values: np.ndarray, grid: FiberGrid, mult: np.ndarray) -> np.ndarray:
    out = spectrum(values, grid)
    out *= mult
    return nodal(out, grid)


def evolve_values(values: np.ndarray, grid: FiberGrid, t: float,
                  rate_scale: np.ndarray | None = None) -> np.ndarray:
    """Apply the heat semigroup exp(t * rate_scale * Lap) to the trailing axes.

    t may be +inf, in which case every nonzero mode is annihilated and the
    per-fiber mean survives.
    """
    values = np.asarray(values, dtype=float)
    if not t >= 0:          # also refuses NaN
        raise InputError(f"heat evolution needs t >= 0, got {t}")
    lam = _scaled_eigenvalues(values, grid, rate_scale)
    positive = lam > 0
    # exp(-lam*t) with the lam == 0 branch pinned to 1 so that t = inf is safe.
    mult = np.where(positive, np.exp(-np.where(positive, lam, 1.0) * t), 1.0)
    return _apply_multiplier(values, grid, mult)


def time_integral_values(values: np.ndarray, grid: FiberGrid, t: float,
                         rate_scale: np.ndarray | None = None) -> np.ndarray:
    """Integrate the heat evolution of the trailing axes over [0, t].

    Mode l picks up the factor (1 - exp(-lambda_l t)) / lambda_l and the
    mean grows linearly; a finite t is ``time_integral_sum_spectrum`` at
    the one time t.  For t = +inf the integral exists only when every
    per-fiber mean vanishes (to round-off); nonzero modes tend to 1/lambda_l.
    """
    values = np.asarray(values, dtype=float)
    if not t >= 0:          # also refuses NaN
        raise InputError(f"time integral needs t >= 0, got {t}")
    if not math.isinf(t):
        return nodal(time_integral_sum_spectrum(spectrum(values, grid), grid, (t,), (1.0,),
                                                rate_scale), grid)
    require_zero_means(values, grid,
                       "infinite-horizon time integral diverges: fiber mean is nonzero")
    return nodal(time_integral_limit_spectrum(spectrum(values, grid), grid, rate_scale), grid)


def time_integral_limit_spectrum(values_hat: np.ndarray, grid: FiberGrid,
                                 rate_scale: np.ndarray | None = None) -> np.ndarray:
    """The spectrum of ``time_integral_values(values, grid, inf)``, from ``spectrum(values, grid)``.

    Mode l picks up 1/lambda_l and the null (fiber-mean) entries 0.  The
    limit exists only when the values' fiber means vanish, which is not
    checked here: a caller without the nodal values checks them with
    ``require_zero_means`` before it drops them.
    """
    lam = _scaled_eigenvalues(values_hat, grid, rate_scale)
    positive = lam > 0
    return values_hat * np.where(positive, 1.0 / np.where(positive, lam, 1.0), 0.0)


def time_integral_sum_spectrum(values_hat: np.ndarray, grid: FiberGrid, times: np.ndarray,
                               weights: np.ndarray,
                               rate_scale: np.ndarray | None = None) -> np.ndarray:
    """The spectrum of sum_k weights[k] * time_integral_values(values, grid, times[k]).

    ``values_hat`` is ``spectrum(values, grid)``, and the result is it
    times one summed multiplier: mode l picks up
    -sum_k w_k expm1(-lambda_l t_k) / lambda_l and the mean sum_k w_k t_k.
    The multiplier is accumulated in place one time at a time, so memory
    stays a few multipliers however many times there are.  Every time must
    be finite and >= 0.  No transform is taken, so a caller
    that holds the spectrum of its values evaluates many sums for one.
    """
    times = np.asarray(times, dtype=float)
    weights = np.asarray(weights, dtype=float)
    if times.ndim != 1 or weights.shape != times.shape:
        raise InputError(f"{weights.shape} weights for {times.shape} times")
    if not np.all(np.isfinite(times) & (times >= 0)):
        raise InputError(f"time integrals need finite times >= 0, got {times.tolist()}")
    lam = _scaled_eigenvalues(values_hat, grid, rate_scale)
    positive = lam > 0
    lam_safe = np.where(positive, lam, 1.0)
    acc = np.zeros(lam_safe.shape)
    term = np.empty(lam_safe.shape)
    for t, w in zip(times, weights):
        np.multiply(lam_safe, -t, out=term)
        np.expm1(term, out=term)
        term *= w
        acc -= term
    mult = np.where(positive, acc / lam_safe, float(np.dot(weights, times)))
    return values_hat * mult


def gradient_values(values: np.ndarray, grid: FiberGrid,
                    axis: int | None = None) -> np.ndarray:
    """Flat spectral partial derivatives along the trailing grid axes.

    Returns an array of shape (grid.dim,) + values.shape, or with ``axis``
    only the partial along that grid axis, shape values.shape, at the
    cost of one inverse transform instead of grid.dim.
    """
    values_hat = spectrum(values, grid)
    if axis is not None and axis not in range(grid.dim):
        raise InputError(f"axis must be in range({grid.dim}), got {axis}")
    iks = symbols(grid)[1]

    def partial(k: int) -> np.ndarray:
        return nodal(values_hat * iks[k], grid)

    if axis is not None:
        return partial(axis)
    out = np.empty((grid.dim,) + values.shape)
    for k in range(grid.dim):
        out[k] = partial(k)
    return out


def antiderivative_values(values: np.ndarray, grid: FiberGrid) -> np.ndarray:
    """Mean-zero periodic antiderivative along a one-dimensional fiber.

    Divides the spectrum by ik; well defined only when each fiber mean
    vanishes (enforced to round-off), since a nonzero mean has no periodic
    primitive.  The Nyquist mode is dropped, mirroring the first-derivative
    convention.
    """
    if grid.dim != 1:
        raise InputError("antiderivative is defined for one-dimensional fibers only")
    values = np.asarray(values, dtype=float)
    require_zero_means(values, grid, "periodic antiderivative needs a zero fiber mean")
    ik = symbols(grid)[1][0]
    inv = np.zeros_like(ik)
    inv[ik != 0] = 1.0 / ik[ik != 0]
    return _apply_multiplier(values, grid, inv)


def resample_values(values: np.ndarray, grid: FiberGrid, new_points: int) -> np.ndarray:
    """Trigonometric interpolation of the trailing axis onto another grid.

    Refining is exact for any data (the coarse Nyquist coefficient is
    split between the +-N/2 modes of the finer grid); coarsening
    truncates the spectrum and is exact only for data band-limited to
    the target grid.  One-dimensional fibers only.
    """
    if grid.dim != 1:
        raise InputError("resampling is implemented for one-dimensional fibers only")
    n_old = grid.points[0]
    if new_points < 4 or new_points % 2:
        raise InputError(f"new_points must be an even count >= 4, got {new_points}")
    values = np.asarray(values, dtype=float)
    _rfft_axes(values, grid)
    spectrum = np.fft.rfft(values, axis=-1) * (new_points / n_old)
    out = np.zeros(values.shape[:-1] + (new_points // 2 + 1,), dtype=complex)
    keep = min(n_old, new_points) // 2 + 1
    out[..., :keep] = spectrum[..., :keep]
    if new_points > n_old:
        out[..., n_old // 2] *= 0.5
    elif new_points < n_old:
        out[..., new_points // 2] = out[..., new_points // 2].real
    return np.fft.irfft(out, n=new_points, axis=-1)


def harmonic_field(grids: tuple[FiberGrid, ...], terms: dict) -> np.ndarray:
    """Synthesize a real field from {mode tuple: (cos amp, sin amp)} terms.

    The grids are concatenated (base factors first, fiber last in this
    package's use), and each term contributes

        a * cos(sum_k 2*pi*m_k*x_k/L_k) + b * sin(...).

    Real by construction, so no conjugate-symmetry bookkeeping is needed.
    """
    dims = sum(g.dim for g in grids)
    shape = tuple(n for g in grids for n in g.points)
    sides = tuple(s for g in grids for s in g.sides)
    axes = [sides[k] * np.arange(shape[k]) / shape[k] for k in range(dims)]
    mesh = np.meshgrid(*axes, indexing="ij", sparse=True)
    out = np.zeros(shape)
    for mode, amp in terms.items():
        mode = tuple(np.atleast_1d(mode).astype(int))
        if len(mode) != dims:
            raise InputError(f"mode {mode} has wrong length for total dimension {dims}")
        a, b = (float(amp), 0.0) if np.isscalar(amp) else (float(amp[0]), float(amp[1]))
        if all(m == 0 for m in mode) and b != 0.0:
            raise InputError("the zero mode has no sine component")
        phase = sum(2.0 * math.pi * mode[k] / sides[k] * mesh[k] for k in range(dims))
        out = out + a * np.cos(phase) + b * np.sin(phase)
    return out


def heat_kernel(t: float, x, y, grid: FiberGrid) -> float:
    """Heat kernel G(t, x, y) of the flat fiber, truncated at |l_k| <= KERNEL_CUTOFF.

    G(t,x,y) = (1/vol) * sum_l exp(-lambda_l t) cos(k_l . (x - y)); the
    series collapses to 1/vol as t -> inf.  Smoothing only runs forward,
    so t must be positive.
    """
    if t <= 0:
        raise InputError(f"heat kernel needs t > 0, got {t}")
    x = np.atleast_1d(np.asarray(x, dtype=float))
    y = np.atleast_1d(np.asarray(y, dtype=float))
    if len(x) != grid.dim or len(y) != grid.dim:
        raise InputError("kernel arguments must match the grid dimension")
    modes = np.arange(-KERNEL_CUTOFF, KERNEL_CUTOFF + 1, dtype=float)
    ks = np.meshgrid(*(2.0 * math.pi * modes / side for side in grid.sides),
                     indexing="ij", sparse=True)
    lam = sum(k ** 2 for k in ks)
    phase = sum(k * (a - b) for k, a, b in zip(ks, x, y))
    return float(np.sum(np.exp(-lam * t) * np.cos(phase)) / grid.volume)
