"""Exact heat-equation machinery on flat periodic fibers.

Everything in this module lives on a uniform grid over a circle or a flat
torus with side lengths L_1..L_p.  The flat Laplacian diagonalizes in the
Fourier basis: the mode with integer vector l = (l_1..l_p) has eigenvalue

    lambda_l = sum_k (2*pi*l_k / L_k)**2,

so the heat semigroup exp(t*Lap), its running time integral, the heat
kernel, and the componentwise heat flow on 1-forms are all exact Fourier
multipliers.  No time-stepping happens here.

Fields are stored nodally.  Transforms go through real FFTs, which keep
the conjugate (Hermitian) symmetry of the spectrum intact after every
multiplier application, so evolved fields stay exactly real.

Array-level helpers (evolve_values, time_integral_values, ...) act on the
trailing ``grid.dim`` axes and broadcast over any leading axes; the flow
engine uses them to evolve whole stacks of fibers at once.  The
``rate_scale`` argument scales every eigenvalue by a per-stack factor,
which is how a fiber-constant conformal factor exp(2*psi) enters: the
leaf Laplacian is then exp(-2*psi) times the flat one.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

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
    points: tuple[int, ...] = field(default=None)  # type: ignore[assignment]

    def __post_init__(self):
        if self.dim not in (1, 2):
            raise InputError(f"grid dimension must be 1 or 2, got {self.dim}")
        sides = tuple(float(s) for s in np.atleast_1d(self.sides))
        if len(sides) != self.dim:
            raise InputError(f"expected {self.dim} side lengths, got {len(sides)}")
        if not all(math.isfinite(s) and s > 0 for s in sides):
            raise InputError(f"side lengths must be finite and positive, got {sides}")
        pts = self.points
        if pts is None:
            pts = (DEFAULT_POINTS,) * self.dim
        pts = tuple(int(p) for p in np.atleast_1d(pts))
        if len(pts) == 1 and self.dim == 2:
            pts = pts * 2
        if len(pts) != self.dim:
            raise InputError(f"expected {self.dim} point counts, got {len(pts)}")
        for p in pts:
            if p < 4 or (p & (p - 1)) != 0:
                raise InputError(f"points per dimension must be a power of two >= 4, got {p}")
        object.__setattr__(self, "sides", sides)
        object.__setattr__(self, "points", pts)

    @property
    def shape(self) -> tuple[int, ...]:
        return self.points

    @property
    def volume(self) -> float:
        """Flat volume prod(L_k); positive by construction."""
        return float(np.prod(self.sides))

    @property
    def cell(self) -> float:
        return self.volume / float(np.prod(self.points))

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

def _mode_integers(n: int, half: bool) -> np.ndarray:
    if half:
        return np.arange(n // 2 + 1, dtype=float)
    return np.fft.fftfreq(n, d=1.0 / n)


def _eigenvalues_rfft(grid: FiberGrid) -> np.ndarray:
    """Eigenvalue array laid out like rfftn output over the grid axes."""
    parts = []
    for k in range(grid.dim):
        m = _mode_integers(grid.points[k], half=(k == grid.dim - 1))
        parts.append((2.0 * math.pi * m / grid.sides[k]) ** 2)
    if grid.dim == 1:
        return parts[0]
    return parts[0][:, None] + parts[1][None, :]


def _wavenumbers_rfft(grid: FiberGrid, axis: int) -> np.ndarray:
    """ik multiplier for one first derivative, Nyquist mode zeroed."""
    factors = []
    for k in range(grid.dim):
        n = grid.points[k]
        m = _mode_integers(n, half=(k == grid.dim - 1))
        if k == axis:
            w = 2.0 * math.pi * m / grid.sides[k]
            w[np.abs(m) == n // 2] = 0.0  # odd derivative of the Nyquist mode is ambiguous
            factors.append(w)
        else:
            factors.append(np.ones_like(m))
    if grid.dim == 1:
        return 1j * factors[0]
    return 1j * factors[0][:, None] * factors[1][None, :]


def _expand_rate(rate_scale: np.ndarray | None, values: np.ndarray, grid: FiberGrid):
    """Reshape a per-stack eigenvalue scale so it broadcasts over mode axes."""
    if rate_scale is None:
        return None
    rate = np.asarray(rate_scale, dtype=float)
    lead = values.shape[: values.ndim - grid.dim]
    if rate.shape != lead:
        raise InputError(f"rate_scale shape {rate.shape} does not match leading axes {lead}")
    return rate.reshape(rate.shape + (1,) * grid.dim)


def _apply_multiplier(values: np.ndarray, grid: FiberGrid, mult: np.ndarray) -> np.ndarray:
    axes = _rfft_axes(values, grid)
    spectrum = np.fft.rfftn(values, axes=axes)
    spectrum *= mult
    return np.fft.irfftn(spectrum, s=grid.shape, axes=axes)


def evolve_values(values: np.ndarray, grid: FiberGrid, t: float,
                  rate_scale: np.ndarray | None = None) -> np.ndarray:
    """Apply the heat semigroup exp(t * rate_scale * Lap) to the trailing axes.

    t may be +inf, in which case every nonzero mode is annihilated and the
    per-fiber mean survives.
    """
    values = np.asarray(values, dtype=float)
    if t < 0:
        raise InputError(f"heat evolution needs t >= 0, got {t}")
    lam = _eigenvalues_rfft(grid)
    rate = _expand_rate(rate_scale, values, grid)
    if rate is not None:
        lam = rate * lam
    positive = lam > 0
    # exp(-lam*t) with the lam == 0 branch pinned to 1 so that t = inf is safe.
    mult = np.where(positive, np.exp(-np.where(positive, lam, 1.0) * t), 1.0)
    return _apply_multiplier(values, grid, mult)


def time_integral_values(values: np.ndarray, grid: FiberGrid, t: float,
                         rate_scale: np.ndarray | None = None) -> np.ndarray:
    """Integrate the heat evolution of the trailing axes over [0, t].

    Mode l picks up the factor (1 - exp(-lambda_l t)) / lambda_l and the
    mean grows linearly.  For t = +inf the integral exists only when every
    per-fiber mean vanishes (to round-off); nonzero modes tend to 1/lambda_l.
    """
    values = np.asarray(values, dtype=float)
    if t < 0:
        raise InputError(f"time integral needs t >= 0, got {t}")
    lam = _eigenvalues_rfft(grid)
    rate = _expand_rate(rate_scale, values, grid)
    if rate is not None:
        lam = rate * lam
    positive = lam > 0
    lam_safe = np.where(positive, lam, 1.0)
    if math.isinf(t):
        fiber_axes = _rfft_axes(values, grid)
        means = values.mean(axis=fiber_axes)
        scale = max(1.0, float(np.max(np.abs(values))) if values.size else 1.0)
        if np.max(np.abs(means)) > MEAN_ZERO_TOL * scale:
            raise InputError(
                "infinite-horizon time integral diverges: fiber mean is nonzero"
            )
        mult = np.where(positive, 1.0 / lam_safe, 0.0)
    else:
        mult = np.where(positive, -np.expm1(-lam_safe * t) / lam_safe, t)
    return _apply_multiplier(values, grid, mult)


def gradient_values(values: np.ndarray, grid: FiberGrid,
                    axis: int | None = None) -> np.ndarray:
    """Flat spectral partial derivatives along the trailing grid axes.

    Returns an array of shape (grid.dim,) + values.shape, or with ``axis``
    only the partial along that grid axis, shape values.shape, at the
    cost of one inverse transform instead of grid.dim.
    """
    values = np.asarray(values, dtype=float)
    axes = _rfft_axes(values, grid)
    if axis is not None and axis not in range(grid.dim):
        raise InputError(f"axis must be in range({grid.dim}), got {axis}")
    spectrum = np.fft.rfftn(values, axes=axes)

    def partial(k: int) -> np.ndarray:
        return np.fft.irfftn(spectrum * _wavenumbers_rfft(grid, k), s=grid.shape, axes=axes)

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
    axes = _rfft_axes(values, grid)
    means = values.mean(axis=axes)
    scale = max(1.0, float(np.max(np.abs(values))) if values.size else 1.0)
    if np.max(np.abs(means)) > MEAN_ZERO_TOL * scale:
        raise InputError("periodic antiderivative needs a zero fiber mean")
    ik = _wavenumbers_rfft(grid, 0)
    inv = np.zeros_like(ik)
    inv[ik != 0] = 1.0 / ik[ik != 0]
    spectrum = np.fft.rfft(values, axis=-1)
    spectrum *= inv
    spectrum[..., 0] = 0.0
    return np.fft.irfft(spectrum, n=grid.points[0], axis=-1)


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
    if isinstance(grids, FiberGrid):
        grids = (grids,)
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


@dataclass(frozen=True)
class SpectralField:
    """Real scalar field on one fiber, stored nodally.

    The Fourier description is recovered on demand: ``coeff(l)`` returns
    the coefficient of exp(i k_l . x) with the normalization u = sum_l
    c_l exp(i k_l . x), so the zero mode is exactly the fiber average.
    """

    grid: FiberGrid
    values: np.ndarray

    def __post_init__(self):
        vals = np.asarray(self.values, dtype=float)
        if vals.shape != self.grid.shape:
            raise InputError(f"values shape {vals.shape} != grid shape {self.grid.shape}")
        if not np.all(np.isfinite(vals)):
            raise InputError("field values must be finite")
        object.__setattr__(self, "values", vals)

    @classmethod
    def from_harmonics(cls, grid: FiberGrid, terms: dict) -> "SpectralField":
        return cls(grid, harmonic_field((grid,), terms))

    @classmethod
    def zeros(cls, grid: FiberGrid) -> "SpectralField":
        return cls(grid, np.zeros(grid.shape))

    def coeff(self, mode: tuple[int, ...]) -> complex:
        mode = tuple(np.atleast_1d(mode).astype(int))
        if len(mode) != self.grid.dim:
            raise InputError(f"mode {mode} has wrong length")
        spectrum = np.fft.fftn(self.values) / self.values.size
        idx = tuple(m % n for m, n in zip(mode, self.grid.points))
        return complex(spectrum[idx])

    def mean(self) -> float:
        return float(self.values.mean())

    def norm_l2(self) -> float:
        """L2 norm with the flat fiber volume element."""
        return math.sqrt(float(np.mean(self.values ** 2)) * self.grid.volume)

    def norm_sup(self) -> float:
        return float(np.max(np.abs(self.values)))


def heat_evolve(u: SpectralField, t: float) -> SpectralField:
    """Evolve one fiber field by the flat heat semigroup for time t >= 0."""
    return SpectralField(u.grid, evolve_values(u.values, u.grid, t))


def heat_time_integral(u: SpectralField, t: float) -> SpectralField:
    """Time integral over [0, t] of the heat evolution of u (t = inf allowed)."""
    return SpectralField(u.grid, time_integral_values(u.values, u.grid, t))


def heat_kernel(t: float, x, y, grid: FiberGrid, cutoff: int = KERNEL_CUTOFF) -> float:
    """Heat kernel G(t, x, y) of the flat fiber, truncated at |l_k| <= cutoff.

    G(t,x,y) = (1/vol) * sum_l exp(-lambda_l t) cos(k_l . (x - y)); the
    series collapses to 1/vol as t -> inf.  Smoothing only runs forward,
    so t must be positive.
    """
    if t <= 0:
        raise InputError(f"heat kernel needs t > 0, got {t}")
    if cutoff < 1:
        raise InputError(f"kernel cutoff must be >= 1, got {cutoff}")
    x = np.atleast_1d(np.asarray(x, dtype=float))
    y = np.atleast_1d(np.asarray(y, dtype=float))
    if len(x) != grid.dim or len(y) != grid.dim:
        raise InputError("kernel arguments must match the grid dimension")
    modes = np.arange(-cutoff, cutoff + 1, dtype=float)
    total = 0.0
    if grid.dim == 1:
        k = 2.0 * math.pi * modes / grid.sides[0]
        total = np.sum(np.exp(-(k ** 2) * t) * np.cos(k * (x[0] - y[0])))
    else:
        k1 = 2.0 * math.pi * modes / grid.sides[0]
        k2 = 2.0 * math.pi * modes / grid.sides[1]
        lam = k1[:, None] ** 2 + k2[None, :] ** 2
        phase = k1[:, None] * (x[0] - y[0]) + k2[None, :] * (x[1] - y[1])
        total = np.sum(np.exp(-lam * t) * np.cos(phase))
    return float(total / grid.volume)


@dataclass(frozen=True)
class OneFormField:
    """One-form on a flat fiber, stored as nodal component fields theta_i."""

    grid: FiberGrid
    components: np.ndarray  # shape (dim,) + grid.shape

    def __post_init__(self):
        comps = np.asarray(self.components, dtype=float)
        if comps.shape != (self.grid.dim,) + self.grid.shape:
            raise InputError(
                f"components shape {comps.shape} != {(self.grid.dim,) + self.grid.shape}"
            )
        if not np.all(np.isfinite(comps)):
            raise InputError("component values must be finite")
        object.__setattr__(self, "components", comps)

    @classmethod
    def from_harmonics(cls, grid: FiberGrid, per_component: list[dict]) -> "OneFormField":
        if len(per_component) != grid.dim:
            raise InputError(f"need {grid.dim} component term maps")
        comps = np.stack([harmonic_field((grid,), terms) for terms in per_component])
        return cls(grid, comps)

    def norm_l2(self) -> float:
        """Flat L2 norm, sqrt(int sum_i theta_i^2 dy)."""
        return math.sqrt(float(np.mean(np.sum(self.components ** 2, axis=0))) * self.grid.volume)


def oneform_heat_evolve(w: OneFormField, t: float) -> OneFormField:
    """Hodge heat flow of a 1-form on the flat fiber.

    On a flat torus the Hodge Laplacian acts componentwise in the flat
    chart, so each component evolves by the scalar heat semigroup; the
    flow therefore commutes with d and preserves closedness exactly.
    The constant (harmonic) part is the t -> inf limit.
    """
    return OneFormField(w.grid, evolve_values(w.components, w.grid, t))


def d_perp(w: OneFormField) -> SpectralField:
    """Exterior derivative on the flat fiber, as its single 2-form component.

    For dim 1 this is identically zero; for dim 2 it is the coefficient of
    dy^1 ^ dy^2, namely d1 theta_2 - d2 theta_1.
    """
    if w.grid.dim == 1:
        return SpectralField.zeros(w.grid)
    g1 = gradient_values(w.components[1], w.grid, axis=0)
    g2 = gradient_values(w.components[0], w.grid, axis=1)
    return SpectralField(w.grid, g1 - g2)


def delta_perp(w: OneFormField) -> SpectralField:
    """Codifferential on the flat fiber: minus the flat divergence of w."""
    grads = [gradient_values(w.components[k], w.grid, axis=k) for k in range(w.grid.dim)]
    return SpectralField(w.grid, -sum(grads))


def is_harmonic(w: OneFormField, tol: float = 1e-10) -> bool:
    """True when both d w and delta w vanish in sup norm below tol.

    On a flat torus the harmonic 1-forms are exactly those with constant
    components.
    """
    return d_perp(w).norm_sup() <= tol and delta_perp(w).norm_sup() <= tol
