"""Independent reference solutions of the benchmark scenarios.

Everything here is computed from the scenario JSON with numpy and scipy
alone; the package under test is never imported.

- Fiber-constant psi: the flow is the fiber heat equation with rate
  exp(-2 psi(x)) at each base point, so every Fourier mode of phi0 decays
  in closed form.  The normalized variant subtracts log(volume) / n; the
  prescribed variant adds the running time integral of div X / n, again
  per mode; codim-1 runs start from the periodic primitive of tau0.
- Fiber-varying psi: each fiber evolves by a dense matrix exponential of
  the Fourier-collocation leaf Laplacian, exp(-2 psi)(u'' - psi' u') for
  one-dimensional fibers and exp(-2 psi) times the flat Laplacian for
  two-dimensional ones.
"""

from __future__ import annotations

import math

import numpy as np
from scipy.linalg import expm

TWO_PI = 2.0 * math.pi


def _per_dim(raw, count: int, default) -> list:
    if raw is None:
        raw = default
    if isinstance(raw, (int, float)):
        raw = [raw] * count
    return list(raw)


class _Grid:
    """Nodes of the product grid, base axes first, as an open mesh."""

    def __init__(self, config: dict):
        self.n, self.p = int(config["n"]), int(config["p"])
        sides = (_per_dim(config.get("base_sides"), self.n, TWO_PI)
                 + _per_dim(config.get("fiber_sides"), self.p, TWO_PI))
        points = (_per_dim(config.get("base_points"), self.n, 64)
                  + _per_dim(config.get("fiber_points"), self.p, 64))
        self.sides = [float(s) for s in sides]
        self.points = [int(q) for q in points]
        axes = [L * np.arange(N) / N for L, N in zip(self.sides, self.points)]
        self.mesh = np.meshgrid(*axes, indexing="ij", sparse=True)
        self.shape = tuple(self.points)
        self.base_size = math.prod(self.points[: self.n])
        self.fiber_size = math.prod(self.points[self.n:])

    def wavenumbers(self, mode) -> list[float]:
        return [TWO_PI * m / L for m, L in zip(mode, self.sides)]

    def phase(self, mode) -> np.ndarray:
        return sum(w * x for w, x in zip(self.wavenumbers(mode), self.mesh))

    def fiber_lambda(self, mode) -> float:
        return sum(w * w for w in self.wavenumbers(mode)[self.n:])


def _terms(raw) -> list[tuple[tuple[int, ...], float, float]]:
    out = []
    for key, amp in (raw or {}).items():
        mode = tuple(int(k) for k in key.split(","))
        a, b = (float(amp), 0.0) if isinstance(amp, (int, float)) else map(float, amp)
        out.append((mode, a, b))
    return out


def _field(grid: _Grid, raw) -> np.ndarray:
    out = np.zeros(grid.shape)
    for mode, a, b in _terms(raw):
        theta = grid.phase(mode)
        out = out + a * np.cos(theta) + b * np.sin(theta)
    return out


def _decaying(grid: _Grid, terms, rate: np.ndarray, t: float) -> np.ndarray:
    """sum of a cos + b sin per mode, each damped by exp(-lambda rate t)."""
    out = np.zeros(grid.shape)
    for mode, a, b in terms:
        theta = grid.phase(mode)
        out = out + (a * np.cos(theta) + b * np.sin(theta)) * np.exp(
            -grid.fiber_lambda(mode) * rate * t)
    return out


def _volume(grid: _Grid, phi: np.ndarray, psi: np.ndarray) -> float:
    return float(np.mean(np.exp(grid.n * phi + grid.p * psi)) * math.prod(grid.sides))


def _exact(config: dict, grid: _Grid, t: float) -> np.ndarray:
    psi = _field(grid, config.get("psi"))
    rate = np.exp(-2.0 * psi)
    if config["scenario"] == "codim1_fibration":
        # phi0 = -(1/n) * mean-zero primitive of tau0 along the circle fiber.
        terms = []
        for mode, a, b in _terms(config["tau0"]):
            w = grid.wavenumbers(mode)[-1]
            terms.append((mode, b / (grid.n * w), -a / (grid.n * w)))
    else:
        terms = _terms(config["phi0"])
    phi = _decaying(grid, terms, rate, t)

    if config.get("variant") == "prescribed":
        # + (1/n) int_0^t exp(s L) div X ds, mode by mode.
        for j, raw in enumerate(config["x_field"]):
            for mode, c, d in _terms(raw):
                w = grid.wavenumbers(mode)[grid.n + j]
                if w == 0.0:
                    continue
                mu = grid.fiber_lambda(mode) * rate
                theta = grid.phase(mode)
                div = w * (-c * np.sin(theta) + d * np.cos(theta))
                phi = phi + div * (-np.expm1(-mu * t) / mu) / grid.n
    if config.get("variant") == "normalized":
        phi = phi - math.log(_volume(grid, phi, psi)) / grid.n
    return phi


def _derivative_matrices(points: int, side: float) -> tuple[np.ndarray, np.ndarray]:
    """Fourier-collocation first and second derivative matrices."""
    k = TWO_PI * np.arange(points // 2 + 1) / side
    first = 1j * k
    first[-1] = 0.0  # odd derivative of the Nyquist mode
    spectrum = np.fft.rfft(np.eye(points), axis=0)
    d1 = np.fft.irfft(first[:, None] * spectrum, n=points, axis=0)
    d2 = np.fft.irfft(-(k ** 2)[:, None] * spectrum, n=points, axis=0)
    return d1, d2


def _leaf_laplacian(grid: _Grid, psi_fiber: np.ndarray) -> np.ndarray:
    fiber_points, fiber_sides = grid.points[grid.n:], grid.sides[grid.n:]
    conf = np.exp(-2.0 * psi_fiber.reshape(-1))
    if grid.p == 1:
        d1, d2 = _derivative_matrices(fiber_points[0], fiber_sides[0])
        dpsi = d1 @ psi_fiber.reshape(-1)
        return conf[:, None] * (d2 - dpsi[:, None] * d1)
    flat = np.zeros((grid.fiber_size, grid.fiber_size))
    eyes = [np.eye(q) for q in fiber_points]
    for axis in range(grid.p):
        d2 = _derivative_matrices(fiber_points[axis], fiber_sides[axis])[1]
        factors = [d2 if a == axis else eyes[a] for a in range(grid.p)]
        flat += np.kron(factors[0], factors[1])
    return conf[:, None] * flat


def _fd_path(config: dict, grid: _Grid, times: list[float]) -> np.ndarray:
    if config.get("variant", "plain") != "plain":
        raise ValueError("the fiber-varying reference covers the plain variant only")
    phi0 = _field(grid, config["phi0"]).reshape(grid.base_size, grid.fiber_size)
    psi = _field(grid, config.get("psi")).reshape(grid.base_size, grid.fiber_size)
    out = np.empty((len(times), grid.base_size, grid.fiber_size))
    for i in range(grid.base_size):
        lap = _leaf_laplacian(grid, psi[i])
        for s, t in enumerate(times):
            out[s, i] = phi0[i] if t == 0.0 else expm(t * lap) @ phi0[i]
    return out


def reference_snapshots(config: dict, path: str) -> np.ndarray:
    """phi at every sample time, shape (samples, base points, fiber points)."""
    grid = _Grid(config)
    times = [float(t) for t in config["samples"]]
    if path == "fd":
        return _fd_path(config, grid, times)
    return np.stack([_exact(config, grid, t).reshape(grid.base_size, grid.fiber_size)
                     for t in times])
