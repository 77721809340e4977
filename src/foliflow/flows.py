"""Conformal flow of the leaf metric factor, driven by mean curvature.

The evolution law contracts the truncated metric ghat = exp(2*phi) g1 by
the divergence of the leaf mean curvature:

    d/dt g = -(2/n) (Div_perp H) ghat             (plain)
    d/dt g = -((2/n) Div_perp H + r(t)) ghat      (normalized)
    d/dt g = -(2/n) Div_perp(H - X) ghat          (prescribed)

with r(t) = -(2/n) int Div_perp H dvol / vol <= 0.  For the twisted
ansatz H = -n grad_perp phi the plain law collapses to the leafwise heat
equation d/dt phi = Lap_perp phi (the n in the trace of the second
fundamental form cancels the 2/n prefactor against d/dt ghat = 2 phi'
ghat), and the driving scalar Div_perp H solves the same heat equation.
The metric is recovered from its running time integral,

    phi(t) = phi(0) - (1/n) int_0^t Div_perp(H_s - X) ds,

so for fiber-constant psi every sample is an exact Fourier multiplier
with per-fiber eigenvalue scale exp(-2 psibar); sample times are
arbitrary and no time-stepping error enters.  That path transforms
phi(0) and the initial driving scalar D0 once per run: a sample's
spectrum is phi_hat(t) = phi_hat(0) - m(t) D0_hat / n, its nodal phi one
inverse transform, and its diagnostics read H and Div_perp H from that
spectrum (``geometry.PhiFields``), so a sample takes no forward
transform.  A run samples every state first and diagnoses them after
(``sample_flow``); the diagnosis takes each spectrum again from m(t), so
no per-sample spectrum is held in between.  Each sample's diagnosis is
one pass over one ``geometry.PhiFields``: H, Div_perp H and the volume
weight are built once, and a per-sample checker row that the caller asks
for (``checks.diagnose_and_check``) reads the same fields.  The pass drops
the sample's spectrum once H and Div_perp H exist and Div_perp H once the
record is taken, and every field before the next sample's.  D0_hat has
its fiber-mean entries zeroed, so the fiber mean of phi is conserved
exactly; it is the only spectrum that outlives the run, inside the
trajectory's evaluator, which also builds the t = inf limit from it.

When psi varies along a fiber the leaf Laplacian has variable
coefficients and no single Fourier multiplier solves the flow.  For
p = 2 it is still exp(-2 psi) times the flat Laplacian, whose spectrum
lies in [0, max exp(-2 psi) max |k|^2], so exp(t Lap_perp) is a
Chebyshev series in that operator (Tal-Ezer and Kosloff, J. Chem. Phys.
81, 1984): phi is exact in time and spectral in space, one flat Laplacian
per term, with numpy alone (``_chebyshev_phis``).  For p = 1 the
finite-difference path of ``fdref`` still evolves phi.  It marches each
request, the samples included, from phi(0) as one chain of ascending
times in one ``fdref.fd_heat_run`` call, so intervals of one length share
one factorization per chunk of fibers and a state depends on its request
alone.

Normalized trajectories come from the rescaling equivalence with the
plain flow: ghat~(t) = vol(g_t)^{-2/n} ghat(t) preserves volume and
satisfies the normalized law, so the engine evolves the plain flow and
projects each sample.

The prescribed variant replaces H by H - X for a fixed fiber-tangent X.
For p = 2 the mean-curvature 1-form minus the X 1-form must be closed,
which is checked before any evolution; the t -> inf limit then retains
exactly the harmonic (fiber-constant) component of that 1-form, so the
flow cannot converge to H = X unless that component vanishes.
"""

from __future__ import annotations

import bisect
import functools
import itertools
import math
from dataclasses import dataclass, field, replace
from typing import Callable, Iterable, Iterator

import numpy as np

from . import fiber as fb
from . import geometry as geo
from .errors import (HypothesisViolationError, InputError, SolveError,
                     UnsupportedScenarioError)
from .fdref import FdScheme, fd_heat_run
from .fiber import FiberGrid
from .geometry import ProductState

VARIANTS = ("plain", "normalized", "prescribed")
CLOSEDNESS_TOL = 1e-9       # sup |d theta| above which p = 2 initial data is not closed
_LOG_FLOAT_MAX = math.log(np.finfo(float).max)   # the largest x with exp(x) finite, ~709.78
# Most bytes of states that one request chain holds at once: 1024 states
# of a 64 x 64 grid, but 16 of an 8^2 x 64^2 one, which bperp_scaling's 513
# nodes would otherwise stack into 1 GB.
_CHAIN_BYTES = 2 ** 25

# Most terms of one Chebyshev series of the p = 2 propagator, which needs
# about 9 sqrt(x) + 16 at x = t rho / 2: t up to about 1.1e4 on a 64^2 fiber
# of side 2 pi and psi amplitude 0.1.  Each term is one flat Laplacian of
# the whole stack, and its round-off adds up: on 4 fibers of 8^2 points the
# sup error against a dense eigh reference read 7.4e-16 at 41 terms,
# 9.9e-15 at 3,446 and 1.7e-13 at 25,698.
MAX_TERMS = 2 ** 15
# Coefficients at or below this are dropped from the tail of a series.  The
# rfft reads every coefficient to within 1.2e-16 of scipy.special.ive, with
# noise below 6e-17 past the true support, for x from 1e-3 to 1e6.
_COEFF_CUT = 2.0 ** -53
# Relative growth of the last term's norm in the leaf measure beyond which a
# series is refused: with rho a true bound every term is a contraction.
_GROWTH_TOL = 1e-6


@dataclass(frozen=True)
class FlowConfig:
    """Run parameters shared by every flow variant.

    The dimensions n and p are those of the state the run starts from.
    """

    t_end: float
    samples: tuple[float, ...]
    variant: str = "plain"
    x_field: np.ndarray | None = None
    tol_converge: float = 1e-10
    fd_scheme: FdScheme = field(default_factory=FdScheme)

    def __post_init__(self):
        if self.variant not in VARIANTS:
            raise InputError(f"variant must be one of {VARIANTS}, got {self.variant!r}")
        if not (math.isfinite(self.t_end) and self.t_end > 0):
            raise InputError(f"t_end must be finite and positive, got {self.t_end}")
        samples = tuple(float(s) for s in self.samples)
        if not samples:
            raise InputError("at least one sample time is required")
        if not all(math.isfinite(s) for s in samples):
            raise InputError(f"samples must be finite, got {samples}")
        if list(samples) != sorted(samples):
            raise InputError("sample times must be sorted ascending")
        if samples[0] < 0 or samples[-1] > self.t_end + 1e-12:
            raise InputError("sample times must lie within [0, t_end]")
        if (self.x_field is not None) != (self.variant == "prescribed"):
            raise InputError("x_field must be given exactly when variant='prescribed'")
        if not self.tol_converge > 0:
            raise InputError("tol_converge must be positive")
        object.__setattr__(self, "samples", samples)


@dataclass(frozen=True)
class DiagnosticsRecord:
    """Per-sample scalar diagnostics of a trajectory."""

    t: float
    vol: float
    int_h2: float            # int |H|^2 dvol
    int_div_h: float         # int Div_perp H dvol; not a CSV column
    max_div_h: float         # sup |Div_perp H|
    rate: float              # r(t) of the sampled state
    max_driving: float       # sup |Div_perp (H - X)|; equals max_div_h unless prescribed
    tangent_label: str
    normal_label: str
    rigidity: float | None = None   # harmonic_rigidity residual, when the pass was asked for it

    @property
    def umbilical_residual(self) -> float:
        """0: the twisted ansatz makes the leaves umbilical by construction.

        Stated, not measured (see ``geometry.SecondFundamentalData``); the
        umbilicalResidual column and the umbilical preservation rows print it.
        """
        return 0.0

    @property
    def d_theta_sup(self) -> float:
        """0: theta_H = -n dphi is exact under the twisted ansatz, so it is closed.

        Stated, not measured; the dThetaH column and the closed_theta
        preservation rows print it.  The one closedness a run measures is
        that of H - X, whose prescribed X is the user's (``sample_flow``).
        """
        return 0.0


@dataclass(frozen=True)
class Trajectory:
    """Sampled flow together with its analytic limit and evaluator.

    ``limit`` is the t = inf state, built once the diagnose pass is over;
    ``x`` is the target field X of a prescribed run and otherwise a zero
    broadcast over (p,) + grid, which holds no grid of memory.
    ``at(times)`` lazily yields the states at an ascending sequence of
    times in [0, inf], in closed form on the exact path.  Where psi
    varies along a fiber, a p = 2 run sums one Chebyshev series per chain
    of requested times, and a p = 1 run (the FD path) marches the request
    from phi(0) as one chain in one ``fd_heat_run`` call; no state
    outlives a request.  ``evaluate(t)`` asks for one.
    ``weighted_sums(times, weights)`` returns, for ascending finite times
    and one weight per time, (sum_k w_k phi_plain(t_k), R).  phi_plain is
    the flow before volume projection; R is the integral of r(t) that the
    weights stand for, 0.0 unless the variant is normalized.  Every path
    that is exact in time takes the sum in one piece (one summed multiplier
    on the exact path, one series on the Chebyshev path) and
    R = (2/n) log(vol_plain(t_last) / vol_plain(t_first)), which holds
    since d/dt log vol_plain = (n/2) r and r is blind to the projection's
    fiber-constant shift.  The FD march sums the states of ``at`` and
    w_k r(t_k) over the projected ones, node by node.
    ``fiber_rate`` is None where psi varies along a fiber; on the exact
    path it is the per-fiber scale exp(-2 psibar) of the flat fiber
    spectrum.
    """

    states: tuple[ProductState, ...]
    diagnostics: tuple[DiagnosticsRecord, ...]
    limit: ProductState
    converged_time: float | None
    config: FlowConfig
    initial: ProductState
    at: Callable[[Iterable[float]], Iterator[ProductState]]
    weighted_sums: Callable[[Iterable[float], np.ndarray], tuple[np.ndarray, float]]
    fiber_rate: np.ndarray | None
    x: np.ndarray            # target X, (p,) + grid; unless prescribed a read-only broadcast 0

    @property
    def sample_times(self) -> tuple[float, ...]:
        return tuple(d.t for d in self.diagnostics)

    def evaluate(self, t: float) -> ProductState:
        return next(self.at((t,)))


def normalization_rate(state: ProductState, div_h: np.ndarray | None = None) -> float:
    """r(t) = -(2/n) int Div_perp H dvol / vol of one state.

    By the divergence identity this equals -(2/n) int |H|^2 dvol / vol,
    so it is nonpositive and vanishes exactly on product metrics.  A
    caller that already holds Div_perp H passes it as ``div_h``.  A
    volume that is not positive and finite raises DegenerateTrajectoryError.
    """
    if div_h is None:
        div_h = geo.phi_fields(state).div_h
    vol, int_div_h = geo.integrals(state, div_h)
    return _rate(state.n, int_div_h, vol)


def _rate(n: int, int_div_h: float, vol: float) -> float:
    """r = -(2/n) int Div_perp H dvol / vol, from the integral and the volume."""
    return float(-(2.0 / n) * int_div_h / vol)


def driving_scalar(fields: geo.PhiFields, x: np.ndarray) -> np.ndarray:
    """The driving scalar Div_perp(H - X) of the state ``fields`` were built for.

    With no target (X = 0) it is the builder's Div_perp H.  Otherwise the
    divergence is taken of H - X itself, so a target X equal to H drives
    exactly nothing, in the run and in its diagnostics alike.
    """
    if not np.any(x):
        return fields.div_h
    return geo.div_perp(fields.h - x, fields.state)


def project_unit_volume(state: ProductState) -> ProductState:
    """Rescale ghat conformally (fiber-constant) to unit total volume.

    A volume that is not positive and finite raises DegenerateTrajectoryError.
    """
    shift = math.log(geo.volume(state)) / state.n
    return state.replace_phi(state.phi - shift, state.t)


def _check_float_range(initial: ProductState) -> None:
    """Refuse initial data whose volume density or leaf factors overflow.

    The flow takes exp(n phi + p psi), summed over the grid for the volume,
    and the leaf factors exp(+-2 phi) and exp(+-2 psi).  Their exponents are
    bounded here, so no exp ever overflows to find out.
    """
    density = float(np.max(np.abs(initial.n * initial.phi + initial.p * initial.psi)))
    leaf = 2.0 * max(float(np.max(np.abs(initial.phi))), float(np.max(np.abs(initial.psi))))
    density_max = _LOG_FLOAT_MAX - math.log(initial.phi.size)
    if density > density_max or leaf > _LOG_FLOAT_MAX:
        raise InputError(
            f"initial phi0 and psi leave the float range: exp(n phi0 + p psi) needs "
            f"exponents up to {density:.4g} (at most {density_max:.4g}) and "
            f"exp(+-2 phi0), exp(+-2 psi) up to {leaf:.4g} (at most {_LOG_FLOAT_MAX:.4g})")


def _ascending(times: Iterable[float]) -> list[float]:
    """The requested times as floats; each must be >= 0 and none may descend."""
    times = [float(t) for t in times]
    for earlier, t in zip([0.0] + times, times):
        if not t >= 0:
            raise InputError(f"trajectory time must be >= 0, got {t}")
        if t < earlier:
            raise InputError(f"trajectory times must ascend, got {t} after {earlier}")
    return times


def _exact_phis(initial: ProductState, driving0: np.ndarray, rate: np.ndarray
                ) -> tuple[Callable[[list[float]], Iterator[np.ndarray]],
                           Callable[[list[float], np.ndarray], np.ndarray],
                           Callable[[], np.ndarray],
                           Callable[[Iterable[float], np.ndarray], np.ndarray]]:
    """The exact path's closed form, from one transform of the driving scalar.

    Returns ``(phis, sums, limit, integral)``.  ``integral(times, weights)``
    is the spectrum I of sum_k w_k int_0^{t_k} of the driving scalar's
    evolution, one summed multiplier on the driving spectrum, which is taken
    here once per run.  ``sums`` is (sum_k w_k) phi(0) - irfftn(I)/n and
    ``phis`` that at each time alone, so no forward transform is taken per
    time.  ``limit()`` builds the t = inf phi from the same spectrum
    (``fiber.time_integral_limit_spectrum``) on its first call.  It exists
    only when the driving scalar's fiber means vanish, which is checked
    here, so a scalar that fails it is refused before any state is sampled.

    The driving scalar is a leaf divergence, so its fiber means vanish;
    on the grid they are round-off, which the null mode's multiplier t
    would grow into a drift of phi's fiber mean.  Their entries of the
    driving spectrum are set to zero once, so the mean of phi along each
    fiber is conserved exactly.
    """
    fiber, n = initial.fiber, initial.n
    fb.require_zero_means(driving0, fiber, "the t = inf limit diverges: the driving "
                                           "scalar's fiber mean is nonzero")
    driving_hat = fb.spectrum(driving0, fiber)
    driving_hat[(Ellipsis,) + (0,) * fiber.dim] = 0.0     # the fiber means, as said above

    def integral(times: Iterable[float], weights: np.ndarray) -> np.ndarray:
        return fb.time_integral_sum_spectrum(driving_hat, fiber, times, weights, rate)

    def sums(times: list[float], weights: np.ndarray) -> np.ndarray:
        return float(np.sum(weights)) * initial.phi - fb.nodal(integral(times, weights), fiber) / n

    @functools.cache
    def limit() -> np.ndarray:
        return initial.phi - fb.nodal(
            fb.time_integral_limit_spectrum(driving_hat, fiber, rate), fiber) / n

    def phis(times: list[float]) -> Iterator[np.ndarray]:
        return (initial.phi - fb.nodal(integral((t,), (1.0,)), fiber) / n for t in times)

    return phis, sums, limit, integral


def _plain_phis(initial: ProductState, config: FlowConfig
                ) -> tuple[Callable[[list[float]], Iterator[np.ndarray]], None,
                           Callable[[], np.ndarray]]:
    """phi at each ascending time under d/dt phi = Lap_perp phi, by marching.

    Returns ``(phis, None, limit)``; ``limit()`` is ``_mean_limit``.  Nothing
    is marched here: ``phis(times)`` marches the request from phi(0) as one
    chain of ``fd_heat_run``, so equal intervals share one factorization
    per chunk and a state depends on its request alone.  A chain holds its
    states at once, so a request of more than _CHAIN_BYTES of states
    marches as several chains, each from the last state of the one before.
    """
    def phis(times: list[float]) -> Iterator[np.ndarray]:
        per_chain = max(1, _CHAIN_BYTES // initial.phi.nbytes)
        t0, phi = 0.0, initial.phi
        for first in range(0, len(times), per_chain):
            part = times[first:first + per_chain]
            chain = fd_heat_run(phi, initial.psi, initial.fiber, [t - t0 for t in part],
                                config.fd_scheme)
            yield from chain
            t0, phi = part[-1], chain[-1].copy()
            del chain

    return phis, None, functools.cache(lambda: _mean_limit(initial))


def _mean_limit(initial: ProductState) -> np.ndarray:
    """The t = inf limit of the leaf heat flow: phi's fiber mean in the leaf measure."""
    mean = np.expand_dims(geo.fiber_average(initial, initial.phi), initial.fiber_axes)
    return np.broadcast_to(mean, initial.shape).copy()


def _chebyshev_coefficients(t: float, rho: float) -> np.ndarray:
    """c_0..c_m with exp(-t A) = sum_j c_j T_j(2A/rho - I) for any A with spectrum in [0, rho].

    They are the Chebyshev coefficients of s -> exp(-x (1 + s)) on
    [-1, 1], x = t rho / 2, that is c_0 = ive(0, x) and c_j = 2 (-1)^j
    ive(j, x) (Abramowitz and Stegun 9.6.34), read off one rfft of the
    function at 2N equispaced angles: f(cos theta) = sum_j c_j cos(j theta)
    (Trefethen, Approximation Theory and Approximation Practice, ch. 3).
    The samples are exp(-2x cos^2(theta/2)), whose exponent stays accurate
    where 1 + cos theta would cancel.  The coefficients need about
    9 sqrt(x) + 16 terms, N is a power of two at least twice that, so no
    coefficient aliases, and the series stops at the last coefficient
    above _COEFF_CUT.  A t that needs more than MAX_TERMS raises InputError.
    """
    x = 0.5 * t * rho if t > 0 else 0.0     # t = 0 is the identity, even where rho is inf
    need = 9.0 * math.sqrt(x) + 16.0
    if not need <= MAX_TERMS:       # inf included
        raise InputError(f"t = {t:g} takes up to {need:.4g} Chebyshev terms of the p = 2 "
                         f"propagator, more than MAX_TERMS = {MAX_TERMS}")
    size = 1 << math.ceil(math.log2(2.0 * need))
    half = np.cos(np.arange(2 * size) * (math.pi / (2 * size)))
    half *= half
    half *= -2.0 * x
    coefficients = np.fft.rfft(np.exp(half, out=half))[:size].real / size
    coefficients[0] *= 0.5
    return coefficients[:np.flatnonzero(np.abs(coefficients) > _COEFF_CUT)[-1] + 1]


def _chebyshev_sums(initial: ProductState, rho: float,
                    rows: list[np.ndarray]) -> list[np.ndarray]:
    """sum_j row[j] T_j(S) phi0 for each coefficient row, all from one recurrence.

    S = 2A/rho - I with A = exp(-2 psi)(-Lap), which is -Lap_perp for
    p = 2, and phi0 = ``initial.phi``.  Each term T_j(S) phi0 comes from the
    two before it, T_{j+1} = 2 S T_j - T_{j-1}, at one flat Laplacian (a
    ``fiber.spectrum``/``nodal`` pair under ``fiber.symbols``), and is added
    into the sum of every row that reaches j.  A is self-adjoint and
    nonnegative in the leaf measure exp(2 psi) dy, so when rho bounds its
    spectrum every T_j(S) is a contraction in that norm.  A too small rho
    puts part of the spectrum of S beyond 1, where T_j grows as
    cosh(j acosh s), so the last term carries the largest growth: a last
    term longer than the initial phi by more than _GROWTH_TOL raises
    SolveError.
    """
    fiber, phi0 = initial.fiber, initial.phi
    lam = fb.symbols(fiber)[0]
    scale = (4.0 / rho) * initial.exp_psi(-2)     # 2 (S + I) = scale (-Lap)

    def doubled_shift(v: np.ndarray) -> np.ndarray:
        spectrum = fb.spectrum(v, fiber)
        spectrum *= lam
        out = fb.nodal(spectrum, fiber)
        out *= scale
        return out

    terms = max(map(len, rows))
    sums = [row[0] * phi0 for row in rows]
    previous, current = None, phi0
    for j in range(1, terms):
        term = doubled_shift(current)
        if previous is None:        # T_1 = S phi0
            term *= 0.5
            term -= current
        else:
            term -= current
            term -= current
            term -= previous
        previous, current = current, term
        for total, row in zip(sums, rows):
            if j < len(row):
                total += row[j] * current
    weight = initial.exp_psi(2)
    growth = math.sqrt(np.vdot(current, weight * current) / np.vdot(phi0, weight * phi0))
    if growth > 1.0 + _GROWTH_TOL:
        raise SolveError(f"the Chebyshev series grew by {growth:.3g} over {terms} terms: "
                         f"rho = {rho:.6g} does not bound the leaf Laplacian")
    return sums


def _chebyshev_phis(initial: ProductState
                    ) -> tuple[Callable[[list[float]], Iterator[np.ndarray]],
                               Callable[[list[float], np.ndarray], np.ndarray],
                               Callable[[], np.ndarray]]:
    """phi at each ascending time under d/dt phi = Lap_perp phi for p = 2, by Chebyshev series.

    Returns ``(phis, sums, limit)``.  For p = 2, Lap_perp = exp(-2 psi) Lap,
    whose spectrum lies in [-rho, 0] with rho = max exp(-2 psi) max |k|^2,
    since <u, -Lap u> <= max |k|^2 <u, u> <= rho <u, exp(2 psi) u>; so
    exp(t Lap_perp) phi0 is the Chebyshev series of
    ``_chebyshev_coefficients(t, rho)``.  ``phis(times)`` sums the series
    of every time of a chain in one recurrence, as many times per chain as
    _CHAIN_BYTES holds.  ``sums(times, weights)`` is sum_k w_k phi(t_k)
    from one series whose coefficients are sum_k w_k c_j(t_k), at the cost
    of its longest time.  ``limit()`` is ``_mean_limit``, which the flow
    conserves.
    """
    rho = float(np.max(initial.exp_psi(-2))) * float(np.max(fb.symbols(initial.fiber)[0]))

    def phis(times: list[float]) -> Iterator[np.ndarray]:
        per_chain = max(1, _CHAIN_BYTES // initial.phi.nbytes)
        for first in range(0, len(times), per_chain):
            rows = [_chebyshev_coefficients(t, rho) for t in times[first:first + per_chain]]
            yield from _chebyshev_sums(initial, rho, rows)

    def sums(times: list[float], weights: np.ndarray) -> np.ndarray:
        rows = [_chebyshev_coefficients(t, rho) for t in times]
        combined = np.zeros(max(map(len, rows)))
        for weight, row in zip(weights, rows):
            combined[:len(row)] += weight * row
        return _chebyshev_sums(initial, rho, [combined])[0]

    return phis, sums, functools.cache(lambda: _mean_limit(initial))


def _diagnose(fields: geo.PhiFields, x: np.ndarray) -> DiagnosticsRecord:
    """The record of the state ``fields`` were built for, from that one pass.

    ``x`` is the target field, zero unless the variant is prescribed.
    The volume and both integrals share the volume-form weight of
    ``fields``, and with no target the sup of Div_perp H is also the
    driving scalar's.  The spectrum is dropped once H and Div_perp H
    exist, and Div_perp H once its integral and sups are taken, so only H
    and the weight outlive the record.
    """
    state = fields.state
    div_h, h_sq = fields.div_h, geo.leaf_inner(state, fields.h, fields.h)
    driving = driving_scalar(fields, x)
    fields.drop("spectrum", "div_h")
    vol, int_div_h, int_h2 = geo.integrals(state, div_h, h_sq, weight=fields.weight)
    max_div_h = float(np.max(np.abs(div_h)))
    max_driving = max_div_h if driving is div_h else float(np.max(np.abs(driving)))
    del div_h, driving
    report = geo.classify(state, h_sq)
    del h_sq
    return DiagnosticsRecord(
        t=state.t,
        vol=vol,
        int_h2=int_h2,
        int_div_h=int_div_h,
        max_div_h=max_div_h,
        rate=_rate(state.n, int_div_h, vol),
        max_driving=max_driving,
        tangent_label=report.tangent.label,
        normal_label=report.normal.label,
    )


def run_extrinsic_flow(initial: ProductState, config: FlowConfig) -> Trajectory:
    """Evolve one product state under the configured flow variant.

    Chooses the exact spectral path when psi is fiber-constant and,
    otherwise, the Chebyshev propagator for p = 2 and the
    finite-difference path for p = 1, samples the requested times, and
    always emits the analytic t -> inf limit.  A zero driving field
    short-circuits to a constant trajectory.  Initial data whose exp
    factors leave the float range are refused before anything is evolved.
    This is ``sample_flow`` with its diagnosis step taken at once.
    """
    _, diagnose = sample_flow(initial, config)
    return diagnose()


def sample_flow(initial: ProductState, config: FlowConfig
                ) -> tuple[tuple[ProductState, ...], Callable[[], Trajectory]]:
    """The sampled states of ``run_extrinsic_flow``, and the step that diagnoses them.

    Returns ``(states, diagnose)``; ``diagnose()`` takes each sample's
    record and returns the Trajectory.  A caller with other work for the
    states calls it later (the CLI writes their snapshots in between).
    Every refusal of the initial data, HypothesisViolationError included,
    comes from this first step.  No sample's spectrum is held between the
    steps: on the exact path ``diagnose`` takes each again as phi_hat(0) -
    I(t)/n, from the same ``integral`` call the sampling made.

    Every path, the constant one of a zero driving scalar included, gives
    ``phis(times)`` at ascending finite times, ``sums(times, weights)`` =
    sum_k w_k phi(t_k) (None for the p = 1 march) and ``limit()``, built
    on its first call.  ``at`` alone maps t = inf to ``limit()``.

    ``diagnose(rigidity)`` also evaluates ``rigidity(fields)`` in each
    sample's pass, on the ``PhiFields`` its record was built from, and
    keeps the value as the record's ``rigidity`` (``checks`` passes the
    harmonic_rigidity residual).  Each sample's fields are dropped before
    the next sample's are built.
    """
    _check_float_range(initial)
    prescribed = config.x_field is not None
    x = (geo.fiber_vector(config.x_field, initial, "x_field") if prescribed
         else np.broadcast_to(0.0, (initial.p,) + initial.shape))
    fields0 = geo.phi_fields(initial)

    if initial.p == 2 and prescribed:       # theta_H = -n dphi itself is exact
        closed_sup = geo.d_theta_sup(initial, fields0.h - x)
        if closed_sup > CLOSEDNESS_TOL:
            raise HypothesisViolationError(
                f"mean-curvature 1-form (minus X) is not closed: sup |d theta| = "
                f"{closed_sup:.3e} > {CLOSEDNESS_TOL:.1e}"
            )

    driving0 = driving_scalar(fields0, x)
    rate = geo.fiber_rate(initial) if geo.psi_is_fiber_constant(initial) else None

    fields_at = geo.phi_fields
    if not np.any(driving0):
        phis = lambda times: itertools.repeat(initial.phi, len(times))
        sums = lambda times, weights: float(np.sum(weights)) * initial.phi
        limit = lambda: initial.phi
    elif rate is not None:
        phis, sums, limit, integral = _exact_phis(initial, driving0, rate)
        phi_hat0 = fields0.spectrum

        def fields_at(state: ProductState) -> geo.PhiFields:
            """The fields from phi_hat(0) - I(t)/n, the spectrum of phi at t, formed in place.

            The projection's fiber-constant shift moves only its null
            entries, which no derivative reads.
            """
            spectrum = integral((state.t,), (1.0,))
            spectrum /= -initial.n
            spectrum += phi_hat0
            return geo.PhiFields(state, spectrum)
    elif prescribed:
        raise UnsupportedScenarioError("the prescribed variant requires a fiber-constant psi")
    elif initial.p == 2:
        phis, sums, limit = _chebyshev_phis(initial)
    else:
        phis, sums, limit = _plain_phis(initial, config)
    del fields0, driving0   # no phi-derived field outlives the pass that builds it

    normalized = config.variant == "normalized"

    def at(times: Iterable[float]) -> Iterator[ProductState]:
        times = _ascending(times)
        finite = bisect.bisect_left(times, math.inf)
        plain = map(initial.replace_phi,
                    itertools.chain(phis(times[:finite]), (limit() for _ in times[finite:])),
                    times)
        return map(project_unit_volume, plain) if normalized else plain

    def weighted_sums(times: Iterable[float],
                      weights: np.ndarray) -> tuple[np.ndarray, float]:
        times = _ascending(times)
        weights = np.asarray(weights, dtype=float)
        if not times or weights.shape != (len(times),) or not math.isfinite(times[-1]):
            raise InputError(f"weighted_sums needs one weight per finite time, got "
                             f"{weights.shape} weights for {len(times)} times")
        if sums is not None:
            if not normalized:
                return sums(times, weights), 0.0
            ends = [times[0], times[-1]]
            first, last = map(geo.volume, map(initial.replace_phi, phis(ends), ends))
            return sums(times, weights), (2.0 / initial.n) * math.log(last / first)
        phi_sum, rate_sum = np.zeros(initial.shape), 0.0
        for t, weight, phi in zip(times, weights, phis(times)):
            phi_sum += weight * phi
            if normalized:
                state = project_unit_volume(initial.replace_phi(phi, t))
                rate_sum += weight * normalization_rate(state)
        return phi_sum, rate_sum

    states = tuple(at(config.samples))

    def diagnosed(state: ProductState, rigidity: Callable[[geo.PhiFields], float] | None
                  ) -> DiagnosticsRecord:
        fields = fields_at(state)
        out = _diagnose(fields, x)
        return out if rigidity is None else replace(out, rigidity=rigidity(fields))

    def diagnose(rigidity: Callable[[geo.PhiFields], float] | None = None) -> Trajectory:
        """The Trajectory of the sampled states, one pass over one PhiFields per sample.

        ``rigidity(fields)``, when given, is taken in each sample's pass and
        kept as its record's ``rigidity``.
        """
        diagnostics = tuple(diagnosed(state, rigidity) for state in states)
        converged_time = next((record.t for record in diagnostics
                               if record.max_driving < config.tol_converge), None)
        return Trajectory(
            states=states,
            diagnostics=diagnostics,
            limit=next(at((math.inf,))),
            converged_time=converged_time,
            config=config,
            initial=initial,
            at=at,
            weighted_sums=weighted_sums,
            fiber_rate=rate,
            x=x,
        )

    return states, diagnose


def run_codim1(tau0: np.ndarray, base: FiberGrid, fiber_grid: FiberGrid,
               config: FlowConfig) -> Trajectory:
    """Codimension-one flow from an initial leafwise mean-curvature scalar.

    With unit normal N along one-dimensional flat fibers the state's H is
    tau * N and the law reduces to d/dt tau = N(N(tau)), the fiber heat
    equation.  The limit scalar is the fiber average, hence zero.  The
    initial state is ``codim1_initial(tau0, base, fiber_grid)``.
    """
    return run_extrinsic_flow(codim1_initial(tau0, base, fiber_grid), config)


def codim1_initial(tau0: np.ndarray, base: FiberGrid, fiber_grid: FiberGrid) -> ProductState:
    """The initial state of a codimension-one run, from its mean-curvature scalar.

    The scalar must have zero fiber means: tau = -n N(phi) for a genuine
    metric, so the periodic primitive fixes phi(0) and the constructed run
    keeps int tau dvol = 0 along the way (the circle-wise integral of a
    mean curvature against the evolving volume vanishes).  psi is zero.
    """
    if fiber_grid.dim != 1:
        raise UnsupportedScenarioError("codimension-one runs need a one-dimensional fiber")
    tau0 = np.asarray(tau0, dtype=float)
    if tau0.shape != base.shape + fiber_grid.shape:
        raise InputError(
            f"tau0 shape {tau0.shape} != grid shape {base.shape + fiber_grid.shape}"
        )
    try:
        primitive = fb.antiderivative_values(tau0, fiber_grid)
    except InputError as exc:
        raise UnsupportedScenarioError(
            "tau0 has a nonzero fiber mean, so it is not the mean curvature of any "
            "periodic conformal product"
        ) from exc
    phi0 = -primitive / base.dim
    return ProductState(base, fiber_grid, phi0, np.zeros_like(phi0), 0.0)


def tau_of_state(state: ProductState) -> np.ndarray:
    """Leafwise mean-curvature scalar g(N, H) = exp(psi) H of a p = 1 state."""
    if state.p != 1:
        raise InputError("tau is defined for one-dimensional fibers only")
    return state.exp_psi(1) * geo.phi_fields(state).h[0]
