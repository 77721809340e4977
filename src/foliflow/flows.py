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
arbitrary and no time-stepping error enters.  When psi varies along a
fiber the leaf Laplacian has variable coefficients and the
finite-difference path becomes the authoritative solver.

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

import math
from dataclasses import dataclass, field
from typing import Callable, Iterable, Iterator

import numpy as np

from . import fiber as fb
from . import geometry as geo
from .errors import HypothesisViolationError, InputError, UnsupportedScenarioError
from .fdref import FdScheme, fd_heat_run
from .fiber import FiberGrid
from .geometry import ProductState

VARIANTS = ("plain", "normalized", "prescribed")
CLOSEDNESS_TOL = 1e-9       # sup |d theta| above which p = 2 initial data is not closed
_LOG_FLOAT_MAX = math.log(np.finfo(float).max)   # the largest x with exp(x) finite, ~709.78


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
    max_div_h: float         # sup |Div_perp H|
    rate: float              # r(t) of the sampled state
    max_driving: float       # sup |Div_perp (H - X)|; equals max_div_h unless prescribed
    d_theta_sup: float
    tangent_label: str
    normal_label: str

    @property
    def umbilical_residual(self) -> float:
        """0: the twisted ansatz makes the leaves umbilical by construction.

        Stated, not measured (see ``geometry.SecondFundamentalData``); the
        umbilicalResidual column and the umbilical preservation rows print it.
        """
        return 0.0


@dataclass(frozen=True)
class Trajectory:
    """Sampled flow together with its analytic limit and evaluator.

    ``at(times)`` lazily yields the states at an ascending sequence of
    times in [0, inf], in closed form on the exact path.  The FD path
    marches the samples once, at run time, and each requested time from
    the later of the request's previous time and the last sample at or
    before it; no state outlives a request.  ``evaluate(t)`` asks for one.
    ``weighted_sums(times, weights)`` returns, for ascending finite times
    and one weight per time, (sum_k w_k phi_plain(t_k), R).  phi_plain is
    the flow before volume projection; R is the integral of r(t) that the
    weights stand for, 0.0 unless the variant is normalized.  The exact
    path applies the summed time-integral multiplier to the driving scalar
    once and takes R = (2/n) log(vol_plain(t_last) / vol_plain(t_first)),
    which holds since d/dt log vol_plain = (n/2) r and r is blind to the
    projection's fiber-constant shift.  The FD path marches through the
    times as ``at`` does and sums w_k r(t_k) over the projected states.
    ``fiber_rate`` is None on the FD path; on the exact path it is the
    per-fiber scale exp(-2 psibar) of the flat fiber spectrum.
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
    x: np.ndarray            # target field X on the full grid; zero unless prescribed

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
    vol = geo.volume(state)
    if div_h is None:
        div_h = geo.div_perp(geo.twisted_mean_curvature(state), state)
    return float(-(2.0 / state.n) * geo.integrate(state, div_h) / vol)


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


def _plain_phis(initial: ProductState, driving0: np.ndarray, config: FlowConfig,
                rate: np.ndarray | None) -> Callable[[list[float]], Iterator[np.ndarray]]:
    """phi at each ascending time under d/dt phi = Lap_perp phi, closed form or marching.

    A march reaches each time from the previous time or a later anchor.
    """
    if rate is not None:
        return lambda times: (
            initial.phi - fb.time_integral_values(driving0, initial.fiber, t, rate_scale=rate)
            / initial.n for t in times)

    def phis(times: list[float]) -> Iterator[np.ndarray]:
        k = 0
        for t in times:
            while k < len(anchors) and anchors[k][0] <= t:
                (t0, phi), k = anchors[k], k + 1
            if t != t0:
                t0, phi = t, fd_heat_run(phi, initial.psi, initial.fiber, t - t0, config.fd_scheme)
            yield phi

    anchors = [(0.0, initial.phi)]          # the samples' chain, then the t = inf limit
    for s in config.samples:
        anchors.append((s, next(phis([s]))))
    mean = np.expand_dims(geo.fiber_average(initial, initial.phi), initial.fiber_axes)
    anchors.append((math.inf, np.broadcast_to(mean, initial.shape).copy()))
    return phis


def _diagnose(state: ProductState, x: np.ndarray, variant: str) -> DiagnosticsRecord:
    vol = geo.volume(state)     # first, so a degenerate state is refused before any exp
    data = geo.second_fundamental(state)
    div_h = geo.div_perp(data.h, state)
    if variant == "prescribed":
        driving = geo.div_perp(data.h - x, state)
    else:
        driving = div_h
    report = geo.classify(state, data=data)
    return DiagnosticsRecord(
        t=state.t,
        vol=vol,
        int_h2=geo.integrate(state, geo.leaf_inner(state, data.h, data.h)),
        max_div_h=float(np.max(np.abs(div_h))),
        rate=normalization_rate(state, div_h),
        max_driving=float(np.max(np.abs(driving))),
        d_theta_sup=geo.d_theta_sup(state, data.h),
        tangent_label=report.tangent.label,
        normal_label=report.normal.label,
    )


def run_extrinsic_flow(initial: ProductState, config: FlowConfig) -> Trajectory:
    """Evolve one product state under the configured flow variant.

    Chooses the exact spectral path when psi is fiber-constant and the
    finite-difference path otherwise, samples the requested times, and
    always emits the analytic t -> inf limit.  A zero driving field
    short-circuits to a constant trajectory.  Initial data whose exp
    factors leave the float range are refused before anything is evolved.
    """
    _check_float_range(initial)
    x = (np.zeros((initial.p,) + initial.shape) if config.x_field is None
         else geo.fiber_vector(config.x_field, initial, "x_field"))
    h0 = geo.twisted_mean_curvature(initial)

    if initial.p == 2:
        closed_sup = geo.d_theta_sup(initial, h0 - x)
        if closed_sup > CLOSEDNESS_TOL:
            raise HypothesisViolationError(
                f"mean-curvature 1-form (minus X) is not closed: sup |d theta| = "
                f"{closed_sup:.3e} > {CLOSEDNESS_TOL:.1e}"
            )

    driving0 = geo.div_perp(h0 - x, initial)
    rate = geo.fiber_rate(initial) if geo.psi_is_fiber_constant(initial) else None

    if not np.any(driving0):
        phis = lambda times: (initial.phi for _ in times)
    else:
        if rate is None and config.variant == "prescribed":
            raise UnsupportedScenarioError(
                "the prescribed variant requires a fiber-constant psi"
            )
        phis = _plain_phis(initial, driving0, config, rate)

    normalized = config.variant == "normalized"

    def at(times: Iterable[float]) -> Iterator[ProductState]:
        times = _ascending(times)
        states = (initial.replace_phi(phi, t) for t, phi in zip(times, phis(times)))
        return map(project_unit_volume, states) if normalized else states

    def weighted_sums(times: Iterable[float],
                      weights: np.ndarray) -> tuple[np.ndarray, float]:
        times = _ascending(times)
        weights = np.asarray(weights, dtype=float)
        if not times or weights.shape != (len(times),) or not math.isfinite(times[-1]):
            raise InputError(f"weighted_sums needs one weight per finite time, got "
                             f"{weights.shape} weights for {len(times)} times")
        if rate is not None:
            phi_sum = float(weights.sum()) * initial.phi - fb.time_integral_sum_values(
                driving0, initial.fiber, times, weights, rate_scale=rate) / initial.n
            if not normalized:
                return phi_sum, 0.0
            ends = (times[0], times[-1])
            first, last = (geo.volume(initial.replace_phi(phi, t))
                           for t, phi in zip(ends, phis(list(ends))))
            return phi_sum, (2.0 / initial.n) * math.log(last / first)
        phi_sum, rate_sum = np.zeros(initial.shape), 0.0
        for t, weight, phi in zip(times, weights, phis(times)):
            phi_sum += weight * phi
            if normalized:
                state = project_unit_volume(initial.replace_phi(phi, t))
                rate_sum += weight * normalization_rate(state)
        return phi_sum, rate_sum

    states = tuple(at(config.samples))
    diagnostics = tuple(_diagnose(s, x, config.variant) for s in states)
    limit = next(at((math.inf,)))

    converged_time = None
    for record in diagnostics:
        if record.max_driving < config.tol_converge:
            converged_time = record.t
            break

    return Trajectory(
        states=states,
        diagnostics=diagnostics,
        limit=limit,
        converged_time=converged_time,
        config=config,
        initial=initial,
        at=at,
        weighted_sums=weighted_sums,
        fiber_rate=rate,
        x=x,
    )


def run_codim1(tau0: np.ndarray, base: FiberGrid, fiber_grid: FiberGrid,
               config: FlowConfig) -> Trajectory:
    """Codimension-one flow from an initial leafwise mean-curvature scalar.

    With unit normal N along one-dimensional flat fibers the state's H is
    tau * N and the law reduces to d/dt tau = N(N(tau)), the fiber heat
    equation.  The scalar must have zero fiber means: tau = -n N(phi) for
    a genuine metric, so the periodic primitive fixes phi(0) and the
    constructed run keeps int tau dvol = 0 along the way (the circle-wise
    integral of a mean curvature against the evolving volume vanishes).
    The limit scalar is the fiber average, hence zero.
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
    initial = ProductState(base, fiber_grid, phi0, np.zeros_like(phi0), 0.0)
    return run_extrinsic_flow(initial, config)


def tau_of_state(state: ProductState) -> np.ndarray:
    """Leafwise mean-curvature scalar g(N, H) = exp(psi) H of a p = 1 state."""
    if state.p != 1:
        raise InputError("tau is defined for one-dimensional fibers only")
    return state.exp_psi(1) * geo.twisted_mean_curvature(state)[0]
