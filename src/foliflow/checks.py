"""Runtime checkers for the integral identities and preservation laws.

Every checker returns CheckReport records (name, residual, tolerance,
sample time) so runs can be audited mechanically.  Checkers never mutate
the trajectory, and each asks ``Trajectory.at`` (or ``weighted_sums``)
for its times in ascending batches, so a report does not depend on the
checkers run before.

A checker takes the trajectory, or one state and the probe its identity
holds for, and nothing else: tolerances, time steps, node counts and
resolutions are module constants.  The tolerances are 1e-8 for
spectral-path identities at 64 points per dimension, 1e-3 against the
finite-difference oracle, and looser scheme-specific values where a
finite-difference step enters (each report carries its own tolerance).
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Callable

import numpy as np

from . import fiber as fb
from . import geometry as geo
from .errors import DegenerateTrajectoryError, InputError, UnsupportedScenarioError
from .fdref import FdScheme, fd_heat_run
from .fiber import FiberGrid
from .flows import Trajectory, driving_scalar, normalization_rate, tau_of_state
from .geometry import ProductState

SPECTRAL_TOL = 1e-8
PRESERVE_TOL = 1e-10
MONOTONE_TOL = 1e-6
MONOTONE_STEP = 1e-4        # time step of the energy derivative's finite difference
VOLUME_ODE_TOL = 1e-4
VOLUME_ODE_STEP = 1e-3      # time spacing of the central difference of vol(g_t)
BPERP_NODES = 513           # Simpson nodes on [0, t_end]; 1 mod 4, so every other node is a rule
EQUIVALENCE_SLACK = 1e-12
ORACLE_TOL = 1e-3
ORACLE_TIME = 1.0
ORACLE_POINTS = 256         # refined p = 1 fiber resolution of the oracle march
ORDER_TOL = 0.2
ORDER_TIME = 1.0
ORDER_RESOLUTIONS = (64, 128, 256)
DECAY_REL_TOL = 0.02


@dataclass(frozen=True)
class CheckReport:
    """Outcome of one identity check at one sample time."""

    name: str
    residual: float
    tolerance: float
    sample_time: float

    @property
    def passed(self) -> bool:
        return self.residual <= self.tolerance

    def __str__(self) -> str:
        verdict = "pass" if self.passed else "FAIL"
        return (f"{self.name}[t={self.sample_time:g}]: residual {self.residual:.3e} "
                f"vs {self.tolerance:.1e} ({verdict})")


def divergence_identity_sides(state: ProductState,
                              xi: np.ndarray | None = None) -> tuple[float, float]:
    """(int Div_perp xi dvol, int g(H, xi) dvol); xi defaults to H itself."""
    fields = geo.phi_fields(state)
    h = fields.h
    if xi is None:
        xi, div_xi = h, fields.div_h
    else:
        xi = geo.fiber_vector(xi, state, "xi")
        div_xi = geo.div_perp(xi, state)
    lhs = geo.integrate(state, div_xi)
    rhs = geo.integrate(state, geo.leaf_inner(state, h, xi))
    return lhs, rhs


def check_divergence_identity(state: ProductState,
                              xi: np.ndarray | None = None) -> CheckReport:
    """Integrated adjointness of Div_perp against the mean curvature.

    For any fiber-tangent field xi on a closed product,
    int Div_perp(xi) dvol = int g(H, xi) dvol; with xi = H both sides are
    int |H|^2 dvol >= 0, which also certifies r(t) <= 0.  A trajectory's
    rows (``CHECKERS``) read both integrals of xi = H from its diagnostics
    records, which ``flows`` fills from the same fields.
    """
    lhs, rhs = divergence_identity_sides(state, xi)
    return CheckReport("divergence_identity", abs(lhs - rhs), SPECTRAL_TOL, state.t)


def _divergence_identity_rows(trajectory: Trajectory) -> list[CheckReport]:
    """``check_divergence_identity`` with xi = H at every sample, from the records."""
    return [CheckReport("divergence_identity", abs(record.int_div_h - record.int_h2),
                        SPECTRAL_TOL, record.t) for record in trajectory.diagnostics]


def check_codim1_identity(state: ProductState, f: np.ndarray | None = None) -> CheckReport:
    """int N(f) dvol = int tau f dvol along the unit fiber normal N.

    f = 1 gives the vanishing of the total mean curvature of the flow
    lines, the classical obstruction to taut circle foliations.
    """
    if state.p != 1:
        raise InputError("codim1_identity needs p = 1")
    if f is None:
        f = np.ones(state.shape)
    f = np.asarray(f, dtype=float)
    if f.shape != state.shape:
        raise InputError(f"f shape {f.shape} != state shape {state.shape}")
    n_of_f = state.exp_psi(-1) * fb.gradient_values(f, state.fiber)[0]
    residual = abs(geo.integrate(state, n_of_f - tau_of_state(state) * f))
    return CheckReport("codim1_identity", residual, SPECTRAL_TOL, state.t)


@dataclass(frozen=True)
class _RigidityProbe:
    """The phi-independent terms of the rigidity identity for one probe f.

    They depend on f, psi and the grids only, so one probe serves every
    state of a trajectory (``replace_phi`` keeps psi).  A probe constant
    along the base may come as f of shape (1,) * n + fiber shape; its flat
    fiber partials then keep that compact shape.
    """

    f: np.ndarray
    partials: np.ndarray     # flat fiber partials of f
    f_partials: np.ndarray   # f times them: f grad_perp f = exp(-2 psi) f_partials
    rest: np.ndarray         # f Lap_perp f + |grad_perp f|^2

    @classmethod
    def build(cls, state: ProductState, f: np.ndarray) -> "_RigidityProbe":
        f = np.asarray(f, dtype=float)
        partials = fb.gradient_values(f, state.fiber)
        grad = state.exp_psi(-2) * partials      # grad_perp f
        rest = f * geo.div_perp(grad, state)
        rest += geo.leaf_inner(state, grad, grad)
        return cls(f, partials, f * partials, rest)

    def residual(self, fields: geo.PhiFields) -> float:
        """Sup norm of Div(f grad_perp f) + f H(f) - (f Lap_perp f + |grad_perp f|^2).

        Per state this takes H and the volume density w from ``fields``, and
        the full divergence (1/w) sum_i d_i (w f grad_perp^i f), whose
        component spectra are summed before its one inverse transform.
        """
        state, weight = fields.state, fields.weight
        zeta = state.exp_psi(-2) * self.f_partials
        zeta *= weight
        weighted = fb.spectrum(zeta, state.fiber)
        del zeta
        iks = fb.symbols(state.fiber)[1]
        out = fb.nodal(sum(ik * part for ik, part in zip(iks, weighted)), state.fiber)
        del weighted
        out /= weight
        h = fields.h
        h_of_f = h[0] * self.partials[0]
        for i in range(1, state.p):
            h_of_f += h[i] * self.partials[i]
        h_of_f *= self.f
        out += h_of_f
        del h_of_f
        out -= self.rest
        return float(np.max(np.abs(out)))


def check_harmonic_function_rigidity(state: ProductState, f: np.ndarray) -> CheckReport:
    """Pointwise Bochner-type identity behind leafwise-harmonic rigidity.

        Div(f grad_perp f) + f (H(f) - Lap_perp f) = |grad_perp f|^2,

    where Div is the full-metric divergence.  Integrating kills the Div
    term, so Lap_perp f = H(f) forces grad_perp f = 0: leafwise harmonic
    functions compatible with the mean curvature are leafwise constant.
    The residual is the sup-norm of the displayed identity.
    """
    f = np.asarray(f, dtype=float)
    if f.shape != state.shape:
        raise InputError(f"f shape {f.shape} != state shape {state.shape}")
    residual = _RigidityProbe.build(state, f).residual(geo.phi_fields(state))
    return CheckReport("harmonic_rigidity", residual, SPECTRAL_TOL, state.t)


def check_preservation(trajectory: Trajectory) -> list[CheckReport]:
    """Structure preservation along a run, one report per property per sample.

    The ``umbilical`` and ``closed_theta`` rows are structural consistency
    guards: the twisted ansatz makes the leaves umbilical by construction
    and theta_H = -n dphi exact, so the record states both residuals as 0;
    a non-closed H - X is refused before the run starts.  A broken H is
    caught by the checkers that read it (divergence_identity on every H
    fault of tests/test_faults.py), not by these rows.  ``normal_flags``
    checks that the fiber distribution keeps the umbilical or totally
    geodesic label it started with.
    """
    if len(trajectory.states) < 3:
        raise InputError("preservation checks need at least 3 sampled states")
    reports = []
    first = trajectory.diagnostics[0]
    for record in trajectory.diagnostics:
        reports.append(CheckReport("umbilical", record.umbilical_residual,
                                   PRESERVE_TOL, record.t))
        reports.append(CheckReport("closed_theta", record.d_theta_sup,
                                   PRESERVE_TOL, record.t))
        drift = 0.0 if record.normal_label == first.normal_label else 1.0
        reports.append(CheckReport("normal_flags", drift, 0.5, record.t))
    return reports


def _speed(state: ProductState, x: np.ndarray, normalized: bool) -> np.ndarray:
    """Conformal speed s = -(2/n) Div_perp(H - X) - r of the leaf factor.

    r enters only under the normalized variant, where X = 0 and the
    driving scalar is Div_perp H itself.
    """
    driving = driving_scalar(geo.phi_fields(state), x)
    s = -(2.0 / state.n) * driving
    if normalized:
        s = s - normalization_rate(state, driving)
    return s


def _theta_norms(state: ProductState, x: np.ndarray) -> tuple[float, float]:
    """(|theta|^2, |delta theta|^2) in the leafwise L2 norm, delta the leaf codifferential.

    theta is the 1-form g_perp(H - X, .), so the field H - X is its metric
    dual: |theta| = |H - X| in the leaf metric and delta theta =
    -Div_perp(H - X).  The leaf measure exp(p psi) dy and the leaf metric
    are frozen in time, so these norms see only the evolving field.
    """
    fields = geo.phi_fields(state)
    field = fields.h - x
    leaf_weight = state.exp_psi(state.p)
    flat_vol = state.base.volume * state.fiber.volume
    codiff = -driving_scalar(fields, x)
    return (
        float(np.mean(geo.leaf_inner(state, field, field) * leaf_weight) * flat_vol),
        float(np.mean(codiff ** 2 * leaf_weight) * flat_vol),
    )


def check_monotonicity(trajectory: Trajectory) -> list[CheckReport]:
    """d/dt |theta_H|_2^2 = -2 |delta theta_H|_2^2, sample by sample.

    The time derivative is a second-order finite difference of the exact
    evaluator (one-sided at t = 0), the codifferential term is evaluated
    at the sample itself.  All stencil times go to ``trajectory.at`` at once.
    """
    h = MONOTONE_STEP
    samples = trajectory.sample_times
    stencils = [(t - h, t, t + h) if t >= h else (t, t + h, t + 2 * h) for t in samples]
    times = sorted({tau for stencil in stencils for tau in stencil})
    norms = {tau: _theta_norms(state, trajectory.x)
             for tau, state in zip(times, trajectory.at(times))}
    reports = []
    for t in samples:
        if t >= h:
            slope = (norms[t + h][0] - norms[t - h][0]) / (2.0 * h)
        else:
            slope = (-3.0 * norms[t][0] + 4.0 * norms[t + h][0] - norms[t + 2 * h][0]) / (2.0 * h)
        reports.append(CheckReport("monotonicity", abs(slope + 2.0 * norms[t][1]),
                                   MONOTONE_TOL, t))
    return reports


def check_volume_ode(trajectory: Trajectory) -> CheckReport:
    """d/dt vol(g_t) = (n/2) int s_t dvol_t by central differences.

    s_t is the conformal speed of the evolving leaf factor; for the
    normalized variant it includes the -r(t) correction and both sides
    vanish.  The residual is relative when the analytic side is nonzero.
    The check runs at the middle sample, clipped into
    [VOLUME_ODE_STEP, t_end - VOLUME_ODE_STEP] so the stencil stays in the run.
    """
    config = trajectory.config
    spacing = VOLUME_ODE_STEP
    t = trajectory.sample_times[len(trajectory.sample_times) // 2]
    t = min(max(t, spacing), config.t_end - spacing)
    if t < spacing:
        raise InputError(
            f"volume_ode needs t_end >= 2 * VOLUME_ODE_STEP = {2 * spacing:g} for its "
            f"central difference, got t_end = {config.t_end:g}"
        )
    before, state, after = trajectory.at((t - spacing, t, t + spacing))
    s = _speed(state, trajectory.x, config.variant == "normalized")
    rhs = (state.n / 2.0) * geo.integrate(state, s)
    lhs = (geo.volume(after) - geo.volume(before)) / (2.0 * spacing)
    scale = abs(rhs) if abs(rhs) > 1e-12 else 1.0
    return CheckReport("volume_ode", abs(lhs - rhs) / scale, VOLUME_ODE_TOL, t)


def _simpson_weights(t: float, nodes: int) -> np.ndarray:
    """Composite Simpson weights h/3 * (1, 4, 2, ..., 2, 4, 1) on [0, t].

    ``nodes`` equally spaced nodes must be an odd integer of at least 3,
    so that the panels pair up exactly.
    """
    weights = np.full(nodes, 2.0)
    weights[1::2] = 4.0
    weights[0] = weights[-1] = 1.0
    return weights * (t / (nodes - 1) / 3.0)


def _bperp_node_sums(trajectory: Trajectory, t: float,
                     quad_nodes: int) -> tuple[np.ndarray, float, float]:
    """Simpson sums over the nodes of [0, t]: (sum w phi0, integral of r, sum w).

    One ``trajectory.weighted_sums`` call gives the weighted sum of the
    unprojected phi and the rate integral (zero unless the variant is
    normalized); phi0 is that sum less its fiber mean.
    """
    weights = _simpson_weights(t, quad_nodes)
    phi_sum, rate_sum = trajectory.weighted_sums(np.linspace(0.0, t, quad_nodes), weights)
    phi0 = phi_sum - phi_sum.mean(axis=trajectory.initial.fiber_axes, keepdims=True)
    return phi0, rate_sum, float(weights.sum())


def _bperp_exponent(trajectory: Trajectory, t: float, quad_nodes: int) -> np.ndarray:
    """Simpson rule for -int_0^t s, with the speed operator applied once.

    Only a prescribed run's X is scaled by the summed weights: scaling the
    zero broadcast of a run without a target would build a grid of zeros.
    """
    phi_sum, rate_sum, weight_sum = _bperp_node_sums(trajectory, t, quad_nodes)
    initial = trajectory.initial
    summed = initial.replace_phi(phi_sum, t)
    x = trajectory.x
    if trajectory.config.x_field is not None:
        x = weight_sum * x
    driving = driving_scalar(geo.phi_fields(summed), x)
    return (2.0 / initial.n) * driving + rate_sum


def check_bperp_scaling(trajectory: Trajectory) -> CheckReport:
    """Pointwise scaling of the base-distribution shape coefficient.

    The fiber-normal second fundamental form keeps its direction and
    scales by exp(-int_0^t s), i.e. by exp((2/n) int_0^t Div_perp(H - X))
    with the -r correction under the normalized variant.  The exponent
    at t_end is recomputed here by Simpson quadrature over BPERP_NODES
    states, fully independent of the engine's closed-form reconstruction.

    Div_perp(H - X) is affine in phi (H = -n grad_perp phi) and blind to
    anything constant along a fiber, so the Simpson sum of the per-node
    driving scalars is the driving scalar of the Simpson sum of phi with
    X weighted by the summed weights.  The quadrature therefore takes the
    weighted sum of the unprojected phi from ``trajectory.weighted_sums``,
    removes its fiber mean (whose round-off the second derivative would
    amplify by up to k_max^2) and applies the spectral derivatives once.
    On a path exact in time (one Fourier multiplier on the exact path, one
    Chebyshev series where p = 2 and psi varies along a fiber) no node
    state is built, and the normalized variant's integral of r is the closed
    form (2/n) log(vol_plain(t) / vol_plain(0)), the limit of its Simpson
    sums.  The FD path marches through the nodes and, under the normalized
    variant, evaluates ``normalization_rate`` at each of them.  The end
    states at 0 and t_end are the first and last samples when the samples
    span [0, t_end], and else come from ``trajectory.at``.  The residual
    is the sup gap over max(1, sup |b_perp(t)|), so a volume rescaling
    cannot grow it.

    On the exact path the rule on every other node gives a second exponent
    E', and sup |b_perp(t) (E - E')| / 15, relative as the residual, is
    Richardson's estimate of the quadrature error.  Nodes too far apart to
    follow the decay (a long t) put it above SPECTRAL_TOL, and the check
    refuses the run with DegenerateTrajectoryError instead of failing it.
    """
    t = trajectory.config.t_end
    exponent = _bperp_exponent(trajectory, t, BPERP_NODES)

    times = trajectory.sample_times
    if times[0] == 0.0 and times[-1] == t:
        start, end = trajectory.states[0], trajectory.states[-1]
    else:
        start, end = trajectory.at((0.0, t))
    b0, bt = (geo.fiber_mean_curvature(state) / state.p for state in (start, end))
    scale = max(1.0, float(np.max(np.abs(bt))))
    if trajectory.fiber_rate is not None:
        coarse = _bperp_exponent(trajectory, t, (BPERP_NODES + 1) // 2)
        estimate = float(np.max(np.abs(bt * (exponent - coarse)[None]))) / 15.0 / scale
        if not estimate <= SPECTRAL_TOL:
            raise DegenerateTrajectoryError(
                f"bperp_scaling's {BPERP_NODES}-node Simpson rule does not resolve the "
                f"decay on [0, {t:g}]: its error estimate {estimate:.3e} exceeds "
                f"{SPECTRAL_TOL:.1e}")
    gap = float(np.max(np.abs(bt - b0 * np.exp(exponent)[None])))
    return CheckReport("bperp_scaling", gap / scale, SPECTRAL_TOL, t)


def flat_spectral_gap(grid: FiberGrid) -> float:
    """Smallest nonzero Laplace eigenvalue of the flat fiber torus."""
    return min((2.0 * math.pi / L) ** 2 for L in grid.sides)


def _fiber_gap(trajectory: Trajectory, checker: str) -> np.ndarray:
    """Per-fiber spectral gap of the exact path: the flat gap times ``fiber_rate``.

    A run whose psi varies along a fiber has no such spectrum, and
    ``checker`` refuses it.
    """
    if trajectory.fiber_rate is None:
        raise UnsupportedScenarioError(f"{checker} needs a psi constant along fibers")
    return flat_spectral_gap(trajectory.initial.fiber) * trajectory.fiber_rate


def uniform_equivalence_constant(trajectory: Trajectory) -> float:
    """Certificate c >= 1 with c^{-1} ghat_0 <= ghat_t <= c ghat_0 for all t.

    The conformal exponent is 2(phi_t - phi_0) = -(2/n) * running time
    integral of the driving scalar, bounded per fiber by the summed
    nonzero-mode amplitudes of the initial scalar over the per-fiber
    spectral gap (for single-mode data this is exactly max amplitude over
    the gap).  A run whose psi varies along a fiber has no such spectrum
    and is refused.
    """
    gap = _fiber_gap(trajectory, "uniform_equivalence")
    initial = trajectory.initial
    driving0 = driving_scalar(geo.phi_fields(initial), trajectory.x)
    axes = initial.fiber_axes
    coeffs = np.fft.fftn(driving0, axes=axes) / np.prod(initial.fiber.shape)
    mags = np.abs(coeffs)
    zero = (slice(None),) * initial.n + (0,) * initial.p
    mags[zero] = 0.0
    summed = mags.sum(axis=axes)
    bound = float(np.max(summed / gap))
    return math.exp(2.0 * bound / initial.n)


def check_uniform_equivalence(trajectory: Trajectory) -> CheckReport:
    """sup_t |phi_t - phi_0| against the spectral certificate, per fiber.

    With B = log(c)/2 the plain and prescribed flows keep phi within B of
    the initial phi.  A normalized state is the plain one shifted by
    -log(vol_t)/n, so it is compared with the normalized t = 0 state, and
    since vol_t/vol_0 lies in [exp(-nB), exp(nB)] the shift moves by at
    most B more: the bound is 2B.
    """
    c = uniform_equivalence_constant(trajectory)
    bound = math.log(c) / 2.0
    start = trajectory.initial
    if trajectory.config.variant == "normalized":
        start = trajectory.evaluate(0.0)
        bound *= 2.0
    worst = 0.0
    for state in trajectory.states + (trajectory.limit,):
        worst = max(worst, float(np.max(np.abs(state.phi - start.phi))))
    return CheckReport("uniform_equivalence", max(0.0, worst - bound), EQUIVALENCE_SLACK,
                       trajectory.sample_times[-1])


def check_oracle_agreement(trajectory: Trajectory) -> CheckReport:
    """The run's phi at ORACLE_TIME against the finite-difference march.

    The conformal factor itself solves the leafwise heat equation, so the
    march (with the run's fd_scheme) takes the initial phi to ORACLE_TIME
    and the report carries its sup-norm gap to ``trajectory.evaluate``.
    For p = 1 both are compared on ORACLE_POINTS fiber points, the run's
    phi resampled there; for p = 2 at the native resolution.  A scheme the
    march refuses on that grid is refused by name.
    """
    initial = trajectory.initial
    _fiber_gap(trajectory, "oracle_agreement")
    if trajectory.config.variant != "plain":
        raise UnsupportedScenarioError("oracle_agreement runs on the plain variant")
    psi_mean = geo.psi_fiber_mean(initial)

    fine_grid = initial.fiber
    phi0, spectral = initial.phi, trajectory.evaluate(ORACLE_TIME).phi
    if initial.p == 1 and ORACLE_POINTS != initial.fiber.points[0]:
        fine_grid = FiberGrid(1, initial.fiber.sides, (ORACLE_POINTS,))
        phi0, spectral = (fb.resample_values(phi, initial.fiber, ORACLE_POINTS)
                          for phi in (phi0, spectral))
    psi_nodal = np.broadcast_to(
        psi_mean.reshape(psi_mean.shape + (1,) * initial.p),
        psi_mean.shape + fine_grid.shape,
    )
    try:
        stepped = fd_heat_run(phi0, psi_nodal, fine_grid, (ORACLE_TIME,),
                              trajectory.config.fd_scheme)[0]
    except InputError as exc:
        points = "x".join(map(str, fine_grid.points))
        raise InputError(f"oracle_agreement's march on {points} fiber points: {exc}") from exc
    gap = float(np.max(np.abs(spectral - stepped)))
    return CheckReport("oracle_agreement", gap, ORACLE_TOL, ORACLE_TIME)


def fd_flow_error(points: int) -> float:
    """Sup error at ORDER_TIME of the default heat march on cos(y) over a 2 pi circle."""
    grid = FiberGrid(1, (2.0 * math.pi,), (points,))
    y = grid.coordinates()[0]
    u0 = np.cos(2.0 * math.pi * y / grid.sides[0])   # not cos(y): the rounding shows in checks.csv
    exact = math.exp(-fb.eigenvalue((1,), grid) * ORDER_TIME) * u0
    stepped = fd_heat_run(u0, np.zeros(points), grid, (ORDER_TIME,), FdScheme())[0]
    return float(np.max(np.abs(stepped - exact)))


def check_fd_convergence_order() -> CheckReport:
    """Measured spatial order of the theta-scheme against the closed form.

    Fits log error at ORDER_TIME (FdScheme().dt steps) versus log spacing
    over ORDER_RESOLUTIONS; the centered second-difference stencil is
    second order, so the residual is |slope - 2|.
    """
    errs = [fd_flow_error(pts) for pts in ORDER_RESOLUTIONS]
    hs = [2.0 * math.pi / pts for pts in ORDER_RESOLUTIONS]
    slope = np.polyfit(np.log(hs), np.log(errs), 1)[0]
    return CheckReport("fd_convergence_order", abs(slope - 2.0), ORDER_TOL, ORDER_TIME)


def estimate_decay_rate(trajectory: Trajectory) -> float:
    """Least-squares slope of log sup|driving scalar| over the samples.

    The driving scalar obeys the leafwise heat equation, so the slope
    approaches minus the effective spectral gap; single-mode data hits
    it exactly.  Raises on degenerate (identically zero) trajectories or
    when fewer than 4 usable samples, or fewer than 2 distinct usable
    times, remain.
    """
    ts, logs = [], []
    for record in trajectory.diagnostics:
        if record.max_driving > 0.0:
            ts.append(record.t)
            logs.append(math.log(record.max_driving))
    if len(ts) < 4:
        raise DegenerateTrajectoryError(
            "decay_rate fit needs at least 4 samples with a nonzero driving field"
        )
    if len(set(ts)) < 2:
        raise DegenerateTrajectoryError(
            f"decay_rate fit needs at least 2 distinct sample times, got only t = {ts[0]:g}"
        )
    return float(np.polyfit(ts, logs, 1)[0])


def check_decay_rate(trajectory: Trajectory) -> CheckReport:
    """Fitted decay slope against minus the slowest fiber's gap.

    A run whose psi varies along a fiber, which has no per-fiber gap, is
    refused.
    """
    expected = -float(np.min(_fiber_gap(trajectory, "decay_rate")))
    slope = estimate_decay_rate(trajectory)
    residual = abs(slope - expected) / abs(expected)
    return CheckReport("decay_rate", residual, DECAY_REL_TOL,
                       trajectory.sample_times[-1])


def _rigidity_probe(state: ProductState) -> _RigidityProbe:
    """The probe of the harmonic_rigidity rows: one fixed fiber wave f, the same on every fiber."""
    wave = np.sin(2.0 * math.pi * state.fiber.coordinates()[0] / state.fiber.sides[0])
    f = np.broadcast_to(wave, state.fiber.shape).reshape((1,) * state.n + state.fiber.shape)
    return _RigidityProbe.build(state, f)


def _rigidity_rows(trajectory: Trajectory) -> list[CheckReport]:
    """``check_harmonic_function_rigidity`` at every sample for the fiber wave of ``_rigidity_probe``.

    The rows are the records' ``rigidity``, taken in the diagnose pass,
    when ``diagnose_and_check`` ran the pass; otherwise the wave's
    phi-independent terms are built once and each state's fields here.
    """
    residuals = [record.rigidity for record in trajectory.diagnostics]
    if None in residuals:
        probe = _rigidity_probe(trajectory.initial)
        residuals = [probe.residual(geo.phi_fields(state)) for state in trajectory.states]
    return [CheckReport("harmonic_rigidity", residual, SPECTRAL_TOL, record.t)
            for residual, record in zip(residuals, trajectory.diagnostics)]


CHECKERS = {
    "divergence_identity": _divergence_identity_rows,
    "codim1_identity": lambda traj: [check_codim1_identity(s) for s in traj.states],
    "harmonic_rigidity": _rigidity_rows,
    "preservation": check_preservation,
    "monotonicity": check_monotonicity,
    "volume_ode": lambda traj: [check_volume_ode(traj)],
    "bperp_scaling": lambda traj: [check_bperp_scaling(traj)],
    "uniform_equivalence": lambda traj: [check_uniform_equivalence(traj)],
    "oracle_agreement": lambda traj: [check_oracle_agreement(traj)],
    "decay_rate": lambda traj: [check_decay_rate(traj)],
    "fd_convergence_order": lambda traj: [check_fd_convergence_order()],
}


def require_known(names: list[str]) -> None:
    """Refuse, with InputError, any name that is not a key of CHECKERS."""
    for name in names:
        if name not in CHECKERS:
            raise InputError(
                f"unknown check {name!r}; known: {', '.join(sorted(CHECKERS))}"
            )


def run_checks(trajectory: Trajectory, names: list[str]) -> list[CheckReport]:
    """Run the named checkers against one trajectory, in the given order."""
    require_known(names)
    reports = []
    for name in names:
        reports.extend(CHECKERS[name](trajectory))
    return reports


def diagnose_and_check(initial: ProductState, diagnose: Callable[..., Trajectory],
                       names: list[str]) -> tuple[Trajectory, list[CheckReport]]:
    """``run_checks(diagnose(), names)`` with the per-sample rows taken in the diagnose pass.

    ``diagnose`` is the second step of ``flows.sample_flow(initial, ...)``.
    When ``names`` holds harmonic_rigidity, its probe is built from
    ``initial`` first and each sample's residual is taken from the fields
    the pass builds for that sample's record, so no state's H, spectrum or
    volume weight is built twice.  Unknown names are refused before the pass.
    """
    require_known(names)
    probe = _rigidity_probe(initial) if "harmonic_rigidity" in names else None
    trajectory = diagnose(probe.residual if probe else None)
    return trajectory, run_checks(trajectory, names)
