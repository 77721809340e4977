"""Geometry of conformally twisted products over periodic factors.

The ambient manifold is a product M1 x M2 of a flat base (dimension n)
and a flat fiber (dimension p), carrying the metric

    g = exp(2*phi) g1 (+) exp(2*psi) g2,

with g1, g2 the flat factor metrics.  The tangent distribution D = TM1
is spanned by the base directions and D_perp = TM2 by the fiber
directions; phi may depend on both coordinates, psi is frozen in time.

Closed-form consequences of that ansatz, all obtained from the Koszul
formula on coordinate fields:

  * the leaves M1 x {y} are umbilical, b = -(grad_perp phi) ghat, so the
    mean curvature (trace of b over the n base directions) is
    H = -n grad_perp phi;
  * the fibers {x} x M2 are umbilical with H_perp = -p ghat-grad of psi;
  * grad_perp u = exp(-2*psi) * (flat fiber partials of u);
  * Div_perp xi = sum_i d_i xi^i + p * sum_i (d_i psi) xi^i;
  * Lap_perp u = Div_perp(grad_perp u), which for constant psi reduces to
    exp(-2*psi) times the flat fiber Laplacian.

All fields are nodal arrays over the combined base x fiber grid, with the
fiber axes trailing so the fiber-spectral helpers apply directly.

``PhiFields`` is the one place the fields that depend on phi (H and
Div_perp H) are built: it reads them from one spectrum of phi.  ``phi_fields``
transforms phi for it; a caller that already holds the spectrum, such as
the exact path's closed form, builds ``PhiFields`` itself.  For
fiber-constant psi, Div_perp H is -n exp(-2 psi) Lap_flat phi, a single
Fourier symbol on that spectrum.
No phi-derived field is kept on a state: a state's fields live only as
long as the ``PhiFields`` object of the pass that uses them.
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass, field
from typing import Iterator

import numpy as np

from . import fiber as fb
from .errors import DegenerateTrajectoryError, InputError
from .fiber import FiberGrid

# Fiber variation of psi below this (relative) threshold counts as
# fiber-constant, which is what the exact spectral flow path requires.
PSI_CONSTANT_TOL = 1e-13
CLASSIFY_TOL = 1e-10        # sup residual below which classify sets a flag
_BOUND_MARGIN = 1e-9        # relative margin by which a bound must settle a classify flag


@dataclass(frozen=True)
class ProductState:
    """Snapshot of a twisted-product metric at one time.

    phi and psi live on the combined grid (base axes first).  Treat the
    arrays as immutable once the state is built.

    Fields that depend on psi alone are computed on first use and kept in a
    store that ``replace_phi`` hands on, so every state of one trajectory
    shares them; a state built any other way starts with an empty store.
    An exact-path run stores the factors ``exp_psi(scale)`` it reads (one
    entry per scale, exp(2 psi) and exp(-2 psi) on a p = 2 run), whether
    psi is constant along each fiber and the scalar sup |dpsi|^2 of
    ``classify``; the fiber gradient of psi, a (p,) grid field, is stored
    only when ``div_perp`` asks for it, on a psi that varies along a fiber.
    psi's base gradient is never stored: ``fiber_mean_curvature`` builds it
    per call.
    ``leaf_inner`` is the only leaf pairing and ``fiber_rate`` the only
    per-fiber rate of the exact path.
    """

    base: FiberGrid
    fiber: FiberGrid
    phi: np.ndarray
    psi: np.ndarray
    t: float = 0.0
    _psi_fields: dict = field(default_factory=dict, init=False, repr=False, compare=False)

    def __post_init__(self):
        shape = self.base.shape + self.fiber.shape
        phi = np.asarray(self.phi, dtype=float)
        psi = np.asarray(self.psi, dtype=float)
        if phi.shape != shape or psi.shape != shape:
            raise InputError(
                f"phi/psi shapes {phi.shape}, {psi.shape} do not match grid shape {shape}"
            )
        if not (np.all(np.isfinite(phi)) and np.all(np.isfinite(psi))):
            raise InputError("phi and psi must be finite")
        object.__setattr__(self, "phi", phi)
        object.__setattr__(self, "psi", psi)

    @property
    def n(self) -> int:
        return self.base.dim

    @property
    def p(self) -> int:
        return self.fiber.dim

    @property
    def shape(self) -> tuple[int, ...]:
        return self.base.shape + self.fiber.shape

    @property
    def fiber_axes(self) -> tuple[int, ...]:
        return tuple(range(self.n, self.n + self.p))

    @classmethod
    def from_harmonics(cls, base: FiberGrid, fiber_grid: FiberGrid,
                       phi_terms: dict | None = None,
                       psi_terms: dict | None = None,
                       t: float = 0.0) -> "ProductState":
        """Build a state from {mode: (cos amp, sin amp)} maps over base x fiber."""
        phi = fb.harmonic_field((base, fiber_grid), phi_terms or {})
        psi = fb.harmonic_field((base, fiber_grid), psi_terms or {})
        return cls(base, fiber_grid, phi, psi, t)

    def replace_phi(self, phi: np.ndarray, t: float) -> "ProductState":
        state = ProductState(self.base, self.fiber, phi, self.psi, t)
        object.__setattr__(state, "_psi_fields", self._psi_fields)
        return state

    def _psi_field(self, name: str, compute) -> np.ndarray:
        if name not in self._psi_fields:
            self._psi_fields[name] = compute()
        return self._psi_fields[name]

    def exp_psi(self, scale: float) -> np.ndarray:
        """exp(scale * psi): scale 2 is the leaf conformal factor, p the leaf density."""
        return self._psi_field(("exp", float(scale)), lambda: np.exp(scale * self.psi))

    @property
    def psi_fiber_gradient(self) -> np.ndarray:
        """Flat fiber partials of psi, shape (p,) + shape."""
        return self._psi_field("fiber_gradient",
                               lambda: fb.gradient_values(self.psi, self.fiber))


def psi_fiber_mean(state: ProductState) -> np.ndarray:
    """Per-fiber average of psi, shape = base.shape."""
    return state.psi.mean(axis=state.fiber_axes)


def fiber_rate(state: ProductState) -> np.ndarray:
    """exp(-2 psibar), the per-fiber eigenvalue scale of the exact path."""
    return np.exp(-2 * psi_fiber_mean(state))


def psi_is_fiber_constant(state: ProductState) -> bool:
    """True when psi does not vary along any single fiber (to round-off).

    This is the condition for the leaf Laplacian to be a scaled flat
    Laplacian, hence for the exact spectral evolution path.
    """
    def measure() -> bool:
        spread = state.psi.max(axis=state.fiber_axes) - state.psi.min(axis=state.fiber_axes)
        scale = max(1.0, float(np.max(np.abs(state.psi))))
        return float(np.max(spread)) <= PSI_CONSTANT_TOL * scale

    return state._psi_field("fiber_constant", measure)


def fiber_vector(xi: np.ndarray, state: ProductState, name: str) -> np.ndarray:
    """xi as a float array of a fiber-tangent field, shape (p,) + state.shape.

    Any other shape raises InputError naming the argument ``name``.
    """
    xi = np.asarray(xi, dtype=float)
    if xi.shape != (state.p,) + state.shape:
        raise InputError(f"{name} shape {xi.shape} is not (p,) + grid shape "
                         f"{(state.p,) + state.shape}")
    return xi


def grad_perp(u: np.ndarray, state: ProductState) -> np.ndarray:
    """Leafwise gradient of u: exp(-2*psi) times the flat fiber partials."""
    flat = fb.gradient_values(np.asarray(u, dtype=float), state.fiber)
    return state.exp_psi(-2) * flat


def div_perp(xi: np.ndarray, state: ProductState) -> np.ndarray:
    """Leafwise divergence of a fiber-tangent vector field.

    With the leaf metric exp(2*psi) g2 this is sum_i d_i xi^i plus the
    conformal correction p * sum_i (d_i psi) xi^i.  For psi constant along
    each fiber (``psi_is_fiber_constant``, the rule ``PhiFields.div_h``
    uses) the correction vanishes and is not formed, so psi's fiber
    gradient is neither built nor stored.
    """
    xi = fiber_vector(xi, state, "xi")
    psi_grad = None if psi_is_fiber_constant(state) else state.psi_fiber_gradient
    out = np.zeros(state.shape)
    for k in range(state.p):
        out += fb.gradient_values(xi[k], state.fiber, axis=k)
        if psi_grad is not None:
            out += state.p * psi_grad[k] * xi[k]
    return out


def _base_partials(u: np.ndarray, state: ProductState) -> Iterator[np.ndarray]:
    """Flat spectral partials of u along each base axis in turn, from one transform.

    The last partial takes the transform in place, which is freed before it is yielded.
    """
    n, p = state.n, state.p
    base_axes, moved_axes = tuple(range(n)), tuple(range(p, p + n))
    u_hat = fb.spectrum(np.moveaxis(np.asarray(u, dtype=float), base_axes, moved_axes),
                        state.base)
    *first, last = fb.symbols(state.base)[1]
    for ik in first:
        yield np.moveaxis(fb.nodal(u_hat * ik, state.base), moved_axes, base_axes)
    u_hat *= last
    partial = fb.nodal(u_hat, state.base)
    del u_hat
    yield np.moveaxis(partial, moved_axes, base_axes)


def base_gradient(u: np.ndarray, state: ProductState) -> np.ndarray:
    """Flat spectral partials along the base axes, shape (n,) + state.shape."""
    return np.stack(list(_base_partials(u, state)))


@dataclass(frozen=True, eq=False)
class PhiFields:
    """The fields of one state that depend on phi, all read from one spectrum of phi.

    ``spectrum`` is the real FFT of phi over the fiber axes; its null
    (fiber-mean) entries are never read, so a spectrum of phi shifted by a
    fiber-constant field serves as well.  Each field is built on first use
    and lives as long as this object, or until dropped, and the object is
    kept for one pass over one state and never stored on the state:

      * ``h``, the mean curvature H = -n grad_perp phi, from the flat fiber
        partials of phi, one inverse transform each;
      * ``div_h``, Div_perp H.  For psi constant along each fiber the
        divergence has no grad psi term and H's factor exp(-2 psi) passes
        the fiber derivatives, so it is -n exp(-2 psi) irfftn(-|k|^2 phi_hat),
        one inverse transform; otherwise it is ``div_perp(h)``;
      * ``weight``, the volume-form weight exp(n phi + p psi)
        (``volume_form_weight``), which the pass's integrals and per-sample
        checker rows share.

    ``drop(*names)`` frees entries early: a pass drops the spectrum once h
    and div_h are built and div_h once it has been read, so the stacks of
    its later steps are built beside h and the weight alone.  A dropped
    field is built again if asked for, which needs the spectrum.
    """

    state: ProductState
    spectrum: np.ndarray

    def drop(self, *names: str) -> None:
        """Free ``spectrum`` or built fields (``h``, ``div_h``, ``weight``) ahead of this object."""
        for name in names:
            vars(self).pop(name, None)

    @functools.cached_property
    def h(self) -> np.ndarray:
        state = self.state
        h = np.empty((state.p,) + state.shape)
        for k, ik in enumerate(fb.symbols(state.fiber)[1]):
            h[k] = fb.nodal(self.spectrum * ik, state.fiber)
        h *= state.exp_psi(-2)
        h *= -state.n
        return h

    @functools.cached_property
    def div_h(self) -> np.ndarray:
        state = self.state
        if not psi_is_fiber_constant(state):
            return div_perp(self.h, state)
        lam = fb.symbols(state.fiber)[0]
        div_h = fb.nodal(self.spectrum * -lam, state.fiber)
        div_h *= state.exp_psi(-2)
        div_h *= -state.n
        return div_h

    @functools.cached_property
    def weight(self) -> np.ndarray:
        return volume_form_weight(self.state)


def phi_fields(state: ProductState) -> PhiFields:
    """The phi-derived fields of ``state`` (see ``PhiFields``), phi transformed once here.

    A caller that already holds a spectrum of phi builds ``PhiFields`` itself.
    """
    return PhiFields(state, fb.spectrum(state.phi, state.fiber))


@dataclass(frozen=True)
class SecondFundamentalData:
    """Second fundamental data of both distributions of a product state.

    On a double-twisted product both distributions are umbilical by
    construction (Ponge and Reckziegel, Geom. Dedicata 48, 1993): the
    Koszul formula on coordinate fields gives b = (H/n) ghat and
    bperp = (Hperp/p) g2-hat, with no traceless part to record.  So the
    mean curvatures are the whole data, as vector components w.r.t. the
    relevant factor's coordinates: h over the fiber, hperp over the base.
    """

    h: np.ndarray               # (p,) + shape
    hperp: np.ndarray           # (n,) + shape

    @property
    def b_coeff(self) -> np.ndarray:
        """Coefficient field beta with b = beta . ghat, i.e. H/n."""
        return self.h / self.hperp.shape[0]

    @property
    def bperp_coeff(self) -> np.ndarray:
        """Coefficient field of the base distribution's form, Hperp/p."""
        return self.hperp / self.h.shape[0]


def second_fundamental(state: ProductState) -> SecondFundamentalData:
    """Closed-form second fundamental data of the twisted product."""
    return SecondFundamentalData(h=phi_fields(state).h, hperp=fiber_mean_curvature(state))


def fiber_mean_curvature(state: ProductState) -> np.ndarray:
    """Mean curvature of the fibers as base components, Hperp = -p exp(-2 phi) dpsi.

    psi's base gradient is built for the call and not kept in psi's store.
    """
    return -state.p * np.exp(-2.0 * state.phi) * base_gradient(state.psi, state)


def conformal_change(b_coeff: np.ndarray, h: np.ndarray, phi_inc: np.ndarray,
                     state: ProductState) -> tuple[np.ndarray, np.ndarray]:
    """Second fundamental data after ghat -> exp(2*phi_inc) ghat.

    In the coefficient representation (tensors written as a fiber vector
    times the current truncated metric) the change is

        b~ = (beta - grad_perp phi_inc) . ghat~,   H~ = H - n grad_perp phi_inc,

    so a fiber-constant increment leaves both coefficient fields alone:
    the rescaling then lives entirely in ghat~ = exp(2*phi_inc) ghat and
    the mean curvature is untouched.
    """
    b_coeff = np.asarray(b_coeff, dtype=float)
    h = fiber_vector(h, state, "h")
    if b_coeff.shape != h.shape:
        raise InputError(f"b coefficient shape {b_coeff.shape} != H shape {h.shape}")
    g = grad_perp(np.broadcast_to(np.asarray(phi_inc, dtype=float), state.shape), state)
    return b_coeff - g, h - state.n * g


def volume_form_weight(state: ProductState) -> np.ndarray:
    """Density of dvol against the flat reference: exp(n*phi + p*psi).

    Where the exponent leaves the float range the weight is inf, with no
    warning; ``integrals`` refuses the volume that follows.
    """
    with np.errstate(over="ignore", invalid="ignore"):
        weight = state.n * state.phi
        weight += state.p * state.psi
        return np.exp(weight, out=weight)


def integrate(state: ProductState, values: np.ndarray) -> float:
    """Quadrature of a scalar field against dvol.

    On a uniform periodic grid the trapezoidal rule collapses to the mean
    times the flat volume and is spectrally accurate for smooth fields.
    """
    return _quadrature(state, values, volume_form_weight(state))


def _quadrature(state: ProductState, values: np.ndarray, weight: np.ndarray) -> float:
    """mean(values * weight) times the flat volume, the one form of ``integrate``."""
    values = np.asarray(values, dtype=float)
    if values.shape != state.shape:
        raise InputError(f"integrand shape {values.shape} != state shape {state.shape}")
    flat_vol = state.base.volume * state.fiber.volume
    return float(np.mean(values * weight) * flat_vol)


def volume(state: ProductState) -> float:
    """Total Riemannian volume of the product, refused unless positive and finite.

    A volume that underflows to 0 or overflows, also through an exp on the
    way, raises DegenerateTrajectoryError instead of a floating-point warning.
    """
    return integrals(state)[0]


def integrals(state: ProductState, *fields: np.ndarray,
              weight: np.ndarray | None = None) -> tuple[float, ...]:
    """``volume(state)``, then ``integrate(state, f)`` for each field, from one weight.

    The same floats as one call each, with exp(n phi + p psi) built once,
    or taken as ``weight`` from a caller that holds it (``PhiFields.weight``).
    The volume, mean(weight) times the flat volume, is refused before any
    field is integrated.
    """
    if weight is None:
        weight = volume_form_weight(state)
    with np.errstate(over="ignore", invalid="ignore"):
        vol = float(np.mean(weight) * (state.base.volume * state.fiber.volume))
    if not 0.0 < vol < math.inf:
        raise DegenerateTrajectoryError(
            f"the volume at t = {state.t:g} is {vol:g}, not positive and finite")
    return (vol,) + tuple(_quadrature(state, f, weight) for f in fields)


def fiber_average(state: ProductState, values: np.ndarray) -> np.ndarray:
    """Per-fiber average against the leaf volume exp(p psi) dy, shape = base.shape."""
    weight = state.exp_psi(state.p)
    return (values * weight).mean(axis=state.fiber_axes) / weight.mean(axis=state.fiber_axes)


def leaf_inner(state: ProductState, a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """Pointwise leaf-metric pairing exp(2 psi) sum_i a^i b^i of fiber-tangent fields.

    The sum runs component by component, so no (p,) + grid product is formed.
    """
    total = a[0] * b[0]
    for k in range(1, len(a)):
        total += a[k] * b[k]
    return state.exp_psi(2) * total


def d_theta_sup(state: ProductState, h: np.ndarray) -> float:
    """Sup norm of the fiber exterior derivative of the mean-curvature 1-form.

    The form's covariant components are theta_i = g_perp(H, d_i) =
    exp(2 psi) H^i; for the twisted ansatz they are -n * (flat fiber
    partials of phi), so the form is exactly closed and the diagnose pass
    states it (``DiagnosticsRecord.d_theta_sup``).  What is measured is
    the closedness of H - X, at t = 0 of a prescribed p = 2 run
    (``flows.sample_flow``), since the target X is the user's.  The
    derivative has the single component d1 theta_2 - d2 theta_1, so the
    sup is 0 when p = 1.  The two partials are combined in spectral
    space, each component lowered and transformed in turn: two forward
    transforms and one inverse.
    """
    h = fiber_vector(h, state, "h")
    if state.p == 1:
        return 0.0
    ik1, ik2 = fb.symbols(state.fiber)[1]
    curl_hat = fb.spectrum(state.exp_psi(2) * h[1], state.fiber)
    curl_hat *= ik1
    part = fb.spectrum(state.exp_psi(2) * h[0], state.fiber)
    part *= ik2
    curl_hat -= part
    del part
    return float(np.max(np.abs(fb.nodal(curl_hat, state.fiber))))


@dataclass(frozen=True)
class DistributionFlags:
    """Pointwise-uniform classification of one distribution.

    Both distributions are umbilical by construction, so harmonicity is the
    one flag; a harmonic distribution is totally geodesic.
    """

    harmonic: bool

    @property
    def totally_geodesic(self) -> bool:
        return self.harmonic

    @property
    def label(self) -> str:
        return "totally_geodesic" if self.totally_geodesic else "umbilical"


@dataclass(frozen=True)
class ClassificationReport:
    tangent: DistributionFlags      # the leaf distribution D
    normal: DistributionFlags       # D_perp


def classify(state: ProductState, h_sq: np.ndarray | None = None) -> ClassificationReport:
    """Flag each distribution as umbilical or totally geodesic.

    Both distributions are umbilical by construction (see
    ``SecondFundamentalData``), so the only measurement is harmonicity,
    sup |H| <= CLASSIFY_TOL, one metric sup norm per distribution, and
    totally geodesic means harmonic.  ``h_sq`` is |H|^2_g =
    ``leaf_inner(state, H, H)`` when the caller already holds it (the
    int |H|^2 integrand).  The fibers' |Hperp|^2_g = exp(2 phi) |Hperp|^2
    with Hperp = -p exp(-2 phi) dpsi is taken as p^2 exp(-2 phi) |dpsi|^2,
    so Hperp itself is not built, and that field only when a bound on its
    sup does not settle the flag (``_hperp_harmonic``).  The labels feed
    the ``normal_flags`` rows of ``check_preservation``; its ``umbilical``
    and ``closed_theta`` rows print the record's stated 0s, not
    measurements.
    """
    if h_sq is None:
        h = phi_fields(state).h
        h_sq = leaf_inner(state, h, h)
    return ClassificationReport(
        tangent=DistributionFlags(harmonic=float(np.sqrt(np.max(h_sq))) <= CLASSIFY_TOL),
        normal=DistributionFlags(harmonic=_hperp_harmonic(state)),
    )


def _hperp_harmonic(state: ProductState) -> bool:
    """Whether sup |Hperp|_g <= CLASSIFY_TOL, with |Hperp|^2_g = p^2 exp(-2 phi) |dpsi|^2.

    sup |dpsi|^2 is kept with psi's fields, a scalar, and with phi's
    extremes it bounds sup |Hperp|^2_g from above, by p^2 exp(-2 min phi)
    sup |dpsi|^2, and from below, by p^2 exp(-2 max phi) sup |dpsi|^2.  A
    bound that settles the flag by the relative margin _BOUND_MARGIN, far
    beyond the round-off of either side, decides it; otherwise the exact
    sup does, from |dpsi|^2 built again.
    """
    dpsi_sq_sup = state._psi_field("base_gradient_sq_sup",
                                   lambda: float(np.max(_base_gradient_sq(state))))
    tol_sq, scale = CLASSIFY_TOL ** 2, state.p ** 2 * dpsi_sq_sup
    if scale * math.exp(-2.0 * float(np.min(state.phi))) * (1.0 + _BOUND_MARGIN) <= tol_sq:
        return True
    if scale * math.exp(-2.0 * float(np.max(state.phi))) * (1.0 - _BOUND_MARGIN) > tol_sq:
        return False
    hperp_sq = state.p ** 2 * np.exp(-2.0 * state.phi) * _base_gradient_sq(state)
    return float(np.sqrt(np.max(hperp_sq))) <= CLASSIFY_TOL


def _base_gradient_sq(state: ProductState) -> np.ndarray:
    """|dpsi|^2, the flat sum of squares of psi's base partials, summed one axis at a time."""
    partials = _base_partials(state.psi, state)
    total = next(partials)
    total *= total
    for partial in partials:
        partial *= partial
        total += partial
    return total
