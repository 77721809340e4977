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
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from . import fiber as fb
from .errors import DegenerateTrajectoryError, InputError
from .fiber import FiberGrid

# Fiber variation of psi below this (relative) threshold counts as
# fiber-constant, which is what the exact spectral flow path requires.
PSI_CONSTANT_TOL = 1e-13
CLASSIFY_TOL = 1e-10        # sup residual below which classify sets a flag


@dataclass(frozen=True)
class ProductState:
    """Snapshot of a twisted-product metric at one time.

    phi and psi live on the combined grid (base axes first).  Treat the
    arrays as immutable once the state is built.

    Fields that depend on psi alone (the factors ``exp_psi(scale)``, one
    entry per scale, and the fiber and base gradients of psi) are computed
    on first use and kept in a store that ``replace_phi`` hands on, so every
    state of one trajectory shares them; a state built any other way starts
    with an empty store.  ``leaf_inner`` is the only leaf pairing and
    ``fiber_rate`` the only per-fiber rate of the exact path.
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

    @property
    def psi_base_gradient(self) -> np.ndarray:
        """Flat base partials of psi, shape (n,) + shape."""
        return self._psi_field("base_gradient", lambda: base_gradient(self.psi, self))


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
    spread = state.psi.max(axis=state.fiber_axes) - state.psi.min(axis=state.fiber_axes)
    scale = max(1.0, float(np.max(np.abs(state.psi))))
    return float(np.max(spread)) <= PSI_CONSTANT_TOL * scale


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
    conformal correction p * sum_i (d_i psi) xi^i.
    """
    xi = fiber_vector(xi, state, "xi")
    psi_grad = state.psi_fiber_gradient
    out = np.zeros(state.shape)
    for k in range(state.p):
        out += fb.gradient_values(xi[k], state.fiber, axis=k)
        out += state.p * psi_grad[k] * xi[k]
    return out


def laplacian_perp(u: np.ndarray, state: ProductState) -> np.ndarray:
    """Leafwise Laplace operator, Div_perp of grad_perp."""
    return div_perp(grad_perp(u, state), state)


def base_gradient(u: np.ndarray, state: ProductState) -> np.ndarray:
    """Flat spectral partials along the base axes, shape (n,) + state.shape."""
    n, p = state.n, state.p
    moved = np.moveaxis(np.asarray(u, dtype=float), tuple(range(n)), tuple(range(p, p + n)))
    grads = fb.gradient_values(moved, state.base)
    return np.stack(
        [np.moveaxis(grads[k], tuple(range(p, p + n)), tuple(range(n))) for k in range(n)]
    )


def twisted_mean_curvature(state: ProductState) -> np.ndarray:
    """Mean curvature of the leaves, as fiber-coordinate components.

    The trace of the umbilical second fundamental form over the n base
    directions gives H = -n grad_perp phi; each of the n unit base
    directions contributes one copy of -grad_perp phi.
    """
    return -state.n * grad_perp(state.phi, state)


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
    h = twisted_mean_curvature(state)
    hperp = -state.p * np.exp(-2.0 * state.phi) * state.psi_base_gradient
    return SecondFundamentalData(h=h, hperp=hperp)


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
    """Density of dvol against the flat reference: exp(n*phi + p*psi)."""
    return np.exp(state.n * state.phi + state.p * state.psi)


def integrate(state: ProductState, values: np.ndarray) -> float:
    """Quadrature of a scalar field against dvol.

    On a uniform periodic grid the trapezoidal rule collapses to the mean
    times the flat volume and is spectrally accurate for smooth fields.
    """
    values = np.asarray(values, dtype=float)
    if values.shape != state.shape:
        raise InputError(f"integrand shape {values.shape} != state shape {state.shape}")
    flat_vol = state.base.volume * state.fiber.volume
    return float(np.mean(values * volume_form_weight(state)) * flat_vol)


def volume(state: ProductState) -> float:
    """Total Riemannian volume of the product, refused unless positive and finite.

    A volume that underflows to 0 or overflows, also through an exp on the
    way, raises DegenerateTrajectoryError instead of a floating-point warning.
    """
    with np.errstate(over="ignore", invalid="ignore"):
        vol = integrate(state, np.ones(state.shape))
    if not 0.0 < vol < math.inf:
        raise DegenerateTrajectoryError(
            f"the volume at t = {state.t:g} is {vol:g}, not positive and finite")
    return vol


def fiber_average(state: ProductState, values: np.ndarray) -> np.ndarray:
    """Per-fiber average against the leaf volume exp(p psi) dy, shape = base.shape."""
    weight = state.exp_psi(state.p)
    return (values * weight).mean(axis=state.fiber_axes) / weight.mean(axis=state.fiber_axes)


def leaf_inner(state: ProductState, a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """Pointwise leaf-metric pairing exp(2 psi) sum_i a^i b^i of fiber-tangent fields."""
    return state.exp_psi(2) * np.sum(a * b, axis=0)


def h_norm_sup(state: ProductState, h: np.ndarray) -> float:
    """Sup over the grid of the metric norm of a fiber-tangent field."""
    h = fiber_vector(h, state, "h")
    return float(np.sqrt(np.max(leaf_inner(state, h, h))))


def hperp_norm_sup(state: ProductState, hperp: np.ndarray) -> float:
    """Sup of the metric norm of a base-tangent field."""
    hperp = np.asarray(hperp, dtype=float)
    sq = np.exp(2.0 * state.phi) * np.sum(hperp ** 2, axis=0)
    return float(np.sqrt(np.max(sq)))


def theta_h(state: ProductState, h: np.ndarray | None = None) -> np.ndarray:
    """Covariant components of the mean-curvature 1-form, theta_i = g_perp(H, .).

    For the twisted ansatz these are -n * (flat fiber partials of phi), so
    the form is exactly closed.
    """
    if h is None:
        h = twisted_mean_curvature(state)
    return state.exp_psi(2) * fiber_vector(h, state, "h")


def d_theta_sup(state: ProductState, h: np.ndarray | None = None) -> float:
    """Sup norm of the fiber exterior derivative of the mean-curvature 1-form.

    The derivative d theta has the single component d1 theta_2 - d2 theta_1,
    so the sup is 0 when p = 1.
    """
    if state.p == 1:
        return 0.0
    theta = theta_h(state, h)
    d1 = fb.gradient_values(theta[1], state.fiber, axis=0)
    d2 = fb.gradient_values(theta[0], state.fiber, axis=1)
    return float(np.max(np.abs(d1 - d2)))


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


def classify(state: ProductState,
             data: SecondFundamentalData | None = None) -> ClassificationReport:
    """Flag each distribution as umbilical or totally geodesic.

    Both distributions are umbilical by construction (see
    ``SecondFundamentalData``), so the only measurement is harmonicity,
    sup |H| <= CLASSIFY_TOL, one metric sup norm per distribution, and
    totally geodesic means harmonic.  The labels feed the ``normal_flags``
    rows of ``check_preservation``; its ``umbilical`` and ``closed_theta``
    rows are structural consistency guards, not measurements.
    """
    if data is None:
        data = second_fundamental(state)
    return ClassificationReport(
        tangent=DistributionFlags(harmonic=h_norm_sup(state, data.h) <= CLASSIFY_TOL),
        normal=DistributionFlags(harmonic=hperp_norm_sup(state, data.hperp) <= CLASSIFY_TOL),
    )
