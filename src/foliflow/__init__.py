"""Numerical laboratory for conformal metric flows on foliated products.

The manifold is a flat periodic base times a periodic fiber, carrying a
double-twisted metric exp(2 phi) g_base + exp(2 psi) g_fiber.  The flow
contracts the base factor by the divergence of the fibers' mean
curvature; on this class it reduces to leafwise heat equations, which
the package solves exactly in Fourier space (fiber-constant psi), by a
Chebyshev series in exp(-2 psi) times the flat Laplacian (fiber-varying
psi, p = 2) or by an implicit finite-difference march (fiber-varying
psi, p = 1), and every
structural identity of the geometry ships as a runnable checker.
"""

from .checks import (
    CheckReport,
    check_bperp_scaling,
    check_codim1_identity,
    check_decay_rate,
    check_divergence_identity,
    check_fd_convergence_order,
    check_harmonic_function_rigidity,
    check_monotonicity,
    check_oracle_agreement,
    check_preservation,
    check_uniform_equivalence,
    check_volume_ode,
    divergence_identity_sides,
    estimate_decay_rate,
    flat_spectral_gap,
    run_checks,
    uniform_equivalence_constant,
)
from .errors import (
    DegenerateTrajectoryError,
    FlowError,
    HypothesisViolationError,
    InputError,
    SolveError,
    UnsupportedScenarioError,
)
from .fdref import FdScheme, fd_heat_run
from .fiber import (
    FiberGrid,
    eigenvalue,
    evolve_values,
    gradient_values,
    harmonic_field,
    heat_kernel,
    time_integral_values,
)
from .flows import (
    DiagnosticsRecord,
    FlowConfig,
    Trajectory,
    normalization_rate,
    project_unit_volume,
    run_codim1,
    run_extrinsic_flow,
    tau_of_state,
)
from .geometry import (
    ClassificationReport,
    DistributionFlags,
    ProductState,
    SecondFundamentalData,
    classify,
    conformal_change,
    div_perp,
    fiber_average,
    grad_perp,
    integrate,
    second_fundamental,
    volume,
)

__version__ = "0.1.0"

__all__ = [
    "CheckReport",
    "ClassificationReport",
    "DegenerateTrajectoryError",
    "DiagnosticsRecord",
    "DistributionFlags",
    "FdScheme",
    "FiberGrid",
    "FlowConfig",
    "FlowError",
    "HypothesisViolationError",
    "InputError",
    "ProductState",
    "SecondFundamentalData",
    "SolveError",
    "Trajectory",
    "UnsupportedScenarioError",
    "check_bperp_scaling",
    "check_codim1_identity",
    "check_decay_rate",
    "check_divergence_identity",
    "check_fd_convergence_order",
    "check_harmonic_function_rigidity",
    "check_monotonicity",
    "check_oracle_agreement",
    "check_preservation",
    "check_uniform_equivalence",
    "check_volume_ode",
    "classify",
    "conformal_change",
    "div_perp",
    "divergence_identity_sides",
    "eigenvalue",
    "estimate_decay_rate",
    "evolve_values",
    "fd_heat_run",
    "fiber_average",
    "flat_spectral_gap",
    "grad_perp",
    "gradient_values",
    "harmonic_field",
    "heat_kernel",
    "integrate",
    "normalization_rate",
    "project_unit_volume",
    "run_checks",
    "run_codim1",
    "run_extrinsic_flow",
    "second_fundamental",
    "tau_of_state",
    "time_integral_values",
    "volume",
]
