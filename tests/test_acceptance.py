"""End-to-end acceptance criteria for the flow laboratory.

Each test pins one quantitative contract at a fixed tolerance and prints
a single PASS/FAIL line (run with ``pytest -s`` to see them).  The
tolerances are frozen here on purpose: they are the product's promises,
not calibration knobs, so a failing line means the promise is broken,
not that the number needs adjusting.

Known red: the heat-kernel equilibrium criterion demands distance below
1e-8 from the uniform state at t = 10, but on the unit circle the
slowest surviving mode alone contributes (1/pi) e^{-10} ~ 1.45e-5, an
analytic floor no correct kernel can beat before t >= 18.  The bound is
asserted as stated rather than weakened; the kernel itself is verified
against an independent image-sum oracle in the fiber test module.
"""

import math

import numpy as np
import pytest

import foliflow as ff
from foliflow import checks
from foliflow import fiber as fb
from foliflow import geometry as geo

BASE = ff.FiberGrid(1, (2.0 * math.pi,), (4,))
BASE64 = ff.FiberGrid(1, (2.0 * math.pi,), (64,))
CIRCLE = ff.FiberGrid(1, (2.0 * math.pi,), (64,))
TORUS = ff.FiberGrid(2, (2.0 * math.pi, 2.0 * math.pi), (64, 64))


def verdict(num: int, label: str, ok: bool) -> None:
    print(f"criterion {num:02d} [{label}]: {'PASS' if ok else 'FAIL'}")


def single_mode_traj(samples, variant="plain", x_field=None):
    state = ff.ProductState.from_harmonics(BASE, CIRCLE, {(0, 1): 0.2})
    config = ff.FlowConfig(t_end=max(samples), samples=samples,
                           variant=variant, x_field=x_field)
    return ff.run_extrinsic_flow(state, config)


def test_c01_single_mode_decay_on_circle():
    """max |Div_perp H_t| = 0.2 exp(-t) within 1e-6 at t in {0.5, 1, 2}."""
    traj = single_mode_traj((0.5, 1.0, 2.0))
    gaps = [abs(d.max_div_h - 0.2 * math.exp(-d.t)) for d in traj.diagnostics]
    ok = all(g < 1e-6 for g in gaps)
    verdict(1, "single-mode circle decay", ok)
    assert max(gaps) < 1e-6


def test_c02_torus_eigenvalue_decay():
    """Mode (1, 2) on the square torus decays as exp(-5 t), 1e-6 relative."""
    state = ff.ProductState.from_harmonics(BASE, TORUS, {(0, 1, 2): 0.1})
    config = ff.FlowConfig(t_end=1.0, samples=(0.0, 1.0))
    traj = ff.run_extrinsic_flow(state, config)
    d0, d1 = traj.diagnostics
    rel = abs(d1.max_div_h / d0.max_div_h - math.exp(-5.0)) / math.exp(-5.0)
    verdict(2, "torus eigenvalue decay", rel < 1e-6)
    assert rel < 1e-6


def test_c03_heat_kernel_equilibrium():
    """sup_{x,y} |G(10, x, y) - 1/(2 pi)| < 1e-8 on the unit circle.

    Analytically unattainable at t = 10: the deviation is exactly
    (1/pi) sum_{l >= 1} exp(-10 l^2) = 1.4451e-5 for any correct kernel,
    and drops below 1e-8 only for t >= 18.  Kept at the stated bound.
    """
    nodes = CIRCLE.coordinates()[0]
    deviation = max(
        abs(fb.heat_kernel(10.0, d, 0.0, CIRCLE) - 1.0 / (2.0 * math.pi))
        for d in nodes
    )
    ok = deviation < 1e-8
    verdict(3, "heat kernel equilibrium", ok)
    assert deviation < 1e-8


def test_c04_divergence_identity_integrated():
    """int Div_perp H dvol = int |H|^2 dvol, residual < 1e-8 at t in {0, 1}."""
    traj = single_mode_traj((0.0, 1.0))
    residuals, sides0 = [], None
    for state in traj.states:
        lhs, rhs = checks.divergence_identity_sides(state)
        residuals.append(abs(lhs - rhs))
        if state.t == 0.0:
            sides0 = (lhs, rhs)
    ok = max(residuals) < 1e-8 and sides0[0] > 0.0 and sides0[1] > 0.0
    verdict(4, "integrated divergence identity", ok)
    assert max(residuals) < 1e-8
    assert sides0[0] > 0.0 and sides0[1] > 0.0


def test_c05_reeb_total_curvature():
    """|int tau dvol| < 1e-8 along the codimension-one run."""
    x = BASE64.coordinates()[0]
    y = CIRCLE.coordinates()[0]
    tau0 = (1.0 + 0.3 * np.cos(x))[:, None] * np.cos(y)[None, :]
    config = ff.FlowConfig(t_end=2.0, samples=(0.0, 0.5, 1.0, 2.0))
    traj = ff.run_codim1(tau0, BASE64, CIRCLE, config)
    totals = [
        abs(geo.integrate(s, np.exp(s.psi) * ff.twisted_mean_curvature(s)[0]))
        for s in traj.states
    ]
    ok = max(totals) < 1e-8
    verdict(5, "codim-1 total curvature", ok)
    assert max(totals) < 1e-8


def test_c06_fd_oracle_equivalence():
    """Spectral vs FD gap < 1e-3 at t=1 (dt=1e-3, 256 pts); order 2.0 +- 0.2."""
    traj = single_mode_traj((0.0, 1.0))
    agreement = checks.check_oracle_agreement(traj, t=1.0, grid_points=256,
                                              scheme=ff.FdScheme(dt=1e-3))
    order = checks.check_fd_convergence_order(t=1.0, dt=1e-3)
    ok = agreement.residual < 1e-3 and order.residual < 0.2
    verdict(6, "finite-difference oracle", ok)
    assert agreement.residual < 1e-3
    assert order.residual < 0.2


def test_c07_normalized_rescaling():
    """Unit-volume run equals the conformally rescaled plain run.

    Component residual < 1e-8 at all samples, volume drift < 1e-8 along
    the normalized run, and r(t) <= 1e-12 at all samples.
    """
    samples = (0.0, 0.5, 1.0, 2.0)
    plain = single_mode_traj(samples)
    norm = single_mode_traj(samples, variant="normalized")
    comp_res, vols = [], []
    for ps, ns in zip(plain.states, norm.states):
        scale = geo.volume(ps) ** (-2.0 / ps.n)
        comp_res.append(float(np.max(np.abs(
            np.exp(2.0 * ns.phi) - scale * np.exp(2.0 * ps.phi)))))
        vols.append(geo.volume(ns))
    drift = max(abs(v - vols[0]) for v in vols)
    rates = [d.rate for d in plain.diagnostics + norm.diagnostics]
    ok = max(comp_res) < 1e-8 and drift < 1e-8 and max(rates) <= 1e-12
    verdict(7, "normalized rescaling", ok)
    assert max(comp_res) < 1e-8
    assert drift < 1e-8
    assert max(rates) <= 1e-12


def test_c08_preservation_suite():
    """Umbilicity < 1e-10, closed theta < 1e-10, shape scaling < 1e-8."""
    samples = (0.0, 0.5, 1.0)
    twisted = single_mode_traj(samples)
    umbilical = max(d.umbilical_residual for d in twisted.diagnostics)

    torus_state = ff.ProductState.from_harmonics(BASE, TORUS, {(0, 1, 2): 0.1})
    torus_traj = ff.run_extrinsic_flow(
        torus_state, ff.FlowConfig(t_end=1.0, samples=samples))
    closed = max(d.d_theta_sup for d in torus_traj.diagnostics)

    # psi = 0.1 cos x keeps the exact path but bends the base distribution
    bent = ff.ProductState.from_harmonics(BASE, CIRCLE, {(0, 1): 0.2},
                                          {(1, 0): 0.1})
    bent_traj = ff.run_extrinsic_flow(
        bent, ff.FlowConfig(t_end=1.0, samples=samples))
    assert np.max(np.abs(geo.second_fundamental(bent).bperp_coeff)) > 0.05
    scaling = checks.check_bperp_scaling(bent_traj).residual

    ok = umbilical < 1e-10 and closed < 1e-10 and scaling < 1e-8
    verdict(8, "preservation suite", ok)
    assert umbilical < 1e-10
    assert closed < 1e-10
    assert scaling < 1e-8


def test_c09_energy_monotonicity():
    """|d/dt ||theta||^2 + 2 ||codifferential||^2| < 1e-6 at all samples."""
    reports = checks.check_monotonicity(single_mode_traj((0.0, 0.5, 1.0, 2.0)))
    worst = max(r.residual for r in reports)
    ok = worst < 1e-6
    verdict(9, "energy monotonicity", ok)
    assert worst < 1e-6


def test_c10_prescribed_limit():
    """X = 0.1 d/dy: limit satisfies Div(H - X) = 0 and H = 0 within 1e-8."""
    x = np.full((1,) + CIRCLE.shape, 0.1)
    traj = single_mode_traj((0.0, 1.0, 2.0), variant="prescribed", x_field=x)
    limit = traj.limit
    h_inf = ff.twisted_mean_curvature(limit)
    x_full = traj.x
    div_res = float(np.max(np.abs(geo.div_perp(h_inf - x_full, limit))))
    h_res = float(np.max(np.abs(h_inf)))
    ok = div_res < 1e-8 and h_res < 1e-8
    verdict(10, "prescribed-curvature limit", ok)
    assert div_res < 1e-8
    assert h_res < 1e-8


def test_c11_volume_ode():
    """d vol/dt = (n/2) int s dvol, relative error < 1e-4 at spacing 1e-3."""
    report = checks.check_volume_ode(single_mode_traj((0.0, 0.5, 1.0, 2.0)),
                                     spacing=1e-3)
    ok = report.residual < 1e-4
    verdict(11, "volume rate equation", ok)
    assert report.residual < 1e-4


def test_c12_twisted_limit_average():
    """phi_inf is the per-fiber leaf-volume average of phi_0 within 1e-8.

    The oracle is a direct numpy weighted mean, independent of the
    engine's spectral projection; the fiber-mean-zero case must converge
    to the flat product.
    """
    state = ff.ProductState.from_harmonics(BASE64, CIRCLE,
                                           {(0, 1): 0.2, (1, 0): 0.1})
    config = ff.FlowConfig(t_end=1.0, samples=(0.0, 1.0))
    traj = ff.run_extrinsic_flow(state, config)
    weights = np.exp(state.p * state.psi)
    oracle = (state.phi * weights).sum(axis=-1) / weights.sum(axis=-1)
    gap = float(np.max(np.abs(traj.limit.phi - oracle[:, None])))

    zero_mean = single_mode_traj((0.0, 1.0))
    flat_gap = float(np.max(np.abs(zero_mean.limit.phi)))
    labels = geo.classify(zero_mean.limit)
    split = (labels.tangent.label == "totally_geodesic"
             and labels.normal.label == "totally_geodesic")

    ok = gap < 1e-8 and flat_gap < 1e-8 and split
    verdict(12, "twisted-product limit", ok)
    assert gap < 1e-8
    assert flat_gap < 1e-8
    assert split
