"""Fault table: each row injects one fault at one solver seam and pins every checker's verdict.

A row gives the fault, the (path, variant) runs it applies to and, for
each, the checkers that fail on the mutant, or why the cell cannot pass
yet (a strict xfail): a reason alone when no checker catches the fault,
or a reason and the checkers that do when the correct run fails some.  For each cell the correct run's verdicts are pinned (a
pass, or a refusal by error type) and the mutant's must differ from them
exactly in the catching checkers.  ``decay_rate`` is left out: it fails
correct base-twisted exact runs (``TestCheckerMatrix``), so it would
"catch" every fault there.  ``fd_convergence_order`` reads no trajectory,
so no fault here can reach it.
"""

import dataclasses
import functools
import math

import numpy as np
import pytest

import foliflow as ff
from foliflow import checks, fdref, flows
from foliflow import fiber as fb
from foliflow import geometry as geo
from foliflow.errors import FlowError, InputError, UnsupportedScenarioError

BASE = ff.FiberGrid(1, (2.0 * math.pi,), (4,))
# (fiber, phi0, psi): psi varies over the base only on the exact path and
# along the fibers on the finite-difference (FD) and Chebyshev ones
PATHS = {
    "exact-p1": (ff.FiberGrid(1, (2.0 * math.pi,), (64,)), {(0, 1): 0.2}, {(1, 0): 0.1}),
    "fd-p1": (ff.FiberGrid(1, (2.0 * math.pi,), (64,)), {(0, 1): 0.2}, {(1, 1): 0.1}),
    # phi0 is not separable, or H's curl vanishes whatever its lowering
    "exact-p2": (ff.FiberGrid(2, (2.0 * math.pi,) * 2, (32, 32)),
                 {(0, 1, 1): 0.1, (0, 0, 1): 0.1}, {(1, 0, 0): 0.1}),
    "chebyshev-p2": (ff.FiberGrid(2, (2.0 * math.pi,) * 2, (32, 32)),
                     {(0, 1, 0): 0.2, (0, 0, 1): 0.1}, {(1, 1, 0): 0.1}),
}
AUDITED = [name for name in checks.CHECKERS if name not in ("decay_rate", "fd_convergence_order")]
REFUSALS = {
    "exact-p1": {},
    "fd-p1": {"uniform_equivalence": UnsupportedScenarioError,
              "oracle_agreement": UnsupportedScenarioError},
    "exact-p2": {"codim1_identity": InputError},
    "chebyshev-p2": {"codim1_identity": InputError,
                     "uniform_equivalence": UnsupportedScenarioError,
                     "oracle_agreement": UnsupportedScenarioError},
}
EPS = 1e-3
# The size of the fiber_rate fault (ROADMAP item 8): below the floors of
# monotonicity and volume_ode, so only bperp_scaling sees it.
RATE_EPS = 1e-6
# The seam through which each path builds its t = inf limit.
LIMIT_SEAMS = {"exact-p1": (fb, "time_integral_limit_spectrum"),
               "chebyshev-p2": (flows, "_mean_limit")}
LIMIT_UNAUDITED = ("no checker audits the t = inf limit (ROADMAP item 13): only "
                   "uniform_equivalence reads it, and its certificate is exact only for "
                   "plain single-mode exact runs")
FD_FAILS = ("the FD states are second-order stencils but every diagnostic is spectral "
            "(ROADMAP item 18): the correct run fails monotonicity, volume_ode and "
            "bperp_scaling")
FD_UNAUDITED = FD_FAILS + ", and the flat-operator mutant fails the same three"
H_EPS = 1e-2
H_CAUGHT = {"divergence_identity", "harmonic_rigidity"}
LOWERING_CAUGHT = {"divergence_identity", "harmonic_rigidity", "monotonicity"}
FAULTS = {
    # the normalized rate integral R of weighted_sums, times (1 + EPS)
    "rate": {("exact-p1", "normalized"): {"bperp_scaling"},
             ("chebyshev-p2", "normalized"): {"bperp_scaling"}},
    # the t = inf limit, times (1 + EPS); single-mode data make
    # uniform_equivalence's certificate exact, so a plain exact run sees it
    "limit": {("exact-p1", "plain"): {"uniform_equivalence"},
              ("exact-p1", "normalized"): LIMIT_UNAUDITED,
              ("chebyshev-p2", "plain"): LIMIT_UNAUDITED,
              ("chebyshev-p2", "normalized"): LIMIT_UNAUDITED},
    # the per-fiber rate exp(-2 psibar) of the exact path, times (1 + RATE_EPS)
    "fiber_rate": {("exact-p1", "plain"): {"bperp_scaling"},
                   ("exact-p1", "normalized"): {"bperp_scaling"}},
    # the FD march on the flat Laplacian: the operator built from psi = 0
    "flat_operator": {("fd-p1", "plain"): FD_UNAUDITED},
    # H lowered by exp(-psi) in place of exp(-2 psi), wherever it is built
    "lowering": {("exact-p1", "plain"): LOWERING_CAUGHT,
                 ("exact-p1", "normalized"): LOWERING_CAUGHT,
                 ("exact-p2", "plain"): LOWERING_CAUGHT,
                 ("exact-p2", "normalized"): LOWERING_CAUGHT,
                 ("chebyshev-p2", "plain"): LOWERING_CAUGHT | {"bperp_scaling", "volume_ode"},
                 ("chebyshev-p2", "normalized"): LOWERING_CAUGHT | {"bperp_scaling"}},
    # the last component of H times (1 + EPS), wherever it is built, so
    # theta_H is not closed; closed_theta is a stated 0 and does not see it
    "curl": {("exact-p2", "plain"): {"divergence_identity", "monotonicity"},
             ("exact-p2", "normalized"): {"divergence_identity", "monotonicity"},
             ("chebyshev-p2", "plain"): {"divergence_identity", "bperp_scaling", "volume_ode"},
             ("chebyshev-p2", "normalized"): {"divergence_identity", "bperp_scaling"}},
    # H times (1 + H_EPS), wherever it is built (ROADMAP item 11)
    "h": {("exact-p1", "plain"): H_CAUGHT | {"monotonicity"},
          ("exact-p1", "normalized"): H_CAUGHT | {"monotonicity"},
          ("fd-p1", "plain"): (FD_FAILS, H_CAUGHT),
          ("exact-p2", "plain"): H_CAUGHT | {"monotonicity"},
          ("exact-p2", "normalized"): H_CAUGHT | {"monotonicity"},
          ("chebyshev-p2", "plain"): H_CAUGHT | {"bperp_scaling", "volume_ode"},
          ("chebyshev-p2", "normalized"): H_CAUGHT | {"bperp_scaling"}},
}


def run(path, variant):
    fiber, phi0, psi = PATHS[path]
    state = ff.ProductState.from_harmonics(BASE, fiber, phi0, psi)
    return ff.run_extrinsic_flow(
        state, ff.FlowConfig(t_end=1.0, samples=(0.0, 0.5, 1.0), variant=variant))


def verdicts(traj):
    """Each audited checker's verdict: "pass", "fail", or the error type it refuses with."""
    out = {}
    for name in AUDITED:
        try:
            reports = checks.CHECKERS[name](traj)
        except FlowError as exc:
            out[name] = type(exc)
        else:
            out[name] = "pass" if all(r.passed for r in reports) else "fail"
    return out


@functools.cache
def correct_run(path, variant):
    return run(path, variant)


def rate_fault(monkeypatch, path, variant):
    traj = correct_run(path, variant)

    def weighted_sums(times, weights):
        phi_sum, rate_sum = traj.weighted_sums(times, weights)
        return phi_sum, rate_sum * (1.0 + EPS)

    assert traj.weighted_sums([0.0, 1.0], [0.5, 0.5])[1] < 0.0
    return dataclasses.replace(traj, weighted_sums=weighted_sums)


def limit_fault(monkeypatch, path, variant):
    owner, name = LIMIT_SEAMS[path]
    original = getattr(owner, name)
    monkeypatch.setattr(owner, name, lambda *args: original(*args) * (1.0 + EPS))
    mutant = run(path, variant)
    assert not np.array_equal(mutant.limit.phi, correct_run(path, variant).limit.phi)
    return mutant


def fiber_rate_fault(monkeypatch, path, variant):
    rate = geo.fiber_rate
    monkeypatch.setattr(geo, "fiber_rate", lambda state: rate(state) * (1.0 + RATE_EPS))
    return run(path, variant)


def flat_operator_fault(monkeypatch, path, variant):
    build = fdref.operator_matrix
    monkeypatch.setattr(fdref, "operator_matrix",
                        lambda psi, grid: build(np.zeros_like(psi), grid))
    return run(path, variant)


def _rebuild_h(monkeypatch, change):
    """Make every ``PhiFields.h`` built from here on ``change(fields, h)`` of the correct H."""
    build = geo.PhiFields.h.func
    h = functools.cached_property(lambda fields: change(fields, build(fields)))
    h.__set_name__(geo.PhiFields, "h")
    monkeypatch.setattr(geo.PhiFields, "h", h)


def lowering_fault(monkeypatch, path, variant):
    # exp(-2 psi) exp(psi) = exp(-psi)
    _rebuild_h(monkeypatch, lambda fields, h: h * fields.state.exp_psi(1))
    return run(path, variant)


def curl_fault(monkeypatch, path, variant):
    def scale_last(fields, h):
        h[-1] *= 1.0 + EPS
        return h

    _rebuild_h(monkeypatch, scale_last)
    return run(path, variant)


def h_fault(monkeypatch, path, variant):
    _rebuild_h(monkeypatch, lambda fields, h: h * (1.0 + H_EPS))
    return run(path, variant)


INJECT = {"rate": rate_fault, "limit": limit_fault, "fiber_rate": fiber_rate_fault,
          "flat_operator": flat_operator_fault, "lowering": lowering_fault,
          "curl": curl_fault, "h": h_fault}


def _cells():
    for fault, cells in FAULTS.items():
        for (path, variant), catches in cells.items():
            marks = ()
            if not isinstance(catches, set):
                reason, catches = (catches, set()) if isinstance(catches, str) else catches
                marks = pytest.mark.xfail(strict=True, raises=AssertionError, reason=reason)
            yield pytest.param(fault, path, variant, catches, marks=marks,
                               id=f"{fault}-{path}-{variant}")


@pytest.mark.parametrize("fault, path, variant, catches", _cells())
def test_fault_is_caught(monkeypatch, fault, path, variant, catches):
    refusals = dict(REFUSALS[path])
    if variant != "plain":      # oracle_agreement marches the plain flow only
        refusals["oracle_agreement"] = UnsupportedScenarioError
    correct = {name: refusals.get(name, "pass") for name in AUDITED}
    assert verdicts(correct_run(path, variant)) == correct
    mutant = verdicts(INJECT[fault](monkeypatch, path, variant))
    failed = {name for name, verdict in mutant.items() if verdict == "fail"}
    assert failed, f"no checker catches the {fault} fault: {mutant}"
    assert mutant == {**correct, **dict.fromkeys(catches, "fail")}
