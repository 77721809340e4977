"""Seeded scenario generator for the benchmark workloads.

Mode sets, grids, sample times and check lists are fixed per workload.
The seed draws only mode amplitudes and phases inside fixed ranges, so
the work per op does not depend on the seed.  Each scenario is the JSON
config that ``foliflow run`` receives, plus the extra command-line flags
and the solver path ("exact" or "fd") its inputs select.
"""

from __future__ import annotations

import math
import random
from dataclasses import dataclass, field

WORKLOADS = ("exact-n2p2", "fd-p1", "sweep")


@dataclass(frozen=True)
class Scenario:
    name: str
    config: dict
    path: str                      # "exact" or "fd"
    argv: tuple[str, ...] = field(default=())

    @property
    def samples(self) -> int:
        return len(self.config["samples"])


@dataclass(frozen=True)
class Workload:
    name: str
    scenarios: tuple[Scenario, ...]
    groups: tuple[tuple[int, ...], ...]   # op i runs groups[i % len(groups)]


class _Draw:
    """Amplitude/phase draws from one seeded stream."""

    def __init__(self, seed: int):
        self._rng = random.Random(seed)

    def amp(self, lo: float, hi: float) -> float:
        return self._rng.uniform(lo, hi)

    def wave(self, lo: float, hi: float) -> list[float]:
        """[cos, sin] pair of amplitude in [lo, hi] and uniform phase."""
        a = self.amp(lo, hi)
        phase = self._rng.uniform(0.0, 2.0 * math.pi)
        return [a * math.cos(phase), a * math.sin(phase)]

    def modes(self, spec: dict) -> dict:
        return {key: self.wave(lo, hi) for key, (lo, hi) in spec.items()}


def _samples(t_end: float, count: int) -> list[float]:
    return [t_end * i / (count - 1) for i in range(count)]


def _exact_n2p2(draw: _Draw, tag: str) -> Scenario:
    config = {
        "scenario": "double_twisted", "n": 2, "p": 2,
        "base_points": 8, "fiber_points": 64,
        "phi0": draw.modes({"0,0,1,0": (0.05, 0.2), "1,0,0,1": (0.03, 0.1),
                            "0,1,1,1": (0.02, 0.06)}),
        "psi": draw.modes({"1,0,0,0": (0.05, 0.15)}),
        "samples": _samples(4.0, 11), "t_end": 4.0,
        "checks": ["divergence_identity", "preservation", "uniform_equivalence",
                   "volume_ode", "harmonic_rigidity"],
    }
    return Scenario(f"exact-n2p2-{tag}", config, "exact")


def _fd_p1(draw: _Draw, tag: str, base: int = 64, samples: int = 5,
           t_end: float = 2.0, checks=("divergence_identity", "preservation",
                                       "harmonic_rigidity")) -> Scenario:
    config = {
        "scenario": "double_twisted", "n": 1, "p": 1,
        "base_points": base, "fiber_points": 64,
        "phi0": draw.modes({"0,1": (0.1, 0.2), "1,2": (0.02, 0.05)}),
        "psi": draw.modes({"1,1": (0.05, 0.15)}),
        "samples": _samples(t_end, samples), "t_end": t_end,
        "dt": 1e-3, "theta": 0.5, "checks": list(checks),
    }
    return Scenario(f"fd-p1-{tag}", config, "fd")


def _small_p1(draw: _Draw, **extra) -> dict:
    config = {
        "scenario": "twisted_torus", "n": 1, "p": 1,
        "base_points": 4, "fiber_points": 32,
        "phi0": draw.modes({"0,1": (0.1, 0.2), "1,1": (0.03, 0.08)}),
        "samples": _samples(2.0, 5), "t_end": 2.0,
    }
    config.update(extra)
    return config


def _sweep(draw: _Draw) -> list[Scenario]:
    """One small scenario per variant, solver path and checker family."""
    out = [
        Scenario("plain-plot", _small_p1(draw, checks=["monotonicity"]), "exact",
                 ("--plot",)),
        Scenario("normalized", _small_p1(
            draw, variant="normalized",
            checks=["volume_ode", "bperp_scaling", "decay_rate"]), "exact"),
        Scenario("prescribed", _small_p1(
            draw, scenario="double_twisted", variant="prescribed",
            psi=draw.modes({"1,0": (0.05, 0.15)}),
            x_field=[draw.modes({"0,1": (0.02, 0.05), "1,2": (0.01, 0.03)})],
            checks=["divergence_identity"]), "exact"),
        Scenario("codim1", {
            "scenario": "codim1_fibration", "n": 1, "p": 1,
            "base_points": 4, "fiber_points": 32, "fiber_sides": 5.0,
            "tau0": draw.modes({"0,1": (0.1, 0.2), "1,2": (0.03, 0.08)}),
            "samples": _samples(1.0, 5), "t_end": 1.0,
            "checks": ["codim1_identity"],
        }, "exact"),
        Scenario("n1p2", {
            "scenario": "double_twisted", "n": 1, "p": 2,
            "base_points": 4, "fiber_points": 16, "fiber_sides": [6.0, 7.0],
            "phi0": draw.modes({"0,1,0": (0.05, 0.15), "1,0,1": (0.03, 0.08),
                                "0,1,1": (0.02, 0.05)}),
            "psi": draw.modes({"1,0,0": (0.05, 0.15)}),
            "samples": _samples(2.0, 5), "t_end": 2.0,
            "checks": ["divergence_identity", "preservation"],
        }, "exact"),
        Scenario("n2p1-normalized", {
            "scenario": "double_twisted", "n": 2, "p": 1, "variant": "normalized",
            "base_points": 4, "fiber_points": 32,
            "phi0": draw.modes({"0,0,1": (0.05, 0.15), "1,1,1": (0.03, 0.08)}),
            "psi": draw.modes({"0,1,0": (0.05, 0.15)}),
            "samples": _samples(2.0, 5), "t_end": 2.0,
            "checks": ["divergence_identity"],
        }, "exact"),
        Scenario("n2p2-bperp", {
            "scenario": "double_twisted", "n": 2, "p": 2,
            "base_points": 4, "fiber_points": 16,
            "phi0": draw.modes({"0,0,1,0": (0.05, 0.15), "1,0,0,1": (0.03, 0.08)}),
            "psi": draw.modes({"1,0,0,0": (0.05, 0.15)}),
            "samples": _samples(1.0, 3), "t_end": 1.0,
            "checks": ["bperp_scaling"],
        }, "exact"),
        _fd_p1(draw, "small", base=8, samples=3, t_end=1.0,
               checks=("divergence_identity",)),
        Scenario("fd-p2", {
            "scenario": "double_twisted", "n": 1, "p": 2,
            "base_points": 4, "fiber_points": 16,
            "phi0": draw.modes({"0,1,0": (0.02, 0.05), "1,0,1": (0.01, 0.02)}),
            "psi": draw.modes({"1,0,1": (0.05, 0.1)}),
            "samples": _samples(0.5, 3), "t_end": 0.5, "dt": 1e-3,
            "checks": ["divergence_identity", "preservation"],
        }, "fd"),
        Scenario("oracle", _small_p1(draw, samples=_samples(1.0, 3), t_end=1.0,
                                     oracle_check=True), "exact"),
        Scenario("fd-order", _small_p1(draw, samples=_samples(1.0, 3), t_end=1.0,
                                       checks=["fd_convergence_order"]), "exact"),
    ]
    return out


def make_workload(name: str, seed: int) -> Workload:
    """The scenarios of one workload for one seed, and how ops group them."""
    draw = _Draw(seed)
    if name == "exact-n2p2":
        scenarios = (_exact_n2p2(draw, "a"), _exact_n2p2(draw, "b"))
        return Workload(name, scenarios, ((0,), (1,)))
    if name == "fd-p1":
        scenarios = (_fd_p1(draw, "a"), _fd_p1(draw, "b"))
        return Workload(name, scenarios, ((0,), (1,)))
    if name == "sweep":
        scenarios = tuple(_sweep(draw))
        return Workload(name, scenarios, (tuple(range(len(scenarios))),))
    raise ValueError(f"unknown workload {name!r}; known: {', '.join(WORKLOADS)}")
