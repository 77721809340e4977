"""Correctness gate for benchmark ops.

An op fails on an unexpected exit code, a missing or malformed output
file, a snapshot farther from the reference than the path's tolerance,
or a rerun of a scenario whose output is not byte-identical to the first
run of that scenario.
"""

from __future__ import annotations

import hashlib
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

# Sup |phi - reference| allowed per solver path; the FD bound is the
# package's own oracle tolerance (checks.ORACLE_TOL).
TOLERANCE = {"exact": 1e-9, "fd": 1e-3}
# Errors below this floor read as equal, so round-off reshuffles do not move max_err.
ERR_FLOOR = 1e-12
EXPECTED_EXIT = 0

DIAG_HEADER = "t,vol,intH2,maxDivH,r,umbilicalResidual,dThetaH"
CHECKS_HEADER = "name,sampleTime,residual,tolerance,pass"


def digest(out_dir: Path) -> str | None:
    """sha256 over the sorted file names and contents of one output directory."""
    if not out_dir.is_dir():
        return None
    h = hashlib.sha256()
    for f in sorted(out_dir.iterdir()):
        h.update(f.name.encode() + b"\0")
        h.update(f.read_bytes())
        h.update(b"\0")
    return h.hexdigest()


@dataclass
class Verdict:
    max_err: float = ERR_FLOOR
    problems: list[str] = field(default_factory=list)

    @property
    def ok(self) -> bool:
        return not self.problems


def _expected_files(samples: int, plot: bool) -> set[str]:
    names = {"diagnostics.csv", "checks.csv"} | {f"phi_{i:03d}.csv" for i in range(samples)}
    if plot:
        names.add("diagnostics.svg")
    return names


def _csv_rows(path: Path, header: str, width: int) -> list[list[str]]:
    text = path.read_text(encoding="utf-8")
    lines = text.split("\n")
    if lines[-1] != "" or lines[0] != header:
        raise ValueError(f"{path.name}: bad header or line ending")
    rows = [line.split(",") for line in lines[1:-1]]
    if any(len(r) != width for r in rows):
        raise ValueError(f"{path.name}: rows must have {width} fields")
    return rows


def verify_output(scenario, out_dir: Path, reference: np.ndarray) -> Verdict:
    """Full check of one output directory against the reference snapshots."""
    verdict = Verdict()
    present = {f.name for f in out_dir.iterdir()} if out_dir.is_dir() else set()
    expected = _expected_files(scenario.samples, "--plot" in scenario.argv)
    if present != expected:
        missing, extra = sorted(expected - present), sorted(present - expected)
        verdict.problems.append(f"{scenario.name}: missing {missing}, unexpected {extra}")
        return verdict
    try:
        diag = _csv_rows(out_dir / "diagnostics.csv", DIAG_HEADER, 7)
        if len(diag) != scenario.samples:
            raise ValueError("diagnostics.csv: one row per sample expected")
        np.asarray(diag, dtype=float)
        for row in _csv_rows(out_dir / "checks.csv", CHECKS_HEADER, 5):
            if row[4] != "true":
                raise ValueError(f"checks.csv: {row[0]} at t={row[1]} did not pass")
        err = 0.0
        for i in range(scenario.samples):
            snap = np.loadtxt(out_dir / f"phi_{i:03d}.csv", delimiter=",", ndmin=2)
            if snap.shape != reference[i].shape:
                raise ValueError(f"phi_{i:03d}.csv: shape {snap.shape}, "
                                 f"expected {reference[i].shape}")
            if not np.all(np.isfinite(snap)):
                raise ValueError(f"phi_{i:03d}.csv: non-finite values")
            err = max(err, float(np.max(np.abs(snap - reference[i]))))
    except ValueError as exc:
        verdict.problems.append(f"{scenario.name}: malformed output: {exc}")
        return verdict
    verdict.max_err = max(err, ERR_FLOOR)
    tol = TOLERANCE[scenario.path]
    if not err <= tol:
        verdict.problems.append(f"{scenario.name}: max_err {err:.3e} > {tol:.0e}")
    return verdict


def judge_run(name: str, exit_code: int, run_digest: str | None,
              first_digest: str | None) -> list[str]:
    """Problems with one run of a scenario, given the digest of its first run."""
    problems = []
    if exit_code != EXPECTED_EXIT:
        problems.append(f"{name}: exit code {exit_code}, expected {EXPECTED_EXIT}")
    if run_digest is None:
        problems.append(f"{name}: no output directory")
    elif first_digest is not None and run_digest != first_digest:
        problems.append(f"{name}: rerun output is not byte-identical")
    return problems
