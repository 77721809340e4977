"""Self-tests of the benchmark's correctness gate and tracer.

Run from the repository root:  python3 -m pytest bench -q
"""

from __future__ import annotations

import contextlib
import io
import json
import pathlib
import sys
from pathlib import Path

import numpy as np
import pytest

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "src"))

import foliflow.checks  # noqa: E402
import foliflow.cli  # noqa: E402

import gate  # noqa: E402
import reference  # noqa: E402
import scenarios  # noqa: E402
import tracer as tr  # noqa: E402


def _scenario(name: str) -> scenarios.Scenario:
    sweep = scenarios.make_workload("sweep", seed=7)
    return next(s for s in sweep.scenarios if s.name == name)


def _run(scenario, tmp: Path) -> Path:
    config = tmp / f"{scenario.name}.json"
    config.write_text(json.dumps(scenario.config))
    out = tmp / scenario.name
    with contextlib.redirect_stdout(io.StringIO()):
        code = foliflow.cli.main(["run", str(config), "--out", str(out), *scenario.argv])
    assert code == 0
    return out


@pytest.fixture(scope="module")
def plain_run(tmp_path_factory):
    scenario = _scenario("plain-plot")
    out = _run(scenario, tmp_path_factory.mktemp("gate"))
    return scenario, out, reference.reference_snapshots(scenario.config, scenario.path)


def test_gate_accepts_correct_output(plain_run):
    scenario, out, ref = plain_run
    verdict = gate.verify_output(scenario, out, ref)
    assert verdict.ok, verdict.problems
    assert verdict.max_err == gate.ERR_FLOOR


def _copy_with_snapshot_cell(out: Path, copy: Path, shift: float) -> None:
    """Copy an output directory, adding ``shift`` to one cell of phi_002.csv."""
    copy.mkdir()
    for f in out.iterdir():
        (copy / f.name).write_bytes(f.read_bytes())
    snap = copy / "phi_002.csv"
    values = np.loadtxt(snap, delimiter=",")
    values[1, 3] += shift
    snap.write_text("\n".join(",".join(f"{v:.17g}" for v in row) for row in values) + "\n")


def test_gate_rejects_perturbed_snapshot(plain_run, tmp_path):
    scenario, out, ref = plain_run
    copy = tmp_path / "copy"
    _copy_with_snapshot_cell(out, copy, 1e-6)
    verdict = gate.verify_output(scenario, copy, ref)
    assert not verdict.ok
    assert verdict.max_err == pytest.approx(1e-6, rel=1e-3)
    assert gate.digest(copy) != gate.digest(out)


def test_gate_rejects_non_finite_snapshot(plain_run, tmp_path):
    scenario, out, ref = plain_run
    copy = tmp_path / "copy"
    _copy_with_snapshot_cell(out, copy, float("nan"))
    verdict = gate.verify_output(scenario, copy, ref)
    assert not verdict.ok and "non-finite" in verdict.problems[0]


def test_gate_rejects_missing_file(plain_run, tmp_path):
    scenario, out, ref = plain_run
    copy = tmp_path / "copy"
    copy.mkdir()
    for f in out.iterdir():
        if f.name != "phi_001.csv":
            (copy / f.name).write_bytes(f.read_bytes())
    verdict = gate.verify_output(scenario, copy, ref)
    assert not verdict.ok and "missing ['phi_001.csv']" in verdict.problems[0]
    assert not gate.verify_output(scenario, tmp_path / "absent", ref).ok


def test_judge_rejects_wrong_exit_code_and_non_identical_rerun(plain_run):
    _, out, _ = plain_run
    first = gate.digest(out)
    assert gate.judge_run("s", 0, first, first) == []
    assert "exit code 1" in gate.judge_run("s", 1, first, first)[0]
    assert "no output" in gate.judge_run("s", 0, None, first)[0]
    assert "byte-identical" in gate.judge_run("s", 0, "0" * 64, first)[0]


def _bindings() -> dict:
    """Every binding the tracer may replace, keyed by where it lives."""
    import numpy.fft
    import scipy.sparse.linalg

    found = {}
    for name, module in list(sys.modules.items()):
        if name == "foliflow" or name.startswith("foliflow."):
            for attr, value in vars(module).items():
                if callable(value):
                    found[(name, attr)] = value
    for name, fn in foliflow.checks.CHECKERS.items():
        found[("CHECKERS", name)] = fn
    for fname in tr.FFT_FUNCTIONS:
        found[("numpy.fft", fname)] = getattr(numpy.fft, fname)
    found[("scipy", "splu")] = scipy.sparse.linalg.splu
    found[("Path", "write_text")] = pathlib.Path.write_text
    return found


def test_tracer_wraps_bound_names_and_uninstalls_cleanly(tmp_path):
    scenario = _scenario("fd-p1-small")
    config = tmp_path / "fd.json"
    config.write_text(json.dumps(scenario.config))
    before = _bindings()
    tracer = tr.Tracer()
    tracer.install()
    try:
        during = _bindings()
        for key in [("foliflow.fdref", "fd_heat_run"), ("foliflow.flows", "fd_heat_run"),
                    ("foliflow.checks", "fd_heat_run"), ("foliflow.cli", "main"),
                    ("foliflow.fiber", "gradient_values"), ("CHECKERS", "preservation"),
                    ("numpy.fft", "rfftn"), ("scipy", "splu"), ("Path", "write_text")]:
            assert tr.is_traced(during[key]), key
        tracer.op, tracer.memory = 1, True
        with contextlib.redirect_stdout(io.StringIO()):
            foliflow.cli.main(["run", str(config), "--out", str(tmp_path / "out")])
        tracer.op = 2
        np.fft.rfftn(np.ones((4, 4)))   # outside any fiber span: not fiber traffic
    finally:
        tracer.uninstall()

    after = _bindings()
    assert after.keys() == before.keys()
    assert all(after[k] is before[k] for k in before)
    metrics = tr.layer_metrics(tracer.spans, tracer.counts, op=1)
    assert metrics["cli.main.incl_s"] > 0
    assert metrics["fdref.fd_heat_run.calls"] > 0
    assert metrics["fdref.splu.calls"] == metrics["fdref.fd_heat_run.calls"]
    assert metrics["fdref.solve.calls"] > 0
    assert metrics["fiber.fft.calls"] > 0
    assert tr.layer_metrics(tracer.spans, tracer.counts, op=2)["fiber.fft.calls"] == 0
    assert metrics["cli.files_written"] == scenario.samples + 2
    assert metrics["checks.divergence_identity.incl_s"] > 0
    assert metrics["checks.peak_alloc_mb"] > 0

    spans = len(tracer.spans)
    with contextlib.redirect_stdout(io.StringIO()):
        foliflow.cli.main(["run", str(config), "--out", str(tmp_path / "again")])
    assert len(tracer.spans) == spans
