"""Warm in-process op server for one workload, run as its own child process.

Usage: python3 worker.py PLAN_JSON

The plan names the scenario configs and how ops group them.  After
importing the package the worker answers one JSON command per stdin
line, ``{"op": i, "trace": bool, "memory": bool}``, by running group
``i`` through ``foliflow.cli.main`` and replying with one JSON line: the op's wall
time, each scenario's exit code and output digest, and with tracing the
op's per-layer metrics.  The tracer is installed for a traced op only and
removed right after it.  The first output of each scenario is kept for
the correctness gate; later outputs are reduced to a digest and deleted.
An empty line ends the session.
"""

from __future__ import annotations

import contextlib
import io
import json
import shutil
import sys
import time
import traceback
from pathlib import Path

import gate
import tracer as tr


def _run_op(cli, plan: dict, group: list[int], out_root: Path) -> tuple[float, list]:
    runs = []
    start = time.perf_counter()
    for index in group:
        scenario = plan["scenarios"][index]
        argv = ["run", scenario["config"], "--out", str(out_root / scenario["name"]),
                *scenario["argv"]]
        error = None
        try:
            with contextlib.redirect_stdout(io.StringIO()):
                code = cli.main(argv)
        except Exception:  # a crash is a failed op, recorded with its traceback
            code, error = -1, traceback.format_exc()
        runs.append({"name": scenario["name"], "exit": code, "error": error})
    return time.perf_counter() - start, runs


def _settle(runs: list, out_root: Path, keep_root: Path) -> None:
    """Digest each run's output; keep a scenario's first output, delete the rest."""
    for run in runs:
        out_dir = out_root / run["name"]
        run["digest"] = gate.digest(out_dir)
        kept = keep_root / run["name"]
        if run["digest"] is not None and not kept.exists():
            out_dir.rename(kept)
        else:
            shutil.rmtree(out_dir, ignore_errors=True)


def main(plan_path: str) -> int:
    plan = json.loads(Path(plan_path).read_text())
    out_root, keep_root = Path(plan["out_root"]), Path(plan["keep_root"])
    keep_root.mkdir(parents=True, exist_ok=True)
    import foliflow.cli as cli

    tracer = tr.Tracer()
    for line in sys.stdin:
        if not line.strip():
            break
        command = json.loads(line)
        op = command["op"]
        group = plan["groups"][op % len(plan["groups"])]
        if command["trace"]:
            tracer.op, tracer.memory = op, command["memory"]
            tracer.install()
            try:
                seconds, runs = _run_op(cli, plan, group, out_root)
            finally:
                tracer.uninstall()
        else:
            seconds, runs = _run_op(cli, plan, group, out_root)
        _settle(runs, out_root, keep_root)
        reply = {"op": op, "seconds": seconds, "runs": runs}
        if command["trace"]:
            reply["layers"] = tr.layer_metrics(tracer.spans, tracer.counts, op)
        print(json.dumps(reply), flush=True)
    return 0


if __name__ == "__main__":
    raise SystemExit(main(sys.argv[1]))
