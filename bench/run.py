"""Benchmark of ``foliflow run``: one workload, one seed, one JSON result line.

Usage (from the repository root):

    python3 bench/run.py --workload exact-n2p2 --seed 1 --seconds 20 --trace 0

Load model: a closed loop with one client and one op at a time.  The
seed generates the scenario JSON files; the program receives only those.
With ``--trace 0`` the run interleaves, for ``--seconds``, ops in a
warmed child process (``run_s.p50``, ``peak_rss_mb``), the same ops as
fresh CLI processes (``cli_s.p50``) and fresh imports (``setup_s``).
With ``--trace 1`` it alternates plain and traced ops in the warmed
child and reports the per-layer metrics instead.  Every output is
checked against the benchmark's own reference solution, and every rerun
must be byte-identical to the first run of its scenario.

Metric names and units come from BENCHMARK.json at the repository root.
The last line of standard output is the JSON result.
"""

from __future__ import annotations

import argparse
import contextlib
import json
import os
import shutil
import statistics
import subprocess
import sys
import time
from pathlib import Path

import coldstart
import gate
import reference
import scenarios

ROOT = Path(__file__).resolve().parent.parent
MIN_OPS = 2
SETUP_PER_CYCLE = 2
WARM_SHARE = 0.5
IMPORTTIME_REPEATS = 3
IMPORT_MODULES = ("foliflow.checks", "foliflow.fdref", "scipy.integrate",
                  "scipy.sparse.linalg")


def _metric_units(kind: str) -> dict[str, str]:
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    return {m["name"]: m["unit"] for m in spec[kind]}


class _Worker:
    """The warm child process of one run, driven one op at a time."""

    def __init__(self, plan: dict, work: Path, env: dict):
        plan_path = work / "plan.json"
        plan_path.write_text(json.dumps(plan))
        self._log_path = work / "worker.log"
        self._log = open(self._log_path, "wb")
        self.proc = subprocess.Popen(
            [sys.executable, str(Path(__file__).with_name("worker.py")), str(plan_path)],
            env=env, stdin=subprocess.PIPE, stdout=subprocess.PIPE, stderr=self._log,
            text=True)

    def op(self, index: int, phase: str, trace: bool = False, memory: bool = False) -> dict:
        command = {"op": index, "trace": trace, "memory": memory}
        self.proc.stdin.write(json.dumps(command) + "\n")
        self.proc.stdin.flush()
        line = self.proc.stdout.readline()
        if not line:
            raise RuntimeError("worker died:\n" + self._log_path.read_text()[-4000:])
        return dict(json.loads(line), phase=phase)

    def close(self) -> float:
        """End the session; return the child's peak RSS in MB."""
        self.proc.stdin.write("\n")
        self.proc.stdin.close()
        self.proc.stdout.read()
        _, status, usage = os.wait4(self.proc.pid, 0)
        self.proc.returncode = os.waitstatus_to_exitcode(status)
        self._log.close()
        if self.proc.returncode != 0:
            raise RuntimeError("worker failed:\n" + self._log_path.read_text()[-4000:])
        return usage.ru_maxrss / 1024.0

    def kill(self) -> None:
        if self.proc.returncode is None:
            self.proc.kill()
            self.proc.wait()
        self._log.close()


def _gate(workload, ops: list[dict], keep_root: Path) -> tuple[int, float, list[str]]:
    """Failed-op count, max_err and the problems found, over every op."""
    problems, bad, first, max_err = [], set(), {}, gate.ERR_FLOOR
    for s in workload.scenarios:
        kept = keep_root / s.name
        verdict = gate.verify_output(s, kept, reference.reference_snapshots(s.config, s.path))
        max_err = max(max_err, verdict.max_err)
        first[s.name] = gate.digest(kept)
        if not verdict.ok:
            bad.add(s.name)
            problems += verdict.problems
    failed = 0
    for op in ops:
        op_problems = []
        for run in op["runs"]:
            op_problems += gate.judge_run(run["name"], run["exit"], run["digest"],
                                          first[run["name"]])
            if run.get("error"):
                op_problems.append(f"{run['name']}: {run['error'].strip()[-500:]}")
        if op_problems or any(run["name"] in bad for run in op["runs"]):
            failed += 1
            problems += [f"{op['phase']} op {op['op']}: {p}" for p in op_problems]
    return failed, max_err, problems


def _median(values: list[float]) -> tuple[float, int]:
    return statistics.median(values), len(values)


def _measure_end_to_end(args, workload, configs, worker, work, env, metrics) -> list:
    """Interleave cold ops, set-up samples and warm ops until --seconds are spent.

    Each cycle runs one cold op, SETUP_PER_CYCLE fresh imports and warm
    ops until the warm time reaches WARM_SHARE of the cold time, so every
    metric samples the whole run rather than one slice of it.
    """
    ops = [worker.op(0, "warmup")]
    warm, cold, setup = [], [], []
    start = time.perf_counter()
    while (time.perf_counter() - start < args.seconds or len(warm) < MIN_OPS
           or len(cold) < MIN_OPS):
        group = workload.groups[len(cold) % len(workload.groups)]
        seconds, runs = coldstart.cold_op(sys.executable, env,
                                          [workload.scenarios[k] for k in group],
                                          configs, work / "cold")
        ops.append({"op": len(cold), "phase": "cold", "seconds": seconds, "runs": runs})
        cold.append(seconds)
        setup += [coldstart.setup_time(sys.executable, env) for _ in range(SETUP_PER_CYCLE)]
        while len(warm) < len(cold) or sum(warm) < WARM_SHARE * sum(cold):
            ops.append(worker.op(len(warm) + 1, "warm"))
            warm.append(ops[-1]["seconds"])
    metrics["run_s.p50"] = _median(warm)
    metrics["cli_s.p50"] = _median(cold)
    metrics["setup_s"] = _median(setup)
    return ops


def _measure_layers(args, worker, env, metrics) -> list:
    """Alternate plain and traced warm ops; report per-layer medians.

    One last traced op also runs each checker under tracemalloc; it gives
    ``checks.peak_alloc_mb`` only, since the allocation hooks distort its
    span times.
    """
    ops = [worker.op(0, "warmup")]
    plain, traced = [], []
    start = time.perf_counter()
    while time.perf_counter() - start < args.seconds or len(traced) < MIN_OPS:
        index = len(traced) + 1   # a plain op and its traced twin run the same group
        ops.append(worker.op(index, "warm"))
        plain.append(ops[-1]["seconds"])
        ops.append(worker.op(index, "traced", trace=True))
        traced.append(ops[-1])
    for name in traced[0]["layers"]:
        metrics[name] = _median([op["layers"][name] for op in traced])
    ops.append(worker.op(len(traced) + 1, "memory", trace=True, memory=True))
    metrics["checks.peak_alloc_mb"] = (ops[-1]["layers"]["checks.peak_alloc_mb"], 1)
    traced_s = [op["seconds"] for op in traced]
    metrics["trace.op_s"] = _median(traced_s)
    metrics["trace.overhead_s"] = (statistics.median(traced_s) - statistics.median(plain),
                                   len(traced_s))
    for module, seconds in coldstart.import_times(
            sys.executable, env, IMPORT_MODULES, IMPORTTIME_REPEATS).items():
        metrics[f"setup.import.{module}_s"] = (seconds, IMPORTTIME_REPEATS)
    return ops


def measure(args, work: Path) -> tuple[dict, dict]:
    workload = scenarios.make_workload(args.workload, args.seed)
    configs = {}
    for s in workload.scenarios:
        configs[s.name] = work / f"{s.name}.json"
        configs[s.name].write_text(json.dumps(s.config, indent=1))
    keep_root = work / "keep"
    env = coldstart.child_env(ROOT)
    plan = {
        "scenarios": [{"name": s.name, "config": str(configs[s.name]), "argv": list(s.argv)}
                      for s in workload.scenarios],
        "groups": [list(g) for g in workload.groups],
        "out_root": str(work / "out"), "keep_root": str(keep_root),
    }
    metrics: dict[str, tuple[float, int]] = {}   # name -> (value, sample count)
    worker = _Worker(plan, work, env)
    try:
        if args.trace:
            ops = _measure_layers(args, worker, env, metrics)
        else:
            ops = _measure_end_to_end(args, workload, configs, worker, work, env, metrics)
        metrics["peak_rss_mb"] = (worker.close(), 1)
    finally:
        worker.kill()

    failed, max_err, problems = _gate(workload, ops, keep_root)
    verdict = {"attempted": len(ops), "failed": failed, "max_err": max_err,
               "problems": problems}
    return metrics, verdict


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=scenarios.WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if not (ROOT / "src" / "foliflow" / "cli.py").is_file():
        print(f"no foliflow sources under {ROOT / 'src'}; run from a full checkout",
              file=sys.stderr)
        return 2
    if not args.seconds > 0:
        parser.error("--seconds must be positive")
    units = _metric_units("per_layer" if args.trace else "end_to_end")

    work = ROOT / ".bench_work" / f"{args.workload}-{args.seed}-{os.getpid()}"
    shutil.rmtree(work, ignore_errors=True)
    work.mkdir(parents=True)
    try:
        metrics, verdict = measure(args, work)
    finally:
        shutil.rmtree(work, ignore_errors=True)
        with contextlib.suppress(OSError):
            work.parent.rmdir()

    missing = sorted(set(units) - set(metrics))
    if missing:
        raise RuntimeError(f"declared metrics not measured: {missing}")
    for problem in verdict["problems"]:
        print(f"FAIL {problem}")
    for name, unit in units.items():
        value, count = metrics[name]
        print(f"{args.workload} {name} = {value:.6g} {unit} (n={count})")
    fail_frac = verdict["failed"] / verdict["attempted"]
    print(f"{args.workload} max_err = {verdict['max_err']:.3g} (sup |phi - reference|)")
    print(f"{args.workload} fail_frac = {fail_frac:.3g} "
          f"({verdict['failed']} of {verdict['attempted']} ops)")
    print(json.dumps({
        "correct": verdict["failed"] == 0,
        "attempted": verdict["attempted"],
        "failed": verdict["failed"],
        "metrics": {name: {"value": metrics[name][0], "unit": unit}
                    for name, unit in units.items()},
    }))
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
