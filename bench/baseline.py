"""Record the benchmark baseline: independent sets of seeded runs per workload.

Usage (from the repository root):

    python3 bench/baseline.py

Runs ``bench/run.py`` once per set (SETS of them), workload and seed
(RUNS per set and workload), every run with its own seed, then one
traced run per workload.  Writes to
``bench/baseline.json`` the machine, the library versions, the seeds,
every run's values, and per set and workload each metric's median,
quartiles and spread (interquartile range over median).  Prints, per
metric, the spread against a third of its bound and the drift of the
later set's median against the first set's.
"""

from __future__ import annotations

import json
import os
import platform
import statistics
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
FIRST_SEED = 1000
SETS = 2
RUNS = 10


def _machine() -> dict:
    import numpy
    import scipy

    models = {line.split(":", 1)[1].strip()
              for line in Path("/proc/cpuinfo").read_text().splitlines()
              if line.startswith("model name")}
    return {"nproc": len(os.sched_getaffinity(0)), "cpu_model": sorted(models),
            "python": platform.python_version(), "numpy": numpy.__version__,
            "scipy": scipy.__version__}


def _run(workload: str, seed: int, seconds: int, trace: int) -> dict:
    proc = subprocess.run(
        [sys.executable, "bench/run.py", "--workload", workload, "--seed", str(seed),
         "--seconds", str(seconds), "--trace", str(trace)],
        cwd=ROOT, capture_output=True, text=True, check=True)
    result = json.loads(proc.stdout.strip().splitlines()[-1])
    if not result["correct"]:
        raise RuntimeError(f"{workload} seed {seed} failed the gate:\n{proc.stdout}")
    return result


def _summary(values: list[float]) -> dict:
    q1, median, q3 = statistics.quantiles(values, n=4)
    return {"median": median, "q1": q1, "q3": q3, "spread": (q3 - q1) / median}


def main() -> int:
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    bounds = {m["name"]: m["bound"] for m in spec["end_to_end"]}
    workloads = [w["name"] for w in spec["workloads"]]
    record = {"machine": _machine(), "run_seconds": spec["run_seconds"], "sets": [],
              "traced": {}}
    seed = FIRST_SEED
    for _ in range(SETS):
        entry = {}
        for workload in workloads:
            seeds = list(range(seed, seed + RUNS))
            seed += RUNS
            runs = [_run(workload, s, spec["run_seconds"], 0) for s in seeds]
            values = {m: [r["metrics"][m]["value"] for r in runs] for m in bounds}
            entry[workload] = {"seeds": seeds, "values": values,
                               "summary": {m: _summary(v) for m, v in values.items()}}
        record["sets"].append(entry)
    for workload in workloads:
        record["traced"][workload] = {
            "seed": seed,
            "metrics": {m: v["value"] for m, v in
                        _run(workload, seed, spec["run_seconds"], 1)["metrics"].items()}}
        seed += 1
    (ROOT / "bench" / "baseline.json").write_text(json.dumps(record, indent=1) + "\n")

    first = record["sets"][0]
    for workload in workloads:
        for metric, bound in bounds.items():
            cells = []
            for entry in record["sets"]:
                s = entry[workload]["summary"][metric]
                drift = s["median"] / first[workload]["summary"][metric]["median"] - 1.0
                cells.append(f"median {s['median']:.4g} spread {s['spread']:.3f} "
                             f"drift {drift:+.3f}")
            print(f"{workload:11s} {metric:12s} bound {bound:.2f} (third {bound / 3:.3f}): "
                  + " | ".join(cells))
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
