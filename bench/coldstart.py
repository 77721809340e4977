"""Fresh-process measurements: import set-up time and cold CLI runs.

Every child gets the environment a user of an uninstalled checkout
would have: ``PYTHONPATH=src``, ``FOLIFLOW_THREADS`` unset, and native
thread pools capped at the number of usable cores.
"""

from __future__ import annotations

import os
import re
import shutil
import statistics
import subprocess
import time
from pathlib import Path

import gate

IMPORT = "import foliflow.cli"
_IMPORTTIME = re.compile(r"^import time:\s*\d+\s*\|\s*(\d+)\s*\|\s*(\S.*)$")


def child_env(root: Path) -> dict[str, str]:
    env = dict(os.environ)
    env.pop("FOLIFLOW_THREADS", None)
    env["PYTHONPATH"] = str(root / "src")
    cores = str(len(os.sched_getaffinity(0)))
    for var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS"):
        env[var] = cores
    return env


def _run(cmd: list[str], env: dict, **kwargs) -> subprocess.CompletedProcess:
    return subprocess.run(cmd, env=env, stdin=subprocess.DEVNULL, timeout=170, **kwargs)


def setup_time(python: str, env: dict) -> float:
    """Wall time from a fresh interpreter to foliflow.cli imported."""
    start = time.perf_counter()
    _run([python, "-c", IMPORT], env, check=True)
    return time.perf_counter() - start


def import_times(python: str, env: dict, modules: tuple[str, ...],
                 repeats: int) -> dict[str, float]:
    """Median cumulative import time in seconds per module, from -X importtime."""
    samples: dict[str, list[float]] = {m: [] for m in modules}
    for _ in range(repeats):
        proc = _run([python, "-X", "importtime", "-c", IMPORT], env, check=True,
                    capture_output=True, text=True)
        seen = {}
        for line in proc.stderr.splitlines():
            match = _IMPORTTIME.match(line)
            if match:
                seen[match.group(2).strip()] = int(match.group(1)) * 1e-6
        for m in modules:
            samples[m].append(seen.get(m, 0.0))
    return {m: statistics.median(v) for m, v in samples.items()}


def cold_op(python: str, env: dict, scenarios: list, configs: dict[str, Path],
            out_root: Path) -> tuple[float, list[dict]]:
    """Run one op's scenarios as fresh ``python -m foliflow.cli run`` processes."""
    runs, seconds = [], 0.0
    for s in scenarios:
        out_dir = out_root / s.name
        cmd = [python, "-m", "foliflow.cli", "run", str(configs[s.name]),
               "--out", str(out_dir), *s.argv]
        start = time.perf_counter()
        proc = _run(cmd, env, stdout=subprocess.DEVNULL, stderr=subprocess.PIPE)
        seconds += time.perf_counter() - start
        runs.append({"name": s.name, "exit": proc.returncode, "digest": gate.digest(out_dir),
                     "error": proc.stderr.decode(errors="replace")[-2000:] or None})
        shutil.rmtree(out_dir, ignore_errors=True)
    return seconds, runs
