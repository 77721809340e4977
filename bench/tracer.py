"""Outside-in tracer: spans and counters around the package's public calls.

The tracer replaces functions where callers look them up, records one
span (name, start, end, parent span, op) per call in memory, and puts
every original back on ``uninstall``.  Modules that bind a traced
function by name (``from .fdref import fd_heat_run``) get the wrapper
too, and ``checks.CHECKERS`` entries are wrapped in place, since the
registry holds function references.

Counters: numpy.fft calls made inside a ``fiber.*`` span and the bytes
their inputs and outputs occupy (computed from array sizes, not measured
traffic; FFTs elsewhere, as in checkers, are not counted), scipy splu
factorizations and the solves made through each returned factorization,
and files and bytes written through ``Path.write_text``.
"""

from __future__ import annotations

import functools
import pathlib
import sys
import time
import tracemalloc
from collections import Counter, defaultdict

# layer -> (module, public functions traced as spans)
SPANS = {
    "cli": ("foliflow.cli", ("main",)),
    "flows": ("foliflow.flows", ("run_extrinsic_flow", "run_codim1")),
    "fiber": ("foliflow.fiber", ("gradient_values", "time_integral_values",
                                 "evolve_values", "antiderivative_values")),
    "geometry": ("foliflow.geometry", ("div_perp", "grad_perp", "second_fundamental",
                                       "classify", "integrate", "d_theta_sup",
                                       "base_gradient")),
    "fdref": ("foliflow.fdref", ("fd_heat_run",)),
}
FFT_FUNCTIONS = ("rfftn", "irfftn", "rfft", "irfft", "fftn")
CHECKER_NAMES = ("divergence_identity", "codim1_identity", "harmonic_rigidity",
                 "preservation", "monotonicity", "volume_ode", "bperp_scaling",
                 "uniform_equivalence", "oracle_agreement", "decay_rate",
                 "fd_convergence_order")

_MARK = "__bench_traced__"


class _CountingLU:
    """Proxy on a SuperLU factorization that counts solves."""

    def __init__(self, lu, counts):
        self._lu = lu
        self._counts = counts

    def solve(self, *args, **kwargs):
        self._counts()["fdref.solve.calls"] += 1
        return self._lu.solve(*args, **kwargs)

    def __getattr__(self, name):
        return getattr(self._lu, name)


class Tracer:
    """Spans and counters per op.

    With ``memory`` set, each checker call also runs under tracemalloc,
    whose allocation hooks slow everything inside the checker; span
    times of such an op are therefore not comparable with other ops.
    """

    def __init__(self):
        self.spans: list = []        # (name, start, end, parent index, op)
        self.counts: dict = defaultdict(Counter)   # op -> counter
        self.op = 0
        self.memory = False
        self._stack: list[tuple[int, str]] = []   # open spans: (index, name)
        self._saved: list = []       # (owner, key, original, is_mapping)

    def _op_counts(self) -> Counter:
        return self.counts[self.op]

    def _span(self, name: str, fn, on_enter=None, on_exit=None):
        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            index = len(self.spans)
            parent = self._stack[-1][0] if self._stack else -1
            self.spans.append(None)
            self._stack.append((index, name))
            if on_enter:
                on_enter()
            start = time.perf_counter()
            try:
                return fn(*args, **kwargs)
            finally:
                end = time.perf_counter()
                if on_exit:
                    on_exit()
                self._stack.pop()
                self.spans[index] = (name, start, end, parent, self.op)

        setattr(wrapper, _MARK, True)
        return wrapper

    def _set(self, owner, key, value, mapping=False):
        original = owner[key] if mapping else getattr(owner, key)
        self._saved.append((owner, key, original, mapping))
        if mapping:
            owner[key] = value
        else:
            setattr(owner, key, value)

    def _replace_everywhere(self, original, replacement):
        """Rebind every foliflow module attribute that holds ``original``."""
        modules = [m for name, m in list(sys.modules.items())
                   if m is not None and (name == "foliflow" or name.startswith("foliflow."))]
        for module in modules:
            for attr in [a for a, v in vars(module).items() if v is original]:
                self._set(module, attr, replacement)

    def _fft_counter(self, fn):
        @functools.wraps(fn)
        def wrapper(a, *args, **kwargs):
            out = fn(a, *args, **kwargs)
            if any(name.startswith("fiber.") for _, name in self._stack):
                counts = self._op_counts()
                counts["fiber.fft.calls"] += 1
                counts["fiber.fft.bytes"] += getattr(a, "nbytes", 0) + out.nbytes
            return out

        setattr(wrapper, _MARK, True)
        return wrapper

    def _checker_memory_enter(self):
        if self.memory:
            tracemalloc.start()

    def _checker_memory_exit(self):
        if not self.memory:
            return
        peak = tracemalloc.get_traced_memory()[1]
        tracemalloc.stop()
        counts = self._op_counts()
        counts["checks.peak_alloc_bytes"] = max(counts["checks.peak_alloc_bytes"], peak)

    def install(self) -> None:
        import numpy.fft
        import scipy.sparse.linalg

        import foliflow.checks
        import foliflow.cli  # noqa: F401  (loads every traced module)

        if self._saved:
            raise RuntimeError("tracer is already installed")
        for layer, (module_name, functions) in SPANS.items():
            module = sys.modules[module_name]
            for fname in functions:
                original = getattr(module, fname)
                self._replace_everywhere(original, self._span(f"{layer}.{fname}", original))
        checkers = foliflow.checks.CHECKERS
        for name in list(checkers):
            self._set(checkers, name, self._span(
                f"checks.{name}", checkers[name],
                self._checker_memory_enter, self._checker_memory_exit), mapping=True)
        for fname in FFT_FUNCTIONS:
            self._set(numpy.fft, fname, self._fft_counter(getattr(numpy.fft, fname)))

        splu = scipy.sparse.linalg.splu

        @functools.wraps(splu)
        def counting_splu(*args, **kwargs):
            self._op_counts()["fdref.splu.calls"] += 1
            return _CountingLU(splu(*args, **kwargs), self._op_counts)

        setattr(counting_splu, _MARK, True)
        self._set(scipy.sparse.linalg, "splu", counting_splu)

        write_text = pathlib.Path.write_text

        @functools.wraps(write_text)
        def counting_write_text(path, *args, **kwargs):
            result = write_text(path, *args, **kwargs)
            counts = self._op_counts()
            counts["cli.files_written"] += 1
            counts["cli.bytes_written"] += path.stat().st_size
            return result

        setattr(counting_write_text, _MARK, True)
        self._set(pathlib.Path, "write_text", counting_write_text)

    def uninstall(self) -> None:
        while self._saved:
            owner, key, original, mapping = self._saved.pop()
            if mapping:
                owner[key] = original
            else:
                setattr(owner, key, original)


def is_traced(obj) -> bool:
    return getattr(obj, _MARK, False)


def layer_metrics(spans: list, counts: dict, op: int) -> dict[str, float]:
    """Per-layer metrics of one op from its spans and counters."""
    mine = [(i, s) for i, s in enumerate(spans) if s is not None and s[4] == op]
    child_time: dict[int, float] = defaultdict(float)
    for _, (_, start, end, parent, _) in mine:
        if parent >= 0:
            child_time[parent] += end - start
    m: dict[str, float] = defaultdict(float)
    for i, (name, start, end, parent, _) in mine:
        layer = name.split(".", 1)[0]
        incl = end - start
        own = incl - child_time[i]
        m[f"{layer}.self_s"] += own
        m[f"{name}.calls"] += 1
        m[f"{name}.self_s"] += own
        m[f"{name}.incl_s"] += incl
        parent_layer = spans[parent][0].split(".", 1)[0] if parent >= 0 else None
        if layer == "flows" and parent_layer != "flows":
            m["flows.run.incl_s"] += incl
    c = counts.get(op, Counter())
    out = {
        "cli.main.incl_s": m["cli.main.incl_s"],
        "cli.self_s": m["cli.self_s"],
        "cli.bytes_written": c["cli.bytes_written"],
        "cli.files_written": c["cli.files_written"],
        "flows.run.incl_s": m["flows.run.incl_s"],
        "flows.self_s": m["flows.self_s"],
        "fiber.fft.calls": c["fiber.fft.calls"],
        "fiber.fft.bytes": c["fiber.fft.bytes"],
        "fiber.self_s": m["fiber.self_s"],
    }
    for layer in ("fiber", "geometry", "fdref"):
        for fname in SPANS[layer][1]:
            out[f"{layer}.{fname}.calls"] = m[f"{layer}.{fname}.calls"]
            out[f"{layer}.{fname}.self_s"] = m[f"{layer}.{fname}.self_s"]
    out["geometry.self_s"] = m["geometry.self_s"]
    out["fdref.splu.calls"] = c["fdref.splu.calls"]
    out["fdref.solve.calls"] = c["fdref.solve.calls"]
    out["checks.self_s"] = m["checks.self_s"]
    out["checks.peak_alloc_mb"] = c["checks.peak_alloc_bytes"] / 2 ** 20
    for name in CHECKER_NAMES:
        out[f"checks.{name}.incl_s"] = m[f"checks.{name}.incl_s"]
    return out
