"""Command-line scenario runner.

``foliflow run config.json`` loads a JSON scenario, evolves the selected
flow variant, and writes a diagnostics table, per-sample snapshots of
the conformal factor, and a table of check reports (plus an optional SVG
chart of the diagnostics columns).  Initial data is supplied as Fourier
mode maps, so configs are resolution-independent; ``--grid`` rescales
the fiber resolution without touching the scenario.

Exit codes: 0 all requested checks pass, 1 a check failed, 2 the config
is invalid or asks for something the scenario cannot provide, or the
output cannot be written, 3 the closedness hypothesis of the requested
flow fails on the initial data.

Every file of a run is written first into a staging directory, made in
the output directory when it exists and else in its nearest existing
ancestor, and moved into the output directory with os.replace only once
all of them are written (a new output directory is the staging
directory, renamed).  So every exit 2 (and exit 3, which comes before
anything is staged) leaves the output directory exactly as it was, or
absent when it was: a target name taken by a directory is refused before
the first file moves, and the staging directory is removed whatever the
exit.  A run that succeeds replaces its own files,
unlinks the earlier run's snapshots numbered at or beyond its sample
count and, when it does not plot, its chart, and leaves every other
file in the directory alone.

All CSV output uses 17 significant digits and newline-only line
endings, so reruns of one config on one version are byte-identical.
A run of at least SPLIT_VALUES snapshot values on a host with a second
usable CPU writes its snapshots from one forked child, with the same
bytes, while this process diagnoses the samples and runs the checks in
one pass per sample (``checks.diagnose_and_check``).  The child streams
each snapshot into its file block by block.  ``main`` keeps freed heap
memory for reuse (``_tune_allocator``), so the arrays one sample frees
serve the next without fresh page faults, in either process.
"""

from __future__ import annotations

import argparse
import contextlib
import ctypes
import errno
import functools
import json
import math
import os
import re
import shutil
import sys
from pathlib import Path
from typing import Iterator, Sequence

import numpy as np

from . import checks as ck
from . import fiber as fb
from . import flows as fl
from .errors import FlowError, HypothesisViolationError, InputError
from .fdref import FdScheme
from .fiber import FiberGrid
from .geometry import ProductState

SCENARIOS = ("twisted_torus", "double_twisted", "codim1_fibration")

# (diagnostics.csv column, DiagnosticsRecord attribute); every column after t
# is also one panel of diagnostics.svg.
_DIAG_FIELDS = (
    ("t", "t"), ("vol", "vol"), ("intH2", "int_h2"), ("maxDivH", "max_div_h"),
    ("r", "rate"), ("umbilicalResidual", "umbilical_residual"), ("dThetaH", "d_theta_sup"),
)
DIAG_COLUMNS = tuple(column for column, _ in _DIAG_FIELDS)

# Every top-level key _load_config reads; any other key is a config error.
CONFIG_KEYS = frozenset((
    "scenario", "n", "p", "base_sides", "fiber_sides", "base_points", "fiber_points",
    "phi0", "psi", "tau0", "variant", "x_field", "samples", "t_end", "dt", "theta",
    "tol_converge", "checks", "oracle_check", "plot", "out",
))

# Snapshot values (samples x base points x fiber points) from which a forked
# child writes a run's snapshots while this process diagnoses and checks it,
# when a second CPU is available.  Whole warm runs in a 100 MB process (4
# samples of 16 base points, no checks or two; 2-core Xeon VM, median of 15):
# forking broke even between 2^16 and 2^17 values (53-58 ms against 52-55 ms
# from one process at 2^16, 78-85 ms against 83-84 ms at 2^17) and gained at
# 2^18 (137-139 ms against 145-151 ms).  The bound stays at 2^16, since below
# 2^17 either way costs at most 3 ms.
SPLIT_VALUES = 2 ** 16

# glibc's mallopt(3) parameter numbers (malloc.h) and the values
# _tune_allocator sets.  By default glibc maps each array of 128 KiB or more
# (the bound then grows to the largest one freed) and returns freed top
# memory beyond twice that bound, so every sample's arrays, and every
# formatter block, were faulted in afresh.  With these values a warm
# exact-n2p2 op (2-core Xeon VM, median of 8) took 20,000 minor faults in
# the runner, all copy-on-write while the writer lives, and 2,200 in the
# writer, instead of 38,000 and 53,000; a warm fd-p1 op took 4 instead of
# 4,100.  Peak RSS rose 1.5-3.5% on the bench workloads, since the heap now
# keeps what it frees.
_M_TRIM_THRESHOLD, _M_MMAP_THRESHOLD = -1, -3
_MMAP_THRESHOLD = 32 * 2 ** 20      # glibc's largest accepted value on 64-bit hosts
_TRIM_THRESHOLD = 2 ** 30


_FLOAT_FORMAT = "%.17g"


def _fmt(x: float) -> str:
    return _FLOAT_FORMAT % float(x)


# Values per block of _format_table, whose temporaries then stay at a few MB.
# Of 2^11 to 2^15, 2^14 formatted an 8^2 x 64^2 snapshot fastest: 44.5 ms
# against 48.8-52.8 ms.
_TABLE_BLOCK = 2 ** 14
# 10^k is an exact double for k <= 22.
_POW10 = 10.0 ** np.arange(23)
_VELTKAMP = 2.0 ** 27 + 1


def _halves(a: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Veltkamp's split of a into two halves of at most 26 significant bits each.

    Every product of two halves is then exact.
    """
    c = a * _VELTKAMP
    high = c - (c - a)
    return high, a - high


def _digit_tables() -> tuple[np.ndarray, np.ndarray]:
    """The 4 ASCII digits of 0000..9999 as one uint32 each, and their trailing zeros."""
    digits = np.indices((10,) * 4, np.uint8).reshape(4, -1).T
    zero = digits == 0
    trailing = zero[:, 3] * (1 + zero[:, 2] * (1 + zero[:, 1] * (1 + zero[:, 0])))
    return (digits + ord("0")).copy().view(np.uint32).ravel(), trailing.astype(np.int8)


_POW10_HIGH, _POW10_LOW = _halves(_POW10)
_QUADS, _TRAILING_ZEROS = _digit_tables()


def _layouts() -> np.ndarray:
    """Byte layout of one value per (exponent X, significant digits S, sign).

    A value takes 52 bytes (13 words); a byte left 0 is dropped:
      3      "-" when negative
      4-19   digits 0-15 before the point: up to digit X, or digit 0 when X <= -5
      20-24  "." when digits follow the point, or "0." and -X-1 zeros when X < 0
      28-44  digits 0-16 after the point, up to the S-th
      45-48  "e-05" or "e-06" when X <= -5
      49     ","; the caller writes "\\n" at the end of a row
    A digit byte is 0xFF here, for the caller to AND its digit into.  Column
    ((X + 6) * 17 + S - 1) * 2 + sign covers X in [-6, 16] and S in [1, 17].
    """
    x = np.arange(-6, 17).reshape(-1, 1, 1, 1)
    s = np.arange(1, 18).reshape(-1, 1, 1)
    digit = np.arange(17)
    fixed_below_one = (x >= -4) & (x <= -1)
    point = (x >= 0) & (s > x + 1) | (x <= -5) & (s > 1)
    out = np.zeros((x.size, s.size, 2, 52), np.uint8)
    out[:, :, 1, 3] = ord("-")
    out[..., 4:20] = ((digit[:16] <= x) | (x <= -5) & (digit[:16] == 0)) * 0xFF
    out[..., 20:21] = np.where(fixed_below_one, ord("0"), point * ord("."))
    out[..., 21:22] = fixed_below_one * ord(".")
    out[..., 22:25] = (fixed_below_one & (x <= -2 - np.arange(3))) * ord("0")
    out[..., 28:45] = ((digit < s) & (digit > np.where(x <= -5, 0, x))) * 0xFF
    out[..., 45:49] = (x <= -5) * np.where(x == -6, np.frombuffer(b"e-06", np.uint8),
                                           np.frombuffer(b"e-05", np.uint8))
    out[..., 49] = ord(",")
    return np.ascontiguousarray(out.reshape(-1, 52).view(np.uint32).T)


_LAYOUTS = _layouts()


def _format_block(values: np.ndarray, first: int, columns: int) -> bytes:
    """The text of `values`, a table's entries from flat index `first` on.

    `columns` is the table's row length; each value ends in "," or, at the
    end of a row, "\\n".

    A value with 1e-6 < |v| < 1e16 has a decimal exponent X in [-6, 15] and
    17 significant digits D, 10^16 <= D < 10^17.  With e = floor(log10|v|)
    and k = 16 - e, the exact product |v| 10^k is hi + lo by Dekker's
    TwoProduct (Numer. Math. 18, 1971).  When e is X, hi >= 2^53 is an even
    integer, so D = hi + rint(lo) is that product rounded to an integer,
    ties to even.  A value whose product lies outside [10^16, 10^17 - 1/2),
    because log10 put it in the next or the previous decade, and every value
    outside the range above (zeros, subnormals, nan, inf), is formatted by
    _fmt instead.  Such a value's digits and layout may be out of range, so
    the table lookups clip their indices.
    """
    magnitude = np.abs(values)
    bulk = (magnitude > 1e-6) & (magnitude < 1e16)
    magnitude = np.where(bulk, magnitude, 1.0)
    exponent = np.clip(np.floor(np.log10(magnitude)), -6, 16).astype(np.int64)
    k = 16 - exponent
    hi = magnitude * np.take(_POW10, k)
    a_high, a_low = _halves(magnitude)
    b_high, b_low = np.take(_POW10_HIGH, k), np.take(_POW10_LOW, k)
    lo = ((a_high * b_high - hi) + a_high * b_low + a_low * b_high) + a_low * b_low
    digits = hi.astype(np.int64) + np.rint(lo).astype(np.int64)
    exact = bulk & ((hi - 1e16) + lo >= 0) & (digits < 10 ** 17)

    # D = g0 g1 g2 g3 last: four groups of 4 digits and one digit
    first8 = digits // 10 ** 9
    last9 = digits - first8 * 10 ** 9
    g0 = first8 // 10 ** 4
    g1 = first8 - g0 * 10 ** 4
    tens = last9 // 10
    last = last9 - tens * 10
    g2 = tens // 10 ** 4
    g3 = tens - g2 * 10 ** 4
    zeros = np.take(_TRAILING_ZEROS, g0, mode="clip")
    for group in (g1, g2, g3):
        zeros = np.where(group == 0, zeros + 4, np.take(_TRAILING_ZEROS, group, mode="clip"))
    zeros = np.where(last == 0, zeros + 1, 0)
    layout = ((exponent + 6) * 17 + 16 - zeros) * 2 + np.signbit(values)

    words = np.take(_LAYOUTS, layout, axis=1, mode="clip")
    quads = np.take(_QUADS, np.stack((g0, g1, g2, g3)), mode="clip")
    words[1:5] &= quads
    words[7:11] &= quads
    tail = words[11:].view(np.uint8).reshape(2, -1, 4)
    tail[0, :, 0] &= (last + ord("0")).astype(np.uint8)
    tail[1, columns - 1 - first % columns::columns, 1] = ord("\n")
    out = words.T.copy().view(np.uint8)
    slow = np.flatnonzero(~exact)
    if slow.size:
        out[slow, :49] = 0
        out[slow, :24] = np.array([_fmt(v) for v in values[slow].tolist()],
                                  dtype="S24").view(np.uint8).reshape(-1, 24)
    return out.tobytes().translate(None, b"\0")


def _format_table(table: np.ndarray) -> Iterator[bytes]:
    """``"".join(",".join(_fmt(x) for x in row) + "\\n" for row in table)``, in bulk.

    Yields the ASCII text one block of _TABLE_BLOCK values at a time, so
    its temporaries stay at a few MB whatever the table's size.
    """
    flat = table.reshape(-1)
    columns = table.shape[1]
    for i in range(0, flat.size, _TABLE_BLOCK):
        yield _format_block(flat[i:i + _TABLE_BLOCK], i, columns)


def _write_table(path: Path, table: np.ndarray) -> None:
    """Write a snapshot table's text to ``path``, each block as it is formatted.

    No block outlives its write, so the whole text is never held.
    """
    with open(path, "wb") as fh:
        fh.writelines(_format_table(table))


def _write_text(path: Path, text: str) -> None:
    """Write text as UTF-8 with newline-only endings."""
    path.write_text(text, encoding="utf-8", newline="\n")


def _as_float(raw, label: str) -> float:
    """A finite JSON number; bools and numeric strings are refused."""
    if isinstance(raw, (int, float)) and not isinstance(raw, bool):
        try:
            value = float(raw)
        except OverflowError:        # an integer literal beyond the float range
            value = math.inf
        if math.isfinite(value):
            return value
    raise InputError(f"{label} must be a finite number, got {raw!r}")


def _as_bool(raw, label: str) -> bool:
    """A JSON true or false; strings, numbers and null are refused."""
    if isinstance(raw, bool):
        return raw
    raise InputError(f"{label} must be true or false, got {raw!r}")


def _as_positive_floats(raw, count: int, label: str) -> tuple[float, ...]:
    if not isinstance(raw, list):
        raw = [raw] * count
    vals = tuple(_as_float(v, label) for v in raw)
    if len(vals) != count or not all(v > 0 for v in vals):
        raise InputError(f"{label} must be {count} finite positive length(s), got {raw!r}")
    return vals


def _as_int(raw, label: str) -> int:
    """A JSON number with an integral, finite value (so 4.0 passes, 4.5 does not)."""
    value = _as_float(raw, label)
    if value != int(value):
        raise InputError(f"{label} must be an integer, got {raw!r}")
    return int(value)


def _as_grid(dim: int, sides: tuple[float, ...], raw, label: str) -> FiberGrid:
    """The grid of one factor; ``label`` names the point-count key or flag in errors."""
    if raw is None:
        raw = fb.DEFAULT_POINTS
    if not isinstance(raw, list):
        raw = [raw] * dim
    pts = tuple(_as_int(v, label) for v in raw)
    if len(pts) != dim:
        raise InputError(f"{label} must give {dim} resolutions, got {raw!r}")
    try:
        return FiberGrid(dim, sides, pts)
    except InputError as exc:
        raise InputError(f"{label}: {exc}") from exc


def _parse_modes(raw, grids: tuple[FiberGrid, ...], label: str) -> dict:
    """{'k,l': amp} JSON maps to {(k, l): (cos_amp, sin_amp)} term maps.

    Each mode number must satisfy 2|m_k| < N_k on the N_k points of its axis
    of the grids: the Nyquist mode's derivative is zeroed and a higher mode
    aliases onto a lower one, so neither would be the mode the config asks for.
    Two keys that spell one mode tuple are refused, as no amplitude wins.
    """
    if raw is None:
        return {}
    if not isinstance(raw, dict):
        raise InputError(f"{label} must be a mode map object, got {type(raw).__name__}")
    points = tuple(n for grid in grids for n in grid.points)
    terms, keys = {}, {}
    for key, amp in raw.items():
        parts = key.replace(";", ",").split(",")
        try:
            mode = tuple(int(p.strip()) for p in parts)
        except ValueError as exc:
            raise InputError(f"{label} key {key!r} is not a mode tuple") from exc
        if len(mode) != len(points):
            raise InputError(f"{label} key {key!r} must have {len(points)} integers")
        if any(2 * abs(m) >= n for m, n in zip(mode, points)):
            raise InputError(f"{label} key {key!r} is not resolved by the "
                             f"{'x'.join(map(str, points))} grid: each |mode number| "
                             f"must be below half its axis's points")
        if mode in keys:
            raise InputError(f"{label} keys {keys[mode]!r} and {key!r} name the same "
                             f"mode {mode}")
        keys[mode] = key
        where = f"{label} value for {key!r}"
        if isinstance(amp, list):
            pair = tuple(_as_float(a, where) for a in amp)
            if len(pair) != 2:
                raise InputError(f"{where} must be a number or [cos, sin]")
            terms[mode] = pair
        else:
            terms[mode] = (_as_float(amp, where), 0.0)
    return terms


def _unique_keys(pairs: list[tuple[str, object]]) -> dict:
    """A JSON object as a dict, refusing a key that the object repeats."""
    out = {}
    for key, value in pairs:
        if key in out:
            raise InputError(f"config key {key!r} appears twice in one object")
        out[key] = value
    return out


def _load_config(path: Path, args) -> dict:
    """Parse and fully validate one scenario; nothing is written here."""
    with open(path, "r", encoding="utf-8") as fh:
        cfg = json.load(fh, object_pairs_hook=_unique_keys)
    if not isinstance(cfg, dict):
        raise InputError("config must be a JSON object")
    unknown = sorted(set(cfg) - CONFIG_KEYS)
    if unknown:
        raise InputError(f"unknown config key {unknown[0]!r}; known: "
                         f"{', '.join(sorted(CONFIG_KEYS))}")

    scenario = cfg.get("scenario")
    if scenario not in SCENARIOS:
        raise InputError(f"scenario must be one of {SCENARIOS}, got {scenario!r}")
    n = _as_int(cfg.get("n", 1), "n")
    p = _as_int(cfg.get("p", 1), "p")
    for key, dim in (("n", n), ("p", p)):
        if dim not in (1, 2):
            raise InputError(f"{key} must be 1 or 2, got {dim}")
    base_sides = _as_positive_floats(cfg.get("base_sides", 2 * np.pi), n, "base_sides")
    fiber_sides = _as_positive_floats(cfg.get("fiber_sides", 2 * np.pi), p, "fiber_sides")
    base = _as_grid(n, base_sides, cfg.get("base_points"), "base_points")
    fiber = _as_grid(p, fiber_sides, cfg.get("fiber_points"), "fiber_points")
    if args.grid is not None:
        fiber = _as_grid(p, fiber_sides, args.grid, "--grid")

    variant = cfg.get("variant", "plain")
    x_field = None
    if cfg.get("x_field") is not None:
        raw_x = cfg["x_field"]
        if not isinstance(raw_x, list) or len(raw_x) != p:
            raise InputError("x_field must be a list of p mode maps")
        x_field = np.stack([
            fb.harmonic_field((base, fiber), _parse_modes(m, (base, fiber), "x_field"))
            for m in raw_x
        ])

    samples = cfg.get("samples")
    if not isinstance(samples, list) or not samples:
        raise InputError("samples must be a nonempty list of times")
    samples = tuple(_as_float(s, "samples") for s in samples)
    scheme = FdScheme(dt=_as_float(cfg.get("dt", 1e-3), "dt"),
                      theta=_as_float(cfg.get("theta", 0.5), "theta"))
    flow_cfg = fl.FlowConfig(
        t_end=_as_float(cfg.get("t_end", samples[-1]), "t_end"),
        samples=samples,
        variant=variant,
        x_field=x_field,
        tol_converge=_as_float(cfg.get("tol_converge", 1e-10), "tol_converge"),
        fd_scheme=scheme,
    )

    checks = cfg.get("checks", [])
    if not isinstance(checks, list) or not all(isinstance(c, str) for c in checks):
        raise InputError(f"checks must be a list of check names, got {checks!r}")
    for name in checks:
        if checks.count(name) > 1:
            raise InputError(f"checks names {name!r} more than once")
    if (_as_bool(cfg.get("oracle_check", False), "oracle_check")
            and "oracle_agreement" not in checks):
        checks.append("oracle_agreement")
    ck.require_known(checks)

    out_key = cfg.get("out", "foliflow_out")
    if not isinstance(out_key, str) or not out_key:
        raise InputError(f"out must be a nonempty directory path string, got {out_key!r}")
    out = {"scenario": scenario, "base": base, "fiber": fiber, "flow": flow_cfg,
           "checks": checks, "plot": _as_bool(cfg.get("plot", False), "plot") or args.plot,
           "out_dir": Path(args.out) if args.out else Path(out_key)}

    if scenario == "codim1_fibration":
        if p != 1:
            raise InputError("codim1_fibration needs p = 1")
        if "tau0" not in cfg:
            raise InputError("codim1_fibration needs a tau0 mode map")
        if "phi0" in cfg or cfg.get("psi"):
            raise InputError("codim1_fibration takes tau0 only; phi0/psi are derived")
        if variant == "prescribed":
            raise InputError("codim1_fibration does not take the prescribed variant")
        out["tau0"] = fb.harmonic_field(
            (base, fiber), _parse_modes(cfg["tau0"], (base, fiber), "tau0")
        )
        return out

    if "phi0" not in cfg:
        raise InputError(f"{scenario} needs a phi0 mode map")
    phi_terms = _parse_modes(cfg["phi0"], (base, fiber), "phi0")
    psi_terms = _parse_modes(cfg.get("psi"), (base, fiber), "psi")
    if scenario == "twisted_torus" and psi_terms:
        raise InputError("twisted_torus keeps the fiber factor flat; use double_twisted "
                         "for a nonzero psi")
    out["initial"] = ProductState.from_harmonics(base, fiber, phi_terms, psi_terms)
    return out


def _write_diagnostics(path: Path, traj: fl.Trajectory) -> None:
    lines = [",".join(DIAG_COLUMNS)]
    for d in traj.diagnostics:
        lines.append(",".join(_fmt(getattr(d, attr)) for _, attr in _DIAG_FIELDS))
    _write_text(path, "\n".join(lines) + "\n")


@contextlib.contextmanager
def _writing_snapshots(staging: Path, states: Sequence[ProductState]) -> Iterator[None]:
    """Write phi_NNN.csv per state into ``staging``, alongside the body when the run is large.

    A run of at least SPLIT_VALUES snapshot values, given a second usable
    CPU, forks one child as the body starts; the child writes every
    snapshot while this process runs the body, streaming each file block
    by block (``_write_table``).  Leaving the body, this process waits for
    the child and raises its failure, whose message comes back through a
    pipe, as an OSError.  If the body raises, the child is killed; either
    way it is reaped before this returns.  A smaller run, one usable CPU or
    a failed fork writes every snapshot here, after the body, as one text
    through ``_write_text`` (``Path.write_text``, whose calls the bench
    tracer counts as written files).

    _run_command enters it right after the flow's sampling step, so the
    child is forked before any diagnostics exist.  The child runs only
    _format_table and file writes: numpy elementwise ufuncs, integer
    division, take, copies and a transpose, with no BLAS, FFT or thread of
    its own.  So it takes no lock that another thread (numpy's BLAS pool,
    say) may have held at the fork.  It inherits the allocator policy of
    ``main``.
    """
    base_size, fiber_size = math.prod(states[0].base.shape), math.prod(states[0].fiber.shape)

    def write(streamed: bool) -> None:
        for i, state in enumerate(states):
            path, table = staging / f"phi_{i:03d}.csv", state.phi.reshape(base_size, fiber_size)
            if streamed:
                _write_table(path, table)
            else:
                _write_text(path, b"".join(_format_table(table)).decode("ascii"))

    pid = None
    if (len(states) * base_size * fiber_size >= SPLIT_VALUES
            and hasattr(os, "sched_getaffinity") and len(os.sched_getaffinity(0)) >= 2):
        read_end, write_end = os.pipe()
        try:
            pid = os.fork()
        except OSError:         # no process to be had: write every file here
            os.close(read_end)
            os.close(write_end)
    if pid is None:
        yield
        write(streamed=False)
        return
    if pid == 0:
        # The child never returns into its caller's stack and never flushes
        # the stdio it inherited: os._exit ends it whatever happens.
        status = 1
        try:
            os.close(read_end)
            try:
                write(streamed=True)
                status = 0
            except BaseException as exc:    # interrupts too: report, then end
                os.write(write_end, str(exc).encode("utf-8", "replace"))
        finally:
            os._exit(status)
    os.close(write_end)
    try:
        yield
    except BaseException:
        import signal           # only here: a run that ends normally never needs it
        os.kill(pid, signal.SIGKILL)
        raise
    finally:
        with open(read_end, "rb") as pipe:
            message = pipe.read().decode("utf-8", "replace")
        _, status = os.waitpid(pid, 0)
    if status:
        raise OSError(message or f"snapshot writer process ended with wait status {status}")


def _staging_dir(out_dir: Path) -> Path:
    """A new empty directory for a run's files, on the filesystem of ``out_dir``.

    It is made in ``out_dir`` when that exists, else in its nearest
    existing ancestor, so no directory on the way to ``out_dir`` is made
    before the run succeeds.  Its mode is that of any new directory, since
    it may become ``out_dir``.
    """
    anchor = out_dir
    while not anchor.exists() and anchor != anchor.parent:
        anchor = anchor.parent
    staging = anchor / f".foliflow-staging-{os.getpid()}-{os.urandom(6).hex()}"
    staging.mkdir()
    return staging


def _publish(staging: Path, out_dir: Path, samples: int, plot: bool) -> None:
    """Move every staged file into ``out_dir`` and unlink what this run replaces.

    A new ``out_dir`` is the staging directory itself, renamed.  In an
    existing one the unlinked files are an earlier run's
    ``phi_<digits>.csv`` snapshots numbered ``samples`` or more and, when
    this run does not plot, ``diagnostics.svg``.  Every other file in
    ``out_dir`` stays.  A target or stale name taken by a directory is
    refused before anything moves, so such a refusal leaves ``out_dir`` as
    it was.
    """
    if not os.path.lexists(out_dir):
        out_dir.parent.mkdir(parents=True, exist_ok=True)
        os.rename(staging, out_dir)
        return
    staged = sorted(staging.iterdir())
    stale = [path for path in out_dir.iterdir()
             if (match := re.fullmatch(r"phi_([0-9]+)\.csv", path.name))
             and int(match[1]) >= samples]
    chart = out_dir / "diagnostics.svg"
    if not plot and os.path.lexists(chart):
        stale.append(chart)
    for path in [out_dir / source.name for source in staged] + stale:
        if path.is_dir() and not path.is_symlink():
            raise IsADirectoryError(errno.EISDIR, os.strerror(errno.EISDIR), str(path))
    for source in staged:
        os.replace(source, out_dir / source.name)
    for path in stale:
        path.unlink()


def _write_checks(path: Path, reports: list[ck.CheckReport]) -> None:
    lines = ["name,sampleTime,residual,tolerance,pass"]
    for r in reports:
        lines.append(",".join([
            r.name, _fmt(r.sample_time), _fmt(r.residual), _fmt(r.tolerance),
            "true" if r.passed else "false",
        ]))
    _write_text(path, "\n".join(lines) + "\n")


def _svg_chart(traj: fl.Trajectory) -> list[str]:
    """Lines of a small-multiple polyline chart of the diagnostics columns."""
    panels = [(column, [getattr(d, attr) for d in traj.diagnostics])
              for column, attr in _DIAG_FIELDS[1:]]
    times = [d.t for d in traj.diagnostics]
    t0, t1 = times[0], times[-1]
    t_span = (t1 - t0) or 1.0
    pw, ph, pad, cols = 300, 170, 36, 2
    rows = (len(panels) + cols - 1) // cols
    width = cols * (pw + pad) + pad
    height = rows * (ph + pad) + pad
    parts = [
        f'<svg xmlns="http://www.w3.org/2000/svg" width="{width}" height="{height}" '
        f'viewBox="0 0 {width} {height}">',
        f'<rect width="{width}" height="{height}" fill="white"/>',
    ]
    for idx, (label, series) in enumerate(panels):
        ox = pad + (idx % cols) * (pw + pad)
        oy = pad + (idx // cols) * (ph + pad)
        lo, hi = min(series), max(series)
        span = (hi - lo) or 1.0
        pts = " ".join(
            f"{ox + (t - t0) / t_span * pw:.6g},{oy + ph - (v - lo) / span * ph:.6g}"
            for t, v in zip(times, series)
        )
        parts.append(f'<rect x="{ox}" y="{oy}" width="{pw}" height="{ph}" '
                     f'fill="none" stroke="#999"/>')
        parts.append(f'<polyline points="{pts}" fill="none" stroke="#1f4e9c" '
                     f'stroke-width="1.5"/>')
        parts.append(f'<text x="{ox}" y="{oy - 6}" font-family="monospace" '
                     f'font-size="12">{label} [{_fmt(lo)}, {_fmt(hi)}]</text>')
    parts.append("</svg>")
    return parts


def _run_command(args) -> int:
    try:
        payload = _load_config(args.config, args)
    except (OSError, ValueError, TypeError, MemoryError, FlowError) as exc:
        # MemoryError: a grid too large to allocate
        print(f"config error: {exc}", file=sys.stderr)
        return 2

    flow_cfg = payload["flow"]
    try:
        initial = (fl.codim1_initial(payload["tau0"], payload["base"], payload["fiber"])
                   if payload["scenario"] == "codim1_fibration" else payload["initial"])
        states, diagnose = fl.sample_flow(initial, flow_cfg)
    except HypothesisViolationError as exc:
        print(f"hypothesis violation: {exc}", file=sys.stderr)
        return 3
    except FlowError as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return 2

    out_dir = payload["out_dir"]
    staging = None
    try:
        staging = _staging_dir(out_dir)
        with _writing_snapshots(staging, states):
            traj, reports = ck.diagnose_and_check(initial, diagnose, payload["checks"])
            _write_diagnostics(staging / "diagnostics.csv", traj)
            _write_checks(staging / "checks.csv", reports)
            if payload["plot"]:
                _write_text(staging / "diagnostics.svg", "\n".join(_svg_chart(traj)) + "\n")
        _publish(staging, out_dir, len(states), payload["plot"])
    except FlowError as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return 2
    except OSError as exc:
        print(f"output error: {exc}", file=sys.stderr)
        return 2
    finally:
        if staging is not None:
            shutil.rmtree(staging, ignore_errors=True)

    failed = [r for r in reports if not r.passed]
    for r in reports:
        print(r)
    if traj.converged_time is not None:
        print(f"converged at t={traj.converged_time:g} "
              f"(max driving < {flow_cfg.tol_converge:g})")
    print(f"wrote {out_dir}/diagnostics.csv with {len(traj.states)} samples")
    return 1 if failed else 0


@functools.cache
def _tune_allocator() -> None:
    """Keep freed heap memory for reuse: glibc mallopt(3), once per process.

    Arrays below _MMAP_THRESHOLD come from the heap instead of fresh
    mappings, and the heap is trimmed only beyond _TRIM_THRESHOLD of free
    top memory, so the arrays each sample frees are reused by the next
    instead of being unmapped and faulted in again.  A forked writer
    inherits the setting.  Where no C library can be loaded, or it has no
    mallopt (macOS, say), this does nothing.
    """
    try:
        mallopt = ctypes.CDLL(None).mallopt
    except (AttributeError, OSError, TypeError):
        return
    mallopt.argtypes = (ctypes.c_int, ctypes.c_int)
    mallopt.restype = ctypes.c_int
    mallopt(_M_MMAP_THRESHOLD, _MMAP_THRESHOLD)
    mallopt(_M_TRIM_THRESHOLD, _TRIM_THRESHOLD)


def main(argv=None) -> int:
    """The ``foliflow`` command line; returns the exit code.

    The first call in a process tunes the C allocator (``_tune_allocator``).
    """
    _tune_allocator()
    parser = argparse.ArgumentParser(
        prog="foliflow",
        description="Flow a foliated periodic product and audit its invariants.",
    )
    sub = parser.add_subparsers(dest="command", required=True)
    run_p = sub.add_parser("run", help="run a JSON scenario config")
    run_p.add_argument("config", type=Path, help="path to the scenario JSON")
    run_p.add_argument("--out", type=Path, default=None,
                       help="output directory (overrides the config)")
    run_p.add_argument("--grid", type=int, default=None,
                       help="override the fiber resolution (points per dimension)")
    run_p.add_argument("--plot", action="store_true",
                       help="also write diagnostics.svg")
    args = parser.parse_args(argv)
    if args.command == "run":
        return _run_command(args)
    parser.error(f"unknown command {args.command!r}")


if __name__ == "__main__":
    raise SystemExit(main())
