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
Config errors are detected before any output file is created.

All CSV output uses 17 significant digits and newline-only line
endings, so reruns of one config on one version are byte-identical.
A run of at least SPLIT_VALUES snapshot values on a host with a second
usable CPU writes its snapshots from two processes, itself and one
forked child, with the same bytes.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import sys
from pathlib import Path

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

# Snapshot values (samples x base points x fiber points) from which two
# processes write a run's snapshots, when a second CPU is available.  A fork
# and wait cost 3-4 ms in a 100 MB process and formatting about 0.9 us per
# value, so handing half the values to a child breaks even near 2^14 values:
# 11 files took 15 ms either way, and at 2^17 values 129 ms serial against
# 80 ms split (2-core Xeon VM).  The bound keeps a 4x margin above that.
SPLIT_VALUES = 2 ** 16


def _row_format(columns: int) -> str:
    """%-format of one CSV row: `columns` numbers of 17 significant digits each."""
    return ",".join(["%.17g"] * columns)


def _fmt(x: float) -> str:
    return _row_format(1) % float(x)


def _write_lines(path: Path, lines: list[str]) -> None:
    """Write newline-terminated lines as UTF-8 with newline-only endings."""
    path.write_text("\n".join(lines) + "\n", encoding="utf-8", newline="\n")


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
    """
    if raw is None:
        return {}
    if not isinstance(raw, dict):
        raise InputError(f"{label} must be a mode map object, got {type(raw).__name__}")
    points = tuple(n for grid in grids for n in grid.points)
    terms = {}
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
        where = f"{label} value for {key!r}"
        if isinstance(amp, list):
            pair = tuple(_as_float(a, where) for a in amp)
            if len(pair) != 2:
                raise InputError(f"{where} must be a number or [cos, sin]")
            terms[mode] = pair
        else:
            terms[mode] = (_as_float(amp, where), 0.0)
    return terms


def _load_config(path: Path, args) -> dict:
    """Parse and fully validate one scenario; nothing is written here."""
    with open(path, "r", encoding="utf-8") as fh:
        cfg = json.load(fh)
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
    for name in checks:
        if name not in ck.CHECKERS:
            raise InputError(
                f"unknown check {name!r}; known: {', '.join(sorted(ck.CHECKERS))}"
            )

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
    _write_lines(path, lines)


def _write_snapshots(out_dir: Path, traj: fl.Trajectory) -> None:
    """Write phi_NNN.csv per sample, from two processes when the run is large.

    A run of at least SPLIT_VALUES snapshot values, given a second usable
    CPU, forks one child that writes the odd-numbered files while this
    process writes the even-numbered ones.  The child formats each file
    itself, so no text crosses between the processes; only a failure's
    message comes back through a pipe, and is raised here as an OSError.
    The child runs nothing but Python formatting and file writes, so it
    takes no lock that another thread (numpy's BLAS pool, say) may have
    held at the fork.
    """
    base_size = int(np.prod(traj.initial.base.shape))
    fiber_size = int(np.prod(traj.initial.fiber.shape))
    row_format = _row_format(fiber_size)
    tables = [state.phi.reshape(base_size, fiber_size) for state in traj.states]

    def write(indices: range) -> None:
        for i in indices:
            _write_lines(out_dir / f"phi_{i:03d}.csv",
                         [row_format % tuple(row) for row in tables[i].tolist()])

    indices = range(len(tables))
    if (len(tables) * base_size * fiber_size < SPLIT_VALUES
            or not hasattr(os, "sched_getaffinity") or len(os.sched_getaffinity(0)) < 2):
        write(indices)
        return
    read_end, write_end = os.pipe()
    try:
        pid = os.fork()
    except OSError:         # no process to be had: write every file here
        os.close(read_end)
        os.close(write_end)
        write(indices)
        return
    if pid == 0:
        # The child never returns into its caller's stack and never flushes
        # the stdio it inherited: os._exit ends it whatever happens.
        status = 1
        try:
            os.close(read_end)
            try:
                write(indices[1::2])
                status = 0
            except BaseException as exc:    # interrupts too: report, then end
                os.write(write_end, str(exc).encode("utf-8", "replace"))
        finally:
            os._exit(status)
    os.close(write_end)
    try:
        write(indices[0::2])
    finally:
        with open(read_end, "rb") as pipe:
            message = pipe.read().decode("utf-8", "replace")
        _, status = os.waitpid(pid, 0)
    if status:
        raise OSError(message or f"snapshot writer process ended with wait status {status}")


def _write_checks(path: Path, reports: list[ck.CheckReport]) -> None:
    lines = ["name,sampleTime,residual,tolerance,pass"]
    for r in reports:
        lines.append(",".join([
            r.name, _fmt(r.sample_time), _fmt(r.residual), _fmt(r.tolerance),
            "true" if r.passed else "false",
        ]))
    _write_lines(path, lines)


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
        if payload["scenario"] == "codim1_fibration":
            traj = fl.run_codim1(payload["tau0"], payload["base"], payload["fiber"],
                                 flow_cfg)
        else:
            traj = fl.run_extrinsic_flow(payload["initial"], flow_cfg)
        reports = ck.run_checks(traj, payload["checks"])
    except HypothesisViolationError as exc:
        print(f"hypothesis violation: {exc}", file=sys.stderr)
        return 3
    except FlowError as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return 2

    out_dir = payload["out_dir"]
    try:
        out_dir.mkdir(parents=True, exist_ok=True)
        _write_diagnostics(out_dir / "diagnostics.csv", traj)
        _write_snapshots(out_dir, traj)
        _write_checks(out_dir / "checks.csv", reports)
        if payload["plot"]:
            _write_lines(out_dir / "diagnostics.svg", _svg_chart(traj))
    except OSError as exc:
        print(f"output error: {exc}", file=sys.stderr)
        return 2

    failed = [r for r in reports if not r.passed]
    for r in reports:
        print(r)
    if traj.converged_time is not None:
        print(f"converged at t={traj.converged_time:g} "
              f"(max driving < {flow_cfg.tol_converge:g})")
    print(f"wrote {out_dir}/diagnostics.csv with {len(traj.states)} samples")
    return 1 if failed else 0


def main(argv=None) -> int:
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
