"""Tests for the scenario runner.

Every invocation goes through ``main(argv)`` in process, with configs
and outputs under tmp_path.  Covers the four exit codes, the
no-partial-output guarantee on config errors, byte-identical reruns,
the bulk snapshot formatter against one %.17g per value, the snapshot
writer thread (joined on every exit path, and never a forked process),
an --out that every exit 2 leaves as it was, and the flag surface
(--grid, --plot, --out).
"""

import contextlib
import io
import json
import math
import os
import subprocess
import sys
import tempfile
import threading
import time
from pathlib import Path

import hypothesis as hyp
import hypothesis.strategies as st
import numpy as np
import pytest

from foliflow import cli
from foliflow.cli import DIAG_COLUMNS, main
from foliflow.fiber import FiberGrid
from foliflow.geometry import ProductState


@pytest.fixture
def writers(monkeypatch, calls):
    """Two usable CPUs, and each thread whose threading.Thread.start returned."""
    monkeypatch.setattr(os, "sched_getaffinity", lambda pid: {0, 1})
    return calls(threading.Thread, "start", key=lambda thread: thread)


def assert_no_writer_left(writers):
    assert not any(thread.is_alive() for thread in writers)


def tree_bytes(root):
    """Every file's bytes and every directory under root, by relative path."""
    return {str(path.relative_to(root)): path.read_bytes() if path.is_file() else "dir"
            for path in sorted(root.rglob("*"))}


def staging_left(where):
    return sorted(p.name for p in where.rglob(".foliflow-staging-*"))


def formatted(table):
    """The snapshot text of a 2-D table from cli._format_table's blocks."""
    return b"".join(cli._format_table(table)).decode("ascii")


def per_value_text(table):
    """The snapshot text of a 2-D table, one f"{x:.17g}" per value."""
    return "".join(",".join(f"{x:.17g}" for x in row) + "\n" for row in table.tolist())


def write_config(tmp_path, name="scenario.json", **overrides):
    cfg = {
        "scenario": "twisted_torus",
        "n": 1,
        "p": 1,
        "base_points": 4,
        "fiber_points": 64,
        "phi0": {"0,1": 0.2},
        "samples": [0.0, 0.5, 1.0, 2.0],
        "t_end": 2.0,
        "checks": ["divergence_identity", "decay_rate"],
    }
    cfg.update(overrides)
    path = tmp_path / name
    path.write_text(json.dumps(cfg), encoding="utf-8")
    return path


class TestExitCodes:
    def test_passing_run_exits_zero(self, tmp_path, capsys):
        cfg = write_config(tmp_path)
        out = tmp_path / "out"
        assert main(["run", str(cfg), "--out", str(out)]) == 0
        stdout = capsys.readouterr().out
        assert "pass" in stdout and "FAIL" not in stdout
        assert (out / "diagnostics.csv").exists()
        assert (out / "checks.csv").exists()

    def test_failed_check_exits_one_but_writes(self, tmp_path):
        # two modes over a short window decay at no single exponential rate
        cfg = write_config(tmp_path, phi0={"0,1": 0.2, "0,2": 0.1},
                           samples=[0.0, 0.25, 0.5, 1.0], t_end=1.0,
                           checks=["decay_rate"])
        out = tmp_path / "out"
        assert main(["run", str(cfg), "--out", str(out)]) == 1
        text = (out / "checks.csv").read_text(encoding="utf-8")
        assert "decay_rate" in text and "false" in text

    def test_normalized_uniform_equivalence_exits_zero(self, tmp_path, capsys):
        # the starting volume (2 pi)^2 I0(0.2) is far from the projected 1
        cfg = write_config(tmp_path, variant="normalized", fiber_points=32,
                           samples=[0.0, 0.5, 1.0, 1.5, 2.0],
                           checks=["uniform_equivalence"])
        assert main(["run", str(cfg), "--out", str(tmp_path / "out")]) == 0
        assert "uniform_equivalence[t=2]: residual 0.000e+00" in capsys.readouterr().out

    def test_bad_scenario_exits_two_without_outputs(self, tmp_path, capsys):
        cfg = write_config(tmp_path, scenario="moebius")
        out = tmp_path / "out"
        assert main(["run", str(cfg), "--out", str(out)]) == 2
        assert "config error" in capsys.readouterr().err
        assert not out.exists()

    def test_missing_phi0_exits_two_without_outputs(self, tmp_path):
        cfg = write_config(tmp_path)
        raw = json.loads(cfg.read_text(encoding="utf-8"))
        del raw["phi0"]
        cfg.write_text(json.dumps(raw), encoding="utf-8")
        out = tmp_path / "out"
        assert main(["run", str(cfg), "--out", str(out)]) == 2
        assert not out.exists()

    def test_malformed_json_exits_two(self, tmp_path):
        cfg = tmp_path / "broken.json"
        cfg.write_text("{not json", encoding="utf-8")
        assert main(["run", str(cfg), "--out", str(tmp_path / "out")]) == 2

    def test_unknown_check_exits_two(self, tmp_path):
        cfg = write_config(tmp_path, checks=["divergence_identity", "nope"])
        assert main(["run", str(cfg), "--out", str(tmp_path / "out")]) == 2

    def test_nonclosed_target_exits_three(self, tmp_path, capsys):
        cfg = write_config(
            tmp_path, p=2, fiber_points=32,
            phi0={"0,1,2": 0.1},
            variant="prescribed",
            x_field=[{"0,0,1": [0.0, 1.0]}, {}],
            samples=[0.0, 1.0], t_end=1.0, checks=[])
        out = tmp_path / "out"
        assert main(["run", str(cfg), "--out", str(out)]) == 3
        assert "hypothesis violation" in capsys.readouterr().err
        assert not out.exists()

    def test_bad_fiber_points_exits_two_even_with_grid(self, tmp_path, capsys):
        # --grid overrides a valid fiber_points, it does not excuse an invalid one
        cfg = write_config(tmp_path, fiber_points="lots")
        out = tmp_path / "out"
        assert main(["run", str(cfg), "--out", str(out), "--grid", "32"]) == 2
        err = capsys.readouterr().err
        assert "config error" in err and "fiber_points" in err
        assert not out.exists()

    @pytest.mark.parametrize("overrides, keys", [
        ({"phi0": {"0,1": 0.2, "0, 1": 0.3}}, "phi0 keys '0,1' and '0, 1'"),
        ({"scenario": "double_twisted", "psi": {"1,0": 0.1, "1;0": 0.2}},
         "psi keys '1,0' and '1;0'"),
        ({"variant": "prescribed", "x_field": [{"0,1": 0.1, "0,+1": 0.2}]},
         "x_field keys '0,1' and '0,+1'"),
        ({"scenario": "codim1_fibration", "phi0": None, "tau0": {"0,1": 0.2, "0,01": 0.1}},
         "tau0 keys '0,1' and '0,01'"),
    ], ids=["phi0", "psi", "x_field", "tau0"])
    def test_one_mode_named_twice_exits_two(self, tmp_path, capsys, overrides, keys):
        """Two spellings of one mode would keep only the later amplitude."""
        cfg = write_config(tmp_path, **overrides)
        raw = {k: v for k, v in json.loads(cfg.read_text(encoding="utf-8")).items()
               if v is not None}
        cfg.write_text(json.dumps(raw), encoding="utf-8")
        out = tmp_path / "out"
        assert main(["run", str(cfg), "--out", str(out)]) == 2
        err = capsys.readouterr().err
        assert "config error" in err and f"{keys} name the same mode" in err
        assert not out.exists()

    @pytest.mark.parametrize("repeat, key", [
        ('"phi0": {"0,1": 0.2}, "phi0": {"0,1": 0.3}', "phi0"),
        ('"phi0": {"0,1": 0.2, "0,1": 0.3}', "0,1"),
    ], ids=["top-level", "nested"])
    def test_repeated_json_key_exits_two(self, tmp_path, capsys, repeat, key):
        """A JSON object that repeats a key would keep only its last value."""
        cfg = write_config(tmp_path)
        raw = json.loads(cfg.read_text(encoding="utf-8"))
        del raw["phi0"]
        cfg.write_text(json.dumps(raw)[:-1] + ", " + repeat + "}", encoding="utf-8")
        out = tmp_path / "out"
        assert main(["run", str(cfg), "--out", str(out)]) == 2
        err = capsys.readouterr().err
        assert "config error" in err and f"config key {key!r} appears twice" in err
        assert not out.exists()

    @pytest.mark.parametrize("key, value", [
        ("dt", math.nan),
        ("dt", math.inf),
        ("theta", math.nan),
        ("fiber_sides", math.nan),
        ("base_sides", math.inf),
        ("t_end", math.nan),
        ("samples", [0.0, math.nan, 2.0]),
        # a bool or a numeric string is not a JSON number either
        ("dt", True),
        ("theta", "0.5"),
        ("t_end", "2.0"),
        ("tol_converge", "1e-10"),
        ("samples", ["0", 0.5, 1.0, 2.0]),
        ("fiber_sides", True),
        ("base_sides", ["6.5"]),
        ("phi0", {"0,1": True}),
        ("phi0", {"0,1": ["0.2", 0.0]}),
        # a mode number beyond numpy's default integer
        ("phi0", {"100000000000000000000,1": 0.1}),
        # a flag is a JSON true or false, not a truthy or falsy stand-in
        ("plot", "no"),
        ("plot", 1),
        ("oracle_check", "false"),
        ("oracle_check", 0),
        ("oracle_check", None),
        # out must name a directory even when --out overrides it
        ("out", 5),
        ("out", ""),
        # exp(n phi0 + p psi) would overflow
        ("phi0", {"0,1": 1e300}),
        # more theta steps than fdref.MAX_STEPS
        ("dt", 1e-300),
    ], ids=["dt-nan", "dt-inf", "theta-nan", "fiber_sides-nan", "base_sides-inf",
            "t_end-nan", "samples-nan", "dt-bool", "theta-string", "t_end-string",
            "tol_converge-string", "samples-string", "fiber_sides-bool",
            "base_sides-string", "phi0-bool", "phi0-pair-string", "phi0-key-overflow",
            "plot-string", "plot-number", "oracle_check-string", "oracle_check-number",
            "oracle_check-null", "out-number", "out-empty", "phi0-overflow", "dt-tiny"])
    def test_non_finite_value_exits_two_without_outputs(self, tmp_path, capsys,
                                                        key, value):
        # an FD scenario, so that dt and theta reach the march
        cfg = write_config(tmp_path, scenario="double_twisted", psi={"0,1": 0.1},
                           **{key: value})
        out = tmp_path / "out"
        assert main(["run", str(cfg), "--out", str(out)]) == 2
        err = capsys.readouterr().err
        assert "config error" in err and key in err
        assert not out.exists()

    def test_null_mode_round_off_stays_bounded(self, tmp_path):
        """A driving scalar of size e^200 keeps phi finite and bounded by its start, warning-free.

        Its round-off fiber means, times the null mode's multiplier t, used
        to take phi to -1.29e69.
        """
        cfg = write_config(tmp_path, fiber_points=32, samples=[0.0, 1.0], t_end=1.0,
                           checks=[], scenario="double_twisted", psi={"1,0": 100.0})
        out = tmp_path / "out"
        assert main(["run", str(cfg), "--out", str(out)]) == 0
        phi = np.loadtxt(out / "phi_001.csv", delimiter=",")
        assert np.all(np.isfinite(phi)) and np.max(np.abs(phi)) <= 0.2 + 1e-12

    def test_degenerate_volume_exits_two_without_outputs(self, tmp_path, capsys):
        # a flat volume of 1e200 * 1e200 = 1e400 is not a finite float
        cfg = write_config(tmp_path, base_sides=1e200, fiber_sides=1e200)
        out = tmp_path / "out"
        assert main(["run", str(cfg), "--out", str(out)]) == 2
        err = capsys.readouterr().err
        assert "config error" in err and "volume" in err, err
        assert not out.exists()

    def test_p2_time_beyond_max_terms_exits_two_without_outputs(self, tmp_path, capsys):
        """A fiber-varying p = 2 run refuses a time its Chebyshev series cannot reach.

        Its dt and theta do not reach it: theta = 0 with dt = 1 would break
        the march's explicit step bound.
        """
        cfg = write_config(tmp_path, scenario="double_twisted", p=2, fiber_points=16,
                           phi0={"0,1,0": 0.1}, psi={"1,0,1": 0.1}, checks=[],
                           dt=1.0, theta=0.0)
        assert main(["run", str(cfg), "--out", str(tmp_path / "ok")]) == 0
        cfg = write_config(tmp_path, scenario="double_twisted", p=2, fiber_points=16,
                           phi0={"0,1,0": 0.1}, psi={"1,0,1": 0.1}, checks=[],
                           samples=[0.0, 1e9], t_end=1e9)
        out = tmp_path / "out"
        assert main(["run", str(cfg), "--out", str(out)]) == 2
        err = capsys.readouterr().err
        assert "config error" in err and "MAX_TERMS" in err, err
        assert not out.exists()

    @pytest.mark.parametrize("key, value", [
        ("fiber_points", 32.9),
        ("fiber_points", math.nan),
        ("fiber_points", math.inf),
        ("base_points", [4.5]),
        ("n", 1.5),
        ("p", math.nan),
        ("p", "1"),
        ("n", 0),
    ], ids=["fiber_points-fraction", "fiber_points-nan", "fiber_points-inf",
            "base_points-fraction", "n-fraction", "p-nan", "p-string", "n-zero"])
    def test_non_integral_count_exits_two_without_outputs(self, tmp_path, capsys,
                                                          key, value):
        cfg = write_config(tmp_path, **{"fiber_points": 32, key: value})
        out = tmp_path / "out"
        assert main(["run", str(cfg), "--out", str(out)]) == 2
        err = capsys.readouterr().err
        assert "config error" in err and key in err
        assert not out.exists()

    # 2**50 points need 8 PiB per axis array, beyond any address space, so the
    # allocation fails at once and nothing this large is ever made.
    @pytest.mark.parametrize("overrides, flags", [
        ({"fiber_points": 2 ** 50}, []),
        ({"base_points": 2 ** 50}, []),
        ({}, ["--grid", str(2 ** 50)]),
    ], ids=["fiber_points", "base_points", "grid-flag"])
    def test_unallocatable_grid_exits_two_without_outputs(self, tmp_path, capsys,
                                                          overrides, flags):
        cfg = write_config(tmp_path, **overrides)
        out = tmp_path / "out"
        assert main(["run", str(cfg), "--out", str(out)] + flags) == 2
        err = capsys.readouterr().err
        assert "config error" in err and "allocate" in err, err
        assert not out.exists()

    @pytest.mark.parametrize("key", ["sampels", "thetaa"])
    def test_unknown_key_exits_two_without_outputs(self, tmp_path, capsys, key):
        cfg = write_config(tmp_path, **{key: 0.5})
        out = tmp_path / "out"
        assert main(["run", str(cfg), "--out", str(out)]) == 2
        err = capsys.readouterr().err
        assert "config error" in err and key in err
        assert not out.exists()

    @pytest.mark.parametrize("value", ["divergence_identity", None, 1,
                                       ["preservation", "preservation"]],
                             ids=["string", "null", "number", "repeated"])
    def test_checks_not_a_list_exits_two_without_outputs(self, tmp_path, capsys, value):
        cfg = write_config(tmp_path, checks=value)
        out = tmp_path / "out"
        assert main(["run", str(cfg), "--out", str(out)]) == 2
        err = capsys.readouterr().err
        assert "config error" in err and "checks" in err
        if isinstance(value, list):
            assert repr(value[0]) in err
        assert not out.exists()

    def test_volume_ode_on_too_short_run_exits_two_without_outputs(self, tmp_path, capsys):
        cfg = write_config(tmp_path, samples=[0.0, 0.0015], t_end=0.0015,
                           checks=["volume_ode"])
        out = tmp_path / "out"
        assert main(["run", str(cfg), "--out", str(out)]) == 2
        err = capsys.readouterr().err
        assert "config error" in err and "volume_ode" in err and "t_end" in err
        assert not out.exists()

    def test_out_key_must_be_a_string(self, tmp_path, capsys, monkeypatch):
        monkeypatch.chdir(tmp_path)
        cfg = write_config(tmp_path, out=5)
        assert main(["run", str(cfg)]) == 2
        err = capsys.readouterr().err
        assert "config error" in err and "out must be" in err
        assert sorted(p.name for p in tmp_path.iterdir()) == ["scenario.json"]
        # a string key is honoured, and --out still overrides it
        cfg = write_config(tmp_path, out="from_key")
        assert main(["run", str(cfg)]) == 0
        assert main(["run", str(cfg), "--out", "from_flag"]) == 0
        for name in ("from_key", "from_flag"):
            assert (tmp_path / name / "diagnostics.csv").exists()

    def test_integral_float_count_is_accepted(self, tmp_path):
        ints = write_config(tmp_path, "ints.json", fiber_points=32)
        floats = write_config(tmp_path, "floats.json", fiber_points=32.0, n=1.0)
        assert main(["run", str(ints), "--out", str(tmp_path / "ints")]) == 0
        assert main(["run", str(floats), "--out", str(tmp_path / "floats")]) == 0
        for name in ("diagnostics.csv", "phi_000.csv"):
            assert ((tmp_path / "ints" / name).read_bytes()
                    == (tmp_path / "floats" / name).read_bytes())

    FD = {"scenario": "double_twisted", "psi": {"0,1": 0.1}}     # psi varies along fibers

    @pytest.mark.parametrize("overrides, names", [
        ({"samples": [0.0, 1.0], "t_end": 1.0, "checks": ["preservation"]},
         ("preservation",)),
        ({"samples": [0.0, 0.5, 1.0], "t_end": 1.0, "checks": ["decay_rate"]},
         ("decay_rate",)),
        ({"p": 2, "fiber_points": 32, "phi0": {"0,1,2": 0.1}, "checks": ["codim1_identity"]},
         ("codim1_identity",)),
        ({**FD, "checks": ["decay_rate"]}, ("decay_rate",)),
        ({**FD, "checks": ["uniform_equivalence"]}, ("uniform_equivalence",)),
        ({"variant": "normalized", "checks": ["oracle_agreement"]}, ("oracle_agreement",)),
        # the run itself is exact; only the oracle's 256-point march breaks the bound
        ({"theta": 0.2, "checks": ["oracle_agreement"]}, ("oracle_agreement", "256")),
    ], ids=["preservation-2-samples", "decay_rate-3-samples", "codim1_identity-p2",
            "fd-decay_rate", "fd-uniform_equivalence", "normalized-oracle_agreement",
            "oracle_agreement-unstable-theta"])
    def test_checker_refusal_exits_two_without_outputs(self, tmp_path, capsys,
                                                       overrides, names):
        cfg = write_config(tmp_path, **overrides)
        out = tmp_path / "out"
        assert main(["run", str(cfg), "--out", str(out)]) == 2
        err = capsys.readouterr().err
        assert "config error" in err and all(name in err for name in names), err
        assert not out.exists()

    BPERP = {"scenario": "double_twisted", "fiber_points": 32, "psi": {"1,0": 0.1},
             "samples": [0.0, 1.0], "checks": ["bperp_scaling"]}

    @pytest.mark.parametrize("overrides, drop, flags, names", [
        # 2|m| >= N on some axis: the Nyquist mode, aliased modes, base axes too
        ({"fiber_points": 32, "phi0": {"0,16": 0.2}, "checks": ["oracle_agreement"]}, (),
         [], ("phi0", "'0,16'", "4x32")),
        ({"fiber_points": 32, "phi0": {"0,40": 0.2}}, (), [], ("phi0", "'0,40'", "4x32")),
        ({"phi0": {"0,10": 0.2}}, (), ["--grid", "16"], ("phi0", "'0,10'", "4x16")),
        ({"scenario": "double_twisted", "psi": {"2,0": 0.1}}, (), [],
         ("psi", "'2,0'", "4x64")),
        ({"variant": "prescribed", "x_field": [{"0,32": 0.1}]}, (), [],
         ("x_field", "'0,32'", "4x64")),
        ({"scenario": "codim1_fibration", "tau0": {"-2,1": 0.1}}, ("phi0",), [],
         ("tau0", "'-2,1'", "4x64")),
        # Simpson nodes too far apart to follow the decay
        ({**BPERP, "t_end": 60.0}, (), [], ("bperp_scaling", "Simpson", "[0, 60]")),
        ({**BPERP, "t_end": 30.0, "variant": "normalized"}, (), [],
         ("bperp_scaling", "Simpson", "[0, 30]")),
        ({**BPERP, "t_end": 1e20}, (), [], ("bperp_scaling", "Simpson")),
        # one time four times over: no slope to fit
        ({"samples": [0.5, 0.5, 0.5, 0.5], "checks": ["decay_rate"]}, (), [],
         ("decay_rate", "2 distinct")),
        # sides so short that the largest eigenvalue overflows
        ({"fiber_sides": 1e-155, "fiber_points": 32}, (), [],
         ("fiber_points", "side lengths (1e-155,)")),
        ({"scenario": "double_twisted", "psi": {"1,0": 0.1}, "base_sides": 1e-155}, (), [],
         ("base_points", "side lengths (1e-155,)")),
    ], ids=["phi0-nyquist", "phi0-aliased", "phi0-grid-flag", "psi-base-axis", "x_field",
            "tau0-negative", "bperp-long-t", "bperp-long-t-normalized", "bperp-far-t",
            "decay_rate-one-time", "fiber_sides-spectrum", "base_sides-spectrum"])
    def test_unresolvable_config_exits_two_without_outputs(self, tmp_path, capsys,
                                                          overrides, drop, flags, names):
        cfg = write_config(tmp_path, **overrides)
        raw = json.loads(cfg.read_text(encoding="utf-8"))
        for key in drop:
            del raw[key]
        cfg.write_text(json.dumps(raw), encoding="utf-8")
        out = tmp_path / "out"
        assert main(["run", str(cfg), "--out", str(out)] + flags) == 2
        err = capsys.readouterr().err
        assert "config error" in err and all(name in err for name in names), err
        assert not out.exists()

    def test_modes_are_refused_from_half_the_points_on(self, tmp_path):
        for phi0, code in (({"1,15": 0.01, "-1,-15": 0.01}, 0), ({"1,-16": 0.01}, 2),
                           ({"2,1": 0.01}, 2)):
            cfg = write_config(tmp_path, fiber_points=32, phi0=phi0,
                               checks=["divergence_identity"])
            assert main(["run", str(cfg), "--out", str(tmp_path / "out")]) == code, phi0

    def test_missing_subcommand_is_usage_error(self):
        with pytest.raises(SystemExit):
            main([])


class TestOutputs:
    def test_diagnostics_table_shape(self, tmp_path):
        cfg = write_config(tmp_path)
        out = tmp_path / "out"
        main(["run", str(cfg), "--out", str(out)])
        lines = (out / "diagnostics.csv").read_text(encoding="utf-8").splitlines()
        assert lines[0] == ",".join(DIAG_COLUMNS)
        assert len(lines) == 5
        first = dict(zip(DIAG_COLUMNS, lines[1].split(",")))
        assert float(first["t"]) == 0.0
        assert float(first["maxDivH"]) == pytest.approx(0.2, rel=1e-12)

    def test_rerun_is_byte_identical(self, tmp_path):
        cfg = write_config(tmp_path)
        out_a, out_b = tmp_path / "a", tmp_path / "b"
        main(["run", str(cfg), "--out", str(out_a)])
        main(["run", str(cfg), "--out", str(out_b)])
        for name in ("diagnostics.csv", "checks.csv", "phi_000.csv"):
            assert (out_a / name).read_bytes() == (out_b / name).read_bytes()

    def test_new_out_is_made_like_any_new_directory(self, tmp_path):
        """A new --out, parents included, gets the mode mkdir gives and holds only the run's files."""
        cfg = write_config(tmp_path)
        out = tmp_path / "a" / "b" / "out"
        assert main(["run", str(cfg), "--out", str(out)]) == 0
        (tmp_path / "plain").mkdir()
        assert out.stat().st_mode == (tmp_path / "plain").stat().st_mode
        assert sorted(p.name for p in out.iterdir()) == sorted(
            ["checks.csv", "diagnostics.csv"] + [f"phi_{i:03d}.csv" for i in range(4)])
        assert staging_left(tmp_path) == []

    def test_snapshot_per_sample_with_base_rows(self, tmp_path):
        cfg = write_config(tmp_path)
        out = tmp_path / "out"
        main(["run", str(cfg), "--out", str(out)])
        snaps = sorted(out.glob("phi_*.csv"))
        assert [s.name for s in snaps] == [f"phi_{i:03d}.csv" for i in range(4)]
        rows = snaps[0].read_text(encoding="utf-8").splitlines()
        assert len(rows) == 4
        assert len(rows[0].split(",")) == 64

    def test_snapshot_values_match_closed_form(self, tmp_path):
        cfg = write_config(tmp_path)
        out = tmp_path / "out"
        main(["run", str(cfg), "--out", str(out)])
        rows = (out / "phi_002.csv").read_text(encoding="utf-8").splitlines()
        got = np.array([float(v) for v in rows[0].split(",")])
        y = np.arange(64) * 2.0 * math.pi / 64
        np.testing.assert_allclose(got, 0.2 * math.exp(-1.0) * np.cos(y),
                                   atol=1e-12)

    def test_snapshot_text_matches_per_value_format(self, tmp_path, writers):
        """Row-formatted snapshots equal the per-value f"{x:.17g}" text, serial or split."""
        base = FiberGrid(1, (1.0,), (4,))
        rng = np.random.default_rng(3)
        # 3 samples x 4 base points x 64 x 128 fiber points reach cli.SPLIT_VALUES
        for fiber_points, split in (((4, 8), False), ((64, 128), True)):
            fiber = FiberGrid(2, (1.0, 2.0), fiber_points)
            phi = rng.normal(scale=10.0, size=(4,) + fiber_points)
            phi[0, 0, :5] = [-0.0, 5e-324, 1e16, 1.0 / 3.0, -1.0 / 3.0]
            psi = np.zeros(phi.shape)
            states = [ProductState(base, fiber, phi, psi),
                      ProductState(base, fiber, rng.normal(size=phi.shape), psi),
                      ProductState(base, fiber, rng.normal(size=phi.shape), psi)]
            assert (len(states) * phi.size >= cli.SPLIT_VALUES) == split
            out = tmp_path / ("split" if split else "serial")
            out.mkdir()
            with cli._writing_snapshots(out, states):
                pass
            assert len(writers) == split
            assert_no_writer_left(writers)
            for i, state in enumerate(states):
                expected = per_value_text(state.phi.reshape(4, -1))
                assert (out / f"phi_{i:03d}.csv").read_bytes() == expected.encode()
            first = (out / "phi_000.csv").read_text().split("\n")[0].split(",")
            assert first[:5] == ["-0", "4.9406564584124654e-324", "10000000000000000",
                                 "0.33333333333333331", "-0.33333333333333331"]

    def test_rerun_with_fewer_samples_leaves_no_stale_output(self, tmp_path, capsys):
        """A 5-sample run with a plot, then a 2-sample run without: only its files remain.

        Files that no run writes stay, a refused rerun touches nothing, and an
        output that cannot be unlinked is an output error.
        """
        out = tmp_path / "out"
        five = write_config(tmp_path, "five.json", samples=[0.0, 0.5, 1.0, 1.5, 2.0],
                            checks=["divergence_identity"])
        assert main(["run", str(five), "--out", str(out), "--plot"]) == 0
        kept = ["notes.txt", "phi_7.txt", "phi_x.csv", "phi_004.csv.bak"]
        for name in kept:
            (out / name).write_text("keep\n", encoding="utf-8")
        (out / "phi_1000.csv").write_text("stale\n", encoding="utf-8")
        two = write_config(tmp_path, "two.json", samples=[0.0, 2.0],
                           checks=["divergence_identity"])
        before = sorted(p.name for p in out.iterdir())
        refused = write_config(tmp_path, "refused.json", samples=[0.0, 2.0], checks=["nope"])
        assert main(["run", str(refused), "--out", str(out)]) == 2
        assert sorted(p.name for p in out.iterdir()) == before
        assert main(["run", str(two), "--out", str(out)]) == 0
        assert sorted(p.name for p in out.iterdir()) == sorted(
            ["checks.csv", "diagnostics.csv", "phi_000.csv", "phi_001.csv"] + kept)
        assert len((out / "diagnostics.csv").read_text(encoding="utf-8").splitlines()) == 3
        (out / "phi_002.csv").mkdir()
        capsys.readouterr()
        before = tree_bytes(out)
        assert main(["run", str(two), "--out", str(out)]) == 2
        err = capsys.readouterr().err
        assert err.startswith("output error: ") and "phi_002.csv" in err, err
        assert tree_bytes(out) == before

    @pytest.mark.parametrize("blocked", ["phi_003.csv", "phi_007.csv"], ids=["target", "stale"])
    def test_blocked_name_leaves_out_as_it_was(self, tmp_path, capsys, blocked):
        """A directory named like a snapshot to write or to unlink is found before any move.

        The earlier run's outputs, its stale snapshots and chart included,
        and every other file stay byte for byte, and no staging directory is left.
        """
        out = tmp_path / "out"
        earlier = write_config(tmp_path, "earlier.json", samples=[0.0, 1.0, 2.0],
                               checks=["divergence_identity"])
        assert main(["run", str(earlier), "--out", str(out), "--plot"]) == 0
        (out / "notes.txt").write_text("keep\n", encoding="utf-8")
        (out / "phi_009.csv").write_text("stale\n", encoding="utf-8")
        (out / blocked).mkdir()
        before = tree_bytes(out)
        cfg = write_config(tmp_path, base_points=4, fiber_points=32,
                           samples=[0.0, 0.5, 1.0, 1.5, 2.0], checks=["divergence_identity"])
        capsys.readouterr()
        assert main(["run", str(cfg), "--out", str(out)]) == 2
        err = capsys.readouterr().err
        assert err.startswith("output error: [Errno 21] Is a directory") and blocked in err
        assert tree_bytes(out) == before
        assert staging_left(tmp_path) == []

    def test_converged_line_for_static_data(self, tmp_path, capsys):
        cfg = write_config(tmp_path, phi0={}, checks=[])
        main(["run", str(cfg), "--out", str(tmp_path / "out")])
        assert "converged at t=0" in capsys.readouterr().out


def edge_values():
    """Values at every border of _format_table's bulk range and layouts."""
    values = [0.0, 5e-324, 1.7976931348623157e308, math.nan, math.inf,
              1234567890123456.5, 1000000000000000.25, 1000000000000000.75,
              100000000000000.125, 0.1, 1.0 / 3.0, 2.0 ** 53, 2.0 ** 53 + 2.0]
    for v in [10.0 ** k for k in range(-8, 18)] + [1e-6, 1e-5, 1e-4, 1e16]:
        values += [v, np.nextafter(v, 0.0), np.nextafter(v, math.inf)]
    values = np.array(values)
    return np.concatenate([values, -values])


@st.composite
def float_tables(draw):
    """Float64 tables of any small shape: any double, any bit pattern, decade borders."""
    rows, columns = draw(st.integers(1, 6)), draw(st.integers(1, 40))
    element = st.one_of(
        st.floats(width=64),
        st.integers(0, 2 ** 64 - 1).map(lambda bits: float(np.uint64(bits).view(np.float64))),
        st.floats(1e-6, 1e-4),
        st.builds(lambda k, ulps: 10.0 ** k * (1.0 + ulps * 2.0 ** -52),
                  st.integers(-8, 17), st.integers(-4, 4)),
    )
    values = draw(st.lists(element, min_size=rows * columns, max_size=rows * columns))
    return np.array(values, dtype=np.float64).reshape(rows, columns)


class TestFormatTable:
    """_format_table against one f"{x:.17g}" per value, byte for byte."""

    @hyp.settings(max_examples=100, deadline=None, derandomize=True)
    @hyp.given(table=float_tables())
    def test_matches_per_value_format(self, table):
        assert formatted(table) == per_value_text(table)

    @pytest.mark.parametrize("shape", ["row", "column", "table"])
    def test_edge_values(self, shape):
        values = edge_values()
        table = {"row": values[None, :], "column": values[:, None],
                 "table": values.reshape(2, -1)}[shape]
        assert formatted(table) == per_value_text(table)

    @pytest.mark.parametrize("direction", [-math.inf, math.inf], ids=["low", "high"])
    def test_log10_one_ulp_off(self, monkeypatch, direction):
        """A log10 that puts a value in the wrong decade still gives the exact text."""
        log10 = np.log10
        monkeypatch.setattr(np, "log10", lambda a: np.nextafter(log10(a), direction))
        table = edge_values()[None, :]
        assert formatted(table) == per_value_text(table)

    def test_rows_straddling_blocks(self):
        """Rows that start and end inside blocks, over every decade of the bulk range."""
        rng = np.random.default_rng(11)
        shape = (3, cli._TABLE_BLOCK // 2 + 3)
        table = rng.choice([-1.0, 1.0], shape) * 10.0 ** rng.uniform(-7.0, 17.0, shape)
        assert formatted(table) == per_value_text(table)

    def test_one_snapshot_peaks_below_three_file_sizes(self, traced_memory):
        """Formatting an 8^2 x 64^2 snapshot allocates at most 3x its text at the peak."""
        table = np.random.default_rng(5).normal(scale=0.1, size=(8 ** 2, 64 ** 2))
        with traced_memory() as traced:
            text = formatted(table)
        assert traced.peak <= 3 * len(text), (traced.peak, len(text))

    def test_streamed_write_peak_does_not_grow_with_the_table(self, tmp_path, traced_memory,
                                                              writers):
        """The writer thread holds one block's temporaries at a time, never the text.

        A table 4 times an 8^2 x 64^2 snapshot peaks as the snapshot does,
        below a third of its own text, and its file has the exact text.
        """
        rng = np.random.default_rng(5)
        fiber = FiberGrid(2, (1.0, 1.0), (64, 64))
        peaks = []
        for rows in (8 ** 2, 4 * 8 ** 2):
            base = FiberGrid(1, (1.0,), (rows,))
            phi = rng.normal(scale=0.1, size=(rows, 64, 64))
            state = ProductState(base, fiber, phi, np.zeros(phi.shape))
            out = tmp_path / str(rows)
            out.mkdir()
            with traced_memory() as traced:
                with cli._writing_snapshots(out, [state]):
                    pass
            peaks.append(traced.peak)
        assert len(writers) == 2
        path = out / "phi_000.csv"
        assert path.read_bytes().decode("ascii") == per_value_text(phi.reshape(rows, -1))
        assert peaks[1] <= 1.2 * peaks[0] and 3 * peaks[1] < path.stat().st_size, peaks


# 4 samples x 16 base points x 1024 fiber points = 2^16 snapshot values
SPLIT_RUN = {"base_points": 16, "fiber_points": 1024, "checks": []}


class TestSnapshotSplit:
    def test_split_run_matches_serial_run(self, tmp_path, writers, monkeypatch):
        """The same bytes from two threads as from one, however finely they interleave."""
        cfg = write_config(tmp_path, **SPLIT_RUN)
        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            assert main(["run", str(cfg), "--out", str(tmp_path / "split")]) == 0
        finally:
            sys.setswitchinterval(interval)
        assert len(writers) == 1
        assert_no_writer_left(writers)
        monkeypatch.setattr(os, "sched_getaffinity", lambda pid: {0})
        assert main(["run", str(cfg), "--out", str(tmp_path / "serial")]) == 0
        assert len(writers) == 1                # one usable CPU: no split
        names = sorted(p.name for p in (tmp_path / "serial").iterdir())
        assert names == sorted(p.name for p in (tmp_path / "split").iterdir())
        for name in names:
            assert ((tmp_path / "split" / name).read_bytes()
                    == (tmp_path / "serial" / name).read_bytes())

    @pytest.mark.parametrize("overrides", [
        {},
        {"variant": "normalized"},
        {"scenario": "double_twisted", "psi": {"1,0": 0.1}, "variant": "prescribed",
         "x_field": [{"1,1": 0.05}]},
        # psi varies along the fibers: the finite-difference march
        {"scenario": "double_twisted", "psi": {"1,1": 0.1}, "dt": 0.01},
        {"scenario": "double_twisted", "p": 2, "fiber_points": 32, "phi0": {"0,1,1": 0.1},
         "psi": {"1,0,0": 0.1}},
        # psi varies along the fibers: the Chebyshev series
        {"scenario": "double_twisted", "p": 2, "fiber_points": 32, "phi0": {"0,1,1": 0.1},
         "psi": {"1,1,0": 0.1}},
    ], ids=["exact-p1", "normalized", "prescribed", "fd-p1", "exact-p2", "chebyshev-p2"])
    def test_body_leaves_the_sampled_phi_as_it_was(self, tmp_path, writers, monkeypatch,
                                                   overrides):
        """The writer thread reads each sampled phi while the diagnostics and checks run.

        So the body must not write into them: every array holds the same
        bytes after ``main`` as when the flow sampled it.
        """
        sample_flow, sampled = cli.fl.sample_flow, []

        def recording_sample_flow(initial, config):
            states, diagnose = sample_flow(initial, config)
            sampled.extend((state.phi, state.phi.tobytes()) for state in states)
            return states, diagnose

        monkeypatch.setattr(cli.fl, "sample_flow", recording_sample_flow)
        cfg = write_config(tmp_path, **{**SPLIT_RUN, **overrides, "checks": [
            "divergence_identity", "harmonic_rigidity", "preservation", "monotonicity",
            "volume_ode", "bperp_scaling"]})
        assert main(["run", str(cfg), "--out", str(tmp_path / "out")]) in (0, 1)
        assert len(writers) == 1 and len(sampled) == 4
        assert all(phi.tobytes() == before for phi, before in sampled)

    @pytest.mark.parametrize("blocked", ["phi_001.csv", "checks.csv"])
    def test_unwritable_snapshot_exits_two(self, tmp_path, capsys, writers, blocked):
        """A target taken by a directory: one the writer thread staged, or one the main thread did."""
        cfg = write_config(tmp_path, **SPLIT_RUN)
        out = tmp_path / "out"
        (out / blocked).mkdir(parents=True)
        assert main(["run", str(cfg), "--out", str(out)]) == 2
        err = capsys.readouterr().err
        assert err.startswith("output error: ") and blocked in err, err
        assert "Traceback" not in err
        assert len(writers) == 1
        assert_no_writer_left(writers)
        assert tree_bytes(out) == {blocked: "dir"} and staging_left(tmp_path) == []

    def test_checker_refusal_while_the_writer_runs_exits_two(self, tmp_path, capsys, writers,
                                                            monkeypatch):
        """decay_rate refuses one distinct time while the writer writes; the writer stops.

        Each of the writer's 64 blocks takes a second here, so only a writer
        that stops between blocks lets ``main`` end in time.  It is joined
        before ``main`` returns, so nothing is written after the staging
        directory is removed.
        """
        format_block, blocks = cli._format_block, []

        def slow_format_block(values, first, columns):
            time.sleep(1.0)
            blocks.append(first)
            return format_block(values, first, columns)

        monkeypatch.setattr(cli, "_TABLE_BLOCK", 2 ** 10)
        monkeypatch.setattr(cli, "_format_block", slow_format_block)
        cfg = write_config(tmp_path, **{**SPLIT_RUN, "samples": [0.5] * 4,
                                        "checks": ["decay_rate"]})
        out = tmp_path / "out"
        start = time.monotonic()
        assert main(["run", str(cfg), "--out", str(out)]) == 2
        assert time.monotonic() - start < 30
        err = capsys.readouterr().err
        assert err.startswith("config error: ") and "decay_rate" in err and "2 distinct" in err
        assert len(writers) == 1
        assert_no_writer_left(writers)
        assert len(blocks) < 4 * 16 * 1024 // 2 ** 10
        assert not out.exists() and staging_left(tmp_path) == []

    @pytest.mark.parametrize("writer, failing", [("open", "phi_002.csv"),
                                                 ("_write_text", "diagnostics.csv")],
                             ids=["child", "parent"])
    def test_write_failure_exits_two(self, tmp_path, capsys, writers, monkeypatch, writer,
                                     failing):
        """A write that fails in the writer thread, or in the main thread, leaves --out as it was.

        On a split run only the writer thread opens snapshots through
        ``cli``'s ``open``.
        """
        write = vars(cli).get(writer, open)

        def failing_write(path, *args, **kwargs):
            if Path(path).name == failing:
                raise OSError(f"no space left writing {failing}")
            return write(path, *args, **kwargs)

        monkeypatch.setattr(cli, writer, failing_write, raising=False)
        cfg = write_config(tmp_path, **SPLIT_RUN)
        out = tmp_path / "out"
        out.mkdir()
        (out / "notes.txt").write_text("keep\n", encoding="utf-8")
        assert main(["run", str(cfg), "--out", str(out)]) == 2
        err = capsys.readouterr().err
        assert err == f"output error: no space left writing {failing}\n", err
        assert len(writers) == 1
        assert_no_writer_left(writers)
        assert tree_bytes(out) == {"notes.txt": b"keep\n"} and staging_left(tmp_path) == []

    def test_thread_start_failure_writes_every_file_here(self, tmp_path, monkeypatch, calls):
        def no_thread(thread):
            raise RuntimeError("can't start new thread")

        cfg = write_config(tmp_path, **SPLIT_RUN)
        monkeypatch.setattr(os, "sched_getaffinity", lambda pid: {0, 1})
        monkeypatch.setattr(threading.Thread, "start", no_thread)
        written = calls(cli, "_write_text", key=lambda path, text: path.name)
        out = tmp_path / "out"
        assert main(["run", str(cfg), "--out", str(out)]) == 0
        snapshots = [f"phi_{i:03d}.csv" for i in range(4)]
        assert sorted(p.name for p in out.glob("phi_*.csv")) == snapshots
        assert written == ["diagnostics.csv", "checks.csv"] + snapshots

    def test_small_run_starts_no_writer(self, tmp_path, writers):
        cfg = write_config(tmp_path)
        assert main(["run", str(cfg), "--out", str(tmp_path / "out")]) == 0
        assert writers == []


# A fresh interpreter that runs main, where os.fork raises, and reports on
# stderr how many threads it started.  Its first argument "untuned" skips
# mallopt, and "serial" allows one CPU.
FRESH_RUN = """
import os, sys, threading
import foliflow.cli as cli
assert cli._tune_allocator.cache_info().currsize == 0   # importing never tunes
def no_fork():
    raise AssertionError("foliflow forked")
os.fork = no_fork
writers, start = [], threading.Thread.start
def counting_start(thread):
    start(thread)
    writers.append(thread)
threading.Thread.start = counting_start
if sys.argv[1] == "untuned":
    cli._tune_allocator = lambda: None
if sys.argv[1] == "serial":
    os.sched_getaffinity = lambda pid: {0}
code = cli.main(sys.argv[2:])
print(len(writers), file=sys.stderr)
sys.exit(code)
"""


def fresh_runs(tmp_path, *modes):
    """Run SPLIT_RUN in one fresh interpreter per mode; each output tree and writer count."""
    cfg = write_config(tmp_path, **SPLIT_RUN)
    env = dict(os.environ, PYTHONPATH=str(Path(cli.__file__).parents[1]))
    runs = []
    for mode in modes:
        proc = subprocess.run([sys.executable, "-c", FRESH_RUN, mode, "run", str(cfg),
                               "--out", str(tmp_path / mode)],
                              env=env, capture_output=True, text=True, timeout=120)
        assert proc.returncode == 0, proc.stderr
        runs.append((tree_bytes(tmp_path / mode), int(proc.stderr)))
    return runs


class TestAllocator:
    def test_split_run_bytes_do_not_depend_on_the_allocator(self, tmp_path):
        """A split run in a fresh process writes the same bytes with and without mallopt."""
        split = int(len(os.sched_getaffinity(0)) >= 2)
        (tuned, tuned_writers), (untuned, untuned_writers) = fresh_runs(
            tmp_path, "tuned", "untuned")
        assert tuned_writers == untuned_writers == split
        assert sorted(tuned) == ["checks.csv", "diagnostics.csv"] + [
            f"phi_{i:03d}.csv" for i in range(4)]
        assert tuned == untuned

    def test_split_run_never_forks(self, tmp_path):
        """A fresh split run whose os.fork raises exits 0 with the serial run's bytes."""
        split = int(len(os.sched_getaffinity(0)) >= 2)
        (tuned, tuned_writers), (serial, serial_writers) = fresh_runs(
            tmp_path, "tuned", "serial")
        assert (tuned_writers, serial_writers) == (split, 0)
        assert tuned == serial

    def test_missing_mallopt_is_a_silent_no_op(self, monkeypatch):
        import ctypes

        monkeypatch.setattr(ctypes, "CDLL", lambda name: object())
        assert cli._tune_allocator.__wrapped__() is None

        def unloadable(name):
            raise OSError("no C library to load")

        monkeypatch.setattr(ctypes, "CDLL", unloadable)
        assert cli._tune_allocator.__wrapped__() is None

    def test_main_tunes_the_allocator_once_per_process(self, tmp_path, monkeypatch):
        import ctypes

        settings = []

        class Libc:
            @staticmethod
            def mallopt(param, value):
                settings.append((param, value))
                return 1

        monkeypatch.setattr(ctypes, "CDLL", lambda name: Libc())
        cli._tune_allocator.cache_clear()
        cfg = write_config(tmp_path, checks=[])
        for out in ("a", "b"):
            assert main(["run", str(cfg), "--out", str(tmp_path / out)]) == 0
        assert settings == [(-3, 32 * 2 ** 20), (-1, 2 ** 30)]


class TestFlags:
    def test_grid_override_rescales_fiber(self, tmp_path):
        cfg = write_config(tmp_path)
        out = tmp_path / "out"
        assert main(["run", str(cfg), "--out", str(out), "--grid", "32"]) == 0
        rows = (out / "phi_000.csv").read_text(encoding="utf-8").splitlines()
        assert len(rows[0].split(",")) == 32

    @pytest.mark.parametrize("grid", ["0", "6"])
    def test_bad_grid_exits_two_naming_the_flag(self, tmp_path, capsys, grid):
        cfg = write_config(tmp_path)
        out = tmp_path / "out"
        assert main(["run", str(cfg), "--out", str(out), "--grid", grid]) == 2
        err = capsys.readouterr().err
        assert "config error: --grid:" in err and "fiber_points" not in err
        assert not out.exists()

    @pytest.mark.parametrize("out", ["taken", "taken/sub"], ids=["file", "below-file"])
    def test_out_naming_a_file_exits_two(self, tmp_path, capsys, out):
        cfg = write_config(tmp_path)
        (tmp_path / "taken").write_text("keep\n", encoding="utf-8")
        assert main(["run", str(cfg), "--out", str(tmp_path / out)]) == 2
        err = capsys.readouterr().err
        assert err.startswith("output error: ") and "Traceback" not in err
        assert (tmp_path / "taken").read_text(encoding="utf-8") == "keep\n"

    def test_oracle_check_appends_report(self, tmp_path):
        # appended once, and not again when the checks list names it already
        for checks in (["divergence_identity"], ["divergence_identity", "oracle_agreement"]):
            cfg = write_config(tmp_path, oracle_check=True, checks=checks)
            out = tmp_path / f"out{len(checks)}"
            assert main(["run", str(cfg), "--out", str(out)]) == 0
            text = (out / "checks.csv").read_text(encoding="utf-8")
            assert text.count("oracle_agreement") == 1

    def test_plot_writes_svg(self, tmp_path):
        cfg = write_config(tmp_path)
        out = tmp_path / "out"
        assert main(["run", str(cfg), "--out", str(out), "--plot"]) == 0
        svg = (out / "diagnostics.svg").read_text(encoding="utf-8")
        assert svg.startswith("<svg") and "polyline" in svg
        assert "maxDivH" in svg


class TestScenarioRules:
    def test_codim1_scenario_runs(self, tmp_path):
        cfg = write_config(
            tmp_path, scenario="codim1_fibration", base_points=8,
            tau0={"0,1": 1.0, "1,1": 0.15, "1,-1": 0.15},
            checks=["codim1_identity", "divergence_identity"])
        raw = json.loads(cfg.read_text(encoding="utf-8"))
        del raw["phi0"]
        cfg.write_text(json.dumps(raw), encoding="utf-8")
        out = tmp_path / "out"
        assert main(["run", str(cfg), "--out", str(out)]) == 0
        text = (out / "checks.csv").read_text(encoding="utf-8")
        assert "codim1_identity" in text and "false" not in text

    def test_codim1_rejects_phi0(self, tmp_path):
        cfg = write_config(tmp_path, scenario="codim1_fibration",
                           tau0={"0,1": 1.0}, checks=[])
        assert main(["run", str(cfg), "--out", str(tmp_path / "out")]) == 2

    def test_codim1_rejects_prescribed(self, tmp_path):
        cfg = write_config(tmp_path, scenario="codim1_fibration",
                           variant="prescribed", tau0={"0,1": 1.0}, checks=[])
        raw = json.loads(cfg.read_text(encoding="utf-8"))
        del raw["phi0"]
        cfg.write_text(json.dumps(raw), encoding="utf-8")
        assert main(["run", str(cfg), "--out", str(tmp_path / "out")]) == 2

    def test_twisted_torus_rejects_psi(self, tmp_path):
        cfg = write_config(tmp_path, psi={"0,1": 0.1})
        assert main(["run", str(cfg), "--out", str(tmp_path / "out")]) == 2

    def test_double_twisted_accepts_psi(self, tmp_path):
        cfg = write_config(tmp_path, scenario="double_twisted",
                           psi={"1,0": 0.1}, checks=["bperp_scaling"])
        assert main(["run", str(cfg), "--out", str(tmp_path / "out")]) == 0



VALID_VALUES = {
    "scenario": ["twisted_torus", "double_twisted"],
    "n": [1, 2, 1.0], "p": [1, 2, 2.0],
    "base_points": [4, 4.0], "fiber_points": [8, 16, 8.0],
    "samples": [[0.0, 0.1], [0.0, 0.05, 0.1]],
    "dt": [1e-2, 5e-2], "theta": [0.5, 1.0, 0.0],
    "checks": [[], ["divergence_identity"], ["preservation"], ["decay_rate"],
               ["uniform_equivalence"]],
    "amplitude": [0.1, [0.1, 0.05]],     # of the one phi0 mode
    "plot": [False, True], "oracle_check": [False],
}
INVALID_VALUES = {
    "scenario": ["moebius", None],
    "n": [1.5, 0, 3, -1, math.nan, "1", True], "p": [1.5, 0, 3, math.inf, "2", None],
    "base_points": [4.5, 6, 0, -4, math.nan, math.inf, "4", [4, 4, 4]],
    "fiber_points": [8.5, 2, -8, math.nan, math.inf, "8", {}],
    "base_sides": [0.0, math.inf, True, "6.5", [1.0, "2.0"]],
    "fiber_sides": [-1.0, math.nan, False, "6.5", [True]],
    "samples": [[], [math.nan], [-0.1, 0.1], [0.1, "a"], "x", None, [0.0, True],
                ["0", 0.1]],
    "t_end": [0.0, math.nan, True, "0.1"],
    "tol_converge": [0.0, math.inf, True, "1e-10"],
    "dt": [0.0, -1e-2, math.nan, math.inf, "x", True, "1e-2"],
    "theta": [-0.5, 2.0, math.nan, "x", False, "0.5"],
    "amplitude": [math.nan, True, "0.1", [0.1, True], [0.1]],
    "checks": [["no_such_check"], "divergence_identity", None, 3, [1],
               ["preservation", "preservation"]],
    "plot": ["no", "true", 0, 1, None], "oracle_check": ["false", "yes", 0, 1.0, None],
}


@st.composite
def hostile_configs(draw):
    """Tiny valid scenarios with at most two keys replaced by invalid values."""
    cfg = {key: draw(st.sampled_from(values)) for key, values in VALID_VALUES.items()}
    width = int(cfg["n"] + cfg["p"])
    phi0_mode = ",".join(["0"] * (width - 1) + ["1"])
    if cfg["scenario"] == "double_twisted" and draw(st.booleans()):
        cfg["psi"] = {",".join(["1"] * width): 0.1}  # varies along the fiber: FD path
    for key in draw(st.lists(st.sampled_from(sorted(INVALID_VALUES)), max_size=2,
                             unique=True)):
        cfg[key] = draw(st.sampled_from(INVALID_VALUES[key]))
    cfg["phi0"] = {phi0_mode: cfg.pop("amplitude")}
    return cfg


class TestHostileConfigs:
    @hyp.settings(max_examples=100, deadline=None, derandomize=True)
    @hyp.given(cfg=hostile_configs())
    def test_exit_code_without_traceback_or_partial_output(self, cfg):
        with tempfile.TemporaryDirectory() as tmp:
            path = Path(tmp) / "scenario.json"
            path.write_text(json.dumps(cfg), encoding="utf-8")
            out = Path(tmp) / "out"
            err = io.StringIO()
            with contextlib.redirect_stdout(io.StringIO()), \
                    contextlib.redirect_stderr(err):
                code = main(["run", str(path), "--out", str(out)])
            assert code in (0, 1, 2, 3)
            assert "Traceback" not in err.getvalue()
            if code == 2:
                assert sorted(p.name for p in Path(tmp).iterdir()) == ["scenario.json"]
