"""Tests for the scenario runner.

Every invocation goes through ``main(argv)`` in process, with configs
and outputs under tmp_path.  Covers the four exit codes, the
no-partial-output guarantee on config errors, byte-identical reruns,
the snapshot writer's split between two processes, and the flag surface
(--grid, --plot, --out).
"""

import contextlib
import io
import json
import math
import os
import tempfile
from pathlib import Path
from types import SimpleNamespace

import hypothesis as hyp
import hypothesis.strategies as st
import numpy as np
import pytest

from foliflow import cli
from foliflow.cli import DIAG_COLUMNS, _write_snapshots, main
from foliflow.fiber import FiberGrid
from foliflow.geometry import ProductState


@pytest.fixture
def forks(monkeypatch):
    """Two usable CPUs, and the list of pids that os.fork returned in this process."""
    monkeypatch.setattr(os, "sched_getaffinity", lambda pid: {0, 1})
    pids, fork = [], os.fork

    def counting_fork():
        pid = fork()
        if pid:
            pids.append(pid)
        return pid

    monkeypatch.setattr(os, "fork", counting_fork)
    return pids


def assert_no_child_left():
    with pytest.raises(ChildProcessError):
        os.waitpid(-1, os.WNOHANG)


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

    def test_degenerate_volume_exits_two_without_outputs(self, tmp_path, capsys):
        # the null mode's multiplier t scales the driving scalar's round-off mean
        cfg = write_config(tmp_path, samples=[0.0, 1e300], t_end=1e300)
        out = tmp_path / "out"
        assert main(["run", str(cfg), "--out", str(out)]) == 2
        err = capsys.readouterr().err
        assert "config error" in err and "volume" in err, err
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

    def test_snapshot_text_matches_per_value_format(self, tmp_path, forks):
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
            _write_snapshots(out, SimpleNamespace(initial=states[0], states=states))
            assert len(forks) == split
            assert_no_child_left()
            for i, state in enumerate(states):
                table = state.phi.reshape(4, -1)
                expected = "".join(",".join(f"{float(x):.17g}" for x in row) + "\n"
                                   for row in table)
                assert (out / f"phi_{i:03d}.csv").read_bytes() == expected.encode()
            first = (out / "phi_000.csv").read_text().split("\n")[0].split(",")
            assert first[:5] == ["-0", "4.9406564584124654e-324", "10000000000000000",
                                 "0.33333333333333331", "-0.33333333333333331"]

    def test_converged_line_for_static_data(self, tmp_path, capsys):
        cfg = write_config(tmp_path, phi0={}, checks=[])
        main(["run", str(cfg), "--out", str(tmp_path / "out")])
        assert "converged at t=0" in capsys.readouterr().out


# 4 samples x 16 base points x 1024 fiber points = 2^16 snapshot values
SPLIT_RUN = {"base_points": 16, "fiber_points": 1024, "checks": []}


class TestSnapshotSplit:
    def test_split_run_matches_serial_run(self, tmp_path, forks, monkeypatch):
        cfg = write_config(tmp_path, **SPLIT_RUN)
        assert main(["run", str(cfg), "--out", str(tmp_path / "split")]) == 0
        assert len(forks) == 1
        assert_no_child_left()
        monkeypatch.setattr(os, "sched_getaffinity", lambda pid: {0})
        assert main(["run", str(cfg), "--out", str(tmp_path / "serial")]) == 0
        assert len(forks) == 1                  # one usable CPU: no split
        names = sorted(p.name for p in (tmp_path / "serial").iterdir())
        assert names == sorted(p.name for p in (tmp_path / "split").iterdir())
        for name in names:
            assert ((tmp_path / "split" / name).read_bytes()
                    == (tmp_path / "serial" / name).read_bytes())

    @pytest.mark.parametrize("blocked", ["phi_001.csv", "phi_000.csv"],
                             ids=["child-share", "parent-share"])
    def test_unwritable_snapshot_exits_two(self, tmp_path, capsys, forks, blocked):
        cfg = write_config(tmp_path, **SPLIT_RUN)
        out = tmp_path / "out"
        (out / blocked).mkdir(parents=True)
        assert main(["run", str(cfg), "--out", str(out)]) == 2
        err = capsys.readouterr().err
        assert err.startswith("output error: ") and blocked in err, err
        assert "Traceback" not in err
        assert len(forks) == 1
        assert_no_child_left()

    def test_fork_failure_writes_every_file_here(self, tmp_path, monkeypatch):
        def no_fork():
            raise OSError("no process to be had")

        cfg = write_config(tmp_path, **SPLIT_RUN)
        monkeypatch.setattr(os, "sched_getaffinity", lambda pid: {0, 1})
        monkeypatch.setattr(os, "fork", no_fork)
        out = tmp_path / "out"
        assert main(["run", str(cfg), "--out", str(out)]) == 0
        assert sorted(p.name for p in out.glob("phi_*.csv")) == [
            f"phi_{i:03d}.csv" for i in range(4)]

    def test_small_run_never_forks(self, tmp_path, monkeypatch):
        def no_fork():
            raise AssertionError("a run below cli.SPLIT_VALUES forked")

        monkeypatch.setattr(os, "fork", no_fork)
        cfg = write_config(tmp_path)
        assert main(["run", str(cfg), "--out", str(tmp_path / "out")]) == 0


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
                assert not out.exists()
