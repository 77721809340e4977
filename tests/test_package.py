"""The package's surface: the export list names only what the package
defines, each function takes one shape of each argument, and scipy is
loaded only by a march."""

import ast
import json
import math
import os
import subprocess
import sys
from collections import Counter
from pathlib import Path

import numpy as np
import pytest

import foliflow as ff
from foliflow import fdref
from foliflow.errors import InputError

BASE = ff.FiberGrid(1, (2.0 * math.pi,), (4,))
CIRCLE = ff.FiberGrid(1, (2.0 * math.pi,), (16,))


def test_all_names_are_attributes():
    missing = [name for name in ff.__all__ if not hasattr(ff, name)]
    assert missing == []


def test_all_has_no_duplicates():
    assert len(ff.__all__) == len(set(ff.__all__))


def test_star_import_succeeds():
    namespace = {}
    exec("from foliflow import *", namespace)
    assert set(ff.__all__) <= set(namespace)


def references(node: ast.AST) -> Counter:
    """How often each name is read under node, as a bare name or an attribute."""
    return Counter(n.id if isinstance(n, ast.Name) else n.attr for n in ast.walk(node)
                   if isinstance(n, (ast.Name, ast.Attribute)))


def test_every_public_function_has_a_use():
    """A public module-level function is exported or named in src outside its own def."""
    trees = {path.stem: ast.parse(path.read_text(encoding="utf-8"))
             for path in sorted(Path(ff.__file__).parent.glob("*.py"))}
    used = sum(map(references, trees.values()), Counter())
    dead = [f"{module}.{fn.name}" for module, tree in trees.items() for fn in tree.body
            if isinstance(fn, ast.FunctionDef) and not fn.name.startswith("_")
            and fn.name not in ff.__all__ and f"{module}.{fn.name}" != "cli.main"
            and used[fn.name] == references(fn)[fn.name]]
    assert dead == []


def run_with_fiber_shaped_x():
    state = ff.ProductState.from_harmonics(BASE, CIRCLE, {(0, 1): 0.2})
    config = ff.FlowConfig(t_end=1.0, samples=(1.0,), variant="prescribed",
                           x_field=np.zeros((1,) + CIRCLE.shape))
    return ff.run_extrinsic_flow(state, config)


@pytest.mark.parametrize("call, expected", [
    (lambda: ff.ProductState(BASE, CIRCLE, np.zeros((4, 16)), 0.3),
     r"do not match grid shape \(4, 16\)"),
    (run_with_fiber_shaped_x, r"is not \(p,\) \+ grid shape \(1, 4, 16\)"),
    (lambda: fdref.operator_matrix(np.zeros(16), CIRCLE),
     r"is not a stack of profiles \(k,\) \+ \(16,\)"),
    (lambda: ff.fd_heat_run(np.zeros((4, 16)), np.zeros(16), CIRCLE, (0.1,), ff.FdScheme()),
     r"is not the u0 shape \(4, 16\)"),
    (lambda: ff.FiberGrid(1, (1.0,), None), r"points must be 1 finite integer count"),
    (lambda: ff.FiberGrid(2, (1.0, 1.0), (8,)), r"expected 2 point counts, got 1"),
], ids=["scalar-psi", "fiber-shaped-x", "one-profile-operator", "grid-psi-batched-u0",
        "grid-without-points", "one-count-torus"])
def test_other_argument_shapes_refused(call, expected):
    with pytest.raises(InputError, match=expected):
        call()


# Reports whether scipy is loaded after importing the CLI, after an exact-path
# run and after a finite-difference run, as the last line of its output.
LOADS_SCIPY = """
import json, sys
import foliflow.cli as cli
loaded = ["scipy" in sys.modules]
for name in ("exact", "fd"):
    assert cli.main(["run", name + ".json", "--out", name]) == 0
    loaded.append("scipy" in sys.modules)
print(json.dumps(loaded))
"""


def test_only_a_march_loads_scipy(tmp_path):
    # a fresh interpreter: this session has imported scipy already
    exact = {"scenario": "twisted_torus", "base_points": 4, "fiber_points": 16,
             "phi0": {"0,1": 0.2}, "samples": [0.0, 0.1],
             "checks": ["divergence_identity"]}
    fd = {**exact, "scenario": "double_twisted", "psi": {"0,1": 0.1}}
    for name, cfg in (("exact", exact), ("fd", fd)):
        (tmp_path / f"{name}.json").write_text(json.dumps(cfg), encoding="utf-8")
    src = str(Path(__file__).resolve().parents[1] / "src")
    env = {**os.environ,
           "PYTHONPATH": os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))}
    proc = subprocess.run([sys.executable, "-c", LOADS_SCIPY], cwd=tmp_path, env=env,
                          capture_output=True, text=True, check=True)
    assert json.loads(proc.stdout.splitlines()[-1]) == [False, False, True]


@pytest.mark.parametrize("variant", ["plain", "normalized"])
def test_p2_fiber_varying_run_loads_no_scipy(tmp_path, variant):
    """``python -m foliflow.cli run`` on a p = 2 run whose psi varies along the fibers.

    The run takes the Chebyshev propagator, which needs numpy alone, and its
    flow-law checks read no march; under ``normalized``, bperp_scaling takes
    the rate integral from two volumes.  ``-X importtime`` logs every module
    the process imports, so scipy is not in ``sys.modules`` at exit iff no
    line names it.
    """
    cfg = {"scenario": "double_twisted", "n": 1, "p": 2, "base_points": 4, "fiber_points": 16,
           "phi0": {"0,1,0": 0.1, "1,0,1": 0.03}, "psi": {"1,0,1": 0.08},
           "samples": [0.0, 0.25, 0.5], "t_end": 0.5, "variant": variant,
           "checks": ["divergence_identity", "preservation", "monotonicity", "volume_ode",
                      "bperp_scaling"]}
    (tmp_path / "p2.json").write_text(json.dumps(cfg), encoding="utf-8")
    src = str(Path(__file__).resolve().parents[1] / "src")
    env = {**os.environ,
           "PYTHONPATH": os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))}
    proc = subprocess.run([sys.executable, "-X", "importtime", "-m", "foliflow.cli", "run",
                           "p2.json", "--out", "out"], cwd=tmp_path, env=env,
                          capture_output=True, text=True, timeout=120)
    assert proc.returncode == 0, proc.stderr[-2000:]
    imported = [line.rsplit("|", 1)[-1].strip() for line in proc.stderr.splitlines()
                if line.startswith("import time:")]
    assert "numpy" in imported and "foliflow.flows" in imported
    assert [name for name in imported if name.split(".")[0] == "scipy"] == []
