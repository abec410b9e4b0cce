"""The package imports and runs its main paths without loading scipy, or
numpy.ma, which NumPy's set routines (np.unique, np.isin, ...) import lazily
at about 12 ms a process, runs as python -m in a fresh process, and pins
OpenBLAS to one thread unless the caller chose a thread count."""

import ast
import importlib
import json
import os
import subprocess
import sys
from pathlib import Path

import majorana as mj
from majorana.serialize import emit_constellation, emit_state

SRC = Path(__file__).resolve().parents[1] / "src"

SCRIPT = """
import sys

import numpy as np

import majorana as mj
import majorana.cli
from majorana import rootfinding
from majorana.kings import SearchConfig, minimize
from majorana.multipoles import multipoles

finishes = []
finish = rootfinding._finish


def counted_finish(*args):
    finishes.append(args)
    return finish(*args)


rootfinding._finish = counted_finish

minimize(4, SearchConfig(M=2, restarts=1))
rng = np.random.default_rng(1)
multipoles(mj.SpinState(20, rng.normal(size=21) + 1j * rng.normal(size=21)))
stars = rng.normal(size=38) + 1j * rng.normal(size=38)
state = mj.state_from_constellation(mj.Constellation(40, np.r_[stars, 0.5j, 0.5j], 0))
mj.state_from_constellation(mj.constellation_from_state(state))
assert finishes, "the double star did not take the per-row path"
# A real 20-fold star: its row's conjugate-closure test sees a 20-point
# cluster, large enough for np.isin to sort.
finishes.clear()
stars = mj.constellation_from_state(mj.coherent_state(20, 0.7))
assert finishes and len(set(stars.finite_roots.tolist())) == 1, stars.finite_roots
h = mj.builtin_hamiltonian(6, "Sx")
mj.evolve(mj.coherent_state(6, 0.4 + 0.2j), h, 0.5, checkpoints=[0.25])
mj.equilibrium_residual(mj.Constellation(6, [0.5, 0.5, 1.0, -1.0, 2.0, 2.0], 0), h)
print(sorted(m for m in sys.modules if m.split(".")[0] == "scipy" or m.split(".")[:2] == ["numpy", "ma"]))
"""


BLAS_THREAD_VARIABLES = ("OPENBLAS_NUM_THREADS", "GOTO_NUM_THREADS", "OMP_NUM_THREADS")


def _fresh_python(*args, env=None):
    """Run python with args in a fresh process that imports the package
    from SRC and makes a RuntimeWarning an error, as the suite does.  The
    child's environment is env, by default this process's."""
    env = dict(os.environ if env is None else env)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(SRC), env.get("PYTHONPATH")]))
    env["PYTHONWARNINGS"] = "error::RuntimeWarning"
    return subprocess.run([sys.executable, *args], env=env, capture_output=True, timeout=120)


def test_import_and_main_paths_load_no_scipy():
    proc = _fresh_python("-c", SCRIPT)
    assert proc.returncode == 0, proc.stderr.decode()
    assert proc.stdout.strip() == b"[]"


def test_module_entry_points_run_the_command(tmp_path):
    """No majorana script need be installed: python -m majorana and python
    -m majorana.cli each print the library's constellation text for a
    state, byte for byte.  The second state's merge check meets a Vieta
    coefficient that underflows to 0 and still exits 0, and so does the
    third, whose companion matrix overflows and whose stars are solved in
    the rotated frame."""
    states = [mj.SpinState(3, [0.3, 0.5j, -0.6, 0.2 + 0.1j]),
              mj.SpinState(12, [1e-300, 0, 0, 0, 0, 0, 1, 0, 0, 0, 0, 0, 1e-300]),
              mj.SpinState(2, [1e-320, 1, 1e-320])]
    for i, st in enumerate(states):
        path = tmp_path / f"state{i}.json"
        path.write_text(emit_state(st))
        want = emit_constellation(mj.constellation_from_state(st)) + "\n"
        for module in ("majorana", "majorana.cli"):
            proc = _fresh_python("-m", module, "stars", str(path))
            assert (proc.returncode, proc.stdout) == (0, want.encode()), proc.stderr.decode()


PIN_SCRIPT = """
import json, os, sys

import majorana

variables = {k: os.environ.get(k) for k in %r}
threads = len(os.listdir("/proc/self/task")) if os.path.isdir("/proc/self/task") else None
print(json.dumps([variables, threads, "numpy" in sys.modules]))
""" % (BLAS_THREAD_VARIABLES,)


def test_import_pins_openblas_to_one_thread_unless_told():
    """With none of OpenBLAS's thread variables set, import majorana sets
    OPENBLAS_NUM_THREADS=1 before numpy loads, so the process holds one
    thread.  A variable the caller set leaves the environment as given."""
    bare = {k: v for k, v in os.environ.items() if k not in BLAS_THREAD_VARIABLES}
    proc = _fresh_python("-c", PIN_SCRIPT, env=bare)
    assert proc.returncode == 0, proc.stderr.decode()
    variables, threads, numpy_loaded = json.loads(proc.stdout)
    assert numpy_loaded
    assert variables == {"OPENBLAS_NUM_THREADS": "1", "GOTO_NUM_THREADS": None, "OMP_NUM_THREADS": None}
    assert threads in (None, 1)
    for given in ({"OPENBLAS_NUM_THREADS": "2"}, {"OMP_NUM_THREADS": "2"}):
        proc = _fresh_python("-c", PIN_SCRIPT, env={**bare, **given})
        assert proc.returncode == 0, proc.stderr.decode()
        variables, _, _ = json.loads(proc.stdout)
        assert variables == {k: given.get(k) for k in BLAS_THREAD_VARIABLES}


def _scipy_imports(node, scope):
    """(scope, module) of each scipy import under node, where scope is the
    module's name dotted with the enclosing function or class names."""
    for child in ast.iter_child_nodes(node):
        if isinstance(child, ast.Import):
            modules = [alias.name for alias in child.names]
        elif isinstance(child, ast.ImportFrom) and child.level == 0:
            modules = [child.module]
        else:
            modules = []
        yield from ((scope, m) for m in modules if m.split(".")[0] == "scipy")
        if isinstance(child, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
            yield from _scipy_imports(child, f"{scope}.{child.name}")
        else:
            yield from _scipy_imports(child, scope)


def test_the_package_imports_scipy_only_to_match_stars():
    """scipy.optimize, imported inside dynamics._matching, is the only scipy
    the package uses; everything else runs on numpy alone."""
    found = [
        hit
        for path in sorted((SRC / "majorana").glob("*.py"))
        for hit in _scipy_imports(ast.parse(path.read_text()), path.stem)
    ]
    assert found == [("dynamics._matching", "scipy.optimize")]


def test_public_names_come_from_the_modules_lists():
    """Each module's __all__ is the one list of its public names: the lists
    are disjoint, the package re-exports each name as the same object, and
    __init__.py spells out none of them."""
    modules = [
        importlib.import_module(f"majorana.{name}")
        for name in ("errors", "stellar", "multipoles", "kings", "dynamics")
    ]
    names = [name for module in modules for name in module.__all__]
    assert len(set(names)) == len(names)
    assert len(set(mj.__all__)) == len(mj.__all__)
    assert sorted(mj.__all__) == sorted(names + ["serialize", "__version__"])
    for module in modules:
        for name in module.__all__:
            assert getattr(mj, name) is getattr(module, name), (module.__name__, name)
    literals = {
        node.value
        for node in ast.walk(ast.parse(Path(mj.__file__).read_text()))
        if isinstance(node, ast.Constant) and isinstance(node.value, str)
    }
    assert not literals & set(names)
