import importlib
import os
import re
import subprocess
import sys

import scpsolver
from scpsolver import cli, graph_core

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))

ROOT_NAMES = {
    "BaseGraph",
    "Instance",
    "Request",
    "InstanceFormatError",
    "SolveReport",
    "parse_instance",
    "solve",
    "emit_report",
    "format_instance",
    "cycle_rank",
    "shortest_path",
    "random_instance",
    "brute_force_tour",
    "verify_tour",
}


def test_package_root_exports_only_the_front_door_and_oracles():
    assert len(scpsolver.__all__) == len(ROOT_NAMES)
    assert set(scpsolver.__all__) == ROOT_NAMES
    namespace: dict = {}
    exec("from scpsolver import *", namespace)
    assert ROOT_NAMES <= namespace.keys()
    assert all(callable(getattr(scpsolver, name)) for name in ROOT_NAMES)


def test_removed_wrappers_stay_removed():
    assert not hasattr(graph_core, "tree_path")
    assert not hasattr(graph_core.BaseGraph, "degree")


def _fresh_python(*args: str) -> subprocess.CompletedProcess:
    """Run a new interpreter with only the package's sources on its path."""
    src = os.path.dirname(os.path.dirname(os.path.abspath(scpsolver.__file__)))
    env = dict(os.environ, PYTHONPATH=src)
    return subprocess.run([sys.executable, *args], capture_output=True, env=env, timeout=60)


def test_import_loads_only_the_solve_path():
    # -S: no site hooks, so every module listed was loaded by the import itself
    code = "import sys, scpsolver; print(' '.join(sorted(sys.modules)))"
    proc = _fresh_python("-S", "-c", code)
    assert proc.returncode == 0, proc.stderr
    loaded = set(proc.stdout.decode().split())
    assert "scpsolver.cli_io" in loaded
    assert not loaded & {"argparse", "dataclasses", "inspect", "scpsolver.cli", "scpsolver.acceptance"}


def test_installed_script_runs_cli_main():
    # a text match: Python 3.10 has no tomllib
    with open(os.path.join(ROOT, "pyproject.toml"), encoding="utf-8") as fh:
        text = fh.read()
    scripts = text.split("[project.scripts]", 1)[1].split("\n[", 1)[0]
    (target,) = re.findall(r'^scpsolver\s*=\s*"([\w.]+):(\w+)"\s*$', scripts, re.M)
    module, name = target
    assert getattr(importlib.import_module(module), name) is cli.main
