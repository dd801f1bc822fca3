import ast
import importlib
import os
import re
import subprocess
import sys

import pytest

import scpsolver
from scpsolver import circulation, cli, graph_core, homology_tour, oracle

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


LAZY_NAMES = ("brute_force_tour", "random_instance", "shortest_path", "verify_tour")

# the functions solve never calls, moved from the solve modules to oracle
MOVED_TO_ORACLE = {
    graph_core: ("shortest_path", "_shortest_path_carrying_paths"),
    circulation: (
        "zero_circulation",
        "_conserves",
        "edge_flow_conserves",
        "is_feasible",
        "initial_circulation",
        "support_connected",
    ),
    homology_tour: ("tour_in_class",),
}

SOLVE_MODULES = ("graph_core", "circulation", "enumeration", "homology_tour", "cli_io")


def test_lazy_root_names_are_the_oracle_functions():
    for name in LAZY_NAMES:
        assert getattr(scpsolver, name) is getattr(oracle, name)


def test_unknown_root_attribute_raises_attribute_error():
    with pytest.raises(AttributeError, match="no attribute 'oracle_of_delphi'"):
        scpsolver.oracle_of_delphi
    assert not hasattr(scpsolver, "brute_force_circulation")  # in oracle, not a root name


def test_removed_wrappers_stay_removed():
    assert not hasattr(graph_core, "tree_path")
    assert not hasattr(graph_core.BaseGraph, "degree")
    for module, names in MOVED_TO_ORACLE.items():
        for name in names:
            assert not hasattr(module, name), (module.__name__, name)
            assert callable(getattr(oracle, name))


def imported_names(source: str) -> list[str]:
    """Every name an ``import`` or ``from`` statement in the source binds, spelled
    in full from the top-level package (``from .x import y`` in scpsolver is
    ``scpsolver.x.y``)."""
    names = []
    for node in ast.walk(ast.parse(source)):
        if isinstance(node, ast.Import):
            names += [alias.name for alias in node.names]
        elif isinstance(node, ast.ImportFrom):
            package = ".".join(filter(None, ["scpsolver" if node.level else "", node.module]))
            names += [f"{package}.{alias.name}" for alias in node.names]
    return names


def test_imported_names_spell_relative_imports_in_full():
    source = "import heapq\nfrom . import oracle\nfrom .oracle import is_feasible\nfrom scpsolver.cli import main\n"
    assert imported_names(source) == ["heapq", "scpsolver.oracle", "scpsolver.oracle.is_feasible", "scpsolver.cli.main"]


def test_solve_modules_import_nothing_from_the_harness():
    src = os.path.dirname(os.path.abspath(scpsolver.__file__))
    harness = ("scpsolver.oracle", "scpsolver.acceptance", "scpsolver.cli")
    for module in SOLVE_MODULES:
        with open(os.path.join(src, module + ".py"), encoding="utf-8") as fh:
            names = imported_names(fh.read())
        for name in names:
            assert not any(name == h or name.startswith(h + ".") for h in harness), (module, name)


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
    assert not loaded & {"argparse", "dataclasses", "inspect", "scpsolver.cli", "scpsolver.acceptance", "scpsolver.oracle"}


def test_installed_script_runs_cli_main():
    # a text match: Python 3.10 has no tomllib
    with open(os.path.join(ROOT, "pyproject.toml"), encoding="utf-8") as fh:
        text = fh.read()
    scripts = text.split("[project.scripts]", 1)[1].split("\n[", 1)[0]
    (target,) = re.findall(r'^scpsolver\s*=\s*"([\w.]+):(\w+)"\s*$', scripts, re.M)
    module, name = target
    assert getattr(importlib.import_module(module), name) is cli.main
