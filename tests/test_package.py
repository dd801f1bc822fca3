import scpsolver
from scpsolver import graph_core

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
