"""Exact stacker crane solver for graphs of fixed topology.

The root exports the pipeline's front door and the oracles used to check it.
Every other piece is imported from its submodule.  The root loads only the
solve path: ``graph_core``, ``circulation``, ``enumeration``,
``homology_tour`` and ``cli_io``.  Its four oracle names
(``brute_force_tour``, ``random_instance``, ``shortest_path`` and
``verify_tour``) load ``oracle`` on first use, through the module
``__getattr__`` (PEP 562).  It does not load ``cli`` (the command line) or
``acceptance`` (the randomized properties and the graph families) either.
"""

from .circulation import Instance, Request
from .cli_io import InstanceFormatError, SolveReport, emit_report, format_instance, parse_instance, solve
from .graph_core import BaseGraph, cycle_rank

__version__ = "0.1.0"


def __getattr__(name: str):
    if name in ("brute_force_tour", "random_instance", "shortest_path", "verify_tour"):
        from . import oracle
        return getattr(oracle, name)
    raise AttributeError(f"module {__name__!r} has no attribute {name!r}")


__all__ = [
    "BaseGraph",
    "Instance",
    "InstanceFormatError",
    "Request",
    "SolveReport",
    "brute_force_tour",
    "cycle_rank",
    "emit_report",
    "format_instance",
    "parse_instance",
    "random_instance",
    "shortest_path",
    "solve",
    "verify_tour",
]
