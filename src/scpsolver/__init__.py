"""Exact stacker crane solver for graphs of fixed topology.

The root exports the pipeline's front door and the oracles used to check it.
Every other piece is imported from its submodule: ``graph_core``,
``circulation``, ``enumeration``, ``homology_tour``, ``oracle`` and
``cli_io``.
"""

from .circulation import Instance, Request
from .cli_io import InstanceFormatError, SolveReport, emit_report, format_instance, parse_instance, solve
from .graph_core import BaseGraph, cycle_rank, shortest_path
from .oracle import brute_force_tour, random_instance, verify_tour

__version__ = "0.1.0"

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
