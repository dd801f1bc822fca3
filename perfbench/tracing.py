"""In-memory span recorder and the wrappers that feed it.

A span is one call into a layer: name, start, end, parent span and the id of
the solve it belongs to.  Spans live in flat arrays while the benchmark runs
and are written out once at the end.  Wrappers are installed by patching
module attributes, from the benchmark's side only; the package itself
carries no tracing code.  They are installed only in the traced worker, never
in a process that measures end-to-end metrics.
"""

from __future__ import annotations

import functools
import inspect
import json
from array import array
from collections import Counter
from contextlib import contextmanager
from time import perf_counter_ns
from typing import Callable, Iterator

from scpsolver import cli_io, homology_tour

# Module attributes wrapped for the traced run.  The cli_io names are the ones
# `solve` looks up at call time, plus the three calls of the benchmark's own
# text -> JSON path; the homology_tour names are the ones connectivity_repair
# looks up.
TRACED = (
    (cli_io, "parse_instance"),
    (cli_io, "solve"),
    (cli_io, "emit_report"),
    (cli_io, "smooth_topology"),
    (cli_io, "spanning_tree"),
    (cli_io, "fundamental_cycles"),
    (cli_io, "min_cost_circulation"),
    (cli_io, "gray_code_lambdas"),
    (cli_io, "enumerate_candidates"),
    (cli_io, "circulation_cost"),
    (cli_io, "connectivity_repair"),
    (cli_io, "build_euler_multigraph"),
    (cli_io, "euler_tour"),
    (homology_tour, "contract_support"),
    (homology_tour, "steiner_preprocess"),
    (homology_tour, "min_steiner_tree"),
)


def _subsets(args: tuple, result) -> tuple[str, int]:
    graph, terminals = args[0], args[1]
    return "homology_tour.steiner_subsets", 2 ** (len(graph.vertices) - len(terminals))


# Work counters read off a wrapped call: name -> f(args, result) -> (counter, amount).
COUNTERS: dict[str, Callable[[tuple, object], tuple[str, int]]] = {
    "homology_tour.min_steiner_tree": _subsets,
    "homology_tour.euler_tour": lambda args, result: ("homology_tour.euler_arcs", len(args[0].arcs)),
    "cli_io.emit_report": lambda args, result: ("cli_io.emit_report.bytes", len(result.encode())),
}
# Generators whose yields are counted: name -> counter.
YIELD_COUNTERS = {"enumeration.enumerate_candidates": "enumeration.candidates"}


class SpanRecorder:
    """Spans as parallel arrays; a span's id is its index."""

    def __init__(self, clock: Callable[[], int] = perf_counter_ns):
        self.clock = clock
        self.names: list[str] = []
        self._name_ids: dict[str, int] = {}
        self.name = array("H")
        self.start = array("q")
        self.end = array("q")
        self.parent = array("i")
        self.solve = array("i")
        self.counts: Counter[str] = Counter()
        self.solve_id = -1
        self._stack: list[int] = []

    def open(self, name: str) -> int:
        nid = self._name_ids.get(name)
        if nid is None:
            nid = self._name_ids[name] = len(self.names)
            self.names.append(name)
        sid = len(self.start)
        self.name.append(nid)
        self.parent.append(self._stack[-1] if self._stack else -1)
        self.solve.append(self.solve_id)
        self.end.append(0)
        self._stack.append(sid)
        self.start.append(self.clock())
        return sid

    def close(self, sid: int) -> None:
        self.end[sid] = self.clock()
        if self._stack.pop() != sid:
            raise RuntimeError("spans closed out of order")

    def self_ns(self) -> dict[str, int]:
        """Per name: total span time minus the time its child spans cover.

        Spans nest (one thread, no overlap between siblings), so a span's
        children cover exactly the sum of their durations.
        """
        child = array("q", bytes(8 * len(self.start)))
        for sid, parent in enumerate(self.parent):
            if parent >= 0:
                child[parent] += self.end[sid] - self.start[sid]
        totals: Counter[str] = Counter()
        for sid, nid in enumerate(self.name):
            totals[self.names[nid]] += self.end[sid] - self.start[sid] - child[sid]
        return dict(totals)

    def calls(self) -> dict[str, int]:
        """Number of spans per name."""
        per_id = Counter(self.name)
        return {self.names[nid]: count for nid, count in per_id.items()}

    def dump(self, path: str) -> None:
        """Write every span: one JSON header line, then the raw columns."""
        columns = (self.name, self.start, self.end, self.parent, self.solve)
        header = {
            "names": self.names,
            "columns": ["name", "start_ns", "end_ns", "parent", "solve"],
            "typecodes": [c.typecode for c in columns],
            "count": len(self.start),
        }
        with open(path, "wb") as fh:
            fh.write(json.dumps(header).encode() + b"\n")
            for column in columns:
                column.tofile(fh)


def load_spans(path: str) -> tuple[list[str], dict[str, array]]:
    """Read back a file written by SpanRecorder.dump."""
    with open(path, "rb") as fh:
        header = json.loads(fh.readline())
        columns = {}
        for name, code in zip(header["columns"], header["typecodes"]):
            column = array(code)
            column.fromfile(fh, header["count"])
            columns[name] = column
    return header["names"], columns


def wrap(rec: SpanRecorder, fn: Callable) -> Callable:
    """Record a span per call, or per next() for a generator function.

    The span is named ``<module>.<function>``, e.g. ``circulation.circulation_cost``.
    """
    name = f"{fn.__module__.rsplit('.', 1)[-1]}.{fn.__name__}"
    counter = COUNTERS.get(name)

    if inspect.isgeneratorfunction(fn):
        yields = YIELD_COUNTERS.get(name)

        def timed(it: Iterator) -> Iterator:
            while True:
                sid = rec.open(name)
                try:
                    item = next(it)
                except StopIteration:
                    return
                finally:
                    rec.close(sid)
                if yields:
                    rec.counts[yields] += 1
                yield item

        @functools.wraps(fn)
        def gen_wrapper(*args, **kwargs):
            return timed(fn(*args, **kwargs))

        return gen_wrapper

    @functools.wraps(fn)
    def wrapper(*args, **kwargs):
        sid = rec.open(name)
        try:
            result = fn(*args, **kwargs)
        finally:
            rec.close(sid)
        if counter:
            key, amount = counter(args, result)
            rec.counts[key] += amount
        return result

    return wrapper


@contextmanager
def installed(rec: SpanRecorder):
    """Patch every TRACED attribute with a recording wrapper; restore them on exit."""
    saved = []
    try:
        for module, attr in TRACED:
            fn = getattr(module, attr)
            saved.append((module, attr, fn))
            setattr(module, attr, wrap(rec, fn))
        yield rec
    finally:
        for module, attr, fn in reversed(saved):
            setattr(module, attr, fn)
