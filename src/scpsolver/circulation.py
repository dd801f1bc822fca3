"""Integer circulations on a base graph with fixed request arcs.

A circulation assigns an integer flow to every edge (signed, relative to the
edge's forward orientation) and to every request arc.  Feasible circulations
pin each arc flow to its demand, so optimizing over them relaxes the tour
problem: connectivity is ignored.
"""

from __future__ import annotations

import heapq
import math
from dataclasses import dataclass
from functools import cached_property
from operator import mul
from typing import NamedTuple

from .graph_core import BaseGraph, Cost, CycleBasis, SegmentGraph, component_roots, rooted_tree


@dataclass(frozen=True)
class Request:
    """Directed transport request from source to target with a unit cost."""

    source: int
    target: int
    cost: Cost
    demand: int = 1


@dataclass(frozen=True)
class Instance:
    """A base graph and its requests.

    ``solve`` sweeps one built on the segment graph of its base graph
    (``segment_instance``); the sweep and the repair read only the
    ``vertex_count``, ``edges`` and ``edge_costs`` both graphs have.
    """

    base: BaseGraph | SegmentGraph
    requests: tuple[Request, ...]

    def __post_init__(self) -> None:
        seen: set[tuple[int, int]] = set()
        n = self.base.vertex_count
        for r in self.requests:
            if not (1 <= r.source <= n and 1 <= r.target <= n):
                raise ValueError(f"request endpoint out of range: {r}")
            if r.source == r.target:
                raise ValueError(f"request with equal endpoints: {r}")
            if r.cost < 0:
                raise ValueError(f"negative request cost: {r}")
            if r.demand < 1:
                raise ValueError(f"request demand must be positive: {r}")
            if (r.source, r.target) in seen:
                raise ValueError(f"duplicate request pair: {r}")
            seen.add((r.source, r.target))

    @cached_property
    def arc_costs(self) -> tuple[Cost, ...]:
        """Request costs indexed by arc_id."""
        return tuple(r.cost for r in self.requests)


class Circulation(NamedTuple):
    """Edge and arc flows, indexed by edge_id and arc_id (request position).

    An immutable value that compares and hashes by its two flow tuples.  It
    is a named tuple, not a dataclass, because the sweep builds one per box
    point: ``tuple.__new__(Circulation, (edge_flow, arc_flow))`` runs no
    Python-level constructor.
    """

    edge_flow: tuple[int, ...]
    arc_flow: tuple[int, ...]


def zero_circulation(instance: Instance) -> Circulation:
    return Circulation((0,) * len(instance.base.edges), (0,) * len(instance.requests))


def _vertex_balance(instance: Instance, f: Circulation) -> dict[int, int | float]:
    """Net outflow per vertex; zero everywhere means conservation."""
    bal: dict[int, int | float] = {v: 0 for v in range(1, instance.base.vertex_count + 1)}
    for eid, e in enumerate(instance.base.edges):
        bal[e.u] += f.edge_flow[eid]
        bal[e.v] -= f.edge_flow[eid]
    for aid, r in enumerate(instance.requests):
        bal[r.source] += f.arc_flow[aid]
        bal[r.target] -= f.arc_flow[aid]
    return bal


def edge_flow_conserves(graph: BaseGraph, edge_flow: tuple[int, ...]) -> bool:
    bal = {v: 0 for v in range(1, graph.vertex_count + 1)}
    for eid, e in enumerate(graph.edges):
        bal[e.u] += edge_flow[eid]
        bal[e.v] -= edge_flow[eid]
    return all(b == 0 for b in bal.values())


def is_feasible(instance: Instance, f: Circulation) -> bool:
    """Conservation at every vertex and arc flows equal to demands."""
    if len(f.edge_flow) != len(instance.base.edges):
        return False
    if len(f.arc_flow) != len(instance.requests):
        return False
    if any(f.arc_flow[aid] != r.demand for aid, r in enumerate(instance.requests)):
        return False
    return all(b == 0 for b in _vertex_balance(instance, f).values())


def segment_instance(instance: Instance, seg: SegmentGraph) -> Instance:
    """The instance on the segment graph of its base graph.

    Every request endpoint must be a segment vertex (``smooth_topology``
    keeps them); requests keep their costs and demands.
    """
    index = {v: i for i, v in enumerate(seg.vertices, 1)}
    requests = tuple(Request(index[r.source], index[r.target], r.cost, r.demand) for r in instance.requests)
    return Instance(seg, requests)


def circulation_cost(instance: Instance, f: Circulation) -> Cost:
    """Arc flow times request cost over the arcs, then |edge flow| times edge
    cost over the edges, added left to right from 0.

    Both sums run at C level.  On Python 3.10 and 3.11 they add the same
    terms in the same order as an interpreted loop, so int and float totals
    are bit-identical to it.  Python 3.12 compensates float ``sum``, so
    there a float total may differ from the loop's in the last bits; CI
    runs 3.10 and 3.11 only.
    """
    arcs = sum(map(mul, f.arc_flow, instance.arc_costs))
    return sum(map(mul, map(abs, f.edge_flow), instance.base.edge_costs), arcs)


def support_pairs(instance: Instance, f: Circulation) -> list[tuple[int, int]]:
    """Endpoints of every edge, then every request arc, with nonzero flow."""
    pairs = [(e.u, e.v) for e, val in zip(instance.base.edges, f.edge_flow) if val]
    pairs += [(r.source, r.target) for r, val in zip(instance.requests, f.arc_flow) if val]
    return pairs


def support_connected(instance: Instance, f: Circulation) -> bool:
    """True when the nonzero edges and arcs form one connected subgraph."""
    pairs = support_pairs(instance, f)
    roots = component_roots(instance.base.vertex_count + 1, pairs)
    return len({roots[u] for u, _ in pairs}) <= 1


def initial_circulation(instance: Instance, basis: CycleBasis) -> Circulation:
    """Feasible start: each demand returns along the spanning tree path."""
    graph = instance.base
    rooted = rooted_tree(graph, basis.tree)
    flows = [0] * len(graph.edges)
    for r in instance.requests:
        # subtracting d along source->target equals routing d back through the tree
        for x, _, eid in rooted.path(r.source, r.target):
            if x == graph.edges[eid].u:
                flows[eid] -= r.demand
            else:
                flows[eid] += r.demand
    return Circulation(tuple(flows), tuple(r.demand for r in instance.requests))


def min_cost_circulation(instance: Instance) -> Circulation:
    """Cheapest feasible circulation; connectivity deliberately ignored.

    With arc flows pinned at the demands and edges uncapacitated, only edge
    flows move, and they form a transshipment: every request target holds
    its demand as excess, every request source as deficit, and the edges
    must carry it back.  Successive shortest paths (Ahuja, Magnanti & Orlin,
    *Network Flows*, ch. 9) solve it exactly.  Each round runs one Dijkstra
    from all excess vertices at once over reduced costs c + pi(tail) -
    pi(head), which Johnson potentials pi keep nonnegative, stops at the
    first deficit vertex it settles, and pushes the bottleneck: the smaller
    of the excess and deficit at the two ends and the flow on any refund
    arc along the path.  Every round settles at least one unit of demand,
    so it costs O(rounds * m log n) in all, and all arithmetic is on
    integers.  Heap entries are (distance, vertex) and neighbours are
    scanned in ascending order, so ties, and with them the optimum
    returned, are deterministic.
    """
    graph = instance.base
    demands = tuple(r.demand for r in instance.requests)
    n = graph.vertex_count
    # Float costs are dyadic rationals, so one common denominator turns every
    # cost into an exact integer weight (the scale is 1 for integer costs).
    ratios = [e.cost.as_integer_ratio() for e in graph.edges]
    scale = math.lcm(*(den for _, den in ratios))
    weight = [num * (scale // den) for num, den in ratios]
    adjacency = graph.adjacency
    tails = [e.u for e in graph.edges]

    excess = [0] * (n + 1)
    for r in instance.requests:
        excess[r.target] += r.demand
        excess[r.source] -= r.demand
    flows = [0] * len(graph.edges)
    pot = [0] * (n + 1)
    sources = [v for v in range(1, n + 1) if excess[v] > 0]
    pop, push = heapq.heappop, heapq.heappush
    while sources:
        # per vertex: settled distance (-1 until settled; reduced distances
        # are nonnegative), best tentative distance, and (previous vertex,
        # edge id, sign) of the best path found
        dist = [-1] * (n + 1)
        best: list[float] = [math.inf] * (n + 1)
        pred: list[tuple[int, int, int] | None] = [None] * (n + 1)
        heap = [(0, v) for v in sources]
        for v in sources:
            best[v] = 0
        while heap:
            d, v = pop(heap)
            if dist[v] >= 0:
                continue
            dist[v] = d
            if excess[v] < 0:
                sink, reach = v, d
                break
            dv = d + pot[v]
            for w, eid in adjacency[v]:
                if dist[w] >= 0:
                    continue
                # sign: effect of one unit pushed v -> w on the signed edge flow;
                # against existing flow the push is a refund and costs -c
                sign = 1 if v == tails[eid] else -1
                c = -weight[eid] if sign * flows[eid] < 0 else weight[eid]
                nd = dv + c - pot[w]
                if nd < best[w]:
                    best[w] = nd
                    pred[w] = (v, eid, sign)
                    push(heap, (nd, w))
        else:
            raise ValueError("graph not connected")
        # capping at the sink's distance keeps every reduced cost nonnegative
        pot = [p + (d if d >= 0 else reach) for p, d in zip(pot, dist)]

        path: list[tuple[int, int]] = []
        v = sink
        delta = -excess[sink]
        while pred[v] is not None:
            v, eid, sign = pred[v]
            path.append((eid, sign))
            if sign * flows[eid] < 0:
                delta = min(delta, -sign * flows[eid])
        delta = min(delta, excess[v])
        for eid, sign in path:
            flows[eid] += sign * delta
        excess[v] -= delta
        excess[sink] += delta
        sources = [v for v in sources if excess[v] > 0]
    return Circulation(tuple(flows), demands)


def decompose(graph: BaseGraph, f: Circulation) -> list[tuple[int, dict[int, int]]]:
    """Split edge flows into at most cycle_rank(supp) unit cycle flows.

    Returns (value, cycle) pairs where cycle maps edge_id -> +1/-1 and the
    weighted cycles sum back to the input exactly.  Arc flows are ignored.
    """
    if not edge_flow_conserves(graph, f.edge_flow):
        raise ValueError("edge flows do not conserve")
    flows = list(f.edge_flow)
    parts: list[tuple[int, dict[int, int]]] = []
    while True:
        out: dict[int, list[tuple[int, int]]] = {}
        for eid, val in enumerate(flows):
            if val == 0:
                continue
            e = graph.edges[eid]
            tail, head = (e.u, e.v) if val > 0 else (e.v, e.u)
            out.setdefault(tail, []).append((head, eid))
        if not out:
            break
        for lst in out.values():
            lst.sort()
        # walk the nonzero-flow digraph; conservation guarantees a way out of
        # every vertex entered, so a vertex repeats within n steps
        start = min(out)
        order = {start: 0}
        walk: list[tuple[int, int]] = []
        v = start
        while True:
            head, eid = out[v][0]
            walk.append((v, eid))
            if head in order:
                cycle = walk[order[head]:]
                break
            order[head] = len(walk)
            v = head
        value = min(abs(flows[eid]) for _, eid in cycle)
        unit: dict[int, int] = {}
        for x, eid in cycle:
            sign = 1 if x == graph.edges[eid].u else -1
            unit[eid] = sign
            flows[eid] -= sign * value
        parts.append((value, unit))
    return parts


def is_elementary(graph: BaseGraph, f: Circulation) -> bool:
    """False exactly when f contains a cycle flow of value 2.

    Equivalent test: orient every edge with |flow| >= 2 along its flow sign;
    elementary means that digraph is acyclic.
    """
    out: dict[int, list[int]] = {}
    for eid, val in enumerate(f.edge_flow):
        if abs(val) < 2:
            continue
        e = graph.edges[eid]
        tail, head = (e.u, e.v) if val > 0 else (e.v, e.u)
        out.setdefault(tail, []).append(head)
    color: dict[int, int] = {}
    for start in out:
        if color.get(start, 0) != 0:
            continue
        stack: list[tuple[int, int]] = [(start, 0)]
        color[start] = 1
        while stack:
            v, i = stack[-1]
            succ = out.get(v, ())
            if i < len(succ):
                stack[-1] = (v, i + 1)
                w = succ[i]
                if color.get(w, 0) == 1:
                    return False
                if color.get(w, 0) == 0:
                    color[w] = 1
                    stack.append((w, 0))
            else:
                color[v] = 2
                stack.pop()
    return True
