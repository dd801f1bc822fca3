"""Integer circulations on a base graph with fixed request arcs.

A circulation is a tuple of integer edge flows indexed by edge id, each
signed relative to the edge's forward orientation.  Every request arc
carries exactly its demand, so the arcs need no flows of their own: a
circulation is feasible when the edge flows balance the demands at every
vertex.  Optimizing over feasible circulations relaxes the tour problem:
connectivity is ignored.
"""

from __future__ import annotations

import heapq
import math
from functools import cached_property
from operator import itemgetter, mul
from typing import NamedTuple

from .graph_core import BaseGraph, Cost, FrozenRecord, SegmentGraph


class Request(NamedTuple):
    """Directed transport request from source to target with a unit cost.

    A named tuple, like ``Edge``, so the parser builds one without running a
    Python-level constructor.
    """

    source: int
    target: int
    cost: Cost
    demand: int = 1


class Instance(FrozenRecord):
    """A base graph and its requests.

    ``solve`` sweeps one built on the segment graph of its base graph
    (``segment_instance``); the sweep and the repair read only the
    ``vertex_count``, ``edges`` and ``edge_costs`` both graphs have.
    """

    _fields = ("base", "requests")
    base: BaseGraph | SegmentGraph
    requests: tuple[Request, ...]

    def __init__(self, base: BaseGraph | SegmentGraph, requests: tuple[Request, ...]):
        seen: set[tuple[int, int]] = set()
        n = base.vertex_count
        for r in requests:
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
        object.__setattr__(self, "base", base)
        object.__setattr__(self, "requests", requests)

    @cached_property
    def arc_costs(self) -> tuple[Cost, ...]:
        """Request costs indexed by arc_id."""
        return tuple(map(itemgetter(2), self.requests))

    @cached_property
    def demand_cost(self) -> Cost:
        """Demand times request cost over the arcs, added left to right from 0."""
        return sum(map(mul, map(itemgetter(3), self.requests), self.arc_costs))


Circulation = tuple[int, ...]  # edge flows indexed by edge_id


def segment_instance(instance: Instance, seg: SegmentGraph) -> Instance:
    """The instance on the segment graph of its base graph.

    Every request endpoint must be a segment vertex (``smooth_topology``
    keeps them); requests keep their costs and demands.
    """
    index = {v: i for i, v in enumerate(seg.vertices, 1)}
    requests = tuple(Request(index[r.source], index[r.target], r.cost, r.demand) for r in instance.requests)
    return Instance(seg, requests)


def circulation_cost(instance: Instance, f: Circulation) -> Cost:
    """The cached ``demand_cost``, then |edge flow| times edge cost over the
    edges, added left to right at C level."""
    return sum(map(mul, map(abs, f), instance.base.edge_costs), instance.demand_cost)


def support_pairs(instance: Instance, f: Circulation) -> list[tuple[int, int]]:
    """Endpoints of every edge with nonzero flow, then of every request arc."""
    pairs = [(e.u, e.v) for e, val in zip(instance.base.edges, f) if val]
    pairs += [(r.source, r.target) for r in instance.requests]
    return pairs


def min_cost_circulation(instance: Instance) -> Circulation:
    """Cheapest feasible circulation; connectivity deliberately ignored.

    With every request arc at its demand and edges uncapacitated, only edge
    flows move, and they form a transshipment: every request target holds
    its demand as excess, every request source as deficit, and the edges
    must carry it back.  Successive shortest paths (Ahuja, Magnanti & Orlin,
    *Network Flows*, ch. 9) solve it exactly.  Each round runs one Dijkstra
    from all excess vertices at once over reduced costs c + pi(tail) -
    pi(head), which Johnson potentials pi keep nonnegative, stops at the
    first deficit vertex it settles, and pushes the bottleneck: the smaller
    of the excess and deficit at the two ends and the flow on any refund
    arc along the path.  Every round settles at least one unit of demand,
    so it costs O(rounds * m log n) in all, and the edge costs are the
    weights: ``solve`` hands it integers.  Heap entries are (distance,
    vertex) and neighbours are scanned in ascending order, so ties, and
    with them the optimum returned, are deterministic.
    """
    graph = instance.base
    n = graph.vertex_count
    weight = graph.edge_costs
    adjacency = graph.adjacency

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
        best = [math.inf] * (n + 1)
        pred: list[tuple[int, int, int] | None] = [None] * (n + 1)
        settled: list[int] = []  # every vertex settled before the sink
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
            settled.append(v)
            dv = d + pot[v]
            for w, eid in adjacency[v]:
                if dist[w] >= 0:
                    continue
                # sign: effect of one unit pushed v -> w on the signed edge flow
                # (forward from the lower end); against existing flow the push
                # is a refund and costs -c
                sign = 1 if v < w else -1
                c = -weight[eid] if sign * flows[eid] < 0 else weight[eid]
                nd = dv + c - pot[w]
                if nd < best[w]:
                    best[w] = nd
                    pred[w] = (v, eid, sign)
                    push(heap, (nd, w))
        else:
            raise ValueError("graph not connected")
        # adding each vertex's distance, capped at the sink's, keeps every
        # reduced cost nonnegative; only differences of potentials count, so
        # subtracting the cap from all of them leaves the unsettled ones as
        # they are
        for v in settled:
            pot[v] += dist[v] - reach

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
    return tuple(flows)
