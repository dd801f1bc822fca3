"""Integer circulations on a base graph with fixed request arcs.

A circulation assigns an integer flow to every edge (signed, relative to the
edge's forward orientation) and to every request arc.  Feasible circulations
pin each arc flow to its demand, so optimizing over them relaxes the tour
problem: connectivity is ignored.
"""

from __future__ import annotations

import heapq
import math
from collections.abc import Iterable
from functools import cached_property
from itertools import chain
from operator import itemgetter, mul
from typing import NamedTuple

from .graph_core import BaseGraph, Cost, CycleBasis, FrozenRecord, SegmentGraph, component_roots, rooted_tree


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


class Circulation(NamedTuple):
    """Edge and arc flows, indexed by edge_id and arc_id (request position).

    An immutable value that compares and hashes by its two flow tuples.  It
    is a named tuple because the sweep builds one per box point:
    ``tuple.__new__(Circulation, (edge_flow, arc_flow))`` runs no
    Python-level constructor.
    """

    edge_flow: tuple[int, ...]
    arc_flow: tuple[int, ...]


def zero_circulation(instance: Instance) -> Circulation:
    return Circulation((0,) * len(instance.base.edges), (0,) * len(instance.requests))


def _conserves(vertex_count: int, flows: Iterable[tuple[int, int, int]]) -> bool:
    """True when the (tail, head, flow) triples leave every vertex balanced."""
    bal = [0] * (vertex_count + 1)
    for u, v, x in flows:
        bal[u] += x
        bal[v] -= x
    return not any(bal)


def edge_flow_conserves(graph: BaseGraph, edge_flow: tuple[int, ...]) -> bool:
    return _conserves(graph.vertex_count, ((e.u, e.v, edge_flow[eid]) for eid, e in enumerate(graph.edges)))


def is_feasible(instance: Instance, f: Circulation) -> bool:
    """Conservation at every vertex and arc flows equal to demands."""
    if len(f.edge_flow) != len(instance.base.edges):
        return False
    if len(f.arc_flow) != len(instance.requests):
        return False
    if any(f.arc_flow[aid] != r.demand for aid, r in enumerate(instance.requests)):
        return False
    edges = ((e.u, e.v, x) for e, x in zip(instance.base.edges, f.edge_flow))
    arcs = ((r.source, r.target, x) for r, x in zip(instance.requests, f.arc_flow))
    return _conserves(instance.base.vertex_count, chain(edges, arcs))


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

    Both sums run at C level.  Costs are exact, so the total does not
    depend on the order of the terms.
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
    so it costs O(rounds * m log n) in all, and the edge costs are the
    weights: ``solve`` hands it integers.  Heap entries are (distance,
    vertex) and neighbours are scanned in ascending order, so ties, and
    with them the optimum returned, are deterministic.
    """
    graph = instance.base
    demands = tuple(map(itemgetter(3), instance.requests))
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
    return Circulation(tuple(flows), demands)
