"""Brute-force oracles, tour verification, and instance generators.

Everything here is deliberately independent of the solver pipeline: tours
are found by trying cyclic orders, circulations by sweeping a coefficient
box, Steiner trees by Prim over vertex subsets.  Guards raise on inputs too
large to sweep so nothing silently truncates.
"""

from __future__ import annotations

import heapq
import itertools
from typing import NamedTuple

from .circulation import (
    Circulation,
    Instance,
    Request,
    circulation_cost,
    initial_circulation,
)
from .graph_core import BaseGraph, Cost, CycleBasis, shortest_path
from .homology_tour import KIND_EDGE, KIND_REQUEST, ReducedGraph, Step, Tour

_MASK64 = (1 << 64) - 1


class SplitMix64:
    """Tiny deterministic PRNG; every stream is replayable from its seed."""

    def __init__(self, seed: int):
        self._state = seed & _MASK64

    def next64(self) -> int:
        self._state = (self._state + 0x9E3779B97F4A7C15) & _MASK64
        z = self._state
        z = ((z ^ (z >> 30)) * 0xBF58476D1CE4E5B9) & _MASK64
        z = ((z ^ (z >> 27)) * 0x94D049BB133111EB) & _MASK64
        return z ^ (z >> 31)

    def randint(self, lo: int, hi: int) -> int:
        """Uniform-ish integer in [lo, hi], inclusive."""
        if hi < lo:
            raise ValueError("empty range")
        return lo + self.next64() % (hi - lo + 1)

    def choice(self, seq):
        return seq[self.randint(0, len(seq) - 1)]


class OracleResult(NamedTuple):
    cost: Cost
    witness: object
    nodes_explored: int


class TourCheck(NamedTuple):
    valid: bool
    reason: str | None
    cost: Cost | None
    circulation: Circulation | None


def brute_force_tour(instance: Instance) -> OracleResult:
    """Optimal tour by trying every cyclic order of the request copies.

    Between consecutive requests the tour travels a shortest path, which is
    optimal because deadheading has no side constraints.  The first copy is
    pinned to kill rotational symmetry.
    """
    total_demand = sum(r.demand for r in instance.requests)
    if total_demand > 8:
        raise ValueError("instance too large for oracle")
    if total_demand == 0:
        return OracleResult(0, Tour((), 0), 0)

    copies: list[tuple[Request, int]] = []
    for aid, r in enumerate(instance.requests):
        copies.extend([(r, aid)] * r.demand)

    sp_cache: dict[tuple[int, int], tuple[Cost, tuple[int, ...]]] = {}

    def sp(u: int, v: int) -> tuple[Cost, tuple[int, ...]]:
        if (u, v) not in sp_cache:
            sp_cache[(u, v)] = shortest_path(instance.base, u, v)
        return sp_cache[(u, v)]

    best_cost: Cost | None = None
    best_order: tuple[tuple[Request, int], ...] | None = None
    count = 0
    for perm in itertools.permutations(copies[1:]):
        order = (copies[0],) + perm
        count += 1
        cost: Cost = 0
        for i, (r, _) in enumerate(order):
            nxt = order[(i + 1) % len(order)][0]
            cost += r.cost + sp(r.target, nxt.source)[0]
        if best_cost is None or cost < best_cost:
            best_cost, best_order = cost, order

    pair_to_edge = {}
    for eid, e in enumerate(instance.base.edges):
        pair_to_edge[(e.u, e.v)] = eid
        pair_to_edge[(e.v, e.u)] = eid
    steps: list[Step] = []
    for i, (r, aid) in enumerate(best_order):
        steps.append(Step(KIND_REQUEST, r.source, r.target, aid))
        nxt = best_order[(i + 1) % len(best_order)][0]
        path = sp(r.target, nxt.source)[1]
        for x, y in zip(path, path[1:]):
            steps.append(Step(KIND_EDGE, x, y, pair_to_edge[(x, y)]))
    tour = Tour(tuple(steps), best_cost)
    return OracleResult(best_cost, tour, count)


def brute_force_circulation(instance: Instance, basis: CycleBasis) -> OracleResult:
    """Optimal circulation by sweeping cycle coefficients over a box.

    The box [-D, D]^r starts at D = total demand and doubles whenever the
    argmin touches the boundary, so the reported optimum is never clipped.
    """
    r = len(basis.non_tree_edges)
    if r > 4:
        raise ValueError("instance too large for oracle")
    f0 = initial_circulation(instance, basis)
    base_cost = circulation_cost(instance, f0)
    if r == 0:
        return OracleResult(base_cost, f0, 1)

    cycles = [sorted(c.items()) for c in basis.cycles]
    count = 0
    box = max(1, sum(req.demand for req in instance.requests))
    while True:
        best: tuple[Cost, int, tuple[int, ...], Circulation] | None = None
        for lam in itertools.product(range(-box, box + 1), repeat=r):
            count += 1
            flows = list(f0.edge_flow)
            for i, coeff in enumerate(lam):
                if coeff:
                    for eid, val in cycles[i]:
                        flows[eid] += coeff * val
            cand = Circulation(tuple(flows), f0.arc_flow)
            cost = circulation_cost(instance, cand)
            key = (cost, max(abs(x) for x in lam), lam)
            if best is None or key < (best[0], best[1], best[2]):
                best = (cost, key[1], lam, cand)
        if best[1] < box:
            return OracleResult(best[0], best[3], count)
        if box > 1 << 20:
            raise RuntimeError("coefficient box grew without bound")
        box *= 2


def brute_force_steiner(graph: ReducedGraph, terminals: frozenset[int]) -> OracleResult:
    """Exact Steiner tree: Prim MST over every subset of non-terminals."""
    if len(graph.vertices) > 12:
        raise ValueError("instance too large for oracle")
    if not terminals:
        raise ValueError("terminal set is empty")
    if not terminals <= set(graph.vertices):
        raise ValueError("terminal not present in graph")
    if len(terminals) == 1:
        return OracleResult(0, frozenset(), 1)

    others = sorted(set(graph.vertices) - terminals)
    incidence: dict[int, list[tuple[Cost, int, int]]] = {v: [] for v in graph.vertices}
    for idx, (u, v, w, _) in enumerate(graph.edges):
        incidence[u].append((w, idx, v))
        incidence[v].append((w, idx, u))

    best: tuple[Cost, frozenset[int]] | None = None
    count = 0
    for mask in range(1 << len(others)):
        count += 1
        nodes = set(terminals)
        for i, v in enumerate(others):
            if mask >> i & 1:
                nodes.add(v)
        start = min(nodes)
        seen = {start}
        heap = [item for item in incidence[start] if item[2] in nodes]
        heapq.heapify(heap)
        weight: Cost = 0
        chosen: list[int] = []
        while heap and len(seen) < len(nodes):
            w, idx, v = heapq.heappop(heap)
            if v in seen:
                continue
            seen.add(v)
            weight += w
            chosen.append(idx)
            for item in incidence[v]:
                if item[2] in nodes and item[2] not in seen:
                    heapq.heappush(heap, item)
        if len(seen) != len(nodes):
            continue
        if best is None or weight < best[0]:
            origins: set[int] = set()
            for i in chosen:
                origins.update(graph.edges[i][3])
            best = (weight, frozenset(origins))
    if best is None:
        raise ValueError("terminals cannot be connected")
    return OracleResult(best[0], best[1], count)


def verify_tour(instance: Instance, tour: Tour) -> TourCheck:
    """Replay a tour against the instance, recomputing cost and class."""
    graph = instance.base
    if not tour.steps:
        if instance.requests:
            return TourCheck(False, "empty tour but requests exist", None, None)
        if tour.total != 0:
            return TourCheck(False, "empty tour with nonzero total", None, None)
        zero = Circulation((0,) * len(graph.edges), ())
        return TourCheck(True, None, 0, zero)

    edge_flow = [0] * len(graph.edges)
    arc_count = [0] * len(instance.requests)
    cost: Cost = 0
    for i, step in enumerate(tour.steps):
        nxt = tour.steps[(i + 1) % len(tour.steps)]
        if step.target != nxt.source:
            return TourCheck(False, f"step {i} does not chain", None, None)
        if step.kind == KIND_REQUEST:
            if not (0 <= step.ref < len(instance.requests)):
                return TourCheck(False, f"step {i}: unknown arc id", None, None)
            r = instance.requests[step.ref]
            if (step.source, step.target) != (r.source, r.target):
                return TourCheck(False, f"step {i}: arc endpoints wrong", None, None)
            arc_count[step.ref] += 1
            cost += r.cost
        elif step.kind == KIND_EDGE:
            if not (0 <= step.ref < len(graph.edges)):
                return TourCheck(False, f"step {i}: unknown edge id", None, None)
            e = graph.edges[step.ref]
            if (step.source, step.target) == (e.u, e.v):
                edge_flow[step.ref] += 1
            elif (step.source, step.target) == (e.v, e.u):
                edge_flow[step.ref] -= 1
            else:
                return TourCheck(False, f"step {i}: edge endpoints wrong", None, None)
            cost += e.cost
        else:
            return TourCheck(False, f"step {i}: unknown step kind", None, None)

    for aid, r in enumerate(instance.requests):
        if arc_count[aid] != r.demand:
            return TourCheck(False, f"arc {aid} traversed {arc_count[aid]} of {r.demand} times", None, None)
    circ = Circulation(tuple(edge_flow), tuple(arc_count))
    if cost != tour.total:
        return TourCheck(False, "recorded total differs from recomputed cost", cost, circ)
    return TourCheck(True, None, cost, circ)


def make_tight_instance(r: int) -> tuple[BaseGraph, Circulation]:
    """Elementary circulation with max flow exactly r on a theta-like graph.

    Hubs 1 and 2 are joined by r+1 two-edge strands through midpoints.  One
    unit circles out along each of strands 1..r and back along strand 0, so
    strand 0 carries flow r while the rest stay at one.
    """
    if r < 1:
        raise ValueError("r must be at least 1")
    triples: list[tuple[int, int, Cost]] = []
    for i in range(r + 1):
        mid = 3 + i
        triples.append((1, mid, 1))
        triples.append((mid, 2, 1))
    graph = BaseGraph.from_edges(3 + r, triples)

    flows = [0] * len(graph.edges)
    for i in range(1, r + 1):
        # forward 1 -> mid_i -> 2, return 2 -> mid_0 -> 1
        flows[2 * i] += 1       # (1, 3+i)
        flows[2 * i + 1] -= 1   # (2, 3+i) traversed mid->2
        flows[1] += 1           # (2, 3) traversed 2->mid
        flows[0] -= 1           # (1, 3) traversed mid->1
    return graph, Circulation(tuple(flows), ())


def random_instance(seed: int, n_max: int, r_max: int, p_max: int, cost_max: int) -> Instance:
    """Seeded random instance: random tree, extra edges, merged requests."""
    if n_max < 2:
        raise ValueError("n_max must be at least 2")
    if r_max < 0 or p_max < 0 or cost_max < 1:
        raise ValueError("parameters out of range")
    rng = SplitMix64(seed)
    n = rng.randint(2, n_max)
    rank = rng.randint(0, min(r_max, n * (n - 1) // 2 - (n - 1)))

    triples: list[tuple[int, int, Cost]] = []
    present: set[tuple[int, int]] = set()
    for v in range(2, n + 1):
        u = rng.randint(1, v - 1)
        triples.append((u, v, rng.randint(1, cost_max)))
        present.add((u, v))
    spare = [(u, v) for u in range(1, n + 1) for v in range(u + 1, n + 1) if (u, v) not in present]
    for _ in range(rank):
        u, v = spare.pop(rng.randint(0, len(spare) - 1))
        triples.append((u, v, rng.randint(1, cost_max)))
    graph = BaseGraph.from_edges(n, triples)

    demand: dict[tuple[int, int], int] = {}
    for _ in range(rng.randint(0, p_max) if p_max else 0):
        s = rng.randint(1, n)
        t = rng.randint(1, n - 1)
        if t >= s:
            t += 1
        demand[(s, t)] = demand.get((s, t), 0) + 1
    requests = []
    for (s, t), d in demand.items():
        floor = shortest_path(graph, s, t)[0]
        cost = floor if rng.randint(0, 1) else rng.randint(floor, max(floor, cost_max))
        requests.append(Request(s, t, cost, d))
    return Instance(graph, tuple(requests))
