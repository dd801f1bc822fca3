"""Brute-force oracles, tour verification, instance generators, and the
helpers only the harness and the tests call (``shortest_path``, the
feasibility checks, ``support_connected``, ``tour_in_class``).

The oracles are deliberately independent of the solver pipeline: tours are
found by trying cyclic orders, circulations by sweeping a coefficient box,
Steiner trees by Prim over vertex subsets.  Guards raise on inputs too large
to sweep so nothing silently truncates.  No solve module imports this one.
"""

from __future__ import annotations

import heapq
import itertools
from bisect import bisect_right, insort
from collections.abc import Iterable
from typing import NamedTuple

from .circulation import Circulation, Instance, Request, circulation_cost, support_pairs
from .graph_core import BaseGraph, Cost, CycleBasis, component_roots, rooted_tree
from .homology_tour import KIND_EDGE, KIND_REQUEST, ReducedGraph, Step, Tour, build_euler_multigraph, connectivity_repair, euler_tour

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


def shortest_path(graph: BaseGraph, source: int, target: int) -> tuple[Cost, tuple[int, ...]]:
    """Min-cost path; ties broken by lexicographically smallest vertex list.

    Dijkstra from the source settles vertices until the target, each at a
    distance d summed along a path from the source.  Call an edge v -> w
    tight when v settled before w and d(v) + c == d(w): the tight paths to
    the target are its shortest paths, each summing to d(target) step by
    step, and they form a DAG.  A backward pass from the target marks the
    vertices with a tight path to it, and a forward walk from the source
    takes, at each vertex, its least marked neighbor over a tight edge,
    which spells out the lexicographically smallest of them.  O(m log n) in
    all.

    A zero-cost edge can join two vertices at one distance, and a tight
    step between them would then follow the settling order rather than the
    path order.  So a graph with a zero-cost edge takes the search whose
    heap entries carry their whole vertex lists instead: the same answer,
    quadratic in the path length.
    """
    for v in (source, target):
        if not (1 <= v <= graph.vertex_count):
            raise ValueError(f"vertex out of range: {v}")
    if source == target:
        return 0, (source,)
    if 0 in graph.edge_costs:
        return _shortest_path_carrying_paths(graph, source, target)
    adjacency, costs = graph.adjacency, graph.edge_costs
    dist: list[Cost] = [0] * (graph.vertex_count + 1)
    rank = [0] * (graph.vertex_count + 1)  # settling order, 0 while unsettled
    heap: list[tuple[Cost, int]] = [(0, source)]
    pop, push = heapq.heappop, heapq.heappush
    settled = 0
    while not rank[target]:
        if not heap:
            raise ValueError(f"no path between {source} and {target}")
        d, v = pop(heap)
        if rank[v]:
            continue
        settled += 1
        dist[v], rank[v] = d, settled
        for w, eid in adjacency[v]:
            if not rank[w]:
                push(heap, (d + costs[eid], w))

    marked = [False] * (graph.vertex_count + 1)
    marked[target] = True
    stack = [target]
    while stack:  # every v with a tight path to the target
        w = stack.pop()
        dw, rw = dist[w], rank[w]
        for v, eid in adjacency[w]:
            if not marked[v] and 0 < rank[v] < rw and dist[v] + costs[eid] == dw:
                marked[v] = True
                stack.append(v)
    path = [source]
    v = source
    while v != target:  # on to the least marked neighbor over a tight edge
        dv, rv = dist[v], rank[v]
        for w, eid in adjacency[v]:
            if marked[w] and rank[w] > rv and dv + costs[eid] == dist[w]:
                break
        path.append(w)
        v = w
    return dist[target], tuple(path)


def _shortest_path_carrying_paths(graph: BaseGraph, source: int, target: int) -> tuple[Cost, tuple[int, ...]]:
    """Dijkstra on (distance, vertex list) heap entries: the first entry
    popped for the target is the cheapest path, lexicographically smallest
    among equal costs, zero-cost edges included."""
    heap: list[tuple[Cost, tuple[int, ...]]] = [(0, (source,))]
    done: set[int] = set()
    while heap:
        dist, path = heapq.heappop(heap)
        v = path[-1]
        if v in done:
            continue
        done.add(v)
        if v == target:
            return dist, path
        for w, eid in graph.adjacency[v]:
            if w not in done:
                heapq.heappush(heap, (dist + graph.edges[eid].cost, path + (w,)))
    raise ValueError(f"no path between {source} and {target}")


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
    return _conserves(instance.base.vertex_count, itertools.chain(edges, arcs))


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


def tour_in_class(instance: Instance, g: Circulation) -> Tour:
    """Cheapest tour whose traversal counts realize the class of g.

    Its cost is circulation_cost(g) plus the connectivity repair weight.
    """
    st = connectivity_repair(instance, g)
    tour = euler_tour(build_euler_multigraph(instance, g, st))
    expected = circulation_cost(instance, g) + st.weight
    if tour.total != expected:
        raise RuntimeError("tour cost disagrees with class cost")
    return tour


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
    """Seeded random instance: random tree, extra edges, merged requests.

    Extra edge i is the i-th non-edge (u, v), u < v, in lexicographic order,
    found by its rank among all pairs: O(n) memory, not a list of n^2 pairs.
    """
    if n_max < 2:
        raise ValueError("n_max must be at least 2")
    if r_max < 0 or p_max < 0 or cost_max < 1:
        raise ValueError("parameters out of range")
    rng = SplitMix64(seed)
    n = rng.randint(2, n_max)
    pairs = n * (n - 1) // 2
    rank = rng.randint(0, min(r_max, pairs - (n - 1)))

    def first_rank(u: int) -> int:  # the rank of (u, u + 1)
        return (u - 1) * n - u * (u - 1) // 2

    triples: list[tuple[int, int, Cost]] = []
    taken: list[int] = []
    for v in range(2, n + 1):
        u = rng.randint(1, v - 1)
        triples.append((u, v, rng.randint(1, cost_max)))
        taken.append(first_rank(u) + v - u - 1)
    taken.sort()
    for _ in range(rank):
        i = rng.randint(0, pairs - len(taken) - 1)
        x, y = -1, i
        while x != y:  # the least y with i untaken ranks below it and y untaken
            x, y = y, i + bisect_right(taken, y)
        insort(taken, y)
        u = bisect_right(range(1, n + 1), y, key=first_rank)
        triples.append((u, y - first_rank(u) + u + 1, rng.randint(1, cost_max)))
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
