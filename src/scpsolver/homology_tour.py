"""Cheapest tour within one homology class.

Fixing the class fixes every traversal the tour must make except the doubled
edges that stitch the class's support components together.  Those form a
Steiner tree over the contracted support, solved exactly by enumerating
subsets of the few branch vertices that survive preprocessing.
"""

from __future__ import annotations

import heapq
from collections.abc import Iterable, Sequence
from functools import cached_property
from itertools import chain, combinations, compress, repeat, starmap
from operator import attrgetter
from typing import NamedTuple

from .circulation import Circulation, Instance, support_pairs
from .graph_core import Cost, UnionFind, component_roots

KIND_REQUEST = "request"
KIND_EDGE = "edge"


class ReducedGraph(NamedTuple):
    """A Steiner instance, before or after preprocessing: support components
    shrunk to terminals, doubled costs as edge weights, and on each edge the
    sorted tuple of original edge ids it stands for."""

    vertices: tuple[int, ...]
    terminals: frozenset[int]
    edges: tuple[tuple[int, int, Cost, tuple[int, ...]], ...]


class SteinerSolution(NamedTuple):
    """Repair edges and their total weight; a named tuple, as the sweep
    builds one per repaired point."""

    edge_ids: frozenset[int]  # original edge ids
    weight: Cost


class Step(NamedTuple):
    kind: str  # "request" or "edge"
    source: int
    target: int
    ref: int  # arc_id or edge_id


StepKey = tuple[str, int, int, int]  # a Step's fields: (kind, source, target, ref)
Run = tuple[Sequence[int], int]  # (indices into Tour.keys, copies)
Arc = tuple[int, int, str, int, Cost]  # (tail, head, kind, ref, cost)

_step_key = attrgetter("kind", "source", "target", "ref")


class Tour:
    """A closed walk and its total cost, held as runs over its distinct steps.

    ``keys`` holds steps as (kind, source, target, ref) and ``runs`` is the
    walk as (indices into keys, copies) pairs: each run's steps repeated
    copies times, run after run.  euler_tour and parse_report list each
    distinct step once, so a tour of many traversals over few distinct arcs
    stays small.  ``steps`` spells the walk out, one Step per traversal with
    one shared Step object per key; it is derived on first read.
    ``Tour(steps, total)`` takes the steps flat, one key per step, and
    ``Tour.from_runs`` takes keys and runs.  Two tours are equal when their
    steps and totals are.
    """

    __slots__ = ("keys", "runs", "total", "_steps")

    def __init__(self, steps: Iterable[Step] = (), total: Cost = 0):
        self._steps: tuple[Step, ...] | None = tuple(steps)
        self.keys: Sequence[StepKey] = tuple(map(_step_key, self._steps))
        self.runs: Sequence[Run] = ((range(len(self.keys)), 1),) if self.keys else ()
        self.total = total

    @classmethod
    def from_runs(cls, keys: Sequence[StepKey], runs: Sequence[Run], total: Cost) -> Tour:
        tour = cls.__new__(cls)
        tour.keys, tour.runs, tour.total, tour._steps = keys, runs, total, None
        return tour

    @property
    def steps(self) -> tuple[Step, ...]:
        if self._steps is None:
            made = list(starmap(Step, self.keys))
            flat: list[Step] = []
            for seq, copies in self.runs:
                flat += list(map(made.__getitem__, seq)) * copies
            self._steps = tuple(flat)
        return self._steps

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, Tour):
            return NotImplemented
        return (self.steps, self.total) == (other.steps, other.total)

    def __hash__(self) -> int:
        return hash((self.steps, self.total))

    def __repr__(self) -> str:  # run-length, as steps may not fit in memory
        return f"Tour.from_runs(keys={self.keys!r}, runs={self.runs!r}, total={self.total!r})"


class EulerMultigraph:
    """Directed multigraph as a number of copies per distinct arc.

    ``EulerMultigraph(counts)`` takes the copies of each distinct arc.
    ``arcs`` spells them out again, one per traversal, derived on first read.
    """

    def __init__(self, counts: dict[Arc, int]):
        self.counts = counts

    @cached_property
    def arcs(self) -> tuple[Arc, ...]:
        return tuple(chain.from_iterable(map(repeat, self.counts, self.counts.values())))


def contract_support(instance: Instance, g: Circulation, pairs: list[tuple[int, int]], roots: list[int]) -> ReducedGraph:
    """One quotient vertex per support component, one per untouched vertex.

    ``pairs`` is ``support_pairs(instance, g)`` and ``roots`` their
    ``component_roots``, as ``connectivity_repair`` computed them.  Quotient
    ids follow each class's least base vertex, a supported edge's ``low``
    included; on a base graph that is the class's root.  So on a segment
    graph the witness, expanded, is the base repair's of the expanded g:
    1. The reduced graphs are isomorphic: the base classes are the segment
       ones grown by their supported segments' inner vertices, and the
       other inner vertices (degree 2, no terminal) splice into segments.
    2. The isomorphism keeps the quotient ids' order, so the order of the
       Steiner masks and Kruskal's (weight, (u, v)) order.
    3. Parallel edges tie on their sorted, disjoint origins, so the least
       decides, as on the base graph: segments go by least base edge id.
    """
    graph = instance.base
    low = [0, *graph.vertices]  # base vertex per vertex, least per class at roots
    for e in compress(graph.edges, g.edge_flow):  # the supported edges
        low[roots[e.u]] = min(low[roots[e.u]], e.low)
    classes = sorted([v for v in range(1, len(low)) if roots[v] == v], key=low.__getitem__)
    qid = dict(zip(classes, range(len(classes))))  # class root -> quotient id

    quotient_edges: list[tuple[int, int, Cost, tuple[int, ...]]] = []
    for eid, e in enumerate(graph.edges):
        if g.edge_flow[eid] != 0:
            continue  # contracted inside its component
        qu, qv = qid[roots[e.u]], qid[roots[e.v]]
        if qu == qv:
            continue  # self-loop, useless for reconnection
        quotient_edges.append((min(qu, qv), max(qu, qv), 2 * e.cost, (eid,)))

    terminals = frozenset(qid[roots[u]] for u, _ in pairs)
    return ReducedGraph(tuple(range(len(classes))), terminals, tuple(quotient_edges))


def _origin_ids(origin: tuple) -> tuple[int, ...]:
    """Sorted edge ids under an origin: a leaf, an edge's own sorted ids,
    is returned as it is; a splice is a pair of origins."""
    if not isinstance(origin[0], tuple):
        return origin
    ids: list[int] = []
    stack = [origin]
    while stack:
        o = stack.pop()
        if isinstance(o[0], tuple):
            stack.extend(o)
        else:
            ids += o
    return tuple(sorted(ids))


def steiner_preprocess(cg: ReducedGraph) -> ReducedGraph:
    """Strip Steiner leaves, splice degree-2 Steiner vertices, keep cheapest parallels.

    Steiner vertices of degree <= 2 leave one at a time, smallest id first,
    from a heap.  A removal never raises a degree (a splice swaps one neighbor
    for another, a dropped parallel or a strip only removes one), so the
    smallest live heap entry is always the smallest eligible vertex and the
    result is canonical, and preprocessing it again changes nothing.  An
    input edge's origin is its own sorted ids; a spliced edge's is the pair
    of the two it replaces, sorted into edge ids only at the end or on a
    weight tie, so a long Steiner chain costs linear time, not quadratic.
    """
    # vertex -> {neighbor: (weight, origin)}, cheapest parallel only, no loops
    adj: dict[int, dict[int, tuple[Cost, tuple]]] = {v: {} for v in cg.vertices}

    def add(u: int, v: int, w: Cost, origin: tuple) -> None:
        if u == v:
            return
        old = adj[u].get(v)
        if old is None or w < old[0] or (w == old[0] and _origin_ids(origin) < _origin_ids(old[1])):
            adj[u][v] = adj[v][u] = (w, origin)

    for u, v, w, origin in cg.edges:
        add(u, v, w, origin)
    terminals = cg.terminals
    heap = [v for v in adj if v not in terminals and len(adj[v]) <= 2]
    heapq.heapify(heap)
    while heap:
        target = heapq.heappop(heap)
        if target not in adj:
            continue  # pushed twice, already removed
        incident = adj.pop(target)
        for u in incident:
            del adj[u][target]
        if len(incident) == 2:
            (a, (wa, oa)), (b, (wb, ob)) = incident.items()
            add(a, b, wa + wb, (oa, ob))
        for u in incident:
            if u not in terminals and len(adj[u]) <= 2:
                heapq.heappush(heap, u)

    vertices = tuple(sorted(adj))
    edges = tuple(
        (u, v, w, _origin_ids(origin))
        for u in vertices
        for v, (w, origin) in sorted(adj[u].items())
        if u < v
    )
    return ReducedGraph(vertices, terminals, edges)


def min_steiner_tree(graph: ReducedGraph, terminals: frozenset[int]) -> SteinerSolution:
    """Exact Steiner tree by sweeping subsets of the non-terminal vertices.

    Every subset that induces a connected subgraph gives a candidate, its
    Kruskal tree in a fixed edge order; the optimum spans some subset.
    Only Steiner vertices of the terminals' component C can be in one
    (terminals in several components: none connects, ValueError).  The
    sweep leaves out j = 0, 1, 2, ... of them and stops at the first j for
    which no left-out set X keeps C - X connected.  That is exact: for a
    nonempty X that does, some x in X has a neighbour in C - X, as C is
    connected, so X - x does too; the counts that connect form a prefix.
    One Kruskal pass over the whole graph finds C, and its forest within C
    is the tree for j = 0.  No subset is visited twice, so at most 2^s for
    s Steiner vertices, and a tree-like C, where leaving out any one
    disconnects, costs s + 1 passes.  A Steiner vertex x whose j = 1 pass
    leaves the terminals in more than one component of C - x is in no X
    that connects, as C - X lies inside C - x, so from j = 2 on only the
    other Steiner vertices are left out; the stop rule still holds among
    them, as X - x is among them when X is.

    Bit i of a subset's mask stands for the i-th Steiner vertex ascending.
    The witness is the tree of the least (weight, mask), so it has no
    Steiner leaf: dropping a leaf v and its edge would leave a tree of no
    more weight (weights are never negative) on the lesser mask without v.
    """
    if not terminals:
        raise ValueError("terminal set is empty")
    if not terminals <= set(graph.vertices):
        raise ValueError("terminal not present in graph")
    if len(terminals) == 1:
        return SteinerSolution(frozenset(), 0)

    index = {v: i for i, v in enumerate(graph.vertices)}  # union-find slots
    # (slot, slot, weight, edge index) ascending by weight, then by index
    edges = sorted([(index[u], index[v], w, i) for i, (u, v, w, _) in enumerate(graph.edges)], key=lambda e: e[2])
    whole = UnionFind(len(index))
    forest = [e for e in edges if whole.union(e[0], e[1])]  # Kruskal's, per component
    root = whole.find(index[min(terminals)])
    if any(whole.find(index[t]) != root for t in terminals):
        raise ValueError("homology class disconnected")
    steiner = sorted(set(graph.vertices) - terminals)
    inside = [(index[v], 1 << i) for i, v in enumerate(steiner) if whole.find(index[v]) == root]  # C's, with mask bits
    edges = [e for e in edges if whole.find(e[0]) == root]  # C's
    tree = [e for e in forest if whole.find(e[0]) == root]  # C's Kruskal tree: j = 0

    best = (sum([e[2] for e in tree]), sum([bit for _, bit in inside]), [e[3] for e in tree])
    ends = [index[t] for t in terminals]
    separating: set[tuple[int, int]] = set()  # in no left-out set that connects
    free = inside  # the Steiner vertices a connecting X may leave out
    for j in range(1, len(inside) + 1):
        connects = False
        for left_out in combinations(free, j):
            out = {slot for slot, _ in left_out}
            uf = UnionFind(len(index))
            chosen: list[int] = []
            weight: Cost = 0
            for a, b, w, i in edges:
                if a not in out and b not in out and uf.union(a, b):
                    chosen.append(i)
                    weight += w
            if len(chosen) == len(tree) - j:  # C - X is connected
                connects = True
                mask = sum([bit for slot, bit in inside if slot not in out])
                if (weight, mask) < best[:2]:
                    best = (weight, mask, chosen)
            elif j == 1 and len({uf.find(t) for t in ends}) > 1:
                separating.add(left_out[0])
        if not connects:
            break
        if j == 1:
            free = [x for x in inside if x not in separating]
    weight, _, chosen = best
    origins: set[int] = set()
    for i in chosen:
        origins.update(graph.edges[i][3])
    return SteinerSolution(frozenset(origins), weight)


def connectivity_repair(instance: Instance, g: Circulation) -> SteinerSolution:
    """Doubled edges needed to join the support of g into one component.

    Most candidates near the optimum have a connected support; they are
    answered by one union-find pass, without building the quotient.  A split
    support hands that pass's pairs and roots on to ``contract_support``.
    """
    pairs = support_pairs(instance, g)
    roots = component_roots(instance.base.vertex_count + 1, pairs)
    if len({roots[u] for u, _ in pairs}) <= 1:
        return SteinerSolution(frozenset(), 0)
    reduced = steiner_preprocess(contract_support(instance, g, pairs, roots))
    return min_steiner_tree(reduced, reduced.terminals)


def build_euler_multigraph(instance: Instance, g: Circulation, st: SteinerSolution) -> EulerMultigraph:
    """Directed multigraph whose Euler circuits are exactly the class tours.

    Copies per distinct arc, in one pass: request arcs, flow edges, then
    each Steiner edge both ways (merged with its flow arc, should a library
    caller's Steiner edge carry flow).  Balance is checked per distinct arc;
    a balanced but disconnected multigraph is refused by euler_tour.
    """
    graph = instance.base
    edges, arc_flow, edge_flow = graph.edges, g.arc_flow, g.edge_flow
    counts: dict[Arc, int] = {}
    for aid, r in enumerate(instance.requests):
        if arc_flow[aid] > 0:
            counts[(r.source, r.target, KIND_REQUEST, aid, r.cost)] = arc_flow[aid]
    for eid in compress(range(len(edges)), edge_flow):  # the edges with flow
        u, v, cost = edges[eid]
        val = edge_flow[eid]
        if val > 0:
            counts[(u, v, KIND_EDGE, eid, cost)] = val
        else:
            counts[(v, u, KIND_EDGE, eid, cost)] = -val
    for eid in sorted(st.edge_ids):
        u, v, cost = edges[eid]
        for arc in ((u, v, KIND_EDGE, eid, cost), (v, u, KIND_EDGE, eid, cost)):
            counts[arc] = counts.get(arc, 0) + 1

    balance = [0] * (graph.vertex_count + 1)
    for arc, c in counts.items():
        balance[arc[0]] += c
        balance[arc[1]] -= c
    if any(balance):
        raise RuntimeError("euler multigraph is unbalanced")
    return EulerMultigraph(counts)


def euler_tour(mg: EulerMultigraph) -> Tour:
    """Hierholzer circuit from the lowest vertex with an outgoing arc.

    At each vertex unused arcs are taken ascending by (target, kind, ref)
    with requests before edges, which pins down one canonical circuit.

    The walk runs on the distinct arcs of mg, each with its count of unused
    copies.  Until a count runs out every vertex keeps taking the same arc,
    so once the forward walk closes a cycle, the cycle repeats min(count)
    more times in one step.  The stack holds runs (arcs, copies); a run none
    of whose tails has an unused arc pops whole, any other pops down to the
    last such tail and the walk resumes there.  The popped runs become the
    Tour's runs as they are, so interpreted work is per distinct arc and per
    run.  The total is summed per run too, exact in any order.  Arcs the
    walk leaves unused mean mg is disconnected: RuntimeError.
    """
    counts = mg.counts
    if not counts:
        return Tour((), 0)
    # distinct arcs ascending by (tail, target, kind, ref), requests first
    arcs = sorted(counts, key=lambda a: (a[0], a[1], a[2] != KIND_REQUEST, a[3]))
    left = list(map(counts.__getitem__, arcs))  # unused copies per distinct arc
    tail, head, kind, ref, cost = zip(*arcs)
    # vertex -> its distinct arcs with copies left, last taken first; the
    # current one is [-1], and a vertex with none left has no entry
    todo: dict[int, list[int]] = {}
    for d in range(len(arcs) - 1, -1, -1):
        todo.setdefault(tail[d], []).append(d)

    stack: list[tuple[list[int], int]] = []  # runs (arcs, copies) of the walk
    popped: list[tuple[list[int], int]] = []  # runs in the order they leave the stack
    v = min(todo)
    while True:
        seq: list[int] = []
        seen = {v: 0}  # vertex -> its latest position in seq
        fresh = 0  # a cycle starting before this position holds a used-up arc
        choices = todo.get(v)
        while choices:
            d = choices[-1]
            seq.append(d)
            left[d] -= 1
            if left[d]:
                v = head[d]
                i = seen.get(v, -1)
                if i >= fresh:
                    # seq[i:] is a cycle whose every arc has copies left:
                    # the walk would go round it `more` more times
                    cycle = seq[i:]
                    more = min([left[c] for c in cycle])
                    for c in cycle:
                        left[c] -= more
                        if not left[c]:
                            rest = todo[tail[c]]
                            rest.pop()
                            if not rest:
                                del todo[tail[c]]
                    if i:
                        stack.append((seq[:i], 1))
                    stack.append((cycle, more + 1))
                    seq = []
                    seen = {}
                    fresh = 0
            else:
                choices.pop()
                if not choices:
                    del todo[v]
                v = head[d]
                fresh = len(seq)
            seen[v] = len(seq)
            choices = todo.get(v)
        if seq:
            stack.append((seq, 1))

        # pop runs until a tail with an unused arc shows up, and walk from it
        while stack:
            seq, copies = stack.pop()
            if not todo or todo.keys().isdisjoint(map(tail.__getitem__, seq)):
                popped.append((seq, copies))
                continue
            i = len(seq) - 1
            while tail[seq[i]] not in todo:
                i -= 1
            if copies > 1:
                stack.append((seq, copies - 1))
            if i:
                stack.append((seq[:i], 1))
            popped.append((seq[i:], 1))
            v = tail[seq[i]]
            break
        else:
            break

    if any(left):
        raise RuntimeError("euler multigraph is disconnected")
    popped.reverse()  # runs leave the stack in reverse circuit order
    total = sum([sum(map(cost.__getitem__, seq)) * copies for seq, copies in popped])
    return Tour.from_runs(list(zip(kind, tail, head, ref)), popped, total)

