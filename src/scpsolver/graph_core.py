"""Undirected base graphs and their cycle space.

Vertices are integers 1..n.  Every edge gets a fixed forward orientation,
(lower id, higher id), so integer edge flows have a well defined sign.
"""

from __future__ import annotations

import heapq
from collections import deque
from dataclasses import dataclass
from functools import cached_property
from typing import Iterable

Cost = int | float


class UnionFind:
    """Union-find over the integers 0..size-1, held in one list.

    ``union`` hangs the larger root under the smaller, so every root is the
    least member of its component and ``parent[v] <= v`` always holds.
    """

    __slots__ = ("parent",)

    def __init__(self, size: int):
        self.parent = list(range(size))

    def find(self, x: int) -> int:
        parent = self.parent
        root = x
        while parent[root] != root:
            root = parent[root]
        while parent[x] != root:
            parent[x], x = root, parent[x]
        return root

    def union(self, a: int, b: int) -> bool:
        """Join the components of a and b; False when they were one already."""
        ra, rb = self.find(a), self.find(b)
        if ra == rb:
            return False
        if ra < rb:
            self.parent[rb] = ra
        else:
            self.parent[ra] = rb
        return True


def component_roots(size: int, pairs: Iterable[tuple[int, int]]) -> list[int]:
    """The least member of each vertex's component, for vertices 0..size-1
    joined by the given pairs.

    Since ``parent[v] <= v``, one ascending pass resolves every vertex after
    its parent, with no further finds.
    """
    uf = UnionFind(size)
    for a, b in pairs:
        uf.union(a, b)
    parent = uf.parent
    for v in range(size):
        parent[v] = parent[parent[v]]
    return parent


@dataclass(frozen=True)
class Edge:
    """Undirected edge; (u, v) with u < v is also the forward orientation."""

    u: int
    v: int
    cost: Cost


@dataclass(frozen=True)
class BaseGraph:
    """Simple undirected graph with nonnegative edge costs.

    Edge ids are positions in ``edges``.  Connectivity is not required here;
    operations that need it check and raise.
    """

    vertex_count: int
    edges: tuple[Edge, ...]

    def __post_init__(self) -> None:
        if self.vertex_count < 1:
            raise ValueError("graph needs at least one vertex")
        seen: set[tuple[int, int]] = set()
        for e in self.edges:
            if not (1 <= e.u <= self.vertex_count and 1 <= e.v <= self.vertex_count):
                raise ValueError(f"edge endpoint out of range: {e}")
            if e.u == e.v:
                raise ValueError(f"self-loop not allowed: {e}")
            if e.u > e.v:
                raise ValueError(f"edge not in forward orientation: {e}")
            if (e.u, e.v) in seen:
                raise ValueError(f"parallel edge not allowed: {e}")
            if e.cost < 0:
                raise ValueError(f"negative edge cost: {e}")
            seen.add((e.u, e.v))

    @classmethod
    def from_edges(cls, vertex_count: int, triples: Iterable[tuple[int, int, Cost]]) -> "BaseGraph":
        """Build a graph normalizing each (u, v, cost) triple to u < v."""
        edges = tuple(Edge(min(u, v), max(u, v), cost) for u, v, cost in triples)
        return cls(vertex_count, edges)

    @cached_property
    def adjacency(self) -> dict[int, tuple[tuple[int, int], ...]]:
        """Vertex -> (neighbor, edge_id) pairs, ascending by neighbor id."""
        adj: dict[int, list[tuple[int, int]]] = {v: [] for v in range(1, self.vertex_count + 1)}
        for eid, e in enumerate(self.edges):
            adj[e.u].append((e.v, eid))
            adj[e.v].append((e.u, eid))
        return {v: tuple(sorted(pairs)) for v, pairs in adj.items()}

    @cached_property
    def connected(self) -> bool:
        """True when every vertex is reachable from vertex 1.

        Cached, so the parser's check and ``cycle_rank``'s share one pass.
        """
        roots = component_roots(self.vertex_count + 1, ((e.u, e.v) for e in self.edges))
        return roots.count(1) == self.vertex_count

    @cached_property
    def edge_costs(self) -> tuple[Cost, ...]:
        """Edge costs indexed by edge_id."""
        return tuple(e.cost for e in self.edges)

    def degree(self, v: int) -> int:
        return len(self.adjacency[v])


@dataclass(frozen=True)
class CycleBasis:
    """Fundamental cycle basis induced by a spanning tree.

    ``cycles[i]`` maps edge_id -> +1/-1 along the unit cycle flow that
    traverses non-tree edge ``non_tree_edges[i]`` forward and returns through
    the tree.  Each cycle hits its own non-tree edge with +1 and no other
    non-tree edge, so non-tree flow values are basis coordinates.
    """

    tree: frozenset[int]
    non_tree_edges: tuple[int, ...]
    cycles: tuple[dict[int, int], ...]


@dataclass(frozen=True)
class Multigraph:
    """Loops and parallel edges allowed; used for smoothed cores only."""

    vertices: tuple[int, ...]
    edges: tuple[tuple[int, int, Cost], ...]


@dataclass(frozen=True)
class TopologyReport:
    cycle_rank: int
    branch_vertices: tuple[int, ...]
    branch_count: int
    core_multigraph: Multigraph


def cycle_rank(graph: BaseGraph) -> int:
    """m - n + 1 for a connected graph."""
    if not graph.connected:
        raise ValueError("graph not connected")
    return len(graph.edges) - graph.vertex_count + 1


def spanning_tree(graph: BaseGraph) -> frozenset[int]:
    """BFS tree from the lowest vertex id, neighbors explored ascending."""
    tree: set[int] = set()
    visited = {1}
    queue = deque([1])
    while queue:
        v = queue.popleft()
        for w, eid in graph.adjacency[v]:
            if w not in visited:
                visited.add(w)
                tree.add(eid)
                queue.append(w)
    if len(visited) != graph.vertex_count:
        raise ValueError("graph not connected")
    return frozenset(tree)


@dataclass(frozen=True)
class RootedTree:
    """A spanning tree rooted at vertex 1, indexed by vertex id.

    ``parent[v]`` and ``parent_edge[v]`` lead one step toward the root and
    ``depth[v]`` counts the steps; the root has parent 0 and edge -1, and
    slot 0 is unused.  Building it once per tree lets every path query walk
    up from both ends without rebuilding anything.
    """

    parent: tuple[int, ...]
    parent_edge: tuple[int, ...]
    depth: tuple[int, ...]

    def path(self, source: int, target: int) -> list[tuple[int, int, int]]:
        """Directed steps (from, to, edge_id) along the unique tree path."""
        parent, parent_edge, depth = self.parent, self.parent_edge, self.depth
        up_s: list[tuple[int, int, int]] = []
        down_t: list[tuple[int, int, int]] = []
        a, b = source, target
        while depth[a] > depth[b]:
            up_s.append((a, parent[a], parent_edge[a]))
            a = parent[a]
        while depth[b] > depth[a]:
            down_t.append((parent[b], b, parent_edge[b]))
            b = parent[b]
        while a != b:
            up_s.append((a, parent[a], parent_edge[a]))
            down_t.append((parent[b], b, parent_edge[b]))
            a, b = parent[a], parent[b]
        return up_s + down_t[::-1]


def rooted_tree(graph: BaseGraph, tree: frozenset[int]) -> RootedTree:
    """Root the tree at vertex 1; raises when the edge set does not span."""
    n = graph.vertex_count
    in_tree: list[list[tuple[int, int]]] = [[] for _ in range(n + 1)]
    for eid in tree:
        e = graph.edges[eid]
        in_tree[e.u].append((e.v, eid))
        in_tree[e.v].append((e.u, eid))
    parent = [0] * (n + 1)
    parent_edge = [-1] * (n + 1)
    depth = [-1] * (n + 1)
    depth[1] = 0
    stack = [1]
    while stack:
        v = stack.pop()
        for w, eid in in_tree[v]:
            if depth[w] < 0:
                parent[w] = v
                parent_edge[w] = eid
                depth[w] = depth[v] + 1
                stack.append(w)
    if min(depth[1:]) < 0:
        raise ValueError("edge set is not a spanning tree")
    return RootedTree(tuple(parent), tuple(parent_edge), tuple(depth))


def tree_path(graph: BaseGraph, tree: frozenset[int], source: int, target: int) -> list[tuple[int, int, int]]:
    """Directed steps (from, to, edge_id) along the unique tree path."""
    return rooted_tree(graph, tree).path(source, target)


def fundamental_cycles(graph: BaseGraph, tree: frozenset[int]) -> CycleBasis:
    """Unit cycle flows, one per non-tree edge in ascending edge_id order."""
    if len(tree) != graph.vertex_count - 1:
        raise ValueError("edge set is not a spanning tree")
    for eid in tree:
        if not (0 <= eid < len(graph.edges)):
            raise ValueError(f"unknown edge id in tree: {eid}")
    rooted = rooted_tree(graph, tree)

    non_tree = tuple(eid for eid in range(len(graph.edges)) if eid not in tree)
    cycles: list[dict[int, int]] = []
    for eid in non_tree:
        e = graph.edges[eid]
        cycle = {eid: 1}
        for x, _, step_edge in rooted.path(e.v, e.u):
            cycle[step_edge] = 1 if x == graph.edges[step_edge].u else -1
        cycles.append(cycle)
    return CycleBasis(frozenset(tree), non_tree, tuple(cycles))


def smooth_topology(graph: BaseGraph) -> TopologyReport:
    """Collapse degree-2 chains; report cycle rank, branch vertices, core.

    Every chain is walked once, from each vertex whose degree is not 2 in
    ascending id order, along its neighbors in ascending order, through
    degree-2 vertices until the next such vertex; it becomes one core edge
    carrying the chain's summed cost.  A pure cycle keeps vertex n and one
    loop.  Each edge is visited once, so this takes O(n + m).
    """
    rank = cycle_rank(graph)  # also checks connectivity
    branch = tuple(v for v in range(1, graph.vertex_count + 1) if graph.degree(v) >= 3)
    ends = tuple(v for v in range(1, graph.vertex_count + 1) if graph.degree(v) != 2)
    if not ends:
        n = graph.vertex_count
        loop = (n, n, sum(e.cost for e in graph.edges))
        return TopologyReport(rank, branch, len(branch), Multigraph((n,), (loop,)))

    adjacency = graph.adjacency
    used = [False] * len(graph.edges)
    edges: list[tuple[int, int, Cost]] = []
    for start in ends:
        for v, eid in adjacency[start]:
            if used[eid]:
                continue
            used[eid] = True
            cost = graph.edges[eid].cost
            while len(adjacency[v]) == 2:
                (a, ea), (b, eb) = adjacency[v]
                v, eid = (b, eb) if ea == eid else (a, ea)
                used[eid] = True
                cost += graph.edges[eid].cost
            edges.append((min(start, v), max(start, v), cost))

    core = Multigraph(ends, tuple(edges))
    return TopologyReport(rank, branch, len(branch), core)


def shortest_path(graph: BaseGraph, source: int, target: int) -> tuple[Cost, tuple[int, ...]]:
    """Min-cost path; ties broken by lexicographically smallest vertex list."""
    for v in (source, target):
        if not (1 <= v <= graph.vertex_count):
            raise ValueError(f"vertex out of range: {v}")
    if source == target:
        return 0, (source,)
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
