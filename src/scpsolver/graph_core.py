"""Undirected base graphs and their cycle space.

Vertices are integers 1..n.  Every edge gets a fixed forward orientation,
(lower id, higher id), so integer edge flows have a well defined sign.
"""

from __future__ import annotations

from collections.abc import Iterable, Sequence
from fractions import Fraction
from functools import cached_property
from operator import itemgetter
from typing import NamedTuple

Cost = int | Fraction  # exact; cli_io.solve scales a Fraction instance to ints


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
        while parent[x] != x:  # path halving: every other node skips a level
            parent[x] = x = parent[parent[x]]
        return x

    def union(self, a: int, b: int) -> bool:
        """Join the components of a and b; False when they were one already."""
        parent = self.parent
        while parent[a] != a:  # find, inlined
            parent[a] = a = parent[parent[a]]
        while parent[b] != b:
            parent[b] = b = parent[parent[b]]
        if a == b:
            return False
        if a < b:
            parent[b] = a
        else:
            parent[a] = b
        return True


def component_roots(size: int, pairs: Iterable[tuple[int, int]]) -> list[int]:
    """The least member of each vertex's component, for vertices 0..size-1
    joined by the given pairs.

    Since ``parent[v] <= v``, one ascending pass resolves every vertex after
    its parent, with no further finds.  The unions are ``UnionFind.union``'s,
    inlined.
    """
    parent = list(range(size))
    for a, b in pairs:
        while parent[a] != a:
            parent[a] = a = parent[parent[a]]
        while parent[b] != b:
            parent[b] = b = parent[parent[b]]
        if a < b:
            parent[b] = a
        elif b < a:
            parent[a] = b
    for v in range(size):
        parent[v] = parent[parent[v]]
    return parent


class Edge(NamedTuple):
    """Undirected edge; (u, v) with u < v is also the forward orientation.

    A named tuple, like ``Circulation`` and ``Segment``: the parser and
    ``BaseGraph.from_edges`` build one per edge with ``tuple.__new__``, which
    runs no Python-level constructor.
    """

    u: int
    v: int
    cost: Cost
    low = property(itemgetter(0))  # u, its least vertex, as Segment.low is a chain's


class FrozenRecord:
    """Fields set once in ``__init__``, by ``object.__setattr__``, that refuse
    assignment; equality, hash and repr by the fields named in ``_fields``.

    The base of the two records that validate their input, ``BaseGraph`` and
    ``circulation.Instance``.  Their derived values are ``cached_property``s,
    which write the instance dict directly: computed on first read, then
    read like a field.  Every other record is a named tuple.
    """

    _fields: tuple[str, ...] = ()

    def __setattr__(self, name: str, value: object) -> None:
        raise AttributeError(f"cannot assign to field {name!r}")

    def __delattr__(self, name: str) -> None:
        raise AttributeError(f"cannot delete field {name!r}")

    def _values(self) -> tuple:
        return tuple(map(self.__getattribute__, self._fields))

    def __eq__(self, other: object) -> bool:
        if other.__class__ is not self.__class__:
            return NotImplemented
        return self._values() == other._values()

    def __hash__(self) -> int:
        return hash(self._values())

    def __repr__(self) -> str:
        fields = ", ".join(f"{name}={value!r}" for name, value in zip(self._fields, self._values()))
        return f"{type(self).__name__}({fields})"


class BaseGraph(FrozenRecord):
    """Simple undirected graph with nonnegative edge costs.

    Edge ids are positions in ``edges``.  Connectivity is not required here;
    operations that need it check and raise.
    """

    _fields = ("vertex_count", "edges")
    vertex_count: int
    edges: tuple[Edge, ...]

    def __init__(self, vertex_count: int, edges: tuple[Edge, ...]):
        if vertex_count < 1:
            raise ValueError("graph needs at least one vertex")
        n = vertex_count
        seen: set[tuple[int, int]] = set()
        for e in edges:
            u, v, cost = e
            if not 1 <= u < v <= n or (u, v) in seen or cost < 0:
                # name the first failed check, in this order
                if not (1 <= u <= n and 1 <= v <= n):
                    raise ValueError(f"edge endpoint out of range: {e}")
                if u == v:
                    raise ValueError(f"self-loop not allowed: {e}")
                if u > v:
                    raise ValueError(f"edge not in forward orientation: {e}")
                if (u, v) in seen:
                    raise ValueError(f"parallel edge not allowed: {e}")
                raise ValueError(f"negative edge cost: {e}")
            seen.add((u, v))
        object.__setattr__(self, "vertex_count", vertex_count)
        object.__setattr__(self, "edges", edges)

    @classmethod
    def _parsed(cls, vertex_count: int, edges: tuple[Edge, ...]) -> "BaseGraph":
        """A graph from ``cli_io.parse_instance``, without ``__init__``'s
        second pass over the edges.

        It relies on the parser's own line-by-line checks, which refuse
        every graph ``__init__`` would: a vertex count below 1
        (``bad-size``), an endpoint outside 1..n (``bad-vertex``), u == v
        (``self-loop``), a negative cost (``negative-cost``) and a pair given
        twice (``duplicate-edge``); and the parser stores each edge as (lower,
        higher).  Every other caller builds ``BaseGraph(...)``, which checks.
        """
        graph = cls.__new__(cls)
        object.__setattr__(graph, "vertex_count", vertex_count)
        object.__setattr__(graph, "edges", edges)
        return graph

    @classmethod
    def from_edges(cls, vertex_count: int, triples: Iterable[tuple[int, int, Cost]]) -> "BaseGraph":
        """Build a graph normalizing each (u, v, cost) triple to u < v."""
        new = tuple.__new__
        edges = tuple([new(Edge, (u, v, cost) if u < v else (v, u, cost)) for u, v, cost in triples])
        return cls(vertex_count, edges)

    @property
    def vertices(self) -> range:  # 1..n, the ids SegmentGraph.vertices maps to
        return range(1, self.vertex_count + 1)

    @cached_property
    def adjacency(self) -> dict[int, tuple[tuple[int, int], ...]]:
        """Vertex -> (neighbor, edge_id) pairs, ascending by neighbor id.

        Edges are taken in ascending (u, v) order, so every vertex meets its
        lower neighbors first and then its higher ones, each in ascending
        order: no list needs sorting.
        """
        edges = self.edges
        adj: list[list[tuple[int, int]]] = [[] for _ in range(self.vertex_count + 1)]
        for eid in sorted(range(len(edges)), key=edges.__getitem__):
            u, v, _ = edges[eid]
            adj[u].append((v, eid))
            adj[v].append((u, eid))
        return dict(zip(range(1, self.vertex_count + 1), map(tuple, adj[1:])))

    @cached_property
    def connected(self) -> bool:
        """True when every vertex is reachable from vertex 1.

        Cached, so the parser's check and ``cycle_rank``'s share one pass.
        """
        roots = component_roots(self.vertex_count + 1, map(itemgetter(0, 1), self.edges))
        return roots.count(1) == self.vertex_count

    @cached_property
    def edge_costs(self) -> tuple[Cost, ...]:
        """Edge costs indexed by edge_id."""
        return tuple(map(itemgetter(2), self.edges))


class CycleBasis(NamedTuple):
    """Fundamental cycle basis induced by a spanning tree.

    ``cycles[i]`` maps edge_id -> +1/-1 along the unit cycle flow that
    traverses non-tree edge ``non_tree_edges[i]`` forward and returns through
    the tree.  Each cycle hits its own non-tree edge with +1 and no other
    non-tree edge, so non-tree flow values are basis coordinates.  A basis
    projected onto segments (``segment_basis``) hits its own segment with
    the sign its base non-tree edge has there, +1 or -1.
    """

    tree: frozenset[int]
    non_tree_edges: tuple[int, ...]
    cycles: tuple[dict[int, int], ...]


class Segment(NamedTuple):
    """One maximal chain of a base graph, as an edge of its segment graph.

    It runs from segment vertex u to v, u <= v, through the base edges
    ``edge_ids`` in walk order (u == v for a loop).  ``signs[j]`` is +1 when
    the walk crosses ``edge_ids[j]`` in its forward orientation and -1 when
    against it, so a flow x along the segment is the base flow
    ``signs[j] * x`` on ``edge_ids[j]``.  ``cost`` is the chain's summed base
    cost and ``low`` the least base vertex on it, ends included.
    """

    u: int
    v: int
    cost: Cost
    edge_ids: tuple[int, ...]
    signs: tuple[int, ...]
    low: int


class SegmentGraph(NamedTuple):
    """A base graph with every chain of plain degree-2 vertices compressed.

    Its vertices are the base vertices whose degree is not 2, the kept ones
    (request endpoints in ``solve``), and, for a bare cycle with neither,
    its highest vertex.  Vertex i (1-based) stands for base vertex
    ``vertices[i - 1]``, so ids keep the base order.  Edges are segments,
    loops and parallels allowed, which is why this is not a BaseGraph; it has
    the ``vertex_count``, ``edges`` and ``edge_costs`` the sweep and the
    repair read.  ``edge_costs`` is a field, filled by ``smooth_topology``,
    because the sweep reads it once per box point.  Segments are listed by
    least base edge id, for ``contract_support``'s ties; with every vertex
    kept, segment i is base edge i in its forward orientation.

    Every circulation is constant along a segment (its inner vertices have
    degree 2 and no request), which ``project`` and ``expand`` rely on.
    """

    vertices: tuple[int, ...]
    edges: tuple[Segment, ...]
    cycle_rank: int
    branch_vertices: tuple[int, ...]
    edge_costs: tuple[Cost, ...]

    @property
    def vertex_count(self) -> int:
        return len(self.vertices)

    @property
    def branch_count(self) -> int:
        return len(self.branch_vertices)

    def project(self, edge_flow: Sequence[int]) -> tuple[int, ...]:
        """Segment flows of a base flow that is constant along every segment."""
        return tuple(s.signs[0] * edge_flow[s.edge_ids[0]] for s in self.edges)

    def expand(self, flow: Sequence[int], edge_count: int) -> tuple[int, ...]:
        """Base edge flows of segment flows."""
        base = [0] * edge_count
        for x, s in zip(flow, self.edges):
            if x:
                for eid, sign in zip(s.edge_ids, s.signs):
                    base[eid] = sign * x
        return tuple(base)


def cycle_rank(graph: BaseGraph) -> int:
    """m - n + 1 for a connected graph."""
    if not graph.connected:
        raise ValueError("graph not connected")
    return len(graph.edges) - graph.vertex_count + 1


def spanning_tree(graph: BaseGraph) -> frozenset[int]:
    """BFS tree from the lowest vertex id, neighbors explored ascending."""
    adjacency = graph.adjacency
    tree: list[int] = []
    visited = [False] * (graph.vertex_count + 1)
    visited[1] = True
    queue = [1]
    for v in queue:  # the list is the queue: appended to while read in order
        for w, eid in adjacency[v]:
            if not visited[w]:
                visited[w] = True
                tree.append(eid)
                queue.append(w)
    if len(queue) != graph.vertex_count:
        raise ValueError("graph not connected")
    return frozenset(tree)


class RootedTree(NamedTuple):
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


def smooth_topology(graph: BaseGraph, keep: Iterable[int] = ()) -> SegmentGraph:
    """The segment graph: every maximal chain whose inner vertices have
    degree 2 and are not in ``keep`` becomes one segment.

    Chains are walked from each segment vertex in ascending id order, along
    its neighbors in ascending order, until the next segment vertex.  A chain
    that ends at a lower vertex was walked from there already, so every
    segment runs from its lower end to its higher one.  Each edge is visited
    once, so this takes O(n + m).  The cycle rank and the branch vertices
    (degree at least 3) do not depend on ``keep``.
    """
    rank = cycle_rank(graph)  # also checks connectivity
    adjacency = graph.adjacency
    kept = set(keep)
    branch = tuple(v for v, pairs in adjacency.items() if len(pairs) >= 3)
    ends = tuple(v for v, pairs in adjacency.items() if len(pairs) != 2 or v in kept)
    if not ends:  # a bare cycle
        ends = (graph.vertex_count,)
    costs = graph.edge_costs
    index = {v: i for i, v in enumerate(ends, 1)}
    # a chain is only ever entered from its two ends, so marking its first
    # and last edges keeps it from being walked again from the other end
    used = [False] * len(graph.edges)
    segments: list[Segment] = []
    new = tuple.__new__
    for start in ends:
        for v, eid in adjacency[start]:
            if used[eid]:
                continue
            used[eid] = True
            if v in index:  # one edge, crossed forward from its lower end
                segments.append(new(Segment, (index[start], index[v], costs[eid], (eid,), (1,), start)))
                continue
            # an edge is crossed forward when the walk goes up in vertex id
            ids = [eid]
            signs = [1 if start < v else -1]
            low = start  # least vertex on the chain; its far end is not below start
            while v not in index:
                if v < low:
                    low = v
                (a, ea), (b, eb) = adjacency[v]
                x, (v, eid) = v, ((b, eb) if ea == eid else (a, ea))
                ids.append(eid)
                signs.append(1 if x < v else -1)
            used[eid] = True
            cost = sum(map(costs.__getitem__, ids))
            segments.append(new(Segment, (index[start], index[v], cost, tuple(ids), tuple(signs), low)))
    segments.sort(key=lambda s: min(s.edge_ids))
    return SegmentGraph(ends, tuple(segments), rank, branch, tuple(map(itemgetter(2), segments)))


def segment_basis(seg: SegmentGraph, tree: frozenset[int]) -> CycleBasis:
    """The fundamental cycles of a base spanning tree, projected onto segments.

    A segment holds at most one non-tree base edge: two would cut the chain
    between them off the tree.  So the segments without one form a spanning
    tree of the segment graph, and the segment holding non-tree edge e
    closes, with that tree, the projection of e's base cycle.  Each cycle is
    signed to cross e forward, so it is ``sign`` on its own segment, where
    ``sign`` is e's sign within the segment; cycles are listed by ascending
    e, as in ``fundamental_cycles`` on the base graph.  Coefficients on this
    basis are therefore the base lambda, and lambda_i is ``sign`` times the
    change of flow on segment ``non_tree_edges[i]``.
    """
    holders: list[tuple[int, int, int]] = []  # (non-tree base edge, segment, sign)
    for sid, s in enumerate(seg.edges):
        if not tree.issuperset(s.edge_ids):
            for eid, sign in zip(s.edge_ids, s.signs):
                if eid not in tree:
                    holders.append((eid, sid, sign))
                    break
    holders.sort()
    non_tree = tuple(sid for _, sid, _ in holders)
    seg_tree = frozenset(range(len(seg.edges))).difference(non_tree)
    rooted = rooted_tree(seg, seg_tree)
    cycles: list[dict[int, int]] = []
    for _, sid, sign in holders:
        s = seg.edges[sid]
        cycle = {sid: sign}
        for x, _, step in rooted.path(s.v, s.u):
            cycle[step] = sign if x == seg.edges[step].u else -sign
        cycles.append(cycle)
    return CycleBasis(seg_tree, non_tree, tuple(cycles))

