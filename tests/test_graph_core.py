import heapq

import pytest

from scpsolver.graph_core import (
    BaseGraph,
    Segment,
    UnionFind,
    component_roots,
    cycle_rank,
    fundamental_cycles,
    segment_basis,
    shortest_path,
    smooth_topology,
    spanning_tree,
    tree_path,
)
from scpsolver.oracle import SplitMix64, random_instance


def path_graph(n, cost=1):
    return BaseGraph.from_edges(n, [(v, v + 1, cost) for v in range(1, n)])


def ring_graph(n, cost=1):
    triples = [(v, v + 1, cost) for v in range(1, n)] + [(1, n, cost)]
    return BaseGraph.from_edges(n, triples)


def theta_graph():
    # hubs 1 and 2, three strands through 3, 4, 5
    return BaseGraph.from_edges(
        5, [(1, 3, 1), (2, 3, 1), (1, 4, 1), (2, 4, 1), (1, 5, 1), (2, 5, 1)]
    )


# --- construction ---


def test_from_edges_normalizes_orientation():
    g = BaseGraph.from_edges(3, [(3, 1, 5), (2, 3, 1)])
    assert (g.edges[0].u, g.edges[0].v) == (1, 3)
    assert (g.edges[1].u, g.edges[1].v) == (2, 3)


@pytest.mark.parametrize(
    "triples",
    [
        [(1, 1, 1)],            # self-loop
        [(1, 2, 1), (2, 1, 3)], # parallel
        [(1, 4, 1)],            # endpoint out of range
        [(1, 2, -1)],           # negative cost
    ],
)
def test_rejects_bad_edges(triples):
    with pytest.raises(ValueError):
        BaseGraph.from_edges(3, triples)


# --- cycle rank ---


def test_cycle_rank_path_is_zero():
    assert cycle_rank(path_graph(4)) == 0


def test_cycle_rank_cycle_is_one():
    assert cycle_rank(ring_graph(5)) == 1


def test_cycle_rank_theta_is_two():
    assert cycle_rank(theta_graph()) == 2


def test_cycle_rank_disconnected_raises():
    g = BaseGraph.from_edges(4, [(1, 2, 1), (3, 4, 1)])
    assert not g.connected
    with pytest.raises(ValueError):
        cycle_rank(g)


def test_single_vertex_graph_is_connected():
    g = BaseGraph(1, ())
    assert g.connected
    assert cycle_rank(g) == 0


# --- spanning tree ---


def test_spanning_tree_path_keeps_every_edge():
    assert spanning_tree(path_graph(6)) == frozenset(range(5))


def test_spanning_tree_triangle_takes_edges_at_start_vertex():
    # edges 0 and 1 touch vertex 1; BFS from vertex 1 picks both
    g = BaseGraph.from_edges(3, [(1, 2, 1), (1, 3, 1), (2, 3, 1)])
    assert spanning_tree(g) == frozenset({0, 1})


def test_spanning_tree_explores_neighbors_ascending():
    # from 1 both 2 and 3 are reached directly, then 4 through 2 (lower id)
    g = BaseGraph.from_edges(4, [(1, 2, 1), (1, 3, 1), (2, 4, 1), (3, 4, 1)])
    assert spanning_tree(g) == frozenset({0, 1, 2})


def test_spanning_tree_wide_star():
    # 40,000 leaves enter the BFS queue at once; leaf-to-leaf edges stay out
    leaves = range(2, 40_002)
    triples = [(1, v, 1) for v in leaves] + [(v, v + 1, 1) for v in range(2, 40_001, 2)]
    g = BaseGraph.from_edges(40_001, triples)
    assert spanning_tree(g) == frozenset(range(40_000))


def test_spanning_tree_disconnected_raises():
    g = BaseGraph.from_edges(5, [(1, 2, 1), (2, 3, 1), (4, 5, 1)])
    with pytest.raises(ValueError, match="graph not connected"):
        spanning_tree(g)


def test_tree_path_chains():
    g = theta_graph()
    tree = spanning_tree(g)
    steps = tree_path(g, tree, 4, 5)
    assert steps[0][0] == 4 and steps[-1][1] == 5
    for a, b in zip(steps, steps[1:]):
        assert a[1] == b[0]


# --- fundamental cycles ---


def test_fundamental_cycles_triangle():
    g = BaseGraph.from_edges(3, [(1, 2, 1), (1, 3, 1), (2, 3, 1)])
    basis = fundamental_cycles(g, spanning_tree(g))
    assert basis.non_tree_edges == (2,)
    assert basis.cycles[0] == {2: 1, 1: -1, 0: 1}


def test_fundamental_cycles_on_tree_is_empty():
    g = path_graph(5)
    basis = fundamental_cycles(g, spanning_tree(g))
    assert basis.non_tree_edges == ()
    assert basis.cycles == ()


def test_fundamental_cycles_theta_supports():
    g = theta_graph()
    tree = spanning_tree(g)
    assert tree == frozenset({0, 1, 2, 4})
    basis = fundamental_cycles(g, tree)
    assert basis.non_tree_edges == (3, 5)
    assert set(basis.cycles[0]) == {3, 2, 0, 1}
    assert set(basis.cycles[1]) == {5, 4, 0, 1}


def test_fundamental_cycles_rejects_non_spanning_set():
    g = ring_graph(4)
    with pytest.raises(ValueError):
        fundamental_cycles(g, frozenset({0, 1}))
    # right count but contains a cycle and misses a vertex
    g2 = BaseGraph.from_edges(4, [(1, 2, 1), (2, 3, 1), (1, 3, 1), (3, 4, 1)])
    with pytest.raises(ValueError):
        fundamental_cycles(g2, frozenset({0, 1, 2}))


def _conserves(graph, flow_by_edge):
    bal = {v: 0 for v in range(1, graph.vertex_count + 1)}
    for eid, val in flow_by_edge.items():
        e = graph.edges[eid]
        bal[e.u] += val
        bal[e.v] -= val
    return all(b == 0 for b in bal.values())


def test_fundamental_cycles_are_unit_circulations():
    rng = SplitMix64(7)
    for _ in range(30):
        inst = random_instance(rng.next64(), 9, 4, 0, 9)
        g = inst.base
        basis = fundamental_cycles(g, spanning_tree(g))
        for i, cycle in enumerate(basis.cycles):
            assert all(v in (-1, 1) for v in cycle.values())
            assert _conserves(g, cycle)
            # own non-tree edge +1, other non-tree edges absent
            for j, eid in enumerate(basis.non_tree_edges):
                assert cycle.get(eid, 0) == (1 if i == j else 0)


def test_basis_reconstructs_any_cycle_combination():
    rng = SplitMix64(8)
    for _ in range(30):
        inst = random_instance(rng.next64(), 9, 4, 0, 9)
        g = inst.base
        basis = fundamental_cycles(g, spanning_tree(g))
        flows = [0] * len(g.edges)
        for cycle in basis.cycles:
            lam = rng.randint(-3, 3)
            for eid, val in cycle.items():
                flows[eid] += lam * val
        rebuilt = [0] * len(g.edges)
        for i, eid in enumerate(basis.non_tree_edges):
            coeff = flows[eid]
            for e2, val in basis.cycles[i].items():
                rebuilt[e2] += coeff * val
        assert rebuilt == flows


# --- smoothing ---


def chains(seg):
    """Each segment as (base u, base v, cost)."""
    return tuple((seg.vertices[s.u - 1], seg.vertices[s.v - 1], s.cost) for s in seg.edges)


def test_smooth_path_collapses_to_one_edge():
    report = smooth_topology(path_graph(10, cost=2))
    assert report.cycle_rank == 0
    assert report.branch_count == 0
    assert report.branch_vertices == ()
    assert report.vertices == (1, 10)
    assert chains(report) == ((1, 10, 18),)


def test_smooth_cycle_collapses_to_one_loop():
    report = smooth_topology(ring_graph(8))
    assert report.cycle_rank == 1
    assert report.branch_count == 0
    assert len(report.vertices) == 1
    (u, v, cost), = chains(report)
    assert u == v and cost == 8


def test_smooth_subdivided_theta():
    # subdivide each strand of the theta once more
    g = BaseGraph.from_edges(
        8,
        [
            (1, 3, 1), (3, 6, 1), (6, 2, 1),
            (1, 4, 1), (4, 7, 1), (7, 2, 1),
            (1, 5, 1), (5, 8, 1), (8, 2, 1),
        ],
    )
    report = smooth_topology(g)
    assert report.cycle_rank == 2
    assert report.branch_vertices == (1, 2)
    assert report.branch_count == 2
    assert report.vertices == (1, 2)
    assert sorted(chains(report)) == [(1, 2, 3), (1, 2, 3), (1, 2, 3)]


def test_smooth_single_edge_untouched():
    report = smooth_topology(path_graph(2, cost=7))
    assert chains(report) == ((1, 2, 7),)


def test_smooth_preserves_rank_and_total_cost():
    rng = SplitMix64(9)
    for _ in range(25):
        inst = random_instance(rng.next64(), 9, 4, 0, 9)
        g = inst.base
        report = smooth_topology(g)
        assert len(report.edges) - len(report.vertices) + 1 == cycle_rank(g)
        assert sum(s.cost for s in report.edges) == sum(e.cost for e in g.edges)


def test_smooth_subdivision_has_same_core_shape():
    g = theta_graph()
    # subdivide edge (1, 3) through a new vertex 6
    subdivided = BaseGraph.from_edges(
        6, [(1, 6, 1), (6, 3, 1), (2, 3, 1), (1, 4, 1), (2, 4, 1), (1, 5, 1), (2, 5, 1)]
    )
    a = smooth_topology(g)
    b = smooth_topology(subdivided)
    degree_a = sorted([v for s in a.edges for v in (s.u, s.v)])
    degree_b = sorted([v for s in b.edges for v in (s.u, s.v)])
    assert len(a.vertices) == len(b.vertices)
    assert len(degree_a) == len(degree_b)
    assert sum(s.cost for s in b.edges) == sum(s.cost for s in a.edges) + 1


def test_smooth_long_path_is_one_edge():
    report = smooth_topology(path_graph(20_000, cost=3))
    assert report.vertices == (1, 20_000)
    assert chains(report) == ((1, 20_000, 3 * 19_999),)


def test_smooth_long_ring_is_one_loop():
    report = smooth_topology(ring_graph(20_000))
    assert report.branch_count == 0
    assert report.vertices == (20_000,)
    assert chains(report) == ((20_000, 20_000, 20_000),)


def test_smooth_long_theta_is_three_parallels():
    # hubs 1 and 2 joined by three strands of 5,000 inner vertices each
    triples = []
    nxt = 3
    for _ in range(3):
        chain = [1, *range(nxt, nxt + 5_000), 2]
        nxt += 5_000
        triples += [(a, b, 1) for a, b in zip(chain, chain[1:])]
    report = smooth_topology(BaseGraph.from_edges(nxt - 1, triples))
    assert (report.cycle_rank, report.branch_vertices) == (2, (1, 2))
    assert report.vertices == (1, 2)
    assert chains(report) == ((1, 2, 5_001),) * 3


def endpoint_instances(seed, count):
    rng = SplitMix64(seed)
    while count:
        inst = random_instance(rng.next64(), 12, 4, 4, 9)
        if inst.requests:
            count -= 1
            yield inst, {v for r in inst.requests for v in (r.source, r.target)}


def test_segments_cover_every_edge_once_with_signed_chains():
    for inst, keep in endpoint_instances(5, 60):
        g = inst.base
        seg = smooth_topology(g, keep)
        assert keep <= set(seg.vertices)
        assert sorted(eid for s in seg.edges for eid in s.edge_ids) == list(range(len(g.edges)))
        assert [s.edge_ids[0] for s in seg.edges] == sorted(s.edge_ids[0] for s in seg.edges)
        for s in seg.edges:
            assert s.u <= s.v and s.cost == sum(g.edges[eid].cost for eid in s.edge_ids)
            x = seg.vertices[s.u - 1]  # walk the chain by its signs
            for eid, sign in zip(s.edge_ids, s.signs):
                e = g.edges[eid]
                assert x == (e.u if sign == 1 else e.v)
                x = e.v if sign == 1 else e.u
            assert x == seg.vertices[s.v - 1]


def test_segment_graph_of_a_cycle_with_two_endpoints_has_two_parallels():
    seg = smooth_topology(ring_graph(9), {3, 7})
    assert seg.vertices == (3, 7)
    # both run from 3 to 7: one down through 1 and 9, one up through 4
    assert chains(seg) == ((3, 7, 5), (3, 7, 4))
    assert [s.edge_ids for s in seg.edges] == [(1, 0, 8, 7, 6), (2, 3, 4, 5)]
    assert [s.signs for s in seg.edges] == [(-1, -1, 1, -1, -1), (1, 1, 1, 1)]


def test_segment_graph_keeps_a_loop_hanging_off_one_vertex():
    # triangle 1-2-3 hanging off vertex 1 of the path 4-1
    g = BaseGraph.from_edges(4, [(1, 2, 1), (2, 3, 2), (1, 3, 4), (1, 4, 8)])
    seg = smooth_topology(g, {4})
    assert seg.vertices == (1, 4)
    assert chains(seg) == ((1, 1, 7), (1, 4, 8))
    assert seg.edges[0].signs == (1, 1, -1)


def project_cycle(seg, cycle, edge_count):
    """A base cycle as segment flows, zero entries dropped."""
    flows = seg.project([cycle.get(eid, 0) for eid in range(edge_count)])
    return {sid: val for sid, val in enumerate(flows) if val}


def test_segment_basis_is_the_projected_base_basis():
    for inst, endpoints in endpoint_instances(7, 80):
        every = range(1, inst.base.vertex_count + 1)
        tenths = BaseGraph.from_edges(inst.base.vertex_count, [(e.u, e.v, e.cost / 10) for e in inst.base.edges])
        for g, keep in ((inst.base, endpoints), (inst.base, every), (tenths, every)):
            tree = spanning_tree(g)
            base = fundamental_cycles(g, tree)
            seg = smooth_topology(g, keep)
            basis = segment_basis(seg, tree)
            assert len(basis.cycles) == len(base.cycles) == cycle_rank(g)
            for own, cycle, eid, base_cycle in zip(basis.non_tree_edges, basis.cycles, base.non_tree_edges, base.cycles):
                assert eid in seg.edges[own].edge_ids
                assert cycle == project_cycle(seg, base_cycle, len(g.edges))
            if keep is every:
                # solve's segment graph for float costs: nothing is compressed,
                # and the basis is the base one, each cycle in the same order
                assert seg.edges == tuple(Segment(e.u, e.v, e.cost, (i,), (1,)) for i, e in enumerate(g.edges))
                assert basis == base
                assert [list(c.items()) for c in basis.cycles] == [list(c.items()) for c in base.cycles]


# --- shortest paths ---


def test_shortest_path_same_vertex():
    assert shortest_path(path_graph(3), 2, 2) == (0, (2,))


def test_shortest_path_on_path_graph():
    g = BaseGraph.from_edges(3, [(1, 2, 2), (2, 3, 3)])
    assert shortest_path(g, 1, 3) == (5, (1, 2, 3))


def test_shortest_path_breaks_ties_lexicographically():
    g = BaseGraph.from_edges(4, [(1, 2, 1), (2, 4, 1), (1, 3, 1), (3, 4, 1)])
    assert shortest_path(g, 1, 4) == (2, (1, 2, 4))


def test_shortest_path_prefers_cheaper_long_route():
    g = BaseGraph.from_edges(4, [(1, 4, 10), (1, 2, 1), (2, 3, 1), (3, 4, 1)])
    assert shortest_path(g, 1, 4) == (3, (1, 2, 3, 4))


def quadratic_shortest_path(graph, source, target):
    """The earlier shortest_path: every heap entry carries its whole path."""
    if source == target:
        return 0, (source,)
    heap = [(0, (source,))]
    done = set()
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


@pytest.mark.parametrize("costs", ["int", "tenths", "zero"])
def test_shortest_path_matches_the_quadratic_search(costs):
    # int costs; costs k/10, whose float sums depend on the summing order;
    # and int costs 0-3, whose zero-cost edges tie vertices at one distance
    rng = SplitMix64({"int": 78, "tenths": 87, "zero": 96}[costs])
    ties = 0
    for _ in range(400):
        g = random_instance(rng.next64(), 12, 6, 0, 4).base
        if costs == "tenths":
            g = BaseGraph.from_edges(g.vertex_count, [(e.u, e.v, e.cost / 10) for e in g.edges])
        elif costs == "zero":
            g = BaseGraph.from_edges(g.vertex_count, [(e.u, e.v, e.cost - 1) for e in g.edges])
        for _ in range(4):
            s, t = rng.randint(1, g.vertex_count), rng.randint(1, g.vertex_count)
            want = quadratic_shortest_path(g, s, t)
            got = shortest_path(g, s, t)
            assert got == want and type(got[0]) is type(want[0])
            ties += len({p for p in all_paths(g, s, t) if path_cost(g, p) == want[0]}) > 1
    assert ties > 50  # the tie-break is exercised, not just the distances


def all_paths(g, s, t):
    """Every simple s-t path (small graphs only)."""
    out = []
    stack = [(s, (s,))]
    while stack:
        v, path = stack.pop()
        if v == t:
            out.append(path)
            continue
        for w, _ in g.adjacency[v]:
            if w not in path:
                stack.append((w, path + (w,)))
    return out


def path_cost(g, path):
    cost = 0
    for a, b in zip(path, path[1:]):
        cost += next(g.edges[eid].cost for w, eid in g.adjacency[a] if w == b)
    return cost


def test_shortest_path_on_a_long_path():
    # the quadratic search took seconds here: each heap entry copied its path
    g = path_graph(50_000, cost=3)
    assert shortest_path(g, 1, 50_000) == (3 * 49_999, tuple(range(1, 50_001)))


def test_shortest_path_cost_is_symmetric():
    rng = SplitMix64(10)
    for _ in range(20):
        inst = random_instance(rng.next64(), 8, 3, 0, 9)
        g = inst.base
        u = rng.randint(1, g.vertex_count)
        v = rng.randint(1, g.vertex_count)
        assert shortest_path(g, u, v)[0] == shortest_path(g, v, u)[0]


# --- components ---


def edge_pairs(graph, edge_ids):
    return [(graph.edges[eid].u, graph.edges[eid].v) for eid in edge_ids]


def test_component_roots_empty_subset():
    assert component_roots(4, edge_pairs(path_graph(3), [])) == [0, 1, 2, 3]


def test_component_roots_split_path():
    g = path_graph(5)
    assert component_roots(6, edge_pairs(g, [0, 3])) == [0, 1, 1, 3, 4, 4]


def test_component_roots_whole_theta():
    g = theta_graph()
    assert component_roots(6, edge_pairs(g, range(6))) == [0, 1, 1, 1, 1, 1]


def test_union_reports_whether_it_joined():
    uf = UnionFind(4)
    assert uf.union(2, 1)
    assert uf.union(3, 2)
    assert not uf.union(1, 3)
    assert not uf.union(0, 0)
    assert [uf.find(v) for v in range(4)] == [0, 1, 1, 1]


def bfs_least_members(size, pairs):
    adjacency = [[] for _ in range(size)]
    for a, b in pairs:
        adjacency[a].append(b)
        adjacency[b].append(a)
    least = [-1] * size
    for start in range(size):  # ascending, so start is its component's least member
        if least[start] >= 0:
            continue
        least[start] = start
        queue = [start]
        for v in queue:
            for w in adjacency[v]:
                if least[w] < 0:
                    least[w] = start
                    queue.append(w)
    return least


def test_component_roots_match_bfs_reference():
    rng = SplitMix64(41)
    for _ in range(300):
        size = rng.randint(1, 30)
        pairs = [(rng.randint(0, size - 1), rng.randint(0, size - 1)) for _ in range(rng.randint(0, 40))]
        pairs += pairs[: rng.randint(0, len(pairs))]  # repeats
        pairs += [(v, v) for v in range(0, size, rng.randint(1, size))]  # loops
        assert component_roots(size, pairs) == bfs_least_members(size, pairs)
