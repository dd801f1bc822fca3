import pytest

from scpsolver.circulation import (
    Circulation,
    Instance,
    Request,
    circulation_cost,
    initial_circulation,
    min_cost_circulation,
    support_connected,
)
from scpsolver.cli_io import solve
from scpsolver.enumeration import enumerate_candidates
from scpsolver.graph_core import BaseGraph, cycle_rank, fundamental_cycles, spanning_tree
from scpsolver.homology_tour import (
    KIND_EDGE,
    KIND_REQUEST,
    ContractedGraph,
    EulerMultigraph,
    ReducedGraph,
    SteinerSolution,
    Step,
    Tour,
    build_euler_multigraph,
    connectivity_repair,
    contract_support,
    euler_tour,
    min_steiner_tree,
    steiner_preprocess,
    tour_in_class,
)
from scpsolver.oracle import SplitMix64, brute_force_steiner, random_instance, verify_tour


def basis_of(instance):
    return fundamental_cycles(instance.base, spanning_tree(instance.base))


def split_path_instance():
    # two requests at opposite ends; their class supports do not touch
    g = BaseGraph.from_edges(4, [(1, 2, 1), (2, 3, 5), (3, 4, 1)])
    inst = Instance(g, (Request(1, 2, 1), Request(3, 4, 1)))
    return inst, Circulation((-1, 0, -1), (1, 1))


# --- support contraction ---


def test_contract_connected_support_gives_one_terminal():
    g = BaseGraph.from_edges(3, [(1, 2, 1), (1, 3, 1), (2, 3, 1)])
    inst = Instance(g, (Request(1, 2, 1), Request(1, 3, 1)))
    cg = contract_support(inst, Circulation((-1, -1, 0), (1, 1)))
    assert cg.vertices == (0,)
    assert cg.terminals == frozenset({0})
    assert cg.edges == ()


def test_contract_split_support():
    inst, g = split_path_instance()
    cg = contract_support(inst, g)
    assert cg.vertices == (0, 1)
    assert cg.terminals == frozenset({0, 1})
    assert cg.vertex_map == {1: 0, 2: 0, 3: 1, 4: 1}
    # the one zero-flow edge survives with doubled weight
    assert cg.edges == ((0, 1, 10, 1),)


def test_contract_keeps_parallel_reconnection_edges():
    g = BaseGraph.from_edges(4, [(1, 2, 1), (2, 3, 2), (3, 4, 1), (1, 4, 4)])
    inst = Instance(g, (Request(1, 2, 1), Request(3, 4, 1)))
    cg = contract_support(inst, Circulation((-1, 0, -1, 0), (1, 1)))
    assert cg.terminals == frozenset({0, 1})
    assert cg.edges == ((0, 1, 4, 1), (0, 1, 8, 3))


def test_contract_untouched_vertices_stay_isolated():
    g = BaseGraph.from_edges(4, [(1, 2, 1), (2, 3, 1), (3, 4, 1)])
    inst = Instance(g, (Request(1, 2, 1),))
    cg = contract_support(inst, Circulation((-1, 0, 0), (1,)))
    # components: {1,2} then singletons 3 and 4
    assert cg.vertices == (0, 1, 2)
    assert cg.terminals == frozenset({0})
    assert cg.vertex_map == {1: 0, 2: 0, 3: 1, 4: 2}


class DictUnionFind:
    """The dict-keyed union-find contract_support and support_connected once used."""

    def __init__(self, items=()):
        self.parent = {x: x for x in items}

    def add(self, x):
        if x not in self.parent:
            self.parent[x] = x

    def find(self, x):
        root = x
        while self.parent[root] != root:
            root = self.parent[root]
        while self.parent[x] != root:
            self.parent[x], x = root, self.parent[x]
        return root

    def union(self, a, b):
        ra, rb = self.find(a), self.find(b)
        if ra == rb:
            return False
        self.parent[rb] = ra
        return True


def reference_contract_support(instance, g):
    graph = instance.base
    uf = DictUnionFind(range(1, graph.vertex_count + 1))
    touched = set()
    for eid, e in enumerate(graph.edges):
        if g.edge_flow[eid] != 0:
            uf.union(e.u, e.v)
            touched.update((e.u, e.v))
    for aid, r in enumerate(instance.requests):
        if g.arc_flow[aid] != 0:
            uf.union(r.source, r.target)
            touched.update((r.source, r.target))
    classes = {}
    for v in range(1, graph.vertex_count + 1):
        classes.setdefault(uf.find(v), []).append(v)
    ordered = sorted(classes.values(), key=min)
    vertex_map = {v: q for q, members in enumerate(ordered) for v in members}
    quotient_edges = []
    for eid, e in enumerate(graph.edges):
        if g.edge_flow[eid] != 0:
            continue
        qu, qv = vertex_map[e.u], vertex_map[e.v]
        if qu != qv:
            quotient_edges.append((min(qu, qv), max(qu, qv), 2 * e.cost, eid))
    terminals = frozenset(vertex_map[v] for v in touched)
    return ContractedGraph(tuple(range(len(ordered))), tuple(quotient_edges), terminals, vertex_map)


def reference_support_connected(instance, f):
    uf = DictUnionFind()
    touched = set()
    pairs = [(e.u, e.v) for eid, e in enumerate(instance.base.edges) if f.edge_flow[eid] != 0]
    pairs += [(r.source, r.target) for aid, r in enumerate(instance.requests) if f.arc_flow[aid] != 0]
    for a, b in pairs:
        uf.add(a)
        uf.add(b)
        uf.union(a, b)
        touched.update((a, b))
    return not touched or len({uf.find(v) for v in touched}) == 1


def test_contraction_matches_dict_union_find_reference():
    checked = split = 0
    for seed in range(1, 41):
        inst = random_instance(seed, 10, 4, 6, 20)
        if not inst.requests:
            continue
        basis = basis_of(inst)
        f = min_cost_circulation(inst)
        for g in enumerate_candidates(f, basis, cycle_rank(inst.base)):
            mine, want = contract_support(inst, g), reference_contract_support(inst, g)
            assert mine.vertices == want.vertices
            assert mine.edges == want.edges
            assert mine.terminals == want.terminals
            assert mine.vertex_map == want.vertex_map
            connected = support_connected(inst, g)
            assert connected == reference_support_connected(inst, g)
            checked += 1
            split += not connected
    assert checked > 1000 and split > 0, (checked, split)


# --- steiner preprocessing ---


def test_preprocess_identity_when_everything_is_terminal():
    cg = ContractedGraph((0, 1), ((0, 1, 6, 7),), frozenset({0, 1}), {})
    reduced = steiner_preprocess(cg)
    assert reduced.vertices == (0, 1)
    assert reduced.edges == ((0, 1, 6, (7,)),)


def test_preprocess_splices_steiner_chain():
    cg = ContractedGraph(
        (0, 1, 2, 3),
        ((0, 1, 2, 10), (1, 2, 3, 11), (2, 3, 4, 12)),
        frozenset({0, 3}),
        {},
    )
    reduced = steiner_preprocess(cg)
    assert reduced.vertices == (0, 3)
    assert reduced.edges == ((0, 3, 9, (10, 11, 12)),)


def test_preprocess_drops_steiner_leaves_and_isolated():
    cg = ContractedGraph(
        (0, 1, 2, 3),
        ((0, 1, 2, 10), (1, 2, 3, 11)),
        frozenset({0, 1}),
        {},
    )
    reduced = steiner_preprocess(cg)
    # 2 is a steiner leaf, 3 is isolated steiner; both vanish
    assert reduced.vertices == (0, 1)
    assert reduced.edges == ((0, 1, 2, (10,)),)


def test_preprocess_keeps_cheapest_parallel():
    cg = ContractedGraph(
        (0, 1),
        ((0, 1, 8, 10), (0, 1, 4, 11), (0, 1, 4, 9)),
        frozenset({0, 1}),
        {},
    )
    reduced = steiner_preprocess(cg)
    assert reduced.edges == ((0, 1, 4, (9,)),)


def test_preprocess_keeps_useful_steiner_branch_vertex():
    # steiner hub of degree 3 must survive
    cg = ContractedGraph(
        (0, 1, 2, 3),
        ((0, 3, 1, 10), (1, 3, 1, 11), (2, 3, 1, 12)),
        frozenset({0, 1, 2}),
        {},
    )
    reduced = steiner_preprocess(cg)
    assert reduced.vertices == (0, 1, 2, 3)
    assert len(reduced.edges) == 3


def test_preprocess_long_steiner_chain_is_one_edge():
    # 20,000 Steiner vertices between terminals 0 and 20,001, spliced one by one
    n = 20_000
    edges = tuple((i, i + 1, 2, i) for i in range(n + 1))
    reduced = steiner_preprocess(ContractedGraph(tuple(range(n + 2)), edges, frozenset({0, n + 1}), {}))
    assert reduced.vertices == (0, n + 1)
    assert reduced.edges == ((0, n + 1, 2 * (n + 1), tuple(range(n + 1))),)


def random_contracted_graph(rng):
    # up to 12 vertices, a few isolated; small weights make ties and parallels common
    n = rng.randint(1, 12)
    edges = []
    for v in range(1, n):
        if rng.randint(0, 5):
            edges.append((rng.randint(0, v - 1), v))
    for _ in range(rng.randint(0, 2 * n)):
        a, b = rng.randint(0, n - 1), rng.randint(0, n - 1)
        if a != b:
            edges.append((min(a, b), max(a, b)))
    edges = tuple((u, v, rng.randint(1, 3), eid) for eid, (u, v) in enumerate(edges))
    terminals = frozenset(v for v in range(n) if rng.randint(0, 2) == 0) or frozenset({0})
    return ContractedGraph(tuple(range(n)), edges, terminals, {})


def test_preprocess_matches_oracle_on_random_graphs():
    rng = SplitMix64(31)
    for _ in range(300):
        cg = random_contracted_graph(rng)
        reduced = steiner_preprocess(cg)
        weight_of = {eid: w for _, _, w, eid in cg.edges}

        pairs = [(u, v) for u, v, _, _ in reduced.edges]
        assert all(u < v for u, v in pairs)
        assert len(set(pairs)) == len(pairs)
        degree = {v: 0 for v in reduced.vertices}
        for u, v, w, origin in reduced.edges:
            degree[u] += 1
            degree[v] += 1
            assert w == sum(weight_of[eid] for eid in origin)
        assert all(d > 2 for v, d in degree.items() if v not in cg.terminals)

        unreduced = ReducedGraph(
            cg.vertices, cg.terminals, tuple((u, v, w, (eid,)) for u, v, w, eid in cg.edges)
        )
        try:
            expected = brute_force_steiner(unreduced, cg.terminals).cost
        except ValueError:
            with pytest.raises(ValueError):
                min_steiner_tree(reduced, cg.terminals)
            continue
        assert min_steiner_tree(reduced, cg.terminals).weight == expected


# --- exact steiner trees ---


def star_graph():
    return ReducedGraph(
        (0, 1, 2, 3),
        frozenset({1, 2, 3}),
        ((0, 1, 2, (0,)), (0, 2, 2, (1,)), (0, 3, 2, (2,))),
    )


def test_steiner_single_terminal_is_free():
    sol = min_steiner_tree(star_graph(), frozenset({1}))
    assert sol == SteinerSolution(frozenset(), 0)


def test_steiner_star_uses_the_hub():
    g = star_graph()
    sol = min_steiner_tree(g, g.terminals)
    assert sol.weight == 6
    assert sol.edge_ids == frozenset({0, 1, 2})
    assert brute_force_steiner(g, g.terminals).cost == 6


def test_steiner_prefers_cheap_detour_over_direct_edge():
    g = ReducedGraph(
        (0, 1, 2),
        frozenset({0, 1}),
        ((0, 1, 10, (5,)), (0, 2, 2, (6,)), (1, 2, 2, (7,))),
    )
    sol = min_steiner_tree(g, g.terminals)
    assert sol.weight == 4
    assert sol.edge_ids == frozenset({6, 7})


def test_steiner_skips_useless_optional_vertex():
    g = ReducedGraph(
        (0, 1, 2),
        frozenset({0, 1}),
        ((0, 1, 3, (5,)), (0, 2, 9, (6,)), (1, 2, 9, (7,))),
    )
    sol = min_steiner_tree(g, g.terminals)
    assert sol.weight == 3
    assert sol.edge_ids == frozenset({5})


def test_steiner_raises_when_terminals_split():
    g = ReducedGraph((0, 1, 2), frozenset({0, 2}), ((0, 1, 1, (5,)),))
    with pytest.raises(ValueError, match="homology class disconnected"):
        min_steiner_tree(g, g.terminals)


def test_steiner_rejects_bad_terminals():
    g = star_graph()
    with pytest.raises(ValueError):
        min_steiner_tree(g, frozenset())
    with pytest.raises(ValueError):
        min_steiner_tree(g, frozenset({9}))


def _random_reduced_graph(rng, max_n=9):
    n = rng.randint(2, max_n)
    edges = []
    for v in range(1, n):
        u = rng.randint(0, v - 1)
        edges.append((u, v, rng.randint(1, 12), (len(edges),)))
    extra = rng.randint(0, 3)
    present = {(min(u, v), max(u, v)) for u, v, _, _ in edges}
    spare = [(u, v) for u in range(n) for v in range(u + 1, n) if (u, v) not in present]
    for _ in range(min(extra, len(spare))):
        u, v = spare.pop(rng.randint(0, len(spare) - 1))
        edges.append((u, v, rng.randint(1, 12), (len(edges),)))
    t = rng.randint(2, min(4, n))
    terminals = set()
    while len(terminals) < t:
        terminals.add(rng.randint(0, n - 1))
    return ReducedGraph(tuple(range(n)), frozenset(terminals), tuple(edges))


def test_steiner_matches_oracle_on_random_graphs():
    rng = SplitMix64(31)
    for _ in range(60):
        g = _random_reduced_graph(rng)
        mine = min_steiner_tree(g, g.terminals)
        theirs = brute_force_steiner(g, g.terminals)
        assert mine.weight == theirs.cost


def test_steiner_weight_never_rises_with_an_extra_edge():
    rng = SplitMix64(32)
    for _ in range(30):
        g = _random_reduced_graph(rng, max_n=7)
        base = min_steiner_tree(g, g.terminals).weight
        u = rng.randint(0, len(g.vertices) - 1)
        v = rng.randint(0, len(g.vertices) - 1)
        if u == v:
            continue
        widened = ReducedGraph(
            g.vertices, g.terminals, g.edges + ((min(u, v), max(u, v), rng.randint(1, 12), (999,)),)
        )
        assert min_steiner_tree(widened, widened.terminals).weight <= base


def test_steiner_on_sparse_vertex_ids_matches_oracle():
    # a Steiner hub 3 and three terminals whose ids are not 0..n-1
    g = ReducedGraph(
        (3, 7, 40, 41),
        frozenset({7, 40, 41}),
        ((3, 7, 2, (0,)), (3, 40, 2, (1,)), (3, 41, 2, (2,)), (7, 40, 5, (3,)), (40, 41, 5, (4,))),
    )
    sol = min_steiner_tree(g, g.terminals)
    assert sol == SteinerSolution(frozenset({0, 1, 2}), 6)
    assert brute_force_steiner(g, g.terminals).cost == 6


def test_steiner_ignores_vertex_numbering():
    rng = SplitMix64(34)
    for _ in range(60):
        g = _random_reduced_graph(rng)
        ids = {v: 3 + 5 * v + rng.randint(0, 4) for v in g.vertices}  # ascending, sparse
        sparse = ReducedGraph(
            tuple(ids[v] for v in g.vertices),
            frozenset(ids[v] for v in g.terminals),
            tuple((ids[u], ids[v], w, origin) for u, v, w, origin in g.edges),
        )
        sol = min_steiner_tree(sparse, sparse.terminals)
        assert sol == min_steiner_tree(g, g.terminals)
        assert sol.weight == brute_force_steiner(sparse, sparse.terminals).cost


# --- repair, euler multigraph, tours ---


def test_repair_is_free_for_connected_class():
    g = BaseGraph.from_edges(3, [(1, 2, 1), (1, 3, 1), (2, 3, 1)])
    inst = Instance(g, (Request(1, 2, 1), Request(1, 3, 1)))
    st = connectivity_repair(inst, Circulation((-1, -1, 0), (1, 1)))
    assert st == SteinerSolution(frozenset(), 0)


def test_repair_buys_the_bridge():
    inst, g = split_path_instance()
    st = connectivity_repair(inst, g)
    assert st.edge_ids == frozenset({1})
    assert st.weight == 10


def test_euler_multigraph_counts_copies():
    inst, g = split_path_instance()
    mg = build_euler_multigraph(inst, g, SteinerSolution(frozenset({1}), 10))
    arcs = sorted(mg.arcs)
    assert arcs == [
        (1, 2, KIND_REQUEST, 0, 1),
        (2, 1, KIND_EDGE, 0, 1),
        (2, 3, KIND_EDGE, 1, 5),
        (3, 2, KIND_EDGE, 1, 5),
        (3, 4, KIND_REQUEST, 1, 1),
        (4, 3, KIND_EDGE, 2, 1),
    ]


def test_euler_multigraph_rejects_unbalanced_flow():
    g = BaseGraph.from_edges(3, [(1, 2, 1), (1, 3, 1), (2, 3, 1)])
    inst = Instance(g, ())
    with pytest.raises(RuntimeError):
        build_euler_multigraph(inst, Circulation((1, 0, 0), ()), SteinerSolution(frozenset(), 0))


def test_euler_multigraph_rejects_disconnected_flow():
    g = BaseGraph.from_edges(
        7,
        [
            (1, 2, 1), (1, 3, 1), (2, 3, 1),
            (4, 5, 1), (4, 6, 1), (5, 6, 1),
            (3, 7, 1), (4, 7, 1),
        ],
    )
    inst = Instance(g, ())
    two_loops = Circulation((1, -1, 1, 1, -1, 1, 0, 0), ())
    with pytest.raises(RuntimeError):
        build_euler_multigraph(inst, two_loops, SteinerSolution(frozenset(), 0))


def test_euler_tour_of_nothing_is_empty():
    from scpsolver.homology_tour import EulerMultigraph, Tour

    assert euler_tour(EulerMultigraph(())) == Tour((), 0)


def test_euler_tour_starts_low_and_is_deterministic():
    inst, g = split_path_instance()
    mg = build_euler_multigraph(inst, g, SteinerSolution(frozenset({1}), 10))
    t1 = euler_tour(mg)
    t2 = euler_tour(mg)
    assert t1 == t2
    assert t1.steps[0].source == 1
    assert t1.steps[0].kind == KIND_REQUEST


def test_tour_in_class_split_path_frozen():
    inst, g = split_path_instance()
    tour = tour_in_class(inst, g)
    assert tour.total == circulation_cost(inst, g) + 10 == 14
    check = verify_tour(inst, tour)
    assert check.valid and check.cost == 14
    # steiner doubles cancel; the class is preserved
    assert check.circulation.edge_flow == g.edge_flow


def test_tour_in_class_unit_path_pays_double_bridge():
    g = BaseGraph.from_edges(4, [(1, 2, 1), (2, 3, 1), (3, 4, 1)])
    inst = Instance(g, (Request(1, 2, 1), Request(3, 4, 1)))
    f = min_cost_circulation(inst)
    tour = tour_in_class(inst, f)
    # circulation pays 4, the v2v3 bridge is crossed once each way
    assert tour.total == circulation_cost(inst, f) + 2 == 6


def test_tour_in_class_connected_class_costs_its_circulation():
    g = BaseGraph.from_edges(4, [(1, 2, 1), (2, 3, 1), (3, 4, 1), (1, 4, 1)])
    inst = Instance(g, (Request(1, 3, 2),))
    f = min_cost_circulation(inst)
    tour = tour_in_class(inst, f)
    assert tour.total == circulation_cost(inst, f) == 4


def test_tours_valid_across_random_candidates():
    rng = SplitMix64(33)
    for _ in range(25):
        inst = random_instance(rng.next64(), 8, 3, 4, 9)
        if not inst.requests:
            continue
        basis = basis_of(inst)
        f = initial_circulation(inst, basis)
        for g in enumerate_candidates(f, basis, 1):
            tour = tour_in_class(inst, g)
            check = verify_tour(inst, tour)
            assert check.valid, check.reason
            assert check.cost == tour.total
            assert check.circulation.edge_flow == g.edge_flow


# --- run-length euler tour against the per-unit walk ---


def unit_euler_tour(mg):
    """Hierholzer one traversal at a time: euler_tour before the run-length walk."""
    if not mg.arcs:
        return Tour((), 0)
    kind_rank = {KIND_REQUEST: 0, KIND_EDGE: 1}
    out = {}
    for idx, (tail, head, kind, ref, _) in enumerate(mg.arcs):
        out.setdefault(tail, []).append(idx)
    for tail in out:
        out[tail].sort(key=lambda i: (mg.arcs[i][1], kind_rank[mg.arcs[i][2]], mg.arcs[i][3]))
    ptr = dict.fromkeys(out, 0)

    vertex_stack = [min(out)]
    arc_stack = []
    circuit = []
    while vertex_stack:
        v = vertex_stack[-1]
        if ptr.get(v, 0) < len(out.get(v, ())):
            arc = out[v][ptr[v]]
            ptr[v] += 1
            vertex_stack.append(mg.arcs[arc][1])
            arc_stack.append(arc)
        else:
            vertex_stack.pop()
            if arc_stack:
                circuit.append(arc_stack.pop())
    circuit.reverse()
    if len(circuit) != len(mg.arcs):
        raise RuntimeError("euler multigraph is disconnected")
    steps = tuple(Step(mg.arcs[i][2], mg.arcs[i][0], mg.arcs[i][1], mg.arcs[i][3]) for i in circuit)
    return Tour(steps, sum(mg.arcs[i][4] for i in circuit))


def random_eulerian_arcs(rng, float_costs=False):
    """Union of random closed walks, each repeated 1..300 times, arcs shuffled.

    Arcs draw (kind, ref) from a small pool, so request and edge arcs share
    endpoints and one endpoint pair carries several kinds and refs; the cost
    is a function of (kind, ref), zero included, as in build_euler_multigraph.
    """
    n = rng.randint(1, 7)
    cost = {
        (kind, ref): (rng.randint(0, 9) / 10 if float_costs else rng.randint(0, 3))
        for kind in (KIND_REQUEST, KIND_EDGE)
        for ref in range(4)
    }
    arcs = []
    for _ in range(rng.randint(1, 4)):
        walk = [rng.randint(1, n) for _ in range(rng.randint(1, 6))]
        copies = rng.randint(1, 300) if rng.randint(1, 8) == 1 else rng.randint(1, 3)
        for a, b in zip(walk, walk[1:] + walk[:1]):
            kind = (KIND_REQUEST, KIND_EDGE)[rng.randint(0, 1)]
            ref = rng.randint(0, 3)
            arcs += [(a, b, kind, ref, cost[(kind, ref)])] * copies
    for i in range(len(arcs) - 1, 0, -1):
        j = rng.randint(0, i)
        arcs[i], arcs[j] = arcs[j], arcs[i]
    return tuple(arcs)


def step_fields(tour):
    return [(s.kind, s.source, s.target, s.ref) for s in tour.steps]


def test_run_length_tour_matches_unit_walk_on_random_multigraphs():
    rng = SplitMix64(606)
    disconnected = 0
    for trial in range(2000):
        arcs = random_eulerian_arcs(rng, float_costs=trial % 4 == 0)
        mg = EulerMultigraph(arcs)
        assert len(mg.arcs) == sum(mg.counts.values()) == len(arcs)
        assert sorted(mg.arcs) == sorted(arcs)
        try:
            want = unit_euler_tour(mg)
        except RuntimeError:
            disconnected += 1
            with pytest.raises(RuntimeError):
                euler_tour(mg)
            continue
        got = euler_tour(mg)
        assert step_fields(got) == step_fields(want), mg.arcs
        assert got.total == want.total and type(got.total) is type(want.total)
        assert got == want
        assert sum(len(seq) * copies for seq, copies in got.runs) == len(arcs)
    assert 50 < disconnected < 1000, disconnected


def test_run_length_tour_refuses_disconnected_multigraph():
    two_loops = (1, 2, KIND_EDGE, 0, 1), (2, 1, KIND_EDGE, 0, 1), (3, 4, KIND_REQUEST, 0, 2), (4, 3, KIND_EDGE, 1, 1)
    mg = EulerMultigraph(tuple(arc for arc in two_loops for _ in range(50)))
    for walk in (unit_euler_tour, euler_tour):
        with pytest.raises(RuntimeError, match="disconnected"):
            walk(mg)


def test_run_length_tour_of_repeated_triangle_repeats_one_cycle():
    cycle = [(1, 2, KIND_REQUEST, 0, 3), (2, 3, KIND_EDGE, 1, 1), (3, 1, KIND_EDGE, 2, 1)]
    mg = EulerMultigraph(tuple(arc for arc in cycle for _ in range(1000)))
    tour = euler_tour(mg)
    assert step_fields(tour) == step_fields(unit_euler_tour(mg))
    assert len(tour.steps) == 3000 and tour.total == 5000
    # one Step object per distinct arc
    assert len({id(s) for s in tour.steps}) == 3


def test_single_request_of_demand_100000_solves():
    g = BaseGraph.from_edges(4, [(1, 2, 2), (2, 3, 1), (3, 4, 4), (1, 4, 9)])
    inst = Instance(g, (Request(1, 3, 3, 100_000),))
    report = solve(inst)
    # each unit: the request, then back 3 -> 2 -> 1 at cost 3
    assert report.cost == 600_000
    assert len(report.tour.steps) == 300_000
    assert report.tour.total == report.cost
    check = verify_tour(inst, report.tour)
    assert check.valid and check.cost == report.cost
    assert check.circulation.arc_flow == (100_000,)


def reference_euler_arcs(instance, g, st):
    """build_euler_multigraph's arcs spelled out one per traversal, as before counts."""
    arcs = []
    for aid, r in enumerate(instance.requests):
        arcs += [(r.source, r.target, KIND_REQUEST, aid, r.cost)] * g.arc_flow[aid]
    for eid, e in enumerate(instance.base.edges):
        val = g.edge_flow[eid]
        tail, head = (e.u, e.v) if val > 0 else (e.v, e.u)
        arcs += [(tail, head, KIND_EDGE, eid, e.cost)] * abs(val)
    for eid in sorted(st.edge_ids):
        e = instance.base.edges[eid]
        arcs += [(e.u, e.v, KIND_EDGE, eid, e.cost), (e.v, e.u, KIND_EDGE, eid, e.cost)]
    return arcs


def test_euler_multigraph_counts_match_per_copy_arcs():
    rng = SplitMix64(808)
    checked = 0
    for _ in range(40):
        inst = random_instance(rng.next64(), 8, 3, 4, 9)
        if not inst.requests:
            continue
        basis = basis_of(inst)
        f = initial_circulation(inst, basis)
        for g in enumerate_candidates(f, basis, 1):
            st = connectivity_repair(inst, g)
            try:
                mg = build_euler_multigraph(inst, g, st)
            except RuntimeError:
                continue  # a class no repair can make Eulerian
            want = reference_euler_arcs(inst, g, st)
            assert len(mg.arcs) == sum(mg.counts.values()) == len(want)
            assert sorted(mg.arcs) == sorted(want)
            assert step_fields(euler_tour(mg)) == step_fields(unit_euler_tour(EulerMultigraph(want)))
            checked += 1
    assert checked > 100, checked


def test_tour_from_runs_equals_its_flat_steps():
    inst, g = split_path_instance()
    tour = euler_tour(build_euler_multigraph(inst, g, SteinerSolution(frozenset({1}), 10)))
    flat = Tour(tour.steps, tour.total)
    assert flat == tour and hash(flat) == hash(tour)
    assert flat.steps is tour.steps  # flat steps are kept as given
    assert len(flat.keys) == len(flat.steps) and flat.runs == ((range(len(flat.steps)), 1),)
    assert Tour(tour.steps, tour.total + 1) != tour
    assert Tour((), 0).runs == () and Tour((), 0).steps == ()
    # steps spell the runs out, one shared Step per key
    runs = Tour.from_runs((("request", 1, 2, 0), ("edge", 2, 1, 0)), (((0, 1), 3), ((0,), 1)), 7)
    assert [(s.kind, s.source) for s in runs.steps] == [("request", 1), ("edge", 2)] * 3 + [("request", 1)]
    assert len({id(s) for s in runs.steps}) == 2
    assert runs.steps is runs.steps
