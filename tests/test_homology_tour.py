from collections import Counter
from fractions import Fraction

import pytest

from scpsolver.circulation import (
    Instance,
    Request,
    circulation_cost,
    min_cost_circulation,
    support_pairs,
)
from scpsolver import homology_tour
from scpsolver.cli_io import solve
from scpsolver.enumeration import enumerate_candidates
from scpsolver.graph_core import BaseGraph, component_roots, cycle_rank, fundamental_cycles, spanning_tree
from scpsolver.homology_tour import (
    KIND_EDGE,
    KIND_REQUEST,
    EulerMultigraph,
    ReducedGraph,
    SteinerSolution,
    Tour,
    build_euler_multigraph,
    connectivity_repair,
    contract_support,
    euler_tour,
    min_steiner_tree,
    steiner_preprocess,
)
from scpsolver.oracle import (
    SplitMix64,
    brute_force_steiner,
    initial_circulation,
    random_instance,
    support_connected,
    tour_in_class,
    verify_tour,
)


def basis_of(instance):
    return fundamental_cycles(instance.base, spanning_tree(instance.base))


def contract(instance, g):
    """contract_support given the support pass connectivity_repair makes."""
    pairs = support_pairs(instance, g)
    return contract_support(instance, g, pairs, component_roots(instance.base.vertex_count + 1, pairs))


def split_path_instance():
    # two requests at opposite ends; their class supports do not touch
    g = BaseGraph.from_edges(4, [(1, 2, 1), (2, 3, 5), (3, 4, 1)])
    inst = Instance(g, (Request(1, 2, 1), Request(3, 4, 1)))
    return inst, (-1, 0, -1)


# --- support contraction ---


def test_contract_connected_support_gives_one_terminal():
    g = BaseGraph.from_edges(3, [(1, 2, 1), (1, 3, 1), (2, 3, 1)])
    inst = Instance(g, (Request(1, 2, 1), Request(1, 3, 1)))
    cg = contract(inst, (-1, -1, 0))
    assert cg.vertices == (0,)
    assert cg.terminals == frozenset({0})
    assert cg.edges == ()


def test_contract_split_support():
    inst, g = split_path_instance()
    cg = contract(inst, g)
    assert cg.vertices == (0, 1)
    assert cg.terminals == frozenset({0, 1})
    # the one zero-flow edge survives with doubled weight
    assert cg.edges == ((0, 1, 10, (1,)),)


def test_contract_keeps_parallel_reconnection_edges():
    g = BaseGraph.from_edges(4, [(1, 2, 1), (2, 3, 2), (3, 4, 1), (1, 4, 4)])
    inst = Instance(g, (Request(1, 2, 1), Request(3, 4, 1)))
    cg = contract(inst, (-1, 0, -1, 0))
    assert cg.terminals == frozenset({0, 1})
    assert cg.edges == ((0, 1, 4, (1,)), (0, 1, 8, (3,)))


def test_contract_untouched_vertices_stay_isolated():
    g = BaseGraph.from_edges(4, [(1, 2, 1), (2, 3, 1), (3, 4, 1)])
    inst = Instance(g, (Request(1, 2, 1),))
    cg = contract(inst, (-1, 0, 0))
    # components: {1,2} then singletons 3 and 4
    assert cg.vertices == (0, 1, 2)
    assert cg.terminals == frozenset({0})
    assert cg.edges == ((0, 1, 2, (1,)), (1, 2, 2, (2,)))


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
        if g[eid] != 0:
            uf.union(e.u, e.v)
            touched.update((e.u, e.v))
    for r in instance.requests:
        uf.union(r.source, r.target)
        touched.update((r.source, r.target))
    classes = {}
    for v in range(1, graph.vertex_count + 1):
        classes.setdefault(uf.find(v), []).append(v)
    ordered = sorted(classes.values(), key=min)
    vertex_map = {v: q for q, members in enumerate(ordered) for v in members}
    quotient_edges = []
    for eid, e in enumerate(graph.edges):
        if g[eid] != 0:
            continue
        qu, qv = vertex_map[e.u], vertex_map[e.v]
        if qu != qv:
            quotient_edges.append((min(qu, qv), max(qu, qv), 2 * e.cost, (eid,)))
    terminals = frozenset(vertex_map[v] for v in touched)
    return ReducedGraph(tuple(range(len(ordered))), terminals, tuple(quotient_edges))


def reference_support_connected(instance, f):
    uf = DictUnionFind()
    touched = set()
    pairs = [(e.u, e.v) for eid, e in enumerate(instance.base.edges) if f[eid] != 0]
    pairs += [(r.source, r.target) for r in instance.requests]
    for a, b in pairs:
        uf.add(a)
        uf.add(b)
        uf.union(a, b)
        touched.update((a, b))
    return not touched or len({uf.find(v) for v in touched}) == 1


def test_contraction_matches_dict_union_find_reference():
    # sparse draws with few requests: about one candidate in four has a
    # split support, the case the quotient is built for
    checked = split = 0
    for seed in range(1, 41):
        inst = random_instance(seed, 16, 3, 6, 5)
        if not inst.requests:
            continue
        basis = basis_of(inst)
        f = min_cost_circulation(inst)
        for g in enumerate_candidates(f, basis, cycle_rank(inst.base)):
            assert contract(inst, g) == reference_contract_support(inst, g)
            connected = support_connected(inst, g)
            assert connected == reference_support_connected(inst, g)
            checked += 1
            split += not connected
    assert checked > 1000 and split >= 300, (checked, split)


# --- steiner preprocessing ---


def test_preprocess_identity_when_everything_is_terminal():
    cg = ReducedGraph((0, 1), frozenset({0, 1}), ((0, 1, 6, (7,)),))
    reduced = steiner_preprocess(cg)
    assert reduced.vertices == (0, 1)
    assert reduced.edges == ((0, 1, 6, (7,)),)


def test_preprocess_splices_steiner_chain():
    cg = ReducedGraph((0, 1, 2, 3), frozenset({0, 3}), ((0, 1, 2, (10,)), (1, 2, 3, (11,)), (2, 3, 4, (12,))))
    reduced = steiner_preprocess(cg)
    assert reduced.vertices == (0, 3)
    assert reduced.edges == ((0, 3, 9, (10, 11, 12)),)


def test_preprocess_drops_steiner_leaves_and_isolated():
    cg = ReducedGraph((0, 1, 2, 3), frozenset({0, 1}), ((0, 1, 2, (10,)), (1, 2, 3, (11,))))
    reduced = steiner_preprocess(cg)
    # 2 is a steiner leaf, 3 is isolated steiner; both vanish
    assert reduced.vertices == (0, 1)
    assert reduced.edges == ((0, 1, 2, (10,)),)


def test_preprocess_keeps_cheapest_parallel():
    cg = ReducedGraph((0, 1), frozenset({0, 1}), ((0, 1, 8, (10,)), (0, 1, 4, (11,)), (0, 1, 4, (9,))))
    reduced = steiner_preprocess(cg)
    assert reduced.edges == ((0, 1, 4, (9,)),)


def test_preprocess_keeps_useful_steiner_branch_vertex():
    # steiner hub of degree 3 must survive
    cg = ReducedGraph((0, 1, 2, 3), frozenset({0, 1, 2}), ((0, 3, 1, (10,)), (1, 3, 1, (11,)), (2, 3, 1, (12,))))
    reduced = steiner_preprocess(cg)
    assert reduced.vertices == (0, 1, 2, 3)
    assert len(reduced.edges) == 3


def test_preprocess_long_steiner_chain_is_one_edge():
    # 20,000 Steiner vertices between terminals 0 and 20,001, spliced one by one
    n = 20_000
    edges = tuple((i, i + 1, 2, (i,)) for i in range(n + 1))
    reduced = steiner_preprocess(ReducedGraph(tuple(range(n + 2)), frozenset({0, n + 1}), edges))
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
    edges = tuple((u, v, rng.randint(1, 3), (eid,)) for eid, (u, v) in enumerate(edges))
    terminals = frozenset(v for v in range(n) if rng.randint(0, 2) == 0) or frozenset({0})
    return ReducedGraph(tuple(range(n)), terminals, edges)


def test_preprocess_is_idempotent_on_random_graphs():
    rng = SplitMix64(31)
    for _ in range(300):
        reduced = steiner_preprocess(random_contracted_graph(rng))
        assert steiner_preprocess(reduced) == reduced


def test_preprocess_matches_oracle_on_random_graphs():
    rng = SplitMix64(31)
    for _ in range(300):
        cg = random_contracted_graph(rng)
        reduced = steiner_preprocess(cg)
        weight_of = {eid: w for _, _, w, (eid,) in cg.edges}

        pairs = [(u, v) for u, v, _, _ in reduced.edges]
        assert all(u < v for u, v in pairs)
        assert len(set(pairs)) == len(pairs)
        degree = {v: 0 for v in reduced.vertices}
        for u, v, w, origin in reduced.edges:
            degree[u] += 1
            degree[v] += 1
            assert w == sum(weight_of[eid] for eid in origin)
        assert all(d > 2 for v, d in degree.items() if v not in cg.terminals)

        try:
            expected = brute_force_steiner(cg, cg.terminals).cost
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


def test_steiner_witness_is_a_tree_without_steiner_leaves_on_zero_weight_graphs():
    # zero-weight edges make many trees tie at the optimum; the witness must
    # still join every terminal, weigh what it claims and have no Steiner leaf
    rng = SplitMix64(35)
    for _ in range(300):
        n = rng.randint(2, 8)
        pairs = [(rng.randint(0, v - 1), v) for v in range(1, n)]
        pairs += [(u, v) for u in range(n) for v in range(u + 1, n) if rng.randint(0, 3) == 0]
        edges, ids = [], 0
        for u, v in pairs:
            width = rng.randint(1, 2)
            edges.append((u, v, 2 * rng.randint(0, 3), tuple(range(ids, ids + width))))
            ids += width
        terminals = frozenset(rng.randint(0, n - 1) for _ in range(rng.randint(1, n)))
        g = ReducedGraph(tuple(range(n)), terminals, tuple(edges))
        sol = min_steiner_tree(g, terminals)
        chosen = [e for e in edges if e[3][0] in sol.edge_ids]
        assert sol.edge_ids == {i for e in chosen for i in e[3]}
        assert sum(e[2] for e in chosen) == sol.weight == brute_force_steiner(g, terminals).cost
        roots = component_roots(n, ((u, v) for u, v, _, _ in chosen))
        assert len({roots[t] for t in terminals}) == 1
        degree = [0] * n
        for u, v, _, _ in chosen:
            degree[u] += 1
            degree[v] += 1
        assert all(degree[v] != 1 for v in range(n) if v not in terminals)


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


def reference_min_steiner_tree(graph, terminals):
    """min_steiner_tree as it swept every one of the 2^s masks, ascending,
    keeping the first of the least weight: the witness to reproduce."""
    if not terminals:
        raise ValueError("terminal set is empty")
    if not terminals <= set(graph.vertices):
        raise ValueError("terminal not present in graph")
    if len(terminals) == 1:
        return SteinerSolution(frozenset(), 0)
    steiner = sorted(set(graph.vertices) - terminals)
    index = {v: i for i, v in enumerate(graph.vertices)}
    order = sorted(range(len(graph.edges)), key=lambda i: (graph.edges[i][2], i))
    best = None
    for mask in range(1 << len(steiner)):
        nodes = set(terminals) | {v for i, v in enumerate(steiner) if mask >> i & 1}
        roots = list(range(len(graph.vertices)))

        def find(x):
            while roots[x] != x:
                x = roots[x]
            return x

        chosen, weight = [], 0
        for i in order:
            u, v, w, _ = graph.edges[i]
            if u in nodes and v in nodes and find(index[u]) != find(index[v]):
                roots[find(index[u])] = find(index[v])
                chosen.append(i)
                weight += w
        if len(chosen) == len(nodes) - 1 and (best is None or weight < best[0]):
            best = (weight, frozenset(eid for i in chosen for eid in graph.edges[i][3]))
    if best is None:
        raise ValueError("homology class disconnected")
    return SteinerSolution(best[1], best[0])


def random_raw_graph(rng):
    """A graph no preprocessing has touched: 1-3 random pieces, the first
    holding the terminals (one in six draws puts one in another piece),
    sparse ascending ids, weights 0-4 so that trees tie, 1-2 origin ids
    per edge."""
    ids, edges, pieces, origin = [], [], [], 0
    for _ in range(rng.randint(1, 3)):
        piece = list(range(len(ids), len(ids) + rng.randint(1, 5)))
        ids += piece
        pieces.append(piece)
        pairs = [(rng.choice(piece[:i]), v) for i, v in enumerate(piece) if i]
        pairs += [(u, v) for u in piece for v in piece if u < v and rng.randint(0, 3) == 0]
        for u, v in sorted(set(pairs)):
            width = rng.randint(1, 2)
            edges.append((u, v, rng.randint(0, 4), tuple(range(origin, origin + width))))
            origin += width
    terminals = {rng.choice(pieces[0]) for _ in range(rng.randint(1, 3))}
    if rng.randint(0, 5) == 0:
        terminals.add(rng.choice(pieces[-1]))
    sparse = {v: 2 + 3 * v + rng.randint(0, 2) for v in ids}
    edges = tuple((sparse[u], sparse[v], w, o) for u, v, w, o in edges)
    return ReducedGraph(tuple(sparse.values()), frozenset(map(sparse.get, terminals)), edges)


def steiner_outcome(sweep, graph):
    try:
        return sweep(graph, graph.terminals)
    except ValueError as exc:
        return str(exc)


def test_steiner_sweep_by_left_out_count_keeps_the_mask_sweeps_witness():
    # a sweep not restricted to the terminals' component differs on 65 of
    # the raw draws (Steiner-only components); one that stops at the first
    # left-out count without a lighter tree differs on 32 raw and 48
    # preprocessed draws, whose optimum leaves out more vertices than that
    rng = SplitMix64(2024)
    raw, split = [random_raw_graph(rng) for _ in range(1500)], 0
    reduced = [steiner_preprocess(random_contracted_graph(rng)) for _ in range(1500)]
    for graph in raw + reduced:
        want = steiner_outcome(reference_min_steiner_tree, graph)
        assert steiner_outcome(min_steiner_tree, graph) == want, graph
        split += want == "homology class disconnected"
    assert 100 < split < 500, split


def test_steiner_sweep_stops_early_on_trees(monkeypatch):
    # a complete binary tree whose 32 leaves are the terminals: leaving out
    # any one of its 31 inner Steiner vertices disconnects, so the sweep
    # makes s + 1 = 32 Kruskal passes where the mask sweep made 2^31
    made = []

    class Counting(homology_tour.UnionFind):
        def __init__(self, size):
            made.append(size)
            super().__init__(size)

    monkeypatch.setattr(homology_tour, "UnionFind", Counting)
    edges = tuple((v // 2, v, v % 3, (v,)) for v in range(2, 64))
    graph = ReducedGraph(tuple(range(1, 64)), frozenset(range(32, 64)), edges)
    sol = min_steiner_tree(graph, graph.terminals)
    assert sol == SteinerSolution(frozenset(range(2, 64)), sum(v % 3 for v in range(2, 64)))
    assert len(made) == 1 + 31  # the components with C whole, then C less each one


# --- repair, euler multigraph, tours ---


def test_repair_is_free_for_connected_class():
    g = BaseGraph.from_edges(3, [(1, 2, 1), (1, 3, 1), (2, 3, 1)])
    inst = Instance(g, (Request(1, 2, 1), Request(1, 3, 1)))
    st = connectivity_repair(inst, (-1, -1, 0))
    assert st == SteinerSolution(frozenset(), 0)


def test_repair_buys_the_bridge():
    inst, g = split_path_instance()
    st = connectivity_repair(inst, g)
    assert st.edge_ids == frozenset({1})
    assert st.weight == 10


def test_repair_makes_one_support_pass_split_or_connected(monkeypatch):
    passes = []
    real_pairs, real_roots = homology_tour.support_pairs, homology_tour.component_roots

    def pairs(instance, g):
        passes.append("pairs")
        return real_pairs(instance, g)

    def roots(size, support):
        passes.append("roots")
        return real_roots(size, support)

    monkeypatch.setattr(homology_tour, "support_pairs", pairs)
    monkeypatch.setattr(homology_tour, "component_roots", roots)
    split = connected = 0
    for seed in range(1, 61):
        inst = random_instance(seed, 16, 3, 6, 5)
        if not inst.requests:
            continue
        for g in enumerate_candidates(min_cost_circulation(inst), basis_of(inst), 1):
            passes.clear()
            st = connectivity_repair(inst, g)
            assert passes == ["pairs", "roots"]
            split += st.weight > 0  # costs are at least 1, so only a split support pays
            connected += st.weight == 0
    assert split > 10 and connected > 10, (split, connected)


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
        build_euler_multigraph(inst, (1, 0, 0), SteinerSolution(frozenset(), 0))


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
    two_loops = (1, -1, 1, 1, -1, 1, 0, 0)
    # balanced, so the multigraph is built; the walk leaves one loop unused
    with pytest.raises(RuntimeError, match="disconnected"):
        euler_tour(build_euler_multigraph(inst, two_loops, SteinerSolution(frozenset(), 0)))


def test_euler_multigraph_merges_a_steiner_edge_that_carries_flow():
    # edge 0 carries the return flow 2 -> 1 and is a Steiner edge as well
    inst, g = split_path_instance()
    mg = build_euler_multigraph(inst, g, SteinerSolution(frozenset({0, 1}), 12))
    assert mg.counts == {
        (1, 2, KIND_REQUEST, 0, 1): 1,
        (3, 4, KIND_REQUEST, 1, 1): 1,
        (2, 1, KIND_EDGE, 0, 1): 2,
        (4, 3, KIND_EDGE, 2, 1): 1,
        (1, 2, KIND_EDGE, 0, 1): 1,
        (2, 3, KIND_EDGE, 1, 5): 1,
        (3, 2, KIND_EDGE, 1, 5): 1,
    }
    tour = euler_tour(mg)
    check = verify_tour(inst, tour)
    assert check.valid and check.cost == tour.total == 16
    assert check.circulation == (-1, 0, -1)


def test_euler_tour_of_nothing_is_empty():
    from scpsolver.homology_tour import EulerMultigraph, Tour

    assert euler_tour(EulerMultigraph(Counter())) == Tour()


def test_euler_tour_starts_low_and_is_deterministic():
    inst, g = split_path_instance()
    mg = build_euler_multigraph(inst, g, SteinerSolution(frozenset({1}), 10))
    t1 = euler_tour(mg)
    t2 = euler_tour(mg)
    assert t1 == t2
    kind, source, _, _ = next(t1.walk())
    assert source == 1
    assert kind == KIND_REQUEST


def test_tour_in_class_split_path_frozen():
    inst, g = split_path_instance()
    tour = tour_in_class(inst, g)
    assert tour.total == circulation_cost(inst, g) + 10 == 14
    check = verify_tour(inst, tour)
    assert check.valid and check.cost == 14
    # steiner doubles cancel; the class is preserved
    assert check.circulation == g


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
            assert check.circulation == g


# --- run-length euler tour against the per-unit walk ---


def unit_euler_tour(mg):
    """Hierholzer one traversal at a time: euler_tour before the run-length walk."""
    if not mg.arcs:
        return Tour()
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
    keys = [(mg.arcs[i][2], mg.arcs[i][0], mg.arcs[i][1], mg.arcs[i][3]) for i in circuit]
    return Tour(keys, ((range(len(keys)), 1),), sum(mg.arcs[i][4] for i in circuit))


def random_eulerian_arcs(rng, tenths=False):
    """Union of random closed walks, each repeated 1..300 times, arcs shuffled.

    Arcs draw (kind, ref) from a small pool, so request and edge arcs share
    endpoints and one endpoint pair carries several kinds and refs; the cost
    is a function of (kind, ref), zero included, as in build_euler_multigraph;
    with ``tenths`` it is k/10 for k in 0..9.
    """
    n = rng.randint(1, 7)
    cost = {
        (kind, ref): (Fraction(rng.randint(0, 9), 10) if tenths else rng.randint(0, 3))
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
    return list(tour.walk())


def test_run_length_tour_matches_unit_walk_on_random_multigraphs():
    rng = SplitMix64(606)
    disconnected = 0
    for trial in range(2000):
        arcs = random_eulerian_arcs(rng, tenths=trial % 4 == 0)
        mg = EulerMultigraph(Counter(arcs))
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
        assert got.length == sum(len(seq) * copies for seq, copies in got.runs) == len(arcs)
    assert 50 < disconnected < 1000, disconnected


def test_run_length_tour_refuses_disconnected_multigraph():
    two_loops = (1, 2, KIND_EDGE, 0, 1), (2, 1, KIND_EDGE, 0, 1), (3, 4, KIND_REQUEST, 0, 2), (4, 3, KIND_EDGE, 1, 1)
    mg = EulerMultigraph(Counter(arc for arc in two_loops for _ in range(50)))
    for walk in (unit_euler_tour, euler_tour):
        with pytest.raises(RuntimeError, match="disconnected"):
            walk(mg)


def test_run_length_tour_of_repeated_triangle_repeats_one_cycle():
    cycle = [(1, 2, KIND_REQUEST, 0, 3), (2, 3, KIND_EDGE, 1, 1), (3, 1, KIND_EDGE, 2, 1)]
    mg = EulerMultigraph(Counter(arc for arc in cycle for _ in range(1000)))
    tour = euler_tour(mg)
    assert step_fields(tour) == step_fields(unit_euler_tour(mg))
    assert tour.length == 3000 and tour.total == 5000
    # one key per distinct arc
    assert len(tour.keys) == 3


def test_single_request_of_demand_100000_solves():
    g = BaseGraph.from_edges(4, [(1, 2, 2), (2, 3, 1), (3, 4, 4), (1, 4, 9)])
    inst = Instance(g, (Request(1, 3, 3, 100_000),))
    report = solve(inst)
    # each unit: the request, then back 3 -> 2 -> 1 at cost 3
    assert report.cost == 600_000
    assert report.tour.length == 300_000
    assert report.tour.total == report.cost
    check = verify_tour(inst, report.tour)
    assert check.valid and check.cost == report.cost


def reference_euler_arcs(instance, g, st):
    """build_euler_multigraph's arcs spelled out one per traversal, as before counts."""
    arcs = []
    for aid, r in enumerate(instance.requests):
        arcs += [(r.source, r.target, KIND_REQUEST, aid, r.cost)] * r.demand
    for eid, e in enumerate(instance.base.edges):
        val = g[eid]
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
            assert step_fields(euler_tour(mg)) == step_fields(unit_euler_tour(EulerMultigraph(Counter(want))))
            checked += 1
    assert checked > 100, checked


def test_runs_tour_equals_its_spelled_out_one_run_tour():
    inst, g = split_path_instance()
    tour = euler_tour(build_euler_multigraph(inst, g, SteinerSolution(frozenset({1}), 10)))
    keys = list(tour.walk())
    flat = Tour(keys, ((range(len(keys)), 1),), tour.total)
    assert flat == tour and tour == flat and hash(flat) == hash(tour)
    assert flat.length == tour.length == len(keys)
    assert Tour(keys, ((range(len(keys)), 1),), tour.total + 1) != tour
    assert Tour().runs == () and list(Tour().walk()) == [] and Tour().length == 0
    # walk spells the runs out, run after run
    runs = Tour((("request", 1, 2, 0), ("edge", 2, 1, 0)), (((0, 1), 3), ((0,), 1)), 7)
    assert [(kind, source) for kind, source, _, _ in runs.walk()] == [("request", 1), ("edge", 2)] * 3 + [("request", 1)]
    assert runs.length == 7
    # equal walks are equal tours, however their runs split them
    keys = (("request", 1, 2, 0), ("edge", 2, 1, 0))
    assert Tour(keys, (((0, 1), 2),), 7) == Tour(keys, (((0, 1), 1), ((0,), 1), ((1,), 1)), 7)
