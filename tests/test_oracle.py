import time

import pytest

from scpsolver.acceptance import decompose, is_elementary
from scpsolver.circulation import Instance, Request, circulation_cost
from scpsolver.graph_core import BaseGraph, cycle_rank, fundamental_cycles, spanning_tree
from scpsolver.homology_tour import KIND_EDGE, KIND_REQUEST, Tour
from scpsolver.oracle import (
    SplitMix64,
    brute_force_circulation,
    brute_force_steiner,
    brute_force_tour,
    edge_flow_conserves,
    is_feasible,
    make_tight_instance,
    random_instance,
    shortest_path,
    verify_tour,
)


# --- prng ---


def test_splitmix_reference_stream():
    rng = SplitMix64(0)
    assert [rng.next64() for _ in range(3)] == [
        0xE220A8397B1DCDAF,
        0x6E789E6AA1B965F4,
        0x06C45D188009454F,
    ]


def test_splitmix_is_replayable():
    a = SplitMix64(987654321)
    b = SplitMix64(987654321)
    assert [a.next64() for _ in range(10)] == [b.next64() for _ in range(10)]


def test_randint_stays_in_range():
    rng = SplitMix64(3)
    values = [rng.randint(-2, 5) for _ in range(200)]
    assert set(values) <= set(range(-2, 6))
    assert len(set(values)) == 8  # every value shows up


def test_randint_rejects_empty_range():
    with pytest.raises(ValueError):
        SplitMix64(3).randint(5, 4)


def test_choice_picks_from_sequence():
    rng = SplitMix64(4)
    seq = ["a", "b", "c"]
    assert all(rng.choice(seq) in seq for _ in range(20))


# --- tour oracle ---


def test_tour_oracle_single_request_returns_over_the_edge():
    g = BaseGraph.from_edges(2, [(1, 2, 10)])
    inst = Instance(g, (Request(1, 2, 3),))
    res = brute_force_tour(inst)
    assert res.cost == 13
    assert verify_tour(inst, res.witness).valid


def test_tour_oracle_path_frozen():
    g = BaseGraph.from_edges(3, [(1, 2, 1), (2, 3, 1)])
    inst = Instance(g, (Request(1, 2, 1), Request(1, 3, 2)))
    res = brute_force_tour(inst)
    assert res.cost == 6
    assert res.nodes_explored == 1  # one free copy after pinning the first
    assert verify_tour(inst, res.witness).valid


def test_tour_oracle_no_requests():
    g = BaseGraph.from_edges(2, [(1, 2, 1)])
    res = brute_force_tour(Instance(g, ()))
    assert res.cost == 0
    assert res.witness == Tour()


def test_tour_oracle_counts_demand_copies():
    g = BaseGraph.from_edges(2, [(1, 2, 2)])
    inst = Instance(g, (Request(1, 2, 1, 3),))
    res = brute_force_tour(inst)
    assert res.cost == 3 * (1 + 2)
    check = verify_tour(inst, res.witness)
    assert check.valid


def test_tour_oracle_interleaves_opposing_requests():
    # back-to-back opposite arcs at shortest-path cost need no dead travel
    g = BaseGraph.from_edges(3, [(1, 2, 2), (2, 3, 3)])
    sp = shortest_path(g, 1, 3)[0]
    inst = Instance(g, (Request(1, 3, sp), Request(3, 1, sp)))
    assert brute_force_tour(inst).cost == 2 * sp == 10


def test_tour_oracle_guards_demand_blowup():
    g = BaseGraph.from_edges(2, [(1, 2, 1)])
    with pytest.raises(ValueError):
        brute_force_tour(Instance(g, (Request(1, 2, 1, 9),)))


def test_tour_oracle_witnesses_verify_on_random_instances():
    rng = SplitMix64(41)
    for _ in range(40):
        inst = random_instance(rng.next64(), 8, 3, 5, 12)
        res = brute_force_tour(inst)
        check = verify_tour(inst, res.witness)
        assert check.valid, check.reason
        assert check.cost == res.cost


# --- circulation oracle ---


def test_circulation_oracle_rank_zero_returns_tree_routing():
    g = BaseGraph.from_edges(3, [(1, 2, 4), (2, 3, 4)])
    inst = Instance(g, (Request(1, 3, 1),))
    basis = fundamental_cycles(g, spanning_tree(g))
    res = brute_force_circulation(inst, basis)
    assert res.cost == 9
    assert res.witness == (-1, -1)
    assert res.nodes_explored == 1


def test_circulation_oracle_triangle_frozen():
    g = BaseGraph.from_edges(3, [(1, 2, 1), (1, 3, 1), (2, 3, 1)])
    inst = Instance(g, (Request(1, 2, 1), Request(1, 3, 1)))
    basis = fundamental_cycles(g, spanning_tree(g))
    assert brute_force_circulation(inst, basis).cost == 4


def test_circulation_oracle_guards_large_rank():
    # complete graph on 5 vertices has rank 6
    triples = [(u, v, 1) for u in range(1, 6) for v in range(u + 1, 6)]
    g = BaseGraph.from_edges(5, triples)
    assert cycle_rank(g) == 6
    inst = Instance(g, (Request(1, 2, 1),))
    basis = fundamental_cycles(g, spanning_tree(g))
    with pytest.raises(ValueError):
        brute_force_circulation(inst, basis)


def test_circulation_oracle_result_is_feasible_and_conserving():
    rng = SplitMix64(42)
    for _ in range(25):
        inst = random_instance(rng.next64(), 8, 3, 4, 9)
        basis = fundamental_cycles(inst.base, spanning_tree(inst.base))
        res = brute_force_circulation(inst, basis)
        assert is_feasible(inst, res.witness)
        assert circulation_cost(inst, res.witness) == res.cost


# --- steiner oracle ---


def test_steiner_oracle_guards_size():
    from scpsolver.homology_tour import ReducedGraph

    big = ReducedGraph(tuple(range(13)), frozenset({0, 1}), ())
    with pytest.raises(ValueError):
        brute_force_steiner(big, big.terminals)


def test_steiner_oracle_validates_terminals():
    from scpsolver.homology_tour import ReducedGraph

    g = ReducedGraph((0, 1), frozenset({0, 1}), ((0, 1, 3, (0,)),))
    with pytest.raises(ValueError):
        brute_force_steiner(g, frozenset())
    with pytest.raises(ValueError):
        brute_force_steiner(g, frozenset({7}))
    assert brute_force_steiner(g, frozenset({0})).cost == 0
    assert brute_force_steiner(g, g.terminals).cost == 3


# --- tour verification ---


def _tour(keys, total):
    """A tour that walks ``keys`` once, in one run."""
    return Tour(keys, ((range(len(keys)), 1),), total)


def _one_request_instance():
    g = BaseGraph.from_edges(2, [(1, 2, 2)])
    return Instance(g, (Request(1, 2, 5),))


def test_verify_accepts_the_obvious_tour():
    inst = _one_request_instance()
    tour = _tour(((KIND_REQUEST, 1, 2, 0), (KIND_EDGE, 2, 1, 0)), 7)
    check = verify_tour(inst, tour)
    assert check.valid
    assert check.cost == 7
    assert check.circulation == (-1,)


def test_verify_rejects_broken_chain():
    inst = _one_request_instance()
    tour = _tour(((KIND_REQUEST, 1, 2, 0), (KIND_EDGE, 1, 2, 0)), 7)
    check = verify_tour(inst, tour)
    assert not check.valid and "chain" in check.reason


def test_verify_rejects_wrong_traversal_count():
    g = BaseGraph.from_edges(2, [(1, 2, 2)])
    inst = Instance(g, (Request(1, 2, 5, 2),))
    tour = _tour(((KIND_REQUEST, 1, 2, 0), (KIND_EDGE, 2, 1, 0)), 7)
    check = verify_tour(inst, tour)
    assert not check.valid and "traversed" in check.reason


def test_verify_rejects_wrong_total():
    inst = _one_request_instance()
    tour = _tour(((KIND_REQUEST, 1, 2, 0), (KIND_EDGE, 2, 1, 0)), 8)
    check = verify_tour(inst, tour)
    assert not check.valid and "total" in check.reason


def test_verify_rejects_unknown_refs_and_endpoints():
    inst = _one_request_instance()
    bad_ref = _tour(((KIND_REQUEST, 1, 2, 3), (KIND_EDGE, 2, 1, 0)), 7)
    assert not verify_tour(inst, bad_ref).valid
    bad_edge = _tour(((KIND_REQUEST, 1, 2, 0), (KIND_EDGE, 2, 1, 5)), 7)
    assert not verify_tour(inst, bad_edge).valid
    bad_kind = _tour((("walk", 1, 2, 0), (KIND_EDGE, 2, 1, 0)), 7)
    assert not verify_tour(inst, bad_kind).valid


def test_verify_empty_tours():
    g = BaseGraph.from_edges(2, [(1, 2, 1)])
    assert verify_tour(Instance(g, ()), Tour()).valid
    assert not verify_tour(Instance(g, ()), Tour(total=3)).valid
    assert not verify_tour(_one_request_instance(), Tour()).valid


# --- tight family ---


def test_tight_instance_r1_frozen():
    graph, circ = make_tight_instance(1)
    assert graph.vertex_count == 4
    assert circ == (-1, 1, 1, -1)


@pytest.mark.parametrize("r", [1, 2, 3, 4, 5, 6])
def test_tight_instance_properties(r):
    graph, circ = make_tight_instance(r)
    assert edge_flow_conserves(graph, circ)
    assert is_elementary(graph, circ)
    assert max(abs(x) for x in circ) == r
    assert cycle_rank(graph) == r
    assert len(decompose(graph, circ)) == r


def test_tight_instance_rejects_nonpositive_rank():
    with pytest.raises(ValueError):
        make_tight_instance(0)


# --- random instances ---


def test_random_instance_is_deterministic():
    a = random_instance(321, 9, 4, 5, 12)
    b = random_instance(321, 9, 4, 5, 12)
    assert a == b


def test_random_instances_vary_with_seed():
    pool = {random_instance(s, 9, 4, 5, 12) for s in range(10)}
    assert len(pool) > 1


def test_random_instance_respects_bounds():
    rng = SplitMix64(43)
    for _ in range(60):
        inst = random_instance(rng.next64(), 10, 4, 6, 20)
        g = inst.base
        assert 2 <= g.vertex_count <= 10
        assert cycle_rank(g) <= 4
        assert sum(r.demand for r in inst.requests) <= 6
        assert all(1 <= e.cost <= 20 for e in g.edges)
        for r in inst.requests:
            floor = shortest_path(g, r.source, r.target)[0]
            assert floor <= r.cost <= max(floor, 20)


def test_random_instance_zero_rank_budget_yields_trees():
    rng = SplitMix64(44)
    for _ in range(20):
        inst = random_instance(rng.next64(), 8, 0, 3, 9)
        assert cycle_rank(inst.base) == 0


def list_based_graph(seed, n_max, r_max, cost_max):
    """random_instance's earlier graph draw: every non-edge listed, one popped per extra edge."""
    rng = SplitMix64(seed)
    n = rng.randint(2, n_max)
    rank = rng.randint(0, min(r_max, n * (n - 1) // 2 - (n - 1)))
    triples, present = [], set()
    for v in range(2, n + 1):
        u = rng.randint(1, v - 1)
        triples.append((u, v, rng.randint(1, cost_max)))
        present.add((u, v))
    spare = [(u, v) for u in range(1, n + 1) for v in range(u + 1, n + 1) if (u, v) not in present]
    for _ in range(rank):
        u, v = spare.pop(rng.randint(0, len(spare) - 1))
        triples.append((u, v, rng.randint(1, cost_max)))
    return BaseGraph.from_edges(n, triples)


def test_random_instance_draws_the_graph_the_list_based_draw_did():
    # rank budgets up to 39 fill the small graphs completely, so later draws
    # skip many taken ranks
    for seed in range(6000):
        n_max, r_max = 2 + seed % 24, seed % 40
        assert random_instance(seed, n_max, r_max, 0, 9).base == list_based_graph(seed, n_max, r_max, 9)


def test_random_instance_draws_a_large_graph_without_listing_its_pairs():
    start = time.perf_counter()
    inst = random_instance(3, 100_000, 30, 3, 10)
    assert time.perf_counter() - start < 10.0  # listing its 2.4e9 pairs ran out of memory
    assert inst.base.vertex_count == 70_121
    assert cycle_rank(inst.base) == 26


def test_random_instance_rejects_bad_parameters():
    with pytest.raises(ValueError):
        random_instance(1, 1, 2, 2, 5)
    with pytest.raises(ValueError):
        random_instance(1, 5, -1, 2, 5)
    with pytest.raises(ValueError):
        random_instance(1, 5, 2, 2, 0)
