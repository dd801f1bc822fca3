import pytest

from scpsolver.acceptance import decompose, is_elementary
from scpsolver.circulation import (
    Circulation,
    Instance,
    Request,
    circulation_cost,
    edge_flow_conserves,
    is_feasible,
)
from scpsolver.graph_core import BaseGraph, cycle_rank, fundamental_cycles, shortest_path, spanning_tree
from scpsolver.homology_tour import KIND_EDGE, KIND_REQUEST, Step, Tour
from scpsolver.oracle import (
    SplitMix64,
    brute_force_circulation,
    brute_force_steiner,
    brute_force_tour,
    make_tight_instance,
    random_instance,
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
    assert res.witness == Tour((), 0)


def test_tour_oracle_counts_demand_copies():
    g = BaseGraph.from_edges(2, [(1, 2, 2)])
    inst = Instance(g, (Request(1, 2, 1, 3),))
    res = brute_force_tour(inst)
    assert res.cost == 3 * (1 + 2)
    check = verify_tour(inst, res.witness)
    assert check.valid and check.circulation.arc_flow == (3,)


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
    assert res.witness.edge_flow == (-1, -1)
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


def _one_request_instance():
    g = BaseGraph.from_edges(2, [(1, 2, 2)])
    return Instance(g, (Request(1, 2, 5),))


def test_verify_accepts_the_obvious_tour():
    inst = _one_request_instance()
    tour = Tour((Step(KIND_REQUEST, 1, 2, 0), Step(KIND_EDGE, 2, 1, 0)), 7)
    check = verify_tour(inst, tour)
    assert check.valid
    assert check.cost == 7
    assert check.circulation == Circulation((-1,), (1,))


def test_verify_rejects_broken_chain():
    inst = _one_request_instance()
    tour = Tour((Step(KIND_REQUEST, 1, 2, 0), Step(KIND_EDGE, 1, 2, 0)), 7)
    check = verify_tour(inst, tour)
    assert not check.valid and "chain" in check.reason


def test_verify_rejects_wrong_traversal_count():
    g = BaseGraph.from_edges(2, [(1, 2, 2)])
    inst = Instance(g, (Request(1, 2, 5, 2),))
    tour = Tour((Step(KIND_REQUEST, 1, 2, 0), Step(KIND_EDGE, 2, 1, 0)), 7)
    check = verify_tour(inst, tour)
    assert not check.valid and "traversed" in check.reason


def test_verify_rejects_wrong_total():
    inst = _one_request_instance()
    tour = Tour((Step(KIND_REQUEST, 1, 2, 0), Step(KIND_EDGE, 2, 1, 0)), 8)
    check = verify_tour(inst, tour)
    assert not check.valid and "total" in check.reason


def test_verify_rejects_unknown_refs_and_endpoints():
    inst = _one_request_instance()
    bad_ref = Tour((Step(KIND_REQUEST, 1, 2, 3), Step(KIND_EDGE, 2, 1, 0)), 7)
    assert not verify_tour(inst, bad_ref).valid
    bad_edge = Tour((Step(KIND_REQUEST, 1, 2, 0), Step(KIND_EDGE, 2, 1, 5)), 7)
    assert not verify_tour(inst, bad_edge).valid
    bad_kind = Tour((Step("walk", 1, 2, 0), Step(KIND_EDGE, 2, 1, 0)), 7)
    assert not verify_tour(inst, bad_kind).valid


def test_verify_empty_tours():
    g = BaseGraph.from_edges(2, [(1, 2, 1)])
    assert verify_tour(Instance(g, ()), Tour((), 0)).valid
    assert not verify_tour(Instance(g, ()), Tour((), 3)).valid
    assert not verify_tour(_one_request_instance(), Tour((), 0)).valid


# --- tight family ---


def test_tight_instance_r1_frozen():
    graph, circ = make_tight_instance(1)
    assert graph.vertex_count == 4
    assert circ.edge_flow == (-1, 1, 1, -1)


@pytest.mark.parametrize("r", [1, 2, 3, 4, 5, 6])
def test_tight_instance_properties(r):
    graph, circ = make_tight_instance(r)
    assert edge_flow_conserves(graph, circ.edge_flow)
    assert is_elementary(graph, circ)
    assert max(abs(x) for x in circ.edge_flow) == r
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


def test_random_instance_rejects_bad_parameters():
    with pytest.raises(ValueError):
        random_instance(1, 1, 2, 2, 5)
    with pytest.raises(ValueError):
        random_instance(1, 5, -1, 2, 5)
    with pytest.raises(ValueError):
        random_instance(1, 5, 2, 2, 0)
