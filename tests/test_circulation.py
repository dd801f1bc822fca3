from fractions import Fraction
from operator import mul

import pytest

from scpsolver.acceptance import _family_instance, decompose, is_elementary
from scpsolver.circulation import (
    Circulation,
    Instance,
    Request,
    circulation_cost,
    min_cost_circulation,
    segment_instance,
)
from scpsolver.graph_core import BaseGraph, Edge, RootedTree, cycle_rank, fundamental_cycles, smooth_topology, spanning_tree
from scpsolver.homology_tour import SteinerSolution
from scpsolver.oracle import (
    SplitMix64,
    brute_force_circulation,
    brute_force_tour,
    edge_flow_conserves,
    initial_circulation,
    is_feasible,
    make_tight_instance,
    random_instance,
    support_connected,
    zero_circulation,
)


def triangle_instance():
    g = BaseGraph.from_edges(3, [(1, 2, 1), (1, 3, 1), (2, 3, 1)])
    return Instance(g, (Request(1, 2, 1), Request(1, 3, 1)))


def square_instance():
    g = BaseGraph.from_edges(4, [(1, 2, 1), (2, 3, 1), (3, 4, 1), (1, 4, 1)])
    return Instance(g, (Request(1, 2, 1), Request(3, 4, 1)))


def basis_of(instance):
    return fundamental_cycles(instance.base, spanning_tree(instance.base))


# --- instance validation ---


@pytest.mark.parametrize(
    "req",
    [
        Request(1, 5, 1),       # endpoint out of range
        Request(2, 2, 1),       # equal endpoints
        Request(1, 2, -1),      # negative cost
        Request(1, 2, 1, 0),    # zero demand
    ],
)
def test_instance_rejects_bad_request(req):
    g = BaseGraph.from_edges(3, [(1, 2, 1), (2, 3, 1)])
    with pytest.raises(ValueError):
        Instance(g, (req,))


def test_instance_rejects_duplicate_pair():
    g = BaseGraph.from_edges(3, [(1, 2, 1), (2, 3, 1)])
    with pytest.raises(ValueError):
        Instance(g, (Request(1, 2, 1), Request(1, 2, 4)))


def test_instance_allows_opposite_directions():
    g = BaseGraph.from_edges(3, [(1, 2, 1), (2, 3, 1)])
    inst = Instance(g, (Request(1, 2, 1), Request(2, 1, 1)))
    assert len(inst.requests) == 2


# --- circulation values ---


def test_circulation_is_an_immutable_value():
    a = Circulation((1, -1, 0), (2,))
    b = Circulation(tuple([1, -1, 0]), (2,))
    assert a == b and hash(a) == hash(b) and len({a, b}) == 1
    assert a != Circulation((1, -1, 0), (1,))
    assert (a.edge_flow, a.arc_flow) == ((1, -1, 0), (2,))
    with pytest.raises(AttributeError):
        a.edge_flow = (0, 0, 0)
    with pytest.raises(AttributeError):
        a.extra = 1
    # the other per-solve records keep the same value contract and field names
    for make, fields, values, other in (
        (Edge, ("u", "v", "cost"), (1, 2, 3), (1, 2, 4)),
        (Request, ("source", "target", "cost", "demand"), (1, 2, 3, 1), (1, 2, 3, 2)),
        (SteinerSolution, ("edge_ids", "weight"), (frozenset({0, 2}), 6), (frozenset({0}), 6)),
        (RootedTree, ("parent", "parent_edge", "depth"), ((0, 0, 1), (-1, -1, 0), (-1, 0, 1)), ((0, 0, 1), (-1, -1, 0), (-1, 0, 2))),
    ):
        a, b = make(*values), make(*values)
        assert a == b and hash(a) == hash(b) and len({a, b}) == 1, make
        assert a != make(*other), make
        assert make._fields == fields
        assert tuple(getattr(a, name) for name in fields) == values
        with pytest.raises(AttributeError):
            setattr(a, fields[0], values[0])
        with pytest.raises(AttributeError):
            a.extra = 1
    assert Request(1, 2, 3) == Request(1, 2, 3, 1)  # demand defaults to 1


def test_graph_and_instance_are_immutable_values():
    def make():
        return Instance(BaseGraph.from_edges(3, [(1, 2, 1), (3, 2, 2)]), (Request(1, 3, 1),))

    a, b = make(), make()
    assert a.arc_costs == (1,) and a.base.edge_costs == (1, 2)  # cached values take no part
    assert a == b and hash(a) == hash(b) and len({a, b}) == 1
    assert a.base == b.base and hash(a.base) == hash(b.base)
    assert a != Instance(a.base, (Request(1, 3, 2),))
    assert a.base != BaseGraph(4, a.base.edges)
    assert a != a.base and a.base != (3, a.base.edges)
    assert repr(a.base) == "BaseGraph(vertex_count=3, edges=(Edge(u=1, v=2, cost=1), Edge(u=2, v=3, cost=2)))"
    assert repr(a) == f"Instance(base={a.base!r}, requests=(Request(source=1, target=3, cost=1, demand=1),))"
    for record, name in ((a, "base"), (a, "requests"), (a.base, "vertex_count"), (a.base, "edges")):
        with pytest.raises(AttributeError, match=f"cannot assign to field '{name}'"):
            setattr(record, name, getattr(record, name))
        with pytest.raises(AttributeError, match=f"cannot delete field '{name}'"):
            delattr(record, name)
    with pytest.raises(AttributeError):
        a.extra = 1
    assert a == b


def test_per_point_cost_reads_are_built_once():
    # circulation_cost reads both per box point; a property that rebuilt its
    # tuple on every read would add a pass over the edges or requests per point
    instance = _family_instance("grid-aisle", 4, 1)
    seg = smooth_topology(instance.base, {v for r in instance.requests for v in (r.source, r.target)})
    inner = segment_instance(instance, seg)
    assert inner.base.edge_costs is inner.base.edge_costs
    assert inner.arc_costs is inner.arc_costs
    assert instance.base.edge_costs is instance.base.edge_costs
    assert instance.base.adjacency is instance.base.adjacency
    assert instance.arc_costs is instance.arc_costs
    assert inner.base.edge_costs == tuple(s.cost for s in seg.edges)
    # the sweep prices its candidates' arc flows as the cached request term
    assert inner.demands is inner.demands
    assert inner.demands == tuple(r.demand for r in inner.requests)
    assert min_cost_circulation(instance).arc_flow is instance.demands
    tenths = _tenths(instance)
    assert tenths.demand_cost is tenths.demand_cost
    assert tenths.demand_cost == sum(r.demand * r.cost for r in tenths.requests)


def _tenths(instance):
    """The instance with every edge and request cost c turned into c/10."""
    graph = BaseGraph.from_edges(instance.base.vertex_count, [(e.u, e.v, Fraction(e.cost, 10)) for e in instance.base.edges])
    return Instance(graph, tuple(r._replace(cost=Fraction(r.cost, 10)) for r in instance.requests))


def _two_sums(instance, f):
    """circulation_cost as both sums over every call: arc flow times request
    cost, then |edge flow| times edge cost, from 0."""
    arcs = sum(map(mul, f.arc_flow, instance.arc_costs))
    return sum(map(mul, map(abs, f.edge_flow), instance.base.edge_costs), arcs)


def test_circulation_cost_matches_the_two_sum_formula():
    rng = SplitMix64(27)
    kinds = set()
    for i in range(300):
        inst = random_instance(rng.next64(), 10, 4, 6, 20)
        if i % 2:
            inst = _tenths(inst)
        edge_flow = tuple(rng.randint(-6, 6) for _ in inst.base.edges)
        demands = inst.demands
        arc_flows = {
            "demands": demands,
            "equal copy": tuple(list(demands)),
            "equal floats": tuple(map(float, demands)),
            "zero": (0,) * len(demands),
            "doubled": tuple(2 * d for d in demands),
        }
        if demands:
            assert arc_flows["equal copy"] is not demands
        for kind, arc_flow in arc_flows.items():
            f = Circulation(edge_flow, arc_flow)
            got, want = circulation_cost(inst, f), _two_sums(inst, f)
            assert type(got) is type(want), kind
            assert got == want, kind
            kinds.add((kind, type(got)))
    assert {("demands", int), ("demands", Fraction), ("equal floats", float)} <= kinds


# --- cost and feasibility ---


def test_zero_circulation_cost_is_zero():
    inst = triangle_instance()
    assert circulation_cost(inst, zero_circulation(inst)) == 0


def test_zero_circulation_feasible_only_without_requests():
    g = BaseGraph.from_edges(2, [(1, 2, 1)])
    empty = Instance(g, ())
    loaded = Instance(g, (Request(1, 2, 1),))
    assert is_feasible(empty, zero_circulation(empty))
    assert not is_feasible(loaded, zero_circulation(loaded))


def test_cost_counts_arc_demand_and_edge_magnitude():
    g = BaseGraph.from_edges(2, [(1, 2, 2)])
    inst = Instance(g, (Request(1, 2, 5, 2),))
    f = Circulation((-3,), (2,))
    # 2 units on a cost-5 arc plus |{-3}| units on a cost-2 edge
    assert circulation_cost(inst, f) == 10 + 6


def test_is_feasible_rejects_wrong_shapes_and_broken_conservation():
    inst = triangle_instance()
    assert not is_feasible(inst, Circulation((0, 0), (1, 1)))
    assert not is_feasible(inst, Circulation((0, 0, 0), (1,)))
    assert not is_feasible(inst, Circulation((0, 0, 0), (1, 2)))  # wrong arc flow
    assert not is_feasible(inst, Circulation((1, 0, 0), (1, 1)))  # no conservation


def test_edge_flow_conserves():
    g = BaseGraph.from_edges(3, [(1, 2, 1), (1, 3, 1), (2, 3, 1)])
    assert edge_flow_conserves(g, (1, -1, 1))
    assert not edge_flow_conserves(g, (1, 0, 0))


# --- support connectivity ---


def test_support_of_zero_circulation_is_connected():
    inst = triangle_instance()
    assert support_connected(inst, zero_circulation(inst))


def test_support_split_across_path():
    g = BaseGraph.from_edges(4, [(1, 2, 1), (2, 3, 1), (3, 4, 1)])
    inst = Instance(g, (Request(1, 2, 1), Request(3, 4, 1)))
    f = Circulation((-1, 0, -1), (1, 1))
    assert is_feasible(inst, f)
    assert not support_connected(inst, f)
    assert support_connected(inst, Circulation((-1, 0, 0), (1, 0)))


# --- initial circulation ---


def test_initial_routes_demand_back_through_tree():
    g = BaseGraph.from_edges(3, [(1, 2, 1), (2, 3, 1)])
    inst = Instance(g, (Request(1, 3, 2),))
    f = initial_circulation(inst, basis_of(inst))
    assert f.edge_flow == (-1, -1)
    assert f.arc_flow == (1,)


def test_initial_scales_with_demand():
    g = BaseGraph.from_edges(2, [(1, 2, 1)])
    inst = Instance(g, (Request(1, 2, 0, 3),))
    f = initial_circulation(inst, basis_of(inst))
    assert f.edge_flow == (-3,)
    assert f.arc_flow == (3,)


def test_initial_opposite_requests_cancel_on_edges():
    g = BaseGraph.from_edges(3, [(1, 2, 1), (2, 3, 1)])
    inst = Instance(g, (Request(1, 3, 2), Request(3, 1, 2)))
    f = initial_circulation(inst, basis_of(inst))
    assert f.edge_flow == (0, 0)
    assert f.arc_flow == (1, 1)


def test_initial_is_always_feasible():
    rng = SplitMix64(11)
    for _ in range(40):
        inst = random_instance(rng.next64(), 9, 4, 6, 15)
        assert is_feasible(inst, initial_circulation(inst, basis_of(inst)))


def test_lollipop_deeper_than_the_recursion_limit():
    # a 2,500-vertex path closed into a triangle at its far end
    n = 2500
    g = BaseGraph.from_edges(n, [(v, v + 1, 1) for v in range(1, n)] + [(n - 2, n, 1)])
    inst = Instance(g, (Request(1, n, 0, 2), Request(n - 1, 2, 0)))
    basis = basis_of(inst)
    assert len(basis.cycles) == 1
    assert sorted(basis.cycles[0]) == sorted({n - 3, n - 2, n - 1})
    assert is_feasible(inst, initial_circulation(inst, basis))


# --- min-cost circulation ---


def test_min_cost_single_edge():
    g = BaseGraph.from_edges(2, [(1, 2, 10)])
    inst = Instance(g, (Request(1, 2, 3),))
    f = min_cost_circulation(inst)
    assert f.edge_flow == (-1,)
    assert circulation_cost(inst, f) == 13


def test_min_cost_detours_around_expensive_direct_edge():
    # cheap two-hop return beats the direct cost-10 edge
    g = BaseGraph.from_edges(3, [(1, 2, 1), (2, 3, 1), (1, 3, 10)])
    inst = Instance(g, (Request(1, 3, 2),))
    f = min_cost_circulation(inst)
    assert f.edge_flow == (-1, -1, 0)
    assert circulation_cost(inst, f) == 4


def test_min_cost_edgeless_graph():
    inst = Instance(BaseGraph(1, ()), ())
    f = min_cost_circulation(inst)
    assert f == Circulation((), ())


def test_min_cost_triangle_frozen():
    inst = triangle_instance()
    basis = basis_of(inst)
    f = min_cost_circulation(inst)
    assert f.edge_flow == (-1, -1, 0)
    assert circulation_cost(inst, f) == 4
    assert circulation_cost(inst, f) == brute_force_circulation(inst, basis).cost


def test_min_cost_square_frozen():
    inst = square_instance()
    basis = basis_of(inst)
    f = min_cost_circulation(inst)
    # one of two cost-4 optima; (0, 1, 0, -1) is the other
    assert f.edge_flow == (-1, 0, -1, 0)
    assert circulation_cost(inst, f) == 4
    assert circulation_cost(inst, f) == brute_force_circulation(inst, basis).cost


def test_min_cost_reroutes_around_expensive_edge():
    # tree path goes over the cost-50 edge; the optimum circles the other way
    g = BaseGraph.from_edges(4, [(1, 2, 50), (2, 3, 1), (3, 4, 1), (1, 4, 1)])
    inst = Instance(g, (Request(1, 2, 1),))
    f = min_cost_circulation(inst)
    assert f.edge_flow == (0, 1, 1, -1)
    assert circulation_cost(inst, f) == 4


def test_min_cost_keeps_arc_flows_pinned():
    rng = SplitMix64(12)
    for _ in range(40):
        inst = random_instance(rng.next64(), 9, 4, 6, 15)
        f = min_cost_circulation(inst)
        assert is_feasible(inst, f)


def test_min_cost_matches_oracle():
    rng = SplitMix64(13)
    for _ in range(80):
        inst = random_instance(rng.next64(), 8, 3, 5, 12)
        basis = basis_of(inst)
        f = min_cost_circulation(inst)
        assert circulation_cost(inst, f) == brute_force_circulation(inst, basis).cost


def test_min_cost_is_lower_bound_for_tours():
    rng = SplitMix64(14)
    for _ in range(40):
        inst = random_instance(rng.next64(), 8, 3, 5, 12)
        f = min_cost_circulation(inst)
        assert circulation_cost(inst, f) <= brute_force_tour(inst).cost


def test_min_cost_not_improved_by_basis_steps():
    rng = SplitMix64(15)
    for _ in range(30):
        inst = random_instance(rng.next64(), 8, 3, 5, 12)
        basis = basis_of(inst)
        f = min_cost_circulation(inst)
        base = circulation_cost(inst, f)
        for cycle in basis.cycles:
            for lam in (-2, -1, 1, 2):
                flows = list(f.edge_flow)
                for eid, val in cycle.items():
                    flows[eid] += lam * val
                assert circulation_cost(inst, Circulation(tuple(flows), f.arc_flow)) >= base


def _residual_has_negative_cycle(graph, flows):
    """Independent Bellman-Ford check on the residual graph of a flow."""
    arcs = []
    for eid, e in enumerate(graph.edges):
        c = Fraction(e.cost)
        f = flows[eid]
        arcs.append((e.u, e.v, -c if f < 0 else c))
        arcs.append((e.v, e.u, -c if f > 0 else c))
    dist = dict.fromkeys(range(1, graph.vertex_count + 1), Fraction(0))
    for _ in range(graph.vertex_count):
        for u, v, c in arcs:
            if dist[u] + c < dist[v]:
                dist[v] = dist[u] + c
    return any(dist[u] + c < dist[v] for u, v, c in arcs)


def test_min_cost_leaves_no_negative_residual_cycle():
    rng = SplitMix64(16)
    for _ in range(40):
        inst = random_instance(rng.next64(), 9, 4, 6, 15)
        f = min_cost_circulation(inst)
        assert not _residual_has_negative_cycle(inst.base, f.edge_flow)


def with_large_demands(inst, rng):
    """Same graph and request pairs, each demand redrawn from 20..300."""
    return Instance(inst.base, tuple(Request(r.source, r.target, r.cost, rng.randint(20, 300)) for r in inst.requests))


def test_min_cost_matches_oracle_at_large_demand():
    rng = SplitMix64(19)
    for size in range(16, 41, 2):
        inst = with_large_demands(_family_instance("cycle", size, rng.next64()), rng)
        basis = basis_of(inst)
        f = min_cost_circulation(inst)
        assert is_feasible(inst, f)
        assert circulation_cost(inst, f) == brute_force_circulation(inst, basis).cost


def test_min_cost_is_optimal_and_deterministic_at_large_demand():
    rng = SplitMix64(20)
    instances = [with_large_demands(_family_instance("theta", size, rng.next64()), rng) for size in range(16, 41, 2)]
    for _ in range(30):
        inst = random_instance(rng.next64(), 12, 4, 6, 15)
        instances.append(with_large_demands(inst, rng))
    for inst in instances:
        f = min_cost_circulation(inst)
        assert is_feasible(inst, f)
        assert not _residual_has_negative_cycle(inst.base, f.edge_flow)
        assert min_cost_circulation(inst) == f


# --- decomposition ---


def test_decompose_zero_flow_is_empty():
    g = BaseGraph.from_edges(3, [(1, 2, 1), (1, 3, 1), (2, 3, 1)])
    assert decompose(g, Circulation((0, 0, 0), ())) == []


def test_decompose_scaled_cycle_is_one_part():
    g = BaseGraph.from_edges(3, [(1, 2, 1), (1, 3, 1), (2, 3, 1)])
    parts = decompose(g, Circulation((3, -3, 3), ()))
    assert parts == [(3, {0: 1, 2: 1, 1: -1})]


def test_decompose_rejects_nonconserving_flow():
    g = BaseGraph.from_edges(3, [(1, 2, 1), (2, 3, 1)])
    with pytest.raises(ValueError):
        decompose(g, Circulation((1, 0), ()))


@pytest.mark.parametrize("r", [1, 2, 3, 4])
def test_decompose_tight_instance_needs_r_parts(r):
    graph, circ = make_tight_instance(r)
    parts = decompose(graph, circ)
    assert len(parts) == r


def test_decompose_reconstructs_exactly():
    rng = SplitMix64(17)
    for _ in range(60):
        inst = random_instance(rng.next64(), 9, 4, 0, 9)
        g = inst.base
        basis = basis_of(inst)
        flows = [0] * len(g.edges)
        for cycle in basis.cycles:
            lam = rng.randint(-4, 4)
            for eid, val in cycle.items():
                flows[eid] += lam * val
        parts = decompose(g, Circulation(tuple(flows), ()))
        assert len(parts) <= cycle_rank(g)
        rebuilt = [0] * len(g.edges)
        for value, unit in parts:
            assert value > 0
            assert all(s in (-1, 1) for s in unit.values())
            assert edge_flow_conserves(g, tuple(unit.get(eid, 0) for eid in range(len(g.edges))))
            for eid, sign in unit.items():
                rebuilt[eid] += value * sign
        assert rebuilt == flows


# --- elementary test ---


def test_zero_flow_is_elementary():
    g = BaseGraph.from_edges(3, [(1, 2, 1), (1, 3, 1), (2, 3, 1)])
    assert is_elementary(g, Circulation((0, 0, 0), ()))


def test_unit_cycle_is_elementary():
    g = BaseGraph.from_edges(3, [(1, 2, 1), (1, 3, 1), (2, 3, 1)])
    assert is_elementary(g, Circulation((1, -1, 1), ()))


def test_doubled_cycle_is_not_elementary():
    g = BaseGraph.from_edges(3, [(1, 2, 1), (1, 3, 1), (2, 3, 1)])
    assert not is_elementary(g, Circulation((2, -2, 2), ()))


@pytest.mark.parametrize("r", [2, 3, 4, 5])
def test_tight_instance_is_elementary_despite_large_flow(r):
    graph, circ = make_tight_instance(r)
    assert max(abs(x) for x in circ.edge_flow) == r
    assert is_elementary(graph, circ)


def test_elementary_rejects_doubled_cycle_inside_larger_flow():
    # doubled triangle plus an innocent unit flow elsewhere
    g = BaseGraph.from_edges(5, [(1, 2, 1), (1, 3, 1), (2, 3, 1), (3, 4, 1), (4, 5, 1), (3, 5, 1)])
    f = Circulation((2, -2, 2, 1, 1, -1), ())
    assert not is_elementary(g, f)


def test_elementary_circulations_never_exceed_rank():
    rng = SplitMix64(18)
    hits = 0
    for _ in range(120):
        inst = random_instance(rng.next64(), 8, 4, 4, 9)
        g = inst.base
        basis = fundamental_cycles(g, spanning_tree(g))
        flows = [0] * len(g.edges)
        for cyc in basis.cycles:
            lam = rng.randint(-1, 1)
            for eid, sign in cyc.items():
                flows[eid] += lam * sign
        f = Circulation(tuple(flows), ())
        if is_elementary(g, f):
            hits += 1
            assert max(map(abs, f.edge_flow), default=0) <= cycle_rank(g)
    assert hits > 20
