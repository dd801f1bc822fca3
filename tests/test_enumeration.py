import itertools
from fractions import Fraction

import pytest

from scpsolver.acceptance import _family_instance
from scpsolver.circulation import Instance, Request, circulation_cost, min_cost_circulation
from scpsolver.enumeration import enumerate_candidates, gray_code_lambdas
from scpsolver.graph_core import BaseGraph, fundamental_cycles, segment_basis, smooth_topology, spanning_tree
from scpsolver.oracle import SplitMix64, initial_circulation, is_feasible, random_instance, zero_circulation


def basis_of(instance):
    return fundamental_cycles(instance.base, spanning_tree(instance.base))


# --- coefficient vectors ---


def test_gray_zero_rank_yields_single_empty_vector():
    assert list(gray_code_lambdas(0, 3)) == [()]


def test_gray_zero_radius_yields_origin():
    assert list(gray_code_lambdas(3, 0)) == [(0, 0, 0)]


def test_gray_r1_k1():
    assert list(gray_code_lambdas(1, 1)) == [(-1,), (0,), (1,)]


def test_gray_r2_k1_frozen_order():
    assert list(gray_code_lambdas(2, 1)) == [
        (-1, -1), (0, -1), (1, -1),
        (1, 0), (0, 0), (-1, 0),
        (-1, 1), (0, 1), (1, 1),
    ]


def test_gray_rejects_negative_arguments():
    with pytest.raises(ValueError):
        list(gray_code_lambdas(-1, 1))
    with pytest.raises(ValueError):
        list(gray_code_lambdas(1, -1))


def _reference_gray(r, k):
    """The digit/direction walker: one carry search per vector."""
    hi = 2 * k
    digits = [0] * r
    dirs = [1] * r
    yield tuple(d - k for d in digits)
    while True:
        for i in range(r):
            nxt = digits[i] + dirs[i]
            if 0 <= nxt <= hi:
                digits[i] = nxt
                for j in range(i):
                    dirs[j] = -dirs[j]
                yield tuple(d - k for d in digits)
                break
        else:
            return


@pytest.mark.parametrize(
    "r,k",
    [(r, k) for r in range(6) for k in range(4)] + [(6, 1), (7, 1), (0, 6), (9, 0)],
)
def test_gray_matches_reference_walker(r, k):
    assert list(gray_code_lambdas(r, k)) == list(_reference_gray(r, k))


@pytest.mark.parametrize("r,k", [(1, 1), (1, 3), (2, 2), (3, 1), (3, 2), (4, 1)])
def test_gray_walks_the_whole_box_one_step_at_a_time(r, k):
    seq = list(gray_code_lambdas(r, k))
    assert len(seq) == (2 * k + 1) ** r
    assert len(set(seq)) == len(seq)
    assert seq[0] == (-k,) * r
    for a, b in zip(seq, seq[1:]):
        diffs = [abs(x - y) for x, y in zip(a, b)]
        assert sum(diffs) == 1 and max(diffs) == 1
    assert set(seq) == set(itertools.product(range(-k, k + 1), repeat=r))


# --- candidate circulations ---


def test_candidates_rank_zero_yields_base_circulation():
    g = BaseGraph.from_edges(3, [(1, 2, 1), (2, 3, 1)])
    inst = Instance(g, ())
    f = zero_circulation(inst)
    assert list(enumerate_candidates(f, basis_of(inst), 2)) == [f]


def test_candidates_triangle_order_and_values():
    g = BaseGraph.from_edges(3, [(1, 2, 1), (1, 3, 1), (2, 3, 1)])
    inst = Instance(g, ())
    basis = basis_of(inst)
    f = zero_circulation(inst)
    got = list(enumerate_candidates(f, basis, 1))
    cycle = basis.cycles[0]
    want = []
    for lam in (-1, 0, 1):
        want.append(tuple(lam * cycle.get(eid, 0) for eid in range(3)))
    assert got == want


def _apply(f, basis, lam):
    flows = list(f)
    for i, coeff in enumerate(lam):
        for eid, val in basis.cycles[i].items():
            flows[eid] += coeff * val
    return tuple(flows)


def test_candidates_match_from_scratch_evaluation():
    # a small radius, then k = r as solve sweeps it, in the reference walker's order
    rng = SplitMix64(21)
    ranks = set()
    for _ in range(30):
        inst = random_instance(rng.next64(), 8, 4, 4, 9)
        basis = basis_of(inst)
        f = initial_circulation(inst, basis)
        r = len(basis.non_tree_edges)
        ranks.add(r)
        for k in (rng.randint(1, 2), r):
            lams = list(_reference_gray(r, k))
            cands = list(enumerate_candidates(f, basis, k))
            assert len(cands) == len(lams) == (2 * k + 1) ** r
            for lam, got in zip(lams, cands):
                assert got == _apply(f, basis, lam)
    assert ranks == {0, 1, 2, 3, 4}
    # the bases solve sweeps: grid-aisle 3-6 on segments, r = 2..5; k = r up
    # to r = 4, k = 1 at r = 5, and the one-point box k = 0
    for size in range(3, 7):
        inst = _family_instance("grid-aisle", size, 1)
        seg = smooth_topology(inst.base, {v for q in inst.requests for v in (q.source, q.target)})
        basis = segment_basis(seg, spanning_tree(inst.base))
        f = seg.project(min_cost_circulation(inst))
        r = len(basis.non_tree_edges)
        assert r == size - 1
        for k in sorted({0, 1, r if r < 5 else 1}):
            cands = list(enumerate_candidates(f, basis, k))
            assert len(cands) == (2 * k + 1) ** r
            for lam, got in zip(_reference_gray(r, k), cands):
                assert got == _apply(f, basis, lam)


@pytest.mark.parametrize("r", range(6))
def test_middle_candidate_is_the_base_circulation(r):
    # the reflected walk is point-symmetric, so its middle point is lambda =
    # 0: cli_io.solve prices f before the sweep and skips that one yield
    if r == 0:
        inst = Instance(BaseGraph.from_edges(3, [(1, 2, 1), (2, 3, 1)]), (Request(1, 3, 2),))
    else:
        inst = _family_instance("grid-aisle", r + 1, 1)
    basis = basis_of(inst)
    assert len(basis.non_tree_edges) == r
    f = min_cost_circulation(inst)
    for k in range(4):
        cands = list(enumerate_candidates(f, basis, k))
        assert len(cands) % 2 == 1
        assert cands[len(cands) // 2] == f
        assert list(gray_code_lambdas(r, k))[len(cands) // 2] == (0,) * r


def test_candidates_reject_negative_radius():
    inst = Instance(BaseGraph.from_edges(2, [(1, 2, 1)]), ())
    with pytest.raises(ValueError):
        list(enumerate_candidates(zero_circulation(inst), basis_of(inst), -1))


def test_candidates_stay_feasible_and_distinct():
    rng = SplitMix64(22)
    for _ in range(25):
        inst = random_instance(rng.next64(), 8, 3, 4, 9)
        basis = basis_of(inst)
        f = initial_circulation(inst, basis)
        cands = list(enumerate_candidates(f, basis, 1))
        assert len(set(cands)) == len(cands)
        for c in cands:
            assert is_feasible(inst, c)


def _forced_tree_flows(instance, tree, nontree_flows):
    """Complete non-tree edge flows to a circulation by peeling tree leaves.

    Independent of the cycle-basis route: conservation alone forces every
    tree edge flow once the non-tree flows and arc flows are fixed.
    """
    graph = instance.base
    bal = {v: 0 for v in range(1, graph.vertex_count + 1)}
    for eid, val in nontree_flows.items():
        e = graph.edges[eid]
        bal[e.u] += val
        bal[e.v] -= val
    for r in instance.requests:
        bal[r.source] += r.demand
        bal[r.target] -= r.demand

    remaining = {v: [] for v in bal}
    for eid in tree:
        e = graph.edges[eid]
        remaining[e.u].append(eid)
        remaining[e.v].append(eid)
    flows = dict(nontree_flows)
    pending = set(tree)
    while pending:
        leaf = next(v for v in sorted(remaining) if len(remaining[v]) == 1)
        eid = remaining[leaf][0]
        e = graph.edges[eid]
        x = -bal[leaf] if leaf == e.u else bal[leaf]
        flows[eid] = x
        bal[e.u] += x
        bal[e.v] -= x
        other = e.v if leaf == e.u else e.u
        remaining[other].remove(eid)
        del remaining[leaf]
        pending.discard(eid)
    return tuple(flows.get(eid, 0) for eid in range(len(graph.edges)))


def test_candidates_cover_every_class_in_the_box():
    rng = SplitMix64(23)
    for _ in range(15):
        inst = random_instance(rng.next64(), 7, 3, 3, 9)
        basis = basis_of(inst)
        f = initial_circulation(inst, basis)
        k = 1
        seen = set(enumerate_candidates(f, basis, k))
        r = len(basis.non_tree_edges)
        assert len(seen) == (2 * k + 1) ** r
        for offsets in itertools.product(range(-k, k + 1), repeat=r):
            nontree = {
                eid: f[eid] + off
                for eid, off in zip(basis.non_tree_edges, offsets)
            }
            completed = _forced_tree_flows(inst, basis.tree, nontree)
            assert completed in seen


def test_candidate_costs_agree_with_direct_cost():
    rng = SplitMix64(24)
    for _ in range(15):
        inst = random_instance(rng.next64(), 8, 3, 4, 9)
        basis = basis_of(inst)
        f = initial_circulation(inst, basis)
        for lam, cand in zip(
            gray_code_lambdas(len(basis.non_tree_edges), 1),
            enumerate_candidates(f, basis, 1),
        ):
            assert circulation_cost(inst, cand) == circulation_cost(inst, _apply(f, basis, lam))


def _reference_cost(instance, f):
    """The interpreted loop: arc terms at the demands, then edge terms, left
    to right."""
    total = 0
    for r in instance.requests:
        total += r.demand * r.cost
    for eid, e in enumerate(instance.base.edges):
        total += abs(f[eid]) * e.cost
    return total


def _tenths(inst):
    graph = BaseGraph.from_edges(inst.base.vertex_count, [(e.u, e.v, Fraction(e.cost, 10)) for e in inst.base.edges])
    return Instance(graph, tuple(Request(r.source, r.target, Fraction(r.cost, 10), r.demand) for r in inst.requests))


def test_circulation_cost_matches_reference_loop_in_value_and_type():
    rng = SplitMix64(26)
    fractions = 0
    for i in range(500):
        inst = random_instance(rng.next64(), 10, 4, 6, 20)
        if i % 2:
            inst = _tenths(inst)
        f = tuple(rng.randint(-6, 6) for _ in inst.base.edges)
        got, want = circulation_cost(inst, f), _reference_cost(inst, f)
        assert type(got) is type(want)
        assert repr(got) == repr(want)
        fractions += type(got) is Fraction
    assert fractions > 200
