"""Acceptance suite: every headline guarantee, checked against oracles.

Run with ``pytest tests/test_acceptance.py -v -s`` to see one verdict line
per criterion.  The shared corpus is ``run_acceptance`` over 500 seeded
random instances small enough for the brute-force tour oracle; criteria 1,
2 and 6 read its verdicts.
"""

import itertools
import json
from time import perf_counter

import pytest

from scpsolver.acceptance import _family_instance, decompose, is_elementary, run_acceptance
from scpsolver.circulation import Circulation, zero_circulation
from scpsolver.cli import main
from scpsolver.cli_io import emit_report, format_instance, solve
from scpsolver.enumeration import enumerate_candidates, gray_code_lambdas
from scpsolver.graph_core import cycle_rank, fundamental_cycles, spanning_tree
from scpsolver.homology_tour import ReducedGraph, min_steiner_tree
from scpsolver.oracle import (
    SplitMix64,
    brute_force_steiner,
    brute_force_tour,
    make_tight_instance,
    random_instance,
)

CORPUS_SEED = 20260814
CORPUS_SIZE = 500


@pytest.fixture(scope="module")
def corpus():
    start = perf_counter()
    summary = run_acceptance(CORPUS_SEED, CORPUS_SIZE)
    return summary, perf_counter() - start


def _verdict(num: int, name: str, ok: bool) -> None:
    print(f"criterion {num} ({name}): {'PASS' if ok else 'FAIL'}")


def _failing_seeds(num: int, name: str, summary, prop: str) -> tuple[int, ...]:
    seeds = summary.results[prop].failing_seeds
    _verdict(num, name, not seeds)
    if seeds:
        print(f"  failing seeds: {' '.join(map(str, seeds))}")
    return seeds


def test_criterion_1_solver_matches_oracle_under_time_budget(corpus):
    summary, elapsed = corpus
    mismatches = _failing_seeds(1, f"{summary.count} instances, {elapsed:.1f}s", summary, "solve_matches_oracle")
    assert mismatches == ()
    assert summary.count == CORPUS_SIZE
    assert elapsed < 60.0


def test_criterion_2_optimal_class_stays_near_relaxation(corpus):
    summary, _ = corpus
    assert _failing_seeds(2, "proximity", summary, "proximity") == ()


def _forced_tree_flows(instance, tree, nontree_flows):
    # conservation forces tree flows once non-tree and arc flows are fixed
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


def test_criterion_3_candidate_enumeration_is_exact():
    rng = SplitMix64(CORPUS_SEED + 3)
    ok = True
    for trial in range(50):
        inst = random_instance(rng.next64(), 7, 3, 0, 9)
        basis = fundamental_cycles(inst.base, spanning_tree(inst.base))
        r = len(basis.non_tree_edges)
        k = trial % 3 + 1
        f = zero_circulation(inst)
        lams = list(gray_code_lambdas(r, k))
        cands = [c.edge_flow for c in enumerate_candidates(f, basis, k)]
        ok = ok and len(cands) == (2 * k + 1) ** r == len(set(cands))
        for a, b in zip(lams, lams[1:]):
            steps = [abs(x - y) for x, y in zip(a, b)]
            ok = ok and sum(steps) == 1
        seen = set(cands)
        for offsets in itertools.product(range(-k, k + 1), repeat=r):
            nontree = {
                eid: f.edge_flow[eid] + off
                for eid, off in zip(basis.non_tree_edges, offsets)
            }
            ok = ok and _forced_tree_flows(inst, basis.tree, nontree) in seen
        if not ok:
            break
    _verdict(3, "candidate counting", ok)
    assert ok


def test_criterion_4_decomposition_stays_within_rank():
    rng = SplitMix64(CORPUS_SEED + 4)
    failures = []
    for _ in range(200):
        s = rng.next64()
        inst = random_instance(s, 10, 5, 0, 9)
        g = inst.base
        basis = fundamental_cycles(g, spanning_tree(g))
        flows = [0] * len(g.edges)
        for cycle in basis.cycles:
            lam = rng.randint(-3, 3)
            for eid, val in cycle.items():
                flows[eid] += lam * val
        parts = decompose(g, Circulation(tuple(flows), ()))
        rebuilt = [0] * len(g.edges)
        for value, unit in parts:
            for eid, sign in unit.items():
                rebuilt[eid] += value * sign
        if len(parts) > cycle_rank(g) or rebuilt != flows:
            failures.append(s)
    _verdict(4, "cycle decomposition", not failures)
    assert failures == []


def test_criterion_5_proximity_bound_is_tight():
    ok = True
    for r in range(1, 7):
        graph, circ = make_tight_instance(r)
        ok = ok and cycle_rank(graph) == r
        ok = ok and is_elementary(graph, circ)
        ok = ok and max(abs(x) for x in circ.edge_flow) == r
    _verdict(5, "tight family r=1..6", ok)
    assert ok


def test_criterion_6_relaxation_bound(corpus):
    summary, _ = corpus
    assert _failing_seeds(6, "relaxation bound", summary, "relaxation") == ()


def test_criterion_7_path_and_cycle_families():
    failures = []
    for i in range(50):
        inst = _family_instance("path", 2 + i % 7, 1000 + i)
        report = solve(inst)
        if report.candidates_evaluated != 1 or report.cost != brute_force_tour(inst).cost:
            failures.append(("path", i))
    for i in range(50):
        inst = _family_instance("cycle", 3 + i % 6, 2000 + i)
        report = solve(inst)
        if report.candidates_evaluated != 3 or report.cost != brute_force_tour(inst).cost:
            failures.append(("cycle", i))
    _verdict(7, "path and cycle families", not failures)
    assert failures == []


def _random_steiner_case(rng):
    n = rng.randint(2, 12)
    edges = []
    for v in range(1, n):
        u = rng.randint(0, v - 1)
        edges.append((u, v, rng.randint(1, 20), (len(edges),)))
    present = {(min(u, v), max(u, v)) for u, v, _, _ in edges}
    spare = [(u, v) for u in range(n) for v in range(u + 1, n) if (u, v) not in present]
    for _ in range(rng.randint(0, 4)):
        if not spare:
            break
        u, v = spare.pop(rng.randint(0, len(spare) - 1))
        edges.append((u, v, rng.randint(1, 20), (len(edges),)))
    t = rng.randint(2, min(5, n))
    terminals = set()
    while len(terminals) < t:
        terminals.add(rng.randint(0, n - 1))
    return ReducedGraph(tuple(range(n)), frozenset(terminals), tuple(edges))


def test_criterion_8_steiner_repair_is_exact():
    rng = SplitMix64(CORPUS_SEED + 8)
    failures = 0
    for _ in range(200):
        g = _random_steiner_case(rng)
        if min_steiner_tree(g, g.terminals).weight != brute_force_steiner(g, g.terminals).cost:
            failures += 1
    _verdict(8, "steiner exactness", failures == 0)
    assert failures == 0


def test_criterion_9_reports_are_byte_identical(tmp_path, capsys):
    rng = SplitMix64(CORPUS_SEED)
    seeds = [rng.next64() for _ in range(20)]
    instances = [random_instance(s, 10, 4, 6, 20) for s in seeds]
    ok = True
    for s, inst in zip(seeds, instances):
        a = emit_report(solve(inst), "json")
        b = emit_report(solve(inst), "json")
        ok = ok and a == b
        ok = ok and random_instance(s, 10, 4, 6, 20) == inst
    sample = tmp_path / "sample.scp"
    sample.write_text(format_instance(instances[0]), encoding="utf-8")
    assert main(["solve", str(sample), "--json"]) == 0
    first = capsys.readouterr().out
    assert main(["solve", str(sample), "--json"]) == 0
    ok = ok and capsys.readouterr().out == first
    ok = ok and json.loads(first)["cost"] == solve(instances[0]).cost
    _verdict(9, "byte-stable reports", ok)
    assert ok
