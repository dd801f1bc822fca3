"""Golden digests of the canonical JSON report.

Every case below is solved and its JSON report hashed; a refused input
records the exact ``solver error`` text instead.  The digests live in
``tests/golden/report_digests.json``, so any change to the bytes of any
report fails this test by name.  To rewrite the file after a deliberate
change of output, run from the repository root:

    PYTHONPATH=src python tests/test_golden.py --write

and list every changed report in the change's notes.
"""

from __future__ import annotations

import hashlib
import json
import os
import sys
import time
from fractions import Fraction

from scpsolver import BaseGraph, Instance, Request, cli_io, emit_report, homology_tour, random_instance, shortest_path, solve
from scpsolver.acceptance import _family_instance
from scpsolver.graph_core import SegmentGraph
from scpsolver.oracle import SplitMix64, brute_force_tour, verify_tour

DIGESTS = os.path.join(os.path.dirname(os.path.abspath(__file__)), "golden", "report_digests.json")

RANDOM_DRAWS = 300
FAMILY_SIZES = {
    "path": (2, 5, 12, 40),
    "cycle": (3, 6, 13, 40),
    "theta": (5, 9, 16, 40),
    "grid-aisle": (2, 3, 4, 5),
}
CHAIN_SIZES = (16, 20, 24, 28, 32, 36)
CHAINS_PER_SIZE = 10  # split over path, cycle and theta
TENTHS_DRAWS = 12
# tie_instance draws: six split winners; two on which a segment repair that
# numbers quotient ids by root picks another Steiner tree (425, 2525); and
# each of the first 40,000 draws whose report changes when the segment
# repair keeps neither base tie-break (3760 on)
TIE_SEEDS = (17, 27, 28, 35, 44, 50, 425, 2525, 3760, 5448, 10757, 11979, 14521, 16187, 24409, 25898, 26806, 27030, 38937, 39938)
TREE_DEPTHS = (2, 3, 4, 5)
# chorded_instance (depth, chords) cases, seed 1
CHORDED = tuple((depth, chords) for depth in (4, 5, 6) for chords in (1, 2, 3, 4)) + ((7, 4),)


def chain_instance(family: str, n: int, rng: SplitMix64) -> Instance:
    """Path, cycle or theta on n vertices with three requests of demand 20..300."""
    if family == "theta":
        inner = n - 2
        per = [inner // 3 + (1 if i < inner % 3 else 0) for i in range(3)]
        triples = []
        nxt = 3
        for length in per:
            chain = [1, *range(nxt, nxt + length), 2]
            nxt += length
            triples.extend((a, b, rng.randint(1, 9)) for a, b in zip(chain, chain[1:]))
    else:
        triples = [(v, v + 1, rng.randint(1, 9)) for v in range(1, n)]
        if family == "cycle":
            triples.append((1, n, rng.randint(1, 9)))
    graph = BaseGraph.from_edges(n, triples)
    pairs: set[tuple[int, int]] = set()
    while len(pairs) < 3:
        a = rng.randint(1, n)
        b = rng.randint(1, n - 1)
        pairs.add((a, b + 1 if b >= a else b))
    requests = tuple(
        Request(a, b, shortest_path(graph, a, b)[0], rng.randint(20, 300)) for a, b in sorted(pairs)
    )
    return Instance(graph, requests)


def tenths_instance(seed: int) -> Instance:
    """A random_instance draw with every cost k turned into k/10, the value
    the parser reads from the text ``0.1`` for k = 1."""
    inst = random_instance(seed, 8, 3, 4, 20)
    graph = BaseGraph.from_edges(inst.base.vertex_count, [(e.u, e.v, Fraction(e.cost, 10)) for e in inst.base.edges])
    requests = tuple(Request(r.source, r.target, Fraction(r.cost, 10), r.demand) for r in inst.requests)
    return Instance(graph, requests)


def shuffled(items: list, rng: SplitMix64) -> list:
    """items shuffled in place by Fisher-Yates, drawing from rng."""
    for i in range(len(items) - 1, 0, -1):
        j = rng.randint(0, i)
        items[i], items[j] = items[j], items[i]
    return items


def tie_instance(seed: int) -> Instance:
    """A subdivided multigraph, dense in tied repairs.

    k = 2-5 hub vertices joined by k to k + 3 chains, a spanning tree first,
    each of 1-4 edges (a loop of at least 3, and no two one-edge chains
    joining the same pair), with vertex ids and edge order shuffled and edge
    costs 1-2; then 2-6 requests, each priced at its shortest path plus 0
    or 1.  Split supports and equal Steiner trees are common, so a segment
    repair that breaks a tie other than the base repair's shows in the
    witness.
    """
    rng = SplitMix64(seed)
    k = rng.randint(2, 5)
    hubs = [(rng.randint(1, v - 1), v) for v in range(2, k + 1)]
    hubs += [(rng.randint(1, k), rng.randint(1, k)) for _ in range(rng.randint(k, k + 3) - len(hubs))]
    chains, direct, n = [], set(), k
    for a, b in hubs:
        pieces = rng.randint(1, 4)
        if a == b:
            pieces = max(pieces, 3)
        elif pieces == 1 and (min(a, b), max(a, b)) in direct:
            pieces = 2
        if pieces == 1:
            direct.add((min(a, b), max(a, b)))
        chains.append([a, *range(n + 1, n + pieces), b])
        n += pieces - 1
    ids = shuffled(list(range(1, n + 1)), rng)
    triples = [(ids[x - 1], ids[y - 1], rng.randint(1, 2)) for chain in chains for x, y in zip(chain, chain[1:])]
    graph = BaseGraph.from_edges(n, shuffled(triples, rng))
    requests: dict[tuple[int, int], Request] = {}
    for _ in range(rng.randint(2, 6)):
        s = rng.randint(1, n)
        t = rng.randint(1, n - 1)
        t += t >= s
        requests.setdefault((s, t), Request(s, t, shortest_path(graph, s, t)[0] + rng.randint(0, 1)))
    return Instance(graph, tuple(requests.values()))


def tree_instance(depth: int, seed: int) -> Instance:
    """The complete binary tree of the given depth (vertices 1..2^(depth+1)-1,
    edges v//2 - v, costs 1-9) with one request from each left leaf to its
    sibling, cost 1-9.  r = 0, but every repair's reduced graph keeps all
    2^(depth-1) - 2 inner vertices above the leaves' parents as Steiner
    vertices: the tree of the Steiner sweep's worst case."""
    rng = SplitMix64(seed)
    n = 2 ** (depth + 1) - 1
    graph = BaseGraph.from_edges(n, [(v // 2, v, rng.randint(1, 9)) for v in range(2, n + 1)])
    leaves = range(2**depth, n + 1, 2)
    return Instance(graph, tuple(Request(v, v + 1, rng.randint(1, 9)) for v in leaves))


def chorded_instance(depth: int, chords: int, seed: int) -> Instance:
    """tree_instance(depth, seed) plus the given number of chords of cost 1,
    each between two distinct vertices of level depth - 2 (ids 2^(depth-2)
    to 2^(depth-1) - 1) not yet joined, drawn by SplitMix64(7 * seed +
    chords).  r = chords, and the repair weight dwarfs the spread of base
    costs, so the incumbent prunes almost no box point: the branchy family
    where nearly every point is repaired but few supports are distinct."""
    tree = tree_instance(depth, seed)
    rng = SplitMix64(7 * seed + chords)
    lo, hi = 2 ** (depth - 2), 2 ** (depth - 1) - 1
    pairs: list[tuple[int, int]] = []
    while len(pairs) < chords:
        a, b = rng.randint(lo, hi), rng.randint(lo, hi)
        if a != b and (min(a, b), max(a, b)) not in pairs:
            pairs.append((min(a, b), max(a, b)))
    graph = BaseGraph.from_edges(tree.base.vertex_count, [*tree.base.edges, *((a, b, 1) for a, b in pairs)])
    return Instance(graph, tree.requests)


def cases() -> dict[str, Instance]:
    out: dict[str, Instance] = {}
    for seed in range(RANDOM_DRAWS):
        out[f"random/{seed}"] = random_instance(seed, 10, 4, 6, 20)
    for family, sizes in FAMILY_SIZES.items():
        for size in sizes:
            out[f"family/{family}/{size}"] = _family_instance(family, size, 1)
    rng = SplitMix64(20240601)
    for n in CHAIN_SIZES:
        for i in range(CHAINS_PER_SIZE):
            family = ("path", "cycle", "theta")[i % 3]
            out[f"chain/{family}/{n}/{i}"] = chain_instance(family, n, SplitMix64(rng.next64()))
    for seed in range(TENTHS_DRAWS):
        out[f"tenths/{seed}"] = tenths_instance(seed)
    for seed in TIE_SEEDS:
        out[f"ties/{seed}"] = tie_instance(seed)
    for depth in TREE_DEPTHS:
        out[f"tree/{depth}"] = tree_instance(depth, depth)
    for depth, chords in CHORDED:
        out[f"chorded/{depth}/{chords}"] = chorded_instance(depth, chords, 1)
    out["tenths/triangle"] = Instance(
        BaseGraph.from_edges(3, [(1, 2, Fraction(1, 10)), (2, 3, Fraction(2, 10)), (1, 3, Fraction(7, 10))]),
        (Request(1, 3, Fraction(3, 10)),),
    )
    return out


def digest(instance: Instance) -> str:
    try:
        report = emit_report(solve(instance), "json")
    except RuntimeError as exc:
        return f"solver error: {exc}"
    return hashlib.sha256(report.encode()).hexdigest()


def current_digests() -> dict[str, str]:
    return {name: digest(inst) for name, inst in cases().items()}


def test_reports_match_golden_digests():
    with open(DIGESTS, encoding="utf-8") as fh:
        golden = json.load(fh)
    now = current_digests()
    assert sorted(now) == sorted(golden), "golden case list changed"
    changed = [name for name in golden if now[name] != golden[name]]
    assert not changed, f"{len(changed)} reports changed, first: {changed[:10]}"


def test_parsed_graphs_equal_the_checked_graphs():
    # parse_instance builds its graph without BaseGraph's own pass over the
    # edges; the checked constructor must accept that graph and give the same
    for name, instance in cases().items():
        graph = cli_io.parse_instance(cli_io.format_instance(instance)).base
        assert type(graph) is BaseGraph, name
        assert graph == BaseGraph(graph.vertex_count, graph.edges) == instance.base, name


def test_segment_sweep_picks_the_base_sweeps_lambda(monkeypatch):
    # the sweep runs on segments with the projected basis; the reference runs
    # on the base graph with fundamental_cycles, as solve did before segments.
    # The tenths cases sweep integer segments after solve's scaling, and the
    # reference sweeps their Fraction costs unscaled.
    from test_cli_io import reference_sweep

    swept = set()
    priced = cli_io.circulation_cost

    def recording(instance, g):
        swept.add(type(instance.base))
        return priced(instance, g)

    monkeypatch.setattr(cli_io, "circulation_cost", recording)
    checked = tenths = 0
    for name, instance in cases().items():
        if name.startswith(("chain/", "family/", "tenths/")):
            report = solve(instance)
            assert (report.cost, report.winning_lambda, report.candidates_evaluated) == reference_sweep(instance), name
            checked += 1
            tenths += name.startswith("tenths/")
    assert swept == {SegmentGraph}
    assert tenths == TENTHS_DRAWS + 1 == 13
    assert checked == len(CHAIN_SIZES) * CHAINS_PER_SIZE + sum(map(len, FAMILY_SIZES.values())) + tenths


def test_golden_corpus_solves_every_case_and_covers_long_tours():
    with open(DIGESTS, encoding="utf-8") as fh:
        golden = json.load(fh)
    refused = [name for name, value in golden.items() if value.startswith("solver error: ")]
    assert not refused
    assert sum(name.startswith("chain/") for name in golden) == len(CHAIN_SIZES) * CHAINS_PER_SIZE
    assert sum(name.startswith("tenths/") for name in golden) == TENTHS_DRAWS + 1
    assert sum(name.startswith("ties/") for name in golden) == len(TIE_SEEDS)
    assert sum(name.startswith("tree/") for name in golden) == len(TREE_DEPTHS)
    assert sum(name.startswith("chorded/") for name in golden) == len(CHORDED)
    assert len(golden) > 350


def test_deep_sibling_trees_solve_in_under_a_second():
    # each repair of depth d keeps 2^(d-1) - 2 Steiner vertices, 30 at depth
    # 6: a sweep of every mask took hours there, the sweep by left-out count
    # takes milliseconds
    for depth in (6, 7, 8):
        instance = tree_instance(depth, depth)
        start = time.perf_counter()
        report = solve(instance)
        assert time.perf_counter() - start < 1.0, depth
        cost, tour = cli_io.parse_report(emit_report(report, "json"))
        check = verify_tour(instance, tour)
        assert check.valid and check.cost == cost == report.cost, depth


def test_small_sibling_trees_match_the_brute_force_oracle():
    for depth in (2, 3):
        instance = tree_instance(depth, depth)
        assert solve(instance).cost == brute_force_tour(instance).cost


def test_deep_chorded_trees_solve_in_under_two_seconds():
    # r = 4 and nearly every box point reaches repair, but only 47 and 30
    # distinct supports, each repaired once
    for depth in (7, 8):
        instance = chorded_instance(depth, 4, 1)
        start = time.perf_counter()
        report = solve(instance)
        assert time.perf_counter() - start < 2.0, depth
        assert report.r == 4
        cost, tour = cli_io.parse_report(emit_report(report, "json"))
        check = verify_tour(instance, tour)
        assert check.valid and check.cost == cost == report.cost, depth


def test_small_chorded_trees_match_the_brute_force_oracle():
    for depth, chords in ((3, 1), (4, 1), (4, 2)):
        instance = chorded_instance(depth, chords, 1)
        assert solve(instance).cost == brute_force_tour(instance).cost, (depth, chords)


def test_chorded_depth_7_builds_few_union_finds(monkeypatch):
    # one Steiner sweep per distinct support (47), and no left-out set of
    # two or more holds a Steiner vertex that separates terminals
    made = []

    class Counting(homology_tour.UnionFind):
        def __init__(self, size):
            made.append(size)
            super().__init__(size)

    monkeypatch.setattr(homology_tour, "UnionFind", Counting)
    solve(chorded_instance(7, 4, 1))
    assert len(made) == 2078


if __name__ == "__main__":
    if sys.argv[1:] != ["--write"]:
        sys.exit("usage: PYTHONPATH=src python tests/test_golden.py --write")
    os.makedirs(os.path.dirname(DIGESTS), exist_ok=True)
    with open(DIGESTS, "w", encoding="utf-8") as fh:
        json.dump(current_digests(), fh, indent=1, sort_keys=True)
        fh.write("\n")
