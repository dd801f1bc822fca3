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
from fractions import Fraction

from scpsolver import BaseGraph, Instance, Request, cli_io, emit_report, random_instance, shortest_path, solve
from scpsolver.acceptance import _family_instance
from scpsolver.graph_core import SegmentGraph
from scpsolver.oracle import SplitMix64

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
    assert len(golden) > 350


if __name__ == "__main__":
    if sys.argv[1:] != ["--write"]:
        sys.exit("usage: PYTHONPATH=src python tests/test_golden.py --write")
    os.makedirs(os.path.dirname(DIGESTS), exist_ok=True)
    with open(DIGESTS, "w", encoding="utf-8") as fh:
        json.dump(current_digests(), fh, indent=1, sort_keys=True)
        fh.write("\n")
