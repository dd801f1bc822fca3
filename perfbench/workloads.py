"""Seeded instance generators for the benchmark workloads.

The benchmark owns these generators and builds them from the package's
public API only, so they stay put when the solver's internals move.  Each
workload expands a seed into a fixed list of instances, one "pass"; the same
seed always gives byte-identical instance text.

Sizes are fixed per workload (for corpus, the count of each size class), and
the seed draws costs and request endpoints, so every seed asks the solver for
about the same mix of work.  The mixes put the median and the 90th
percentile of the per-solve time inside a band of many similar instances
rather than on the edge between two sizes, which keeps them steady from seed
to seed.
"""

from __future__ import annotations

import zlib

from scpsolver import BaseGraph, Instance, Request, cycle_rank, format_instance, random_instance, shortest_path
from scpsolver.oracle import SplitMix64

DEFAULT_SEED = 1
WORKLOADS = ("relax-chain", "sweep-grid", "corpus", "bulk-demand")


def family_graph(family: str, size: int, rng: SplitMix64) -> BaseGraph:
    """Graph of one benchmark family with edge costs drawn from 1..9.

    ``path`` has cycle rank 0, ``cycle`` 1, ``theta`` 2 (three chains between
    vertices 1 and 2) and ``grid-aisle`` with ``size`` rungs ``size - 1``.
    """
    triples: list[tuple[int, int, int]] = []
    if family == "path":
        n = max(2, size)
        triples = [(v, v + 1, rng.randint(1, 9)) for v in range(1, n)]
    elif family == "cycle":
        n = max(3, size)
        triples = [(v, v + 1, rng.randint(1, 9)) for v in range(1, n)]
        triples.append((1, n, rng.randint(1, 9)))
    elif family == "theta":
        inner = max(3, size - 2)
        per = [inner // 3 + (1 if i < inner % 3 else 0) for i in range(3)]
        n = 2 + inner
        nxt = 3
        for length in per:
            chain = [1, *range(nxt, nxt + length), 2]
            nxt += length
            triples.extend((a, b, rng.randint(1, 9)) for a, b in zip(chain, chain[1:]))
    elif family == "grid-aisle":
        aisles = max(2, size)
        n = 2 * aisles
        for i in range(1, aisles):
            triples.append((i, i + 1, rng.randint(1, 9)))
            triples.append((aisles + i, aisles + i + 1, rng.randint(1, 9)))
        triples.extend((i, aisles + i, rng.randint(1, 9)) for i in range(1, aisles + 1))
    else:
        raise ValueError(f"unknown family {family!r}")
    return BaseGraph.from_edges(n, triples)


def family_instance(family: str, size: int, rng: SplitMix64, demand_lo: int = 1, demand_hi: int = 1) -> Instance:
    """Family graph plus three distinct requests, each priced at its shortest path."""
    graph = family_graph(family, size, rng)
    n = graph.vertex_count
    pairs: set[tuple[int, int]] = set()
    while len(pairs) < min(3, n - 1):
        a = rng.randint(1, n)
        b = rng.randint(1, n - 1)
        pairs.add((a, b + 1 if b >= a else b))
    requests = tuple(
        Request(a, b, shortest_path(graph, a, b)[0], rng.randint(demand_lo, demand_hi))
        for a, b in sorted(pairs)
    )
    return Instance(graph, requests)


def ladder(lo: int, hi: int, count: int) -> list[int]:
    """``count`` sizes spaced geometrically from lo to hi inclusive."""
    return [round(lo * (hi / lo) ** (i / (count - 1))) for i in range(count)]


# (family, size) per instance of one pass.  relax-chain stretches only the
# path family to n = 240: its relaxation work is fixed by n.  Cycle and theta
# work varies up to fourfold with the number of cycles cancelled, so they come
# as 300 small instances whose mix is about the same for every seed; with 120
# instances of n up to 60, the median moved by 14 % from seed to seed.
RELAX_CHAIN = (
    [("path", n) for n in ladder(20, 240, 24)]
    + [("cycle", n) for n in ladder(16, 40, 150)]
    + [("theta", n) for n in ladder(16, 40, 150)]
)
# Box sizes 25 / 343 / 6561 / 161051.  The median and the 90th percentile
# both land inside the large grid-aisle 5 class (a 90th percentile among the
# grid-aisle 6 solves would need tens of seconds of them per run); the few
# grid-aisle 6 solves carry half the wall time.
SWEEP_GRID = [("grid-aisle", 3)] * 2 + [("grid-aisle", 4)] * 4 + [("grid-aisle", 5)] * 60 + [("grid-aisle", 6)] * 4
# Many small chains for the same reason as relax-chain; at n <= 36 the tours
# (demand times path length) still weigh as much as the relaxation.
BULK_DEMAND = [(family, n) for family in ("path", "cycle", "theta") for n in ladder(16, 36, 60)]
BULK_DEMAND_RANGE = (20, 300)
CORPUS_SIZE = 500


def spread(items: list) -> list:
    """Fixed reordering that spreads every run of similar items over the pass.

    The machine's speed drifts over seconds, so a size class solved in one
    block would sample only one stretch of it.  Golden-ratio order puts each
    class's solves evenly through the pass instead.
    """
    return [items[i] for i in sorted(range(len(items)), key=lambda i: (i * 0.6180339887498949) % 1.0)]


def corpus_class(n: int, rank: int, has_requests: bool) -> tuple[int, int, bool]:
    """Stratum of a corpus instance.

    Without requests `solve` returns at once whatever n is, so those
    instances are classed by rank alone; that keeps every class at least
    1.9 % likely and the stratified draw short.
    """
    return (n if has_requests else 0, rank, has_requests)


def corpus_quotas(size: int) -> dict[tuple[int, int, bool], int]:
    """Instances per ``corpus_class`` in a corpus of ``size``.

    Proportional to the class's exact probability under
    ``random_instance(seed, 10, 4, 6, 20)``: n is uniform on 2..10, the rank
    uniform on 0..min(4, C(n, 2) - n + 1) and the number of request draws
    uniform on 0..6.  Fixing the counts keeps each percentile of the solve
    time inside the same class for every seed; left to chance, the share of
    rank-4 instances alone moves the 90th percentile between classes.
    """
    weights: dict[tuple[int, int, bool], float] = {}
    for n in range(2, 11):
        top = min(4, n * (n - 1) // 2 - (n - 1))
        for rank in range(top + 1):
            for has_requests, share in ((False, 1 / 7), (True, 6 / 7)):
                key = corpus_class(n, rank, has_requests)
                weights[key] = weights.get(key, 0.0) + share / 9 / (top + 1)
    quotas = {key: int(size * w) for key, w in weights.items()}
    by_remainder = sorted(weights, key=lambda key: size * weights[key] - quotas[key], reverse=True)
    for key in by_remainder[: size - sum(quotas.values())]:
        quotas[key] += 1
    return quotas


def corpus(rng: SplitMix64, size: int) -> list[Instance]:
    """Stratified draw from the acceptance suite's distribution (tests/test_acceptance.py).

    Instances are drawn in seed order and kept while their class's quota
    lasts, so the corpus is a proportional stratified sample.
    """
    quotas = corpus_quotas(size)
    chosen: list[Instance] = []
    while len(chosen) < size:
        instance = random_instance(rng.next64(), 10, 4, 6, 20)
        key = corpus_class(instance.base.vertex_count, cycle_rank(instance.base), bool(instance.requests))
        if quotas[key]:
            quotas[key] -= 1
            chosen.append(instance)
    return chosen


def build(workload: str, seed: int) -> list[Instance]:
    """The instances of one pass of ``workload`` for ``seed``."""
    master = SplitMix64(seed ^ (zlib.crc32(workload.encode()) << 32))
    if workload == "corpus":
        return corpus(master, CORPUS_SIZE)
    demand = (1, 1)
    if workload == "relax-chain":
        spec = RELAX_CHAIN
    elif workload == "sweep-grid":
        spec = SWEEP_GRID
    elif workload == "bulk-demand":
        spec, demand = BULK_DEMAND, BULK_DEMAND_RANGE
    else:
        raise ValueError(f"unknown workload {workload!r}")
    return spread([family_instance(f, n, SplitMix64(master.next64()), *demand) for f, n in spec])


def texts(instances: list[Instance]) -> list[str]:
    """Instance text as the CLI reads it; the timed loop parses this."""
    return [format_instance(inst) for inst in instances]
