"""The randomized acceptance properties and what only they and the tests use.

``run_acceptance`` solves seeded random instances and checks each property
against the oracles; ``scpsolver accept`` prints its summary.
``_family_instance`` builds the path, cycle, theta and grid-aisle instances
the tests and the golden corpus are made from.  ``decompose`` and
``is_elementary`` are the circulation checks behind the ``decomposition`` and
``proximity`` properties.

Neither the package root nor any module it imports imports this one, so a
solve never loads it; ``scpsolver.cli`` and the tests do.
"""

from __future__ import annotations

from typing import NamedTuple

from .circulation import Circulation, Instance, Request, circulation_cost, min_cost_circulation
from .cli_io import solve
from .enumeration import gray_code_lambdas
from .graph_core import BaseGraph, Cost, cycle_rank
from .oracle import SplitMix64, brute_force_tour, edge_flow_conserves, random_instance, shortest_path, support_connected, verify_tour


class PropertyOutcome(NamedTuple):
    passed: int
    failed: int
    failing_seeds: tuple[int, ...]


class AcceptanceSummary(NamedTuple):
    count: int
    results: dict[str, PropertyOutcome]

    @property
    def ok(self) -> bool:
        return all(o.failed == 0 for o in self.results.values())


def run_acceptance(seed: int, count: int) -> AcceptanceSummary:
    """Solve seeded random instances and check every property against oracles."""
    names = (
        "solve_matches_oracle",
        "tours_valid",
        "proximity",
        "relaxation",
        "candidate_count",
        "decomposition",
    )
    stats = {name: [0, 0, []] for name in names}

    def record(name: str, ok: bool, inst_seed: int) -> None:
        if ok:
            stats[name][0] += 1
        else:
            stats[name][1] += 1
            stats[name][2].append(inst_seed)

    rng = SplitMix64(seed)
    for _ in range(count):
        s = rng.next64()
        inst = random_instance(s, 10, 4, 6, 20)
        graph = inst.base
        p = len(inst.requests)
        r = cycle_rank(graph)
        report = solve(inst)
        oracle = brute_force_tour(inst)
        f = min_cost_circulation(inst)

        record("solve_matches_oracle", report.cost == oracle.cost, s)

        mine = verify_tour(inst, report.tour)
        theirs = verify_tour(inst, oracle.witness)
        record(
            "tours_valid",
            mine.valid and mine.cost == report.cost and theirs.valid and theirs.cost == oracle.cost,
            s,
        )

        if p == 0:
            record("proximity", True, s)
            record("relaxation", True, s)
            record("decomposition", True, s)
        else:
            diff = Circulation(
                tuple(a - b for a, b in zip(theirs.circulation.edge_flow, f.edge_flow)),
                (0,) * p,
            )
            linf = max((abs(x) for x in diff.edge_flow), default=0)
            record("proximity", is_elementary(graph, diff) and linf <= r, s)

            fc = circulation_cost(inst, f)
            ok = fc <= oracle.cost
            if support_connected(inst, f):
                ok = ok and fc == oracle.cost
            if fc == oracle.cost:
                gc = circulation_cost(inst, theirs.circulation)
                ok = ok and gc == fc and support_connected(inst, theirs.circulation)
            record("relaxation", ok, s)

            parts = decompose(graph, diff)
            rebuilt = [0] * len(graph.edges)
            for value, unit in parts:
                for eid, sign in unit.items():
                    rebuilt[eid] += value * sign
            record(
                "decomposition",
                len(parts) <= r and tuple(rebuilt) == diff.edge_flow,
                s,
            )

        # counted off the Gray walk itself, not from the (2r+1)^r formula
        # solve reports
        expected = 0 if p == 0 else sum(1 for _ in gray_code_lambdas(r, r))
        record("candidate_count", report.candidates_evaluated == expected, s)

    results = {
        name: PropertyOutcome(passed, failed, tuple(seeds))
        for name, (passed, failed, seeds) in stats.items()
    }
    return AcceptanceSummary(count, results)


# --- circulation checks (the decomposition and proximity properties) ---


def decompose(graph: BaseGraph, f: Circulation) -> list[tuple[int, dict[int, int]]]:
    """Split edge flows into at most cycle_rank(supp) unit cycle flows.

    Returns (value, cycle) pairs where cycle maps edge_id -> +1/-1 and the
    weighted cycles sum back to the input exactly.  Arc flows are ignored.
    """
    if not edge_flow_conserves(graph, f.edge_flow):
        raise ValueError("edge flows do not conserve")
    flows = list(f.edge_flow)
    parts: list[tuple[int, dict[int, int]]] = []
    while True:
        out: dict[int, list[tuple[int, int]]] = {}
        for eid, val in enumerate(flows):
            if val == 0:
                continue
            e = graph.edges[eid]
            tail, head = (e.u, e.v) if val > 0 else (e.v, e.u)
            out.setdefault(tail, []).append((head, eid))
        if not out:
            break
        for lst in out.values():
            lst.sort()
        # walk the nonzero-flow digraph; conservation guarantees a way out of
        # every vertex entered, so a vertex repeats within n steps
        start = min(out)
        order = {start: 0}
        walk: list[tuple[int, int]] = []
        v = start
        while True:
            head, eid = out[v][0]
            walk.append((v, eid))
            if head in order:
                cycle = walk[order[head]:]
                break
            order[head] = len(walk)
            v = head
        value = min(abs(flows[eid]) for _, eid in cycle)
        unit: dict[int, int] = {}
        for x, eid in cycle:
            sign = 1 if x == graph.edges[eid].u else -1
            unit[eid] = sign
            flows[eid] -= sign * value
        parts.append((value, unit))
    return parts


def is_elementary(graph: BaseGraph, f: Circulation) -> bool:
    """False exactly when f contains a cycle flow of value 2.

    Equivalent test: orient every edge with |flow| >= 2 along its flow sign;
    elementary means that digraph is acyclic.
    """
    out: dict[int, list[int]] = {}
    for eid, val in enumerate(f.edge_flow):
        if abs(val) < 2:
            continue
        e = graph.edges[eid]
        tail, head = (e.u, e.v) if val > 0 else (e.v, e.u)
        out.setdefault(tail, []).append(head)
    color: dict[int, int] = {}
    for start in out:
        if color.get(start, 0) != 0:
            continue
        stack: list[tuple[int, int]] = [(start, 0)]
        color[start] = 1
        while stack:
            v, i = stack[-1]
            succ = out.get(v, ())
            if i < len(succ):
                stack[-1] = (v, i + 1)
                w = succ[i]
                if color.get(w, 0) == 1:
                    return False
                if color.get(w, 0) == 0:
                    color[w] = 1
                    stack.append((w, 0))
            else:
                color[v] = 2
                stack.pop()
    return True


# --- graph families (tests and golden corpus) ---


def _family_instance(family: str, size: int, seed: int) -> Instance:
    rng = SplitMix64((seed << 8) ^ size)
    triples: list[tuple[int, int, Cost]] = []
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
        n = 2 + sum(per)
        nxt = 3
        for length in per:
            chain = [1] + list(range(nxt, nxt + length)) + [2]
            nxt += length
            for a, b in zip(chain, chain[1:]):
                triples.append((a, b, rng.randint(1, 9)))
    elif family == "grid-aisle":
        aisles = max(2, size)
        n = 2 * aisles
        for i in range(1, aisles):
            triples.append((i, i + 1, rng.randint(1, 9)))
            triples.append((aisles + i, aisles + i + 1, rng.randint(1, 9)))
        for i in range(1, aisles + 1):
            triples.append((i, aisles + i, rng.randint(1, 9)))
    else:
        raise ValueError(f"unknown family {family!r}")
    graph = BaseGraph.from_edges(n, triples)

    wanted = min(3, n - 1)
    demand: dict[tuple[int, int], int] = {}
    while len(demand) < wanted:
        a = rng.randint(1, n)
        b = rng.randint(1, n - 1)
        if b >= a:
            b += 1
        demand[(a, b)] = 1
    requests = tuple(
        Request(a, b, shortest_path(graph, a, b)[0], 1) for (a, b) in sorted(demand)
    )
    return Instance(graph, requests)
