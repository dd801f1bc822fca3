"""Instance text format, JSON reports, the solve pipeline, and the CLI.

Pipeline: min-cost circulation, segment graph, Gray-code sweep of the
nearby homology classes on the segments, cheapest class repair per
candidate, minimum wins and is expanded to a base tour.  Ties go to the
lexicographically smallest coefficient vector, so output is reproducible
byte for byte.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import sys
from dataclasses import dataclass
from json.encoder import encode_basestring_ascii
from operator import itemgetter

from .circulation import (
    Circulation,
    Instance,
    Request,
    circulation_cost,
    decompose,
    is_elementary,
    min_cost_circulation,
    segment_instance,
    support_connected,
)
# solve calls neither gray_code_lambdas (run_acceptance counts its box with
# it) nor fundamental_cycles, but perfbench/tracing.py patches both in cli_io
# by name, so they stay importable from here
from .enumeration import LambdaVector, enumerate_candidates, gray_code_lambdas
from .graph_core import (
    BaseGraph,
    Cost,
    cycle_rank,
    fundamental_cycles,
    segment_basis,
    shortest_path,
    smooth_topology,
    spanning_tree,
)
from .homology_tour import (
    KIND_REQUEST,
    SteinerSolution,
    Tour,
    build_euler_multigraph,
    connectivity_repair,
    euler_tour,
)
from .oracle import SplitMix64, brute_force_tour, random_instance, verify_tour

OK = 0
FAIL = 1
BAD_INPUT = 2


class InstanceFormatError(ValueError):
    """Parse failure with a line number and a stable error code."""

    def __init__(self, line_no: int, code: str, message: str):
        super().__init__(f"line {line_no}: {message} [{code}]")
        self.line_no = line_no
        self.code = code


@dataclass
class SolveReport:
    """The optimal tour and the deterministic facts of its solve; no wall-clock time."""

    tour: Tour
    cost: Cost
    n: int
    m: int
    p: int
    r: int
    k: int
    candidates_evaluated: int
    winning_lambda: LambdaVector


@dataclass(frozen=True)
class PropertyOutcome:
    passed: int
    failed: int
    failing_seeds: tuple[int, ...]


@dataclass(frozen=True)
class AcceptanceSummary:
    count: int
    results: dict[str, PropertyOutcome]

    @property
    def ok(self) -> bool:
        return all(o.failed == 0 for o in self.results.values())


def _number(token: str, line_no: int, what: str) -> Cost:
    try:
        return int(token)
    except ValueError:
        try:
            value = float(token)
        except ValueError:
            raise InstanceFormatError(line_no, "bad-token", f"{what} is not a number: {token!r}") from None
    if not math.isfinite(value):  # nan, inf, and literals like 1e400 that overflow to inf
        raise InstanceFormatError(line_no, "non-finite-cost", f"{what} is not finite: {token!r}")
    return value


def _vertex(token: str, n: int, line_no: int) -> int:
    try:
        v = int(token)
    except ValueError:
        raise InstanceFormatError(line_no, "bad-token", f"vertex is not an integer: {token!r}") from None
    if not (1 <= v <= n):
        raise InstanceFormatError(line_no, "bad-vertex", f"vertex {v} outside 1..{n}")
    return v


def parse_instance(text: str) -> Instance:
    """Parse the line-oriented instance format.

    '#' starts a comment.  The header line ``scp 1`` and a ``n <count>``
    line must come before any ``edge u v cost`` or ``request s t cost
    [demand]`` line.  Duplicate request pairs merge into one request with
    summed demand.
    """
    have_header = False
    n: int | None = None
    triples: list[tuple[int, int, Cost]] = []
    edge_pairs: set[tuple[int, int]] = set()
    merged: dict[tuple[int, int], list] = {}  # (s, t) -> [cost, demand]

    for line_no, raw in enumerate(text.splitlines(), 1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        tokens = line.split()
        if not have_header:
            if tokens != ["scp", "1"]:
                raise InstanceFormatError(line_no, "bad-header", "expected header 'scp 1'")
            have_header = True
            continue
        directive = tokens[0]
        if directive == "n":
            if n is not None:
                raise InstanceFormatError(line_no, "bad-size", "vertex count given twice")
            if len(tokens) != 2:
                raise InstanceFormatError(line_no, "bad-size", "expected 'n <count>'")
            try:
                n = int(tokens[1])
            except ValueError:
                raise InstanceFormatError(line_no, "bad-size", f"bad vertex count {tokens[1]!r}") from None
            if n < 1:
                raise InstanceFormatError(line_no, "bad-size", "vertex count must be positive")
        elif directive == "edge":
            if n is None:
                raise InstanceFormatError(line_no, "missing-size", "edge before 'n' line")
            if len(tokens) != 4:
                raise InstanceFormatError(line_no, "bad-token", "expected 'edge u v cost'")
            u = _vertex(tokens[1], n, line_no)
            v = _vertex(tokens[2], n, line_no)
            cost = _number(tokens[3], line_no, "edge cost")
            if u == v:
                raise InstanceFormatError(line_no, "self-loop", f"self-loop at vertex {u}")
            if cost < 0:
                raise InstanceFormatError(line_no, "negative-cost", f"negative edge cost {cost}")
            pair = (min(u, v), max(u, v))
            if pair in edge_pairs:
                raise InstanceFormatError(line_no, "duplicate-edge", f"edge {pair} given twice")
            edge_pairs.add(pair)
            triples.append((u, v, cost))
        elif directive == "request":
            if n is None:
                raise InstanceFormatError(line_no, "missing-size", "request before 'n' line")
            if len(tokens) not in (4, 5):
                raise InstanceFormatError(line_no, "bad-token", "expected 'request s t cost [demand]'")
            s = _vertex(tokens[1], n, line_no)
            t = _vertex(tokens[2], n, line_no)
            cost = _number(tokens[3], line_no, "request cost")
            if s == t:
                raise InstanceFormatError(line_no, "self-loop", f"request with equal endpoints {s}")
            if cost < 0:
                raise InstanceFormatError(line_no, "negative-cost", f"negative request cost {cost}")
            demand = 1
            if len(tokens) == 5:
                try:
                    demand = int(tokens[4])
                except ValueError:
                    raise InstanceFormatError(line_no, "bad-demand", f"bad demand {tokens[4]!r}") from None
                if demand < 1:
                    raise InstanceFormatError(line_no, "bad-demand", "demand must be positive")
            slot = merged.get((s, t))
            if slot is None:
                merged[(s, t)] = [cost, demand]
            elif slot[0] != cost:
                raise InstanceFormatError(line_no, "conflicting-request-cost", f"request ({s}, {t}) repeated with a different cost")
            else:
                slot[1] += demand
        else:
            raise InstanceFormatError(line_no, "unknown-directive", f"unknown directive {directive!r}")

    if not have_header:
        raise InstanceFormatError(0, "bad-header", "missing header 'scp 1'")
    if n is None:
        raise InstanceFormatError(0, "missing-size", "missing 'n' line")
    if n > len(triples) + 1:
        # refused before the adjacency of a huge vertex count is built
        raise InstanceFormatError(0, "not-connected", f"{len(triples)} edges cannot connect {n} vertices")
    graph = BaseGraph.from_edges(n, triples)
    if not graph.connected:
        raise InstanceFormatError(0, "not-connected", "graph is not connected")
    requests = tuple(Request(s, t, cost, demand) for (s, t), (cost, demand) in merged.items())
    return Instance(graph, requests)


def format_instance(instance: Instance, comments: tuple[str, ...] = ()) -> str:
    lines = [f"# {c}" for c in comments]
    lines.append("scp 1")
    lines.append(f"n {instance.base.vertex_count}")
    for e in instance.base.edges:
        lines.append(f"edge {e.u} {e.v} {e.cost}")
    for r in instance.requests:
        suffix = f" {r.demand}" if r.demand != 1 else ""
        lines.append(f"request {r.source} {r.target} {r.cost}{suffix}")
    return "\n".join(lines) + "\n"


# solve repairs the surviving box points in batches of at most this many,
# cheapest first.  A batch is held in memory, one circulation per point; a
# box of rank r <= 2 (at most 25 points) fits in one.
REPAIR_BATCH = 64


def solve(instance: Instance) -> SolveReport:
    """Exact minimum-cost tour serving every request its demanded number of times.

    Sweeps g = f + sum(lambda_i * C_i) over the box [-r, r]^r around the
    relaxation f and keeps the cheapest base cost plus repair weight.

    The relaxation and the BFS spanning tree run on the base graph, so f,
    the non-tree edges and the lambda coordinates are the base graph's.
    The sweep runs on the segment graph (``smooth_topology`` with the
    request endpoints kept), O(r + k + p + leaves) segments on which every
    circulation is constant: f and the fundamental cycles project onto it
    exactly, and so do candidate costs and repair weights, integer sums
    being exact.  A float-cost instance keeps every vertex, so each segment
    is one base edge and its float sums keep their order.  Only the winner
    is expanded to base edge flows; its repair (when its support is split),
    its Euler multigraph and its tour are built on the base graph, so
    reports do not depend on the compression.

    Every box point is priced once, in Gray order.  A point whose base cost
    is at most the incumbent's total joins a batch, and a full batch (and
    the last one) is repaired in ascending base cost, so the cheapest
    points set the incumbent before the dearer ones are reached: on
    relax-chain this repairs a third as many points as repairing each one
    in Gray order.

    Ties go to the lexicographically smallest lambda, whatever the order of
    the sweep or of a batch: a point is skipped only when its total cannot
    beat the incumbent, or can only tie it with a larger lambda, because
    repair weights are nonnegative.  In a sorted batch, the first point
    dearer than the incumbent's total ends it, since every later one costs
    at least as much.  lambda is read off g, not carried through the
    sweep: C_i is sign_i on its own segment and 0 on every other non-tree
    segment, so lambda_i = sign_i * (g - f) on that segment.  It is rebuilt
    only for the points of a batch that are reached.
    """
    graph = instance.base
    n, m, p = graph.vertex_count, len(graph.edges), len(instance.requests)
    exact = isinstance(sum(graph.edge_costs, sum(instance.arc_costs)), int)
    keep = {v for req in instance.requests for v in (req.source, req.target)} if exact else range(1, n + 1)
    seg = smooth_topology(graph, keep)
    r, k = seg.cycle_rank, seg.branch_count
    if p == 0:
        return SolveReport(Tour((), 0), 0, n, m, p, r, k, 0, ())

    tree = spanning_tree(graph)
    f = min_cost_circulation(instance)
    inner, basis = segment_instance(instance, seg), segment_basis(seg, tree)
    f_seg = Circulation(seg.project(f.edge_flow), f.arc_flow)
    f_non_tree = [(s, f_seg.edge_flow[s], cycle[s]) for s, cycle in zip(basis.non_tree_edges, basis.cycles)]

    best: tuple[Cost, LambdaVector, Circulation, SteinerSolution] | None = None
    pending: list[tuple[Cost, Circulation]] = []

    def repair_pending() -> None:
        # cheapest first, so the incumbent tightens before the dearer points
        nonlocal best
        pending.sort(key=itemgetter(0))
        for base_cost, g in pending:
            if best is not None and base_cost > best[0]:
                break  # repair weight is nonnegative: no point from here on can win
            lam = tuple((g.edge_flow[s] - value) * sign for s, value, sign in f_non_tree)
            if best is not None and base_cost == best[0] and lam > best[1]:
                continue
            st = connectivity_repair(inner, g)
            total = base_cost + st.weight
            if best is None or total < best[0] or (total == best[0] and lam < best[1]):
                best = (total, lam, g, st)
        pending.clear()

    for g in enumerate_candidates(f_seg, basis, r):
        base_cost = circulation_cost(inner, g)
        if best is None or base_cost <= best[0]:
            pending.append((base_cost, g))
            if len(pending) == REPAIR_BATCH:
                repair_pending()
    repair_pending()

    total, lam, g, st = best
    if total == math.inf:  # finite costs whose float sum overflows; JSON has no infinity
        raise RuntimeError("winning tour cost overflows to infinity")
    g = Circulation(seg.expand(g.edge_flow, m), g.arc_flow)
    if st.edge_ids:  # split support: repair again on the base graph, for base edge ids
        st = connectivity_repair(instance, g)
    tour = euler_tour(build_euler_multigraph(instance, g, st))
    if tour.total != total:
        raise RuntimeError("winning tour cost disagrees with candidate cost")
    return SolveReport(tour, total, n, m, p, r, k, (2 * r + 1) ** r, lam)


def _step_pieces(tour: Tour, render, end: str) -> list[str]:
    """Strings that concatenate to render(step) + end for every step of the tour.

    render(kind, source, target, ref) runs once per key of the tour and each
    run's steps are joined once; that string is then listed once per copy of
    the run, so only C-level list repetition and the caller's final join
    grow with the number of traversals, and no other long string is built.
    """
    rendered = [render(*key) + end for key in tour.keys]
    pieces: list[str] = []
    for seq, copies in tour.runs:
        pieces += ["".join(map(rendered.__getitem__, seq))] * copies
    return pieces


def _json_step(kind: str, source: int, target: int, ref: int) -> str:
    return '{"from":%d,"id":%d,"kind":%s,"to":%d}' % (source, ref, encode_basestring_ascii(kind), target)


def _text_step(kind: str, source: int, target: int, ref: int) -> str:
    label = "arc" if kind == KIND_REQUEST else "edge"
    return f"  {kind} {source} -> {target} [{label} {ref}]"


def emit_report(report: SolveReport, fmt: str = "text") -> str:
    """Render a report; both forms are byte-stable, and JSON is canonical.

    Neither form carries wall-clock time.  JSON keeps an empty
    ``"timings_ms":{}`` so its bytes match earlier reports; per-layer times
    come from ``perfbench/run.py --trace 1``.
    """
    if fmt == "json":
        payload = {
            "cost": report.cost,
            "parameters": {"n": report.n, "m": report.m, "p": report.p, "r": report.r, "k": report.k},
            "candidates_evaluated": report.candidates_evaluated,
            "winning_lambda": list(report.winning_lambda),
            "steps": [],
            "timings_ms": {},
        }
        head, tail = json.dumps(payload, sort_keys=True, separators=(",", ":")).split('"steps":[]', 1)
        pieces = _step_pieces(report.tour, _json_step, ",")
        if pieces:
            pieces[-1] = pieces[-1][:-1]  # no comma after the last step
        return "".join((head, '"steps":[', *pieces, "]", tail, "\n"))
    if fmt != "text":
        raise ValueError(f"unknown report format {fmt!r}")
    lines = [
        f"n={report.n} m={report.m} p={report.p} r={report.r} k={report.k}",
        f"cost {report.cost}",
        f"candidates {report.candidates_evaluated}",
        f"lambda {list(report.winning_lambda)}",
        "steps:",
    ]
    return "".join(("\n".join(lines), "\n", *_step_pieces(report.tour, _text_step, "\n")))


def parse_report(text: str) -> tuple[Cost, Tour]:
    """Read back the JSON report's cost and tour for re-validation.

    Every step's ``kind`` must be a str and its ``from``, ``to`` and ``id``
    ints (not bools); anything else raises TypeError, a missing field
    KeyError.  The tour has one key per distinct step, as from euler_tour.
    """
    obj = json.loads(text)
    steps = obj["steps"]
    for field, want in (("kind", str), ("from", int), ("to", int), ("id", int)):
        if not set(map(type, map(itemgetter(field), steps))) <= {want}:
            raise TypeError(f"step field {field!r} is not of type {want.__name__}")
    key = itemgetter("kind", "from", "to", "id")
    index = {k: i for i, k in enumerate(dict.fromkeys(map(key, steps)))}
    walk = tuple(map(index.__getitem__, map(key, steps)))
    return obj["cost"], Tour.from_runs(tuple(index), ((walk, 1),) if walk else (), obj["cost"])


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


# --- command line ---


def _read(path: str) -> str:
    with open(path, "r", encoding="utf-8") as fh:
        return fh.read()


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(prog="scpsolver", description="Exact stacker crane solver")
    sub = parser.add_subparsers(dest="command", required=True)

    p_solve = sub.add_parser("solve", help="solve an instance file")
    p_solve.add_argument("file")
    p_solve.add_argument("--json", action="store_true", help="emit the canonical JSON report")

    p_oracle = sub.add_parser("oracle", help="brute-force an instance and compare with the solver")
    p_oracle.add_argument("file")

    p_check = sub.add_parser("check", help="re-validate a JSON report against an instance")
    p_check.add_argument("file")
    p_check.add_argument("report")

    p_gen = sub.add_parser("gen", help="generate a random instance")
    p_gen.add_argument("--seed", type=int, default=1)
    p_gen.add_argument("--n", type=int, default=8, help="max vertex count")
    p_gen.add_argument("--r", type=int, default=2, help="max cycle rank")
    p_gen.add_argument("--p", type=int, default=3, help="max request draws")
    p_gen.add_argument("--cost-max", type=int, default=10)

    p_accept = sub.add_parser("accept", help="run the randomized acceptance properties")
    p_accept.add_argument("--seed", type=int, default=1)
    p_accept.add_argument("--count", type=int, default=500)

    args = parser.parse_args(argv)
    env_seed = os.environ.get("SCP_SEED")
    if "seed" in args and env_seed is not None:  # the environment wins over --seed
        try:
            args.seed = int(env_seed)
        except ValueError:
            print(f"malformed input: SCP_SEED is not an integer: {env_seed!r}", file=sys.stderr)
            return BAD_INPUT
    try:
        if args.command == "solve":
            instance = parse_instance(_read(args.file))
            report = solve(instance)
            sys.stdout.write(emit_report(report, "json" if args.json else "text"))
            return OK

        if args.command == "oracle":
            instance = parse_instance(_read(args.file))
            try:
                oracle = brute_force_tour(instance)
            except ValueError as exc:
                print(f"oracle refused: {exc}", file=sys.stderr)
                return FAIL
            report = solve(instance)
            print(f"oracle cost {oracle.cost} ({oracle.nodes_explored} orders)")
            print(f"solver cost {report.cost}")
            if report.cost == oracle.cost:
                print("match")
                return OK
            print("MISMATCH")
            return FAIL

        if args.command == "check":
            instance = parse_instance(_read(args.file))
            try:
                cost, tour = parse_report(_read(args.report))
            except (json.JSONDecodeError, KeyError, TypeError) as exc:
                print(f"malformed report: {exc}", file=sys.stderr)
                return BAD_INPUT
            check = verify_tour(instance, tour)
            if check.valid and check.cost == cost:
                print(f"valid tour, cost {cost}")
                return OK
            print(f"invalid tour: {check.reason or 'cost mismatch'}")
            return FAIL

        if args.command == "gen":
            if args.n < 2 or args.r < 0 or args.p < 0 or args.cost_max < 1:
                print("malformed input: gen needs --n >= 2, --r >= 0, --p >= 0 and --cost-max >= 1", file=sys.stderr)
                return BAD_INPUT
            instance = random_instance(args.seed, args.n, args.r, args.p, args.cost_max)
            comments = (
                f"seed {args.seed} n_max {args.n} r_max {args.r} p_max {args.p} cost_max {args.cost_max}",
            )
            sys.stdout.write(format_instance(instance, comments))
            return OK

        if args.command == "accept":
            if args.count < 1:
                print("malformed input: accept needs --count >= 1", file=sys.stderr)
                return BAD_INPUT
            summary = run_acceptance(args.seed, args.count)
            for name, outcome in summary.results.items():
                status = "PASS" if outcome.failed == 0 else "FAIL"
                line = f"{status} {name} {outcome.passed}/{summary.count}"
                if outcome.failing_seeds:
                    line += " failing seeds: " + " ".join(str(s) for s in outcome.failing_seeds[:5])
                print(line)
            return OK if summary.ok else FAIL

    except InstanceFormatError as exc:
        print(f"malformed input: {exc}", file=sys.stderr)
        return BAD_INPUT
    except OSError as exc:
        print(f"cannot read input: {exc}", file=sys.stderr)
        return BAD_INPUT
    except UnicodeDecodeError as exc:  # only _read decodes bytes
        print(f"cannot read input: not UTF-8: {exc}", file=sys.stderr)
        return BAD_INPUT
    except RuntimeError as exc:
        print(f"solver error: {exc}", file=sys.stderr)
        return FAIL
    except MemoryError:  # a demand too large for its tour to fit in memory
        print("solver error: out of memory", file=sys.stderr)
        return FAIL
    raise AssertionError("unreachable")


if __name__ == "__main__":
    sys.exit(main())
