"""Instance text format, JSON reports and the solve pipeline.

Pipeline: min-cost circulation, segment graph, Gray-code sweep of the
nearby homology classes on the segments, cheapest class repair per
candidate, minimum wins and is expanded to a base tour.  Ties go to the
lexicographically smallest coefficient vector, so output is reproducible
byte for byte.
"""

from __future__ import annotations

import json
import math
from collections.abc import Sequence
from fractions import Fraction
from itertools import chain, islice
from json.encoder import encode_basestring_ascii
from operator import itemgetter
from typing import NamedTuple

from .circulation import (
    Circulation,
    Instance,
    Request,
    circulation_cost,
    min_cost_circulation,
    segment_instance,
)
# solve calls neither gray_code_lambdas nor fundamental_cycles; they are
# imported only because perfbench/tracing.py's TRACED patches both here by
# name
from .enumeration import LambdaVector, enumerate_candidates, gray_code_lambdas
from .graph_core import (
    BaseGraph,
    Cost,
    Edge,
    fundamental_cycles,
    segment_basis,
    smooth_topology,
    spanning_tree,
)
from .homology_tour import (
    KIND_REQUEST,
    StepKey,
    Tour,
    build_euler_multigraph,
    connectivity_repair,
    euler_tour,
)


class InstanceFormatError(ValueError):
    """Parse failure with a line number and a stable error code."""

    def __init__(self, line_no: int, code: str, message: str):
        super().__init__(f"line {line_no}: {message} [{code}]")
        self.line_no = line_no
        self.code = code


class SolveReport(NamedTuple):
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


# the longest number token read exactly: Python's int-string limit, past
# which exact conversion time grows with the square of the length
MAX_DIGITS = 4300


def _exact(token: str) -> Fraction:
    """The exact value of a decimal number token: ``0.1`` is 1/10.

    The token is any ``float()`` literal (``1_0.5``, ``.5``, ``5.``,
    ``1E3``), on every Python version.  ValueError when it is not a number.
    OverflowError when it has no finite exact value to read: ``nan``,
    ``inf``, a literal that overflows a double (``1e400``) or that is
    nonzero and rounds to 0.0 (``1e-400``), or one of more than MAX_DIGITS
    digits.  Zero is decided before any power of ten is built, and any
    other accepted token is within a double's range, so its power of ten
    has at most a few thousand digits.
    """
    approx = float(token)
    if not math.isfinite(approx):
        raise OverflowError(f"is not finite: {token!r}")
    if len(token) > MAX_DIGITS and sum(map(str.isdigit, token)) > MAX_DIGITS:
        raise OverflowError(f"has more than {MAX_DIGITS} digits")
    mantissa, _, exponent = token.replace("_", "").lower().partition("e")
    whole, _, fraction = mantissa.partition(".")
    digits = int(whole + fraction)
    if not digits:
        return Fraction(0)
    if not approx:
        raise OverflowError(f"is nonzero but rounds to 0 as a double: {token!r}")
    power = int(exponent or 0) - len(fraction)
    return Fraction(digits * 10**power) if power >= 0 else Fraction(digits, 10**-power)


def _number(token: str, line_no: int, what: str) -> Cost:
    """A cost token's exact value: an int when it is integral, else a Fraction."""
    try:
        value = _exact(token)
    except OverflowError as exc:
        raise InstanceFormatError(line_no, "non-finite-cost", f"{what} {exc}") from None
    except ValueError:
        raise InstanceFormatError(line_no, "bad-token", f"{what} is not a number: {token!r}") from None
    return value.numerator if value.denominator == 1 else value


def _cost_text(cost: Cost) -> str:
    """A cost as instance and report text.

    An int prints as ``str`` prints it (``json.dumps`` of an int is the
    same).  Any other value, a Fraction or a library caller's float, prints
    as its exact shortest plain decimal: ``11.9``, ``0.15``, ``-1.5``, and
    ``12`` for an integral one.  ValueError for a value with no finite
    decimal form, such as 1/3.
    """
    if isinstance(cost, int):
        return str(cost)
    value = Fraction(cost)
    num, den = value.numerator, value.denominator
    twos = (den & -den).bit_length() - 1
    rest, fives = den >> twos, 0
    while rest % 5 == 0:
        rest //= 5
        fives += 1
    if rest != 1:
        raise ValueError(f"cost {value} has no finite decimal form")
    places = max(twos, fives)
    text = str(abs(num) * 10**places // den).rjust(places + 1, "0")
    sign = "-" if num < 0 else ""
    return f"{sign}{text[:-places]}.{text[-places:]}" if places else f"{sign}{text}"


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

    Each line is split once.  ``edge`` and ``request`` lines share one
    branch, which converts the three numbers with ``int`` and range-checks
    the two vertices inline; only a line that fails there (a decimal cost,
    a bad token, a vertex out of range) goes through ``_vertex`` and
    ``_number``, which raise the line's error or read its cost exactly: a
    non-integer cost is a Fraction, an integral one (``2.0``, ``1e3``) an
    int.  Only the last step differs by kind: the duplicate check of an
    edge, the demand and merge of a request.
    """
    have_header = False
    n: int | None = None
    edges: list[Edge] = []
    edge_pairs: set[tuple[int, int]] = set()
    merged: dict[tuple[int, int], list] = {}  # (s, t) -> [cost, demand]
    new = tuple.__new__

    for line_no, line in enumerate(text.splitlines(), 1):
        if "#" in line:
            line = line[: line.index("#")]
        tokens = line.split()
        if not tokens:
            continue
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
        elif directive == "edge" or directive == "request":
            edge = directive == "edge"
            if n is None:
                raise InstanceFormatError(line_no, "missing-size", f"{directive} before 'n' line")
            if len(tokens) != 4 and (edge or len(tokens) != 5):
                usage = "'edge u v cost'" if edge else "'request s t cost [demand]'"
                raise InstanceFormatError(line_no, "bad-token", f"expected {usage}")
            try:
                u, v, cost = int(tokens[1]), int(tokens[2]), int(tokens[3])
                fast = 0 < u <= n and 0 < v <= n
            except ValueError:
                fast = False
            if not fast:
                u = _vertex(tokens[1], n, line_no)
                v = _vertex(tokens[2], n, line_no)
                cost = _number(tokens[3], line_no, f"{directive} cost")
            if u == v:
                loop = "self-loop at vertex" if edge else "request with equal endpoints"
                raise InstanceFormatError(line_no, "self-loop", f"{loop} {u}")
            if cost < 0:
                raise InstanceFormatError(line_no, "negative-cost", f"negative {directive} cost {_cost_text(cost)}")
            if edge:
                pair = (u, v) if u < v else (v, u)
                if pair in edge_pairs:
                    raise InstanceFormatError(line_no, "duplicate-edge", f"edge {pair} given twice")
                edge_pairs.add(pair)
                edges.append(new(Edge, (*pair, cost)))
                continue
            demand = 1
            if len(tokens) == 5:
                try:
                    demand = int(tokens[4])
                except ValueError:
                    raise InstanceFormatError(line_no, "bad-demand", f"bad demand {tokens[4]!r}") from None
                if demand < 1:
                    raise InstanceFormatError(line_no, "bad-demand", "demand must be positive")
            slot = merged.get((u, v))
            if slot is None:
                merged[(u, v)] = [cost, demand]
            elif slot[0] != cost:
                raise InstanceFormatError(line_no, "conflicting-request-cost", f"request ({u}, {v}) repeated with a different cost")
            else:
                slot[1] += demand
        else:
            raise InstanceFormatError(line_no, "unknown-directive", f"unknown directive {directive!r}")

    if not have_header:
        raise InstanceFormatError(0, "bad-header", "missing header 'scp 1'")
    if n is None:
        raise InstanceFormatError(0, "missing-size", "missing 'n' line")
    if n > len(edges) + 1:
        # refused before the adjacency of a huge vertex count is built
        raise InstanceFormatError(0, "not-connected", f"{len(edges)} edges cannot connect {n} vertices")
    graph = BaseGraph._parsed(n, tuple(edges))  # every edge was checked above
    if not graph.connected:
        raise InstanceFormatError(0, "not-connected", "graph is not connected")
    requests = tuple([new(Request, (s, t, cost, demand)) for (s, t), (cost, demand) in merged.items()])
    return Instance(graph, requests)


def format_instance(instance: Instance, comments: tuple[str, ...] = ()) -> str:
    lines = [f"# {c}" for c in comments]
    lines.append("scp 1")
    lines.append(f"n {instance.base.vertex_count}")
    for e in instance.base.edges:
        lines.append(f"edge {e.u} {e.v} {_cost_text(e.cost)}")
    for r in instance.requests:
        suffix = f" {r.demand}" if r.demand != 1 else ""
        lines.append(f"request {r.source} {r.target} {_cost_text(r.cost)}{suffix}")
    return "\n".join(lines) + "\n"


def solve(instance: Instance) -> SolveReport:
    """Exact minimum-cost tour serving every request its demanded number of times.

    Costs are exact, and this is the one place below the parser that looks
    at their type.  An instance with a non-integer cost is scaled once, by
    the lcm of its cost denominators (``0.1`` from the parser is 1/10; a
    library caller's float is taken at its exact binary value, so write
    ``Fraction("0.1")`` for a decimal), solved on those integers by a
    second call, and its cost and tour total divided back.  Tour steps are
    edge and arc ids, so they do not change.  Everything below sees ints.

    Sweeps g = f + sum(lambda_i * C_i) over the box [-r, r]^r around the
    relaxation f and keeps the cheapest base cost plus repair weight.

    The relaxation and the BFS spanning tree run on the base graph, so f,
    the non-tree edges and the lambda coordinates are the base graph's.
    The sweep runs on the segment graph (``smooth_topology`` with the
    request endpoints kept), O(r + k + p + leaves) segments on which every
    circulation is constant: f and the fundamental cycles project onto it
    exactly, and so do candidate costs and repair weights, integer sums
    being exact.  Only the winner is expanded: its flows to base edge
    flows and its repair's Steiner edges to their segments' base edges (the
    base repair's own, by ``contract_support``), and its Euler multigraph
    and tour are built on the base graph, so reports do not depend on the
    compression.

    Every box point is priced once by one ``circulation_cost`` call; every
    candidate carries the segment instance's own ``demands`` tuple, so only
    the segment terms are summed per point.  lambda = 0, the relaxation's
    own class, goes first, then the Gray walk: it wins most solves, and its
    total bounds the rest.  The reflected walk is point-symmetric, so its
    middle yield is lambda = 0 again and is skipped.  A point is repaired
    unless its total cannot beat the incumbent, or can only tie it with a
    larger lambda, because repair weights are nonnegative; ties go to the
    lexicographically smallest lambda whatever the order of the walk.
    ``connectivity_repair`` reads a candidate only through its support, the
    segments that carry flow (every arc carries its demand), so each
    support is repaired once and its witness reused.  lambda is read off g,
    not carried through the sweep: C_i is sign_i on its own segment and 0 on
    every other non-tree segment, so lambda_i = sign_i * (g - f) on that
    segment.  It is rebuilt only for the points that reach the incumbent.
    """
    graph = instance.base
    if not isinstance(sum(graph.edge_costs, sum(instance.arc_costs)), int):
        ratios = [c.as_integer_ratio() for c in chain(graph.edge_costs, instance.arc_costs)]
        scale = math.lcm(*map(itemgetter(1), ratios))
        costs = [num * (scale // den) for num, den in ratios]
        m = len(graph.edges)
        edges = tuple(Edge(e.u, e.v, c) for e, c in zip(graph.edges, costs))
        requests = tuple(r._replace(cost=c) for r, c in zip(instance.requests, costs[m:]))
        report = solve(Instance(BaseGraph(graph.vertex_count, edges), requests))
        tour = report.tour
        return report._replace(
            tour=Tour.from_runs(tour.keys, tour.runs, Fraction(tour.total, scale)),
            cost=Fraction(report.cost, scale),
        )

    cost_of = circulation_cost  # looked up once per solve, not once per box point
    n, m, p = graph.vertex_count, len(graph.edges), len(instance.requests)
    seg = smooth_topology(graph, {v for req in instance.requests for v in (req.source, req.target)})
    r, k = seg.cycle_rank, seg.branch_count
    if p == 0:
        return SolveReport(Tour((), 0), 0, n, m, p, r, k, 0, ())

    tree = spanning_tree(graph)
    f = min_cost_circulation(instance)
    inner, basis = segment_instance(instance, seg), segment_basis(seg, tree)
    # every candidate shares these arc flows, so circulation_cost adds the
    # request term once per instance, not once per box point
    f_seg = Circulation(seg.project(f.edge_flow), inner.demands)
    f_non_tree = [(s, f_seg.edge_flow[s], cycle[s]) for s, cycle in zip(basis.non_tree_edges, basis.cycles)]

    repaired = {}  # support -> its repair
    best = (math.inf, ())  # (total, lambda, g, repair) once a point is repaired
    bound = best[0]
    box = (2 * r + 1) ** r
    walk = enumerate_candidates(f_seg, basis, r)
    for g in chain((f_seg,), islice(walk, box // 2), islice(walk, 1, None)):  # lambda = 0 first
        base_cost = cost_of(inner, g)
        if base_cost > bound:
            continue  # repair weight is nonnegative: this point cannot win
        lam = tuple((g.edge_flow[s] - value) * sign for s, value, sign in f_non_tree)
        if base_cost == bound and lam > best[1]:
            continue
        support = tuple(map(bool, g.edge_flow))
        st = repaired.get(support)
        if st is None:
            st = repaired[support] = connectivity_repair(inner, g)
        total = base_cost + st.weight
        if total < bound or (total == bound and lam < best[1]):
            best = (total, lam, g, st)
            bound = total

    total, lam, g, st = best
    g = Circulation(seg.expand(g.edge_flow, m), g.arc_flow)
    st = st._replace(edge_ids=frozenset(chain.from_iterable([seg.edges[s].edge_ids for s in st.edge_ids])))
    tour = euler_tour(build_euler_multigraph(instance, g, st))
    if tour.total != total:
        raise RuntimeError("winning tour cost disagrees with candidate cost")
    return SolveReport(tour, total, n, m, p, r, k, box, lam)


def _step_pieces(tour: Tour, rendered: list[str]) -> list[str]:
    """Strings that concatenate to every step of the tour, rendered[i] being
    the string for key i.

    Each run's steps are joined once; that string is then listed once per
    copy of the run, so only C-level list repetition and the caller's final
    join grow with the number of traversals, and no other long string is
    built.
    """
    pieces: list[str] = []
    for seq, copies in tour.runs:
        pieces += ["".join(map(rendered.__getitem__, seq))] * copies
    return pieces


def _json_steps(keys: Sequence[StepKey]) -> list[str]:
    """Each key's canonical JSON step and a comma, from one % template per kind."""
    templates = {
        kind: '{"from":%%d,"id":%%d,"kind":%s,"to":%%d},' % encode_basestring_ascii(kind).replace("%", "%%")
        for kind in set(map(itemgetter(0), keys))
    }
    return [templates[kind] % (source, ref, target) for kind, source, target, ref in keys]


def _text_step(kind: str, source: int, target: int, ref: int) -> str:
    label = "arc" if kind == KIND_REQUEST else "edge"
    return f"  {kind} {source} -> {target} [{label} {ref}]"


def emit_report(report: SolveReport, fmt: str = "text") -> str:
    """Render a report; both forms are byte-stable, and JSON is canonical.

    Neither form carries wall-clock time.  JSON keeps an empty
    ``"timings_ms":{}`` so its bytes match earlier reports; per-layer times
    come from ``perfbench/run.py --trace 1``.  The JSON form is written
    directly, with the bytes of ``json.dumps(..., sort_keys=True,
    separators=(",", ":"))`` for an integer cost; any other cost is written
    as its exact shortest plain decimal (``_cost_text``), in both forms.
    """
    if fmt == "json":
        # keys in sorted order, no spaces
        head = '{"candidates_evaluated":%d,"cost":%s,"parameters":{"k":%d,"m":%d,"n":%d,"p":%d,"r":%d},"steps":[' % (
            report.candidates_evaluated, _cost_text(report.cost),
            report.k, report.m, report.n, report.p, report.r,
        )
        pieces = _step_pieces(report.tour, _json_steps(report.tour.keys))
        if pieces:
            pieces[-1] = pieces[-1][:-1]  # no comma after the last step
        tail = '],"timings_ms":{},"winning_lambda":[%s]}\n' % ",".join(map(str, report.winning_lambda))
        return "".join((head, *pieces, tail))
    if fmt != "text":
        raise ValueError(f"unknown report format {fmt!r}")
    lines = [
        f"n={report.n} m={report.m} p={report.p} r={report.r} k={report.k}",
        f"cost {_cost_text(report.cost)}",
        f"candidates {report.candidates_evaluated}",
        f"lambda {list(report.winning_lambda)}",
        "steps:",
    ]
    rendered = [_text_step(*key) + "\n" for key in report.tour.keys]
    return "".join(("\n".join(lines), "\n", *_step_pieces(report.tour, rendered)))


def parse_report(text: str) -> tuple[Cost, Tour]:
    """Read back the JSON report's cost and tour for re-validation.

    A number with a fraction or an exponent is read exactly, as the parser
    reads a cost token, into a Fraction (``11.9`` is 119/10); one the parser
    refuses (``1e400``, ``1e-400``) raises ValueError.  Every step's
    ``kind`` must be a str and its ``from``, ``to`` and ``id`` ints (not
    bools, not ``1.0``), and the cost an int or a Fraction (not ``NaN`` or
    ``Infinity``); anything else raises TypeError, a missing field KeyError.
    The tour has one key per distinct step, as from euler_tour.
    """
    try:
        obj = json.loads(text, parse_float=_exact)
    except OverflowError as exc:
        raise ValueError(f"number {exc}") from None
    cost, steps = obj["cost"], obj["steps"]
    if type(cost) not in (int, Fraction):
        raise TypeError(f"cost {cost!r} is not a number")
    for field, want in (("kind", str), ("from", int), ("to", int), ("id", int)):
        if not set(map(type, map(itemgetter(field), steps))) <= {want}:
            raise TypeError(f"step field {field!r} is not of type {want.__name__}")
    key = itemgetter("kind", "from", "to", "id")
    index = {k: i for i, k in enumerate(dict.fromkeys(map(key, steps)))}
    walk = tuple(map(index.__getitem__, map(key, steps)))
    return cost, Tour.from_runs(tuple(index), ((walk, 1),) if walk else (), cost)
