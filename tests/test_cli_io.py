import json
import os
import subprocess
import sys
import time
from fractions import Fraction
from itertools import accumulate
from json.encoder import encode_basestring_ascii

import pytest

import scpsolver
from scpsolver import acceptance, cli, cli_io, graph_core
from scpsolver.acceptance import _family_instance, run_acceptance
from scpsolver.circulation import Circulation, Instance, Request, circulation_cost, min_cost_circulation, segment_instance
from scpsolver.cli import BAD_INPUT, FAIL, OK, main
from scpsolver.cli_io import (
    MAX_DIGITS,
    InstanceFormatError,
    _cost_text,
    emit_report,
    format_instance,
    parse_instance,
    parse_report,
    solve,
)
from scpsolver.enumeration import enumerate_candidates, gray_code_lambdas
from scpsolver.graph_core import BaseGraph, cycle_rank, fundamental_cycles, segment_basis, smooth_topology, spanning_tree
from scpsolver.homology_tour import Tour, connectivity_repair
from scpsolver.oracle import SplitMix64, brute_force_tour, random_instance, verify_tour

RING_TEXT = """\
scp 1
n 4
edge 1 2 1
edge 2 3 1
edge 3 4 1
edge 4 1 1
request 1 3 2
"""

ONE_EDGE_TEXT = """\
scp 1
n 2
edge 1 2 1
request 1 2 1
"""

PATH_TEXT = """\
scp 1
n 3
edge 1 2 1
edge 2 3 1
request 1 2 1
request 1 3 2
"""


# --- parsing ---


def test_parse_minimal_instance():
    inst = parse_instance(RING_TEXT)
    assert inst.base.vertex_count == 4
    assert len(inst.base.edges) == 4
    assert inst.requests == (Request(1, 3, 2),)


def test_parse_ignores_comments_and_blanks():
    text = "# hello\n\nscp 1  # trailing\nn 2\n\nedge 1 2 3 # cost three\n"
    inst = parse_instance(text)
    assert inst.base.edges[0].cost == 3


def test_parse_merges_duplicate_requests():
    text = "scp 1\nn 2\nedge 1 2 1\nrequest 1 2 5\nrequest 1 2 5 3\n"
    inst = parse_instance(text)
    assert inst.requests == (Request(1, 2, 5, 4),)


def test_parse_reads_demand_column():
    text = "scp 1\nn 2\nedge 1 2 1\nrequest 2 1 7 2\n"
    assert parse_instance(text).requests == (Request(2, 1, 7, 2),)


def test_parse_accepts_float_costs():
    # a decimal cost takes the parser's slow path and is read exactly; an
    # integer one stays an int
    text = "scp 1\nn 3\nedge 1 2 1.5\nedge 3 2 2\nrequest 1 2 0.5\nrequest 1 3 4\n"
    inst = parse_instance(text)
    assert [(e.cost, type(e.cost)) for e in inst.base.edges] == [(Fraction(3, 2), Fraction), (2, int)]
    assert [(r.cost, type(r.cost)) for r in inst.requests] == [(Fraction(1, 2), Fraction), (4, int)]


@pytest.mark.parametrize(
    "token,value",
    [
        ("0.1", Fraction(1, 10)),
        ("1_0.5", Fraction(21, 2)),
        (".5", Fraction(1, 2)),
        ("5.", 5),
        ("1E3", 1000),
        ("2.50e-1", Fraction(1, 4)),
        ("-0.0", 0),
        ("0e-999999999", 0),
        ("1e308", 10**308),
        ("5e-324", Fraction(5, 10**324)),
    ],
)
def test_parse_reads_cost_tokens_exactly(token, value):
    inst = parse_instance(f"scp 1\nn 2\nedge 1 2 {token}\nrequest 1 2 {token}\n")
    for cost in (inst.base.edges[0].cost, inst.requests[0].cost):
        assert cost == value and type(cost) is type(value)


def test_parse_reads_up_to_max_digits_exactly():
    whole = "1" + "0" * (MAX_DIGITS - 2) + "1"  # MAX_DIGITS digits
    cost = parse_instance(f"scp 1\nn 2\nedge 1 2 {whole[0]}.{whole[1:]}\n").base.edges[0].cost
    assert cost == Fraction(int(whole), 10 ** (MAX_DIGITS - 1))
    with pytest.raises(InstanceFormatError) as exc:
        parse_instance(f"scp 1\nn 2\nedge 1 2 {whole[0]}.{whole[1:]}0\n")
    assert (exc.value.code, str(exc.value)) == (
        "non-finite-cost", f"line 3: edge cost has more than {MAX_DIGITS} digits [non-finite-cost]"
    )


@pytest.mark.parametrize(
    "token,code",
    [
        ("1e-999999999", "non-finite-cost"),
        ("0e-999999999", None),
        ("1e999999999", "non-finite-cost"),
        ("0." + "1" * 300_000, "non-finite-cost"),
        ("1." + "0" * 300_000, "non-finite-cost"),
        ("0." + "0" * 300_000, "non-finite-cost"),
        ("1" * 300_000 + ".5", "non-finite-cost"),
    ],
    ids=["tiny-exponent", "zero-tiny-exponent", "huge-exponent", "long-fraction", "long-one", "long-zero", "long-whole"],
)
def test_cost_tokens_that_would_build_huge_numbers_return_within_a_second(token, code):
    # an exact reader that built these numbers would take seconds or run out
    # of memory: 10**999999999 has a billion digits
    start = time.perf_counter()
    for line in (f"edge 1 2 {token}", f"edge 1 2 1\nrequest 1 2 {token}"):
        try:
            parse_instance(f"scp 1\nn 2\n{line}\n")
            got = None
        except InstanceFormatError as exc:
            got = exc.code
        assert got == code
    assert time.perf_counter() - start < 1.0


def test_cost_text_is_the_exact_shortest_decimal():
    assert _cost_text(12) == "12" and _cost_text(-3) == "-3"
    assert _cost_text(Fraction(119, 10)) == "11.9"
    assert _cost_text(Fraction(3, 20)) == "0.15"
    assert _cost_text(Fraction(-3, 2)) == "-1.5"
    assert _cost_text(Fraction(12)) == "12"
    assert _cost_text(Fraction(1, 10**5)) == "0.00001"
    assert _cost_text(Fraction(-1, 1024)) == "-0.0009765625"
    # a library float means its exact binary value
    assert _cost_text(0.1) == "0.1000000000000000055511151231257827021181583404541015625"
    assert _cost_text(2.5) == "2.5"
    for value in (Fraction(1, 3), Fraction(7, 30)):
        with pytest.raises(ValueError, match="no finite decimal form"):
            _cost_text(value)
    with pytest.raises(ValueError):
        format_instance(Instance(BaseGraph.from_edges(2, [(1, 2, Fraction(1, 3))]), ()))


def test_parse_splits_on_any_whitespace_and_line_ending():
    # tabs between tokens, CRLF line ends and a comment right after a token
    text = "scp 1\r\nn\t3\r\nedge 1\t2 4#four\r\nedge\t3 2\t1.5\r\n\t\r\nrequest 1 3\t5 2\r\n"
    inst = parse_instance(text)
    assert inst == parse_instance("scp 1\nn 3\nedge 1 2 4\nedge 2 3 1.5\nrequest 1 3 5 2\n")
    e = inst.base.edges[1]
    assert (e.u, e.v, e.cost) == (2, 3, 1.5) and inst.requests == (Request(1, 3, 5, 2),)


# (text, code, line number, message) of every parse error pinned below
PARSE_ERRORS = [
    ("n 2\nedge 1 2 1\n", "bad-header", 1, "expected header 'scp 1'"),
    ("scp 2\n", "bad-header", 1, "expected header 'scp 1'"),
    ("scp 1\nedge 1 2 1\n", "missing-size", 2, "edge before 'n' line"),
    ("scp 1\nn 2\nn 3\n", "bad-size", 3, "vertex count given twice"),
    ("scp 1\nn 0\n", "bad-size", 2, "vertex count must be positive"),
    ("scp 1\nn 2\nedge 1 2\n", "bad-token", 3, "expected 'edge u v cost'"),
    ("scp 1\nn 2\nedge 1 2 1 5\n", "bad-token", 3, "expected 'edge u v cost'"),
    ("scp 1\nn 2\nedge 1 2 x\n", "bad-token", 3, "edge cost is not a number: 'x'"),
    ("scp 1\nn 2\nedge 1 3 1\n", "bad-vertex", 3, "vertex 3 outside 1..2"),
    ("scp 1\nn 2\nedge 1 1 1\n", "self-loop", 3, "self-loop at vertex 1"),
    ("scp 1\nn 2\nedge 1 2 -1\n", "negative-cost", 3, "negative edge cost -1"),
    ("scp 1\nn 2\nedge 1 2 -1.5\n", "negative-cost", 3, "negative edge cost -1.5"),
    ("scp 1\nn 2\nedge 1 2 -0.25e1\n", "negative-cost", 3, "negative edge cost -2.5"),
    ("scp 1\nn 2\nedge 1 2 3/2\n", "bad-token", 3, "edge cost is not a number: '3/2'"),
    ("scp 1\nn 2\nedge 1 2 nan\n", "non-finite-cost", 3, "edge cost is not finite: 'nan'"),
    ("scp 1\nn 2\nedge 1 2 1e400\n", "non-finite-cost", 3, "edge cost is not finite: '1e400'"),
    ("scp 1\nn 2\nedge 1 2 1e-400\n", "non-finite-cost", 3, "edge cost is nonzero but rounds to 0 as a double: '1e-400'"),
    ("scp 1\nn 2\nedge 1 2 1\nedge 2 1 4\n", "duplicate-edge", 4, "edge (1, 2) given twice"),
    ("scp 1\nn 2\nedge 1 2 1\nrequest 1 2 3 0\n", "bad-demand", 4, "demand must be positive"),
    ("scp 1\nn 2\nedge 1 2 1\nrequest 1 2 3 x\n", "bad-demand", 4, "bad demand 'x'"),
    (
        "scp 1\nn 2\nedge 1 2 1\nrequest 1 2 3\nrequest 1 2 4\n",
        "conflicting-request-cost", 5, "request (1, 2) repeated with a different cost",
    ),
    ("scp 1\nn 2\nedge 1 2 1\nvertex 3\n", "unknown-directive", 4, "unknown directive 'vertex'"),
    ("scp 1\n", "missing-size", 0, "missing 'n' line"),
    ("", "bad-header", 0, "missing header 'scp 1'"),
    ("scp 1\nn 3\nedge 1 2 1\n", "not-connected", 0, "1 edges cannot connect 3 vertices"),
    # request lines
    ("scp 1\nn 2\nedge 1 2 1\nrequest 1 2\n", "bad-token", 4, "expected 'request s t cost [demand]'"),
    ("scp 1\nn 2\nedge 1 2 1\nrequest 1 2 3 1 7\n", "bad-token", 4, "expected 'request s t cost [demand]'"),
    ("scp 1\nrequest 1 2 1\n", "missing-size", 2, "request before 'n' line"),
    ("scp 1\nn 2\nedge 1 2 1\nrequest 1 x 3\n", "bad-token", 4, "vertex is not an integer: 'x'"),
    ("scp 1\nn 2\nedge 1 2 1\nrequest 1 2 y\n", "bad-token", 4, "request cost is not a number: 'y'"),
    ("scp 1\nn 2\nedge 1 2 1\nrequest 0 2 3\n", "bad-vertex", 4, "vertex 0 outside 1..2"),
    ("scp 1\nn 2\nedge 1 2 1\nrequest 2 2 3\n", "self-loop", 4, "request with equal endpoints 2"),
    ("scp 1\nn 2\nedge 1 2 1\nrequest 1 2 -3\n", "negative-cost", 4, "negative request cost -3"),
    ("scp 1\nn 2\nedge 1 2 1\nrequest 1 2 -0.3\n", "negative-cost", 4, "negative request cost -0.3"),
    (
        "scp 1\nn 2\nedge 1 2 1\nrequest 1 2 -1e-999999999\n",
        "non-finite-cost", 4, "request cost is nonzero but rounds to 0 as a double: '-1e-999999999'",
    ),
    # within a line the first bad token wins, whichever check it fails
    ("scp 1\nn 2\nedge 3 x 1\n", "bad-vertex", 3, "vertex 3 outside 1..2"),
    ("scp 1\nn 2\nedge x 3 1\n", "bad-token", 3, "vertex is not an integer: 'x'"),
    ("scp 1\nn 2\nedge 1 3 1.5\n", "bad-vertex", 3, "vertex 3 outside 1..2"),
    ("scp 1\nn 2\nedge 2 2 x\n", "bad-token", 3, "edge cost is not a number: 'x'"),
]
PARSE_ERROR_MESSAGES = {text: message for text, _, _, message in PARSE_ERRORS}


@pytest.mark.parametrize("text,code,line_no", [row[:3] for row in PARSE_ERRORS])
def test_parse_errors_carry_codes_and_lines(text, code, line_no):
    with pytest.raises(InstanceFormatError) as exc:
        parse_instance(text)
    assert exc.value.code == code
    assert exc.value.line_no == line_no
    assert str(exc.value) == f"line {line_no}: {PARSE_ERROR_MESSAGES[text]} [{code}]"


@pytest.mark.parametrize("token", ["nan", "inf", "1e400", "1e-400"])
@pytest.mark.parametrize("line", ["edge 1 2 {}", "request 1 2 {}"])
def test_non_finite_costs_are_rejected(token, line, tmp_path, capsys):
    text = "scp 1\nn 2\n" + ("" if line.startswith("edge") else "edge 1 2 1\n") + line.format(token) + "\n"
    with pytest.raises(InstanceFormatError) as exc:
        parse_instance(text)
    assert exc.value.code == "non-finite-cost"
    f = tmp_path / "bad.scp"
    f.write_text(text, encoding="utf-8")
    assert main(["solve", str(f)]) == BAD_INPUT
    assert "non-finite-cost" in capsys.readouterr().err


def test_vertex_count_beyond_edge_count_is_refused_up_front(tmp_path, capsys):
    # building and checking 3,000,000 vertices took seconds before being refused
    text = "scp 1\nn 3000000\nedge 1 2 1\n"
    with pytest.raises(InstanceFormatError) as exc:
        parse_instance(text)
    assert (exc.value.code, exc.value.line_no) == ("not-connected", 0)
    f = tmp_path / "huge.scp"
    f.write_text(text, encoding="utf-8")
    assert main(["solve", str(f)]) == BAD_INPUT
    assert "not-connected" in capsys.readouterr().err


def test_format_then_parse_roundtrips():
    inst = parse_instance(PATH_TEXT)
    again = parse_instance(format_instance(inst, comments=("generated",)))
    assert again == inst


# --- solve ---


def test_solve_ring_frozen():
    report = solve(parse_instance(RING_TEXT))
    assert report.cost == 4
    assert (report.n, report.m, report.p, report.r, report.k) == (4, 4, 1, 1, 0)
    assert report.candidates_evaluated == 3
    assert report.winning_lambda == (0,)


def test_solve_path_frozen():
    report = solve(parse_instance(PATH_TEXT))
    assert report.cost == 6
    assert report.candidates_evaluated == 1
    assert report.winning_lambda == ()
    assert len(report.tour.steps) == 5


def test_solve_no_requests():
    report = solve(parse_instance("scp 1\nn 2\nedge 1 2 1\n"))
    assert report.cost == 0
    assert report.tour.steps == ()
    assert report.candidates_evaluated == 0


def test_solve_matches_oracle_on_the_samples():
    for text in (RING_TEXT, PATH_TEXT):
        inst = parse_instance(text)
        assert solve(inst).cost == brute_force_tour(inst).cost


def reference_sweep(instance):
    """solve's sweep as a plain loop: every lambda vector zipped against its
    candidate, every box point counted.

    Returns (cost, winning_lambda, candidates_evaluated).
    """
    if not instance.requests:
        return 0, (), 0
    graph = instance.base
    r = cycle_rank(graph)
    basis = fundamental_cycles(graph, spanning_tree(graph))
    f = min_cost_circulation(instance)
    best = None
    count = 0
    for lam, g in zip(gray_code_lambdas(r, r), enumerate_candidates(f, basis, r)):
        count += 1
        base_cost = circulation_cost(instance, g)
        if best is not None and (base_cost > best[0] or (base_cost == best[0] and lam > best[1])):
            continue
        total = base_cost + connectivity_repair(instance, g).weight
        if best is None or total < best[0] or (total == best[0] and lam < best[1]):
            best = (total, lam)
    return best[0], best[1], count


def sweep_cases():
    rng = SplitMix64(11)
    for _ in range(500):
        yield random_instance(rng.next64(), 10, 4, 6, 20)
    for size in (3, 4, 5):
        yield _family_instance("grid-aisle", size, 1)


def test_solve_matches_the_reference_sweep():
    ranks = set()
    for instance in sweep_cases():
        report = solve(instance)
        assert (report.cost, report.winning_lambda, report.candidates_evaluated) == reference_sweep(instance)
        ranks.add(report.r)
    assert ranks == {0, 1, 2, 3, 4}


def test_every_box_point_is_yielded_once_and_priced_once_on_the_demands(monkeypatch):
    # the sweep's contract at library scale: one candidate and one
    # circulation_cost call per box point, and every candidate carries the
    # swept instance's own demands tuple, so its request term is the cached
    # one and is not summed again per point
    walk, price = cli_io.enumerate_candidates, cli_io.circulation_cost
    yielded = 0
    on_demands: list[bool] = []

    def counted_walk(f, basis, k):
        nonlocal yielded
        for g in walk(f, basis, k):
            yielded += 1
            yield g

    def recorded_price(instance, g):
        on_demands.append(g.arc_flow is instance.demands)
        return price(instance, g)

    monkeypatch.setattr(cli_io, "enumerate_candidates", counted_walk)
    monkeypatch.setattr(cli_io, "circulation_cost", recorded_price)
    rng = SplitMix64(20)
    instances = [_family_instance("grid-aisle", size, 1) for size in range(3, 7)]
    instances += [random_instance(rng.next64(), 10, 4, 6, 20) for _ in range(50)]
    ranks = set()
    for instance in instances:
        yielded = 0
        on_demands.clear()
        report = solve(instance)
        box = (2 * report.r + 1) ** report.r if instance.requests else 0
        assert report.candidates_evaluated == box
        assert yielded == len(on_demands) == box
        assert all(on_demands)
        ranks.add(report.r)
    assert {2, 3, 4, 5} <= ranks


def test_sweep_repairs_lambda_zero_first_and_then_only_points_under_the_incumbent(monkeypatch):
    # the first repair is the relaxation's own class; every later one is of a
    # point whose base cost is at most the incumbent's total when it is met.
    # That total is the least total of the points priced before it, since a
    # point the sweep skips costs at least as much as the incumbent.
    from test_golden import tie_instance

    priced: list[Circulation] = []
    repairs: list[tuple[int, Circulation]] = []
    price, repair = cli_io.circulation_cost, cli_io.connectivity_repair

    def recorded_price(inner, g):
        priced.append(g)
        return price(inner, g)

    def recorded_repair(inner, g):
        repairs.append((len(priced), g))
        return repair(inner, g)

    monkeypatch.setattr(cli_io, "circulation_cost", recorded_price)
    monkeypatch.setattr(cli_io, "connectivity_repair", recorded_repair)
    rng = SplitMix64(26)
    instances = [_family_instance(family, size, 1) for size in range(16, 41, 4) for family in ("cycle", "theta")]
    instances += [_family_instance("grid-aisle", size, 1) for size in (3, 4)]
    instances += [random_instance(rng.next64(), 10, 4, 6, 20) for _ in range(60)]
    instances += [tie_instance(seed) for seed in range(100)]
    later = 0
    for instance in instances:
        if not instance.requests:
            continue
        priced.clear()
        repairs.clear()
        report = solve(instance)
        seg = smooth_topology(instance.base, {v for q in instance.requests for v in (q.source, q.target)})
        inner = segment_instance(instance, seg)
        assert repairs[0] == (0, Circulation(seg.project(min_cost_circulation(instance).edge_flow), inner.demands))
        assert len(priced) == report.candidates_evaluated
        weights = {}  # support -> repair weight
        totals = []
        for g in priced:
            support = tuple(map(bool, g.edge_flow))
            if support not in weights:
                weights[support] = repair(inner, g).weight
            totals.append(price(inner, g) + weights[support])
        incumbent = list(accumulate(totals, min))  # incumbent[i]: once priced[i] is settled
        for seen, g in repairs[1:]:
            assert g is priced[seen - 1]
            assert price(inner, g) <= incumbent[seen - 2]
            later += 1
    assert later > 40, later


# tie_instance draws on which a segment repair keeping only one of the two
# base orders picks another Steiner tree than the base repair does
ONE_ORDER_DRAWS = {
    "quotient ids by root, not by least base vertex": (425, 2525, 4593, 5357, 5400, 7362, 8319, 8534),
    "segments by first walked edge, not by least edge id": (225, 980, 1040, 1422, 3760, 5448),
}


def test_segment_repair_witness_is_the_base_repair_witness():
    # every split support of the box solve sweeps: its segment Steiner tree,
    # segment ids expanded to base edge ids, is the base repair's of the
    # expanded circulation, tie-breaks included.  The repair reads a point
    # only through its support, so each support is checked once.
    from test_golden import tie_instance

    checked = set()
    pinned = [seed for draws in ONE_ORDER_DRAWS.values() for seed in draws]
    for seed in (*range(100), *pinned):
        instance = tie_instance(seed)
        seg = smooth_topology(instance.base, {v for q in instance.requests for v in (q.source, q.target)})
        inner, basis = segment_instance(instance, seg), segment_basis(seg, spanning_tree(instance.base))
        f = Circulation(seg.project(min_cost_circulation(instance).edge_flow), inner.demands)
        supports = {}
        for g in enumerate_candidates(f, basis, seg.cycle_rank):
            supports.setdefault(tuple(map(bool, g.edge_flow)), g)
        for g in supports.values():
            st = connectivity_repair(inner, g)
            if st.edge_ids:
                base_g = Circulation(seg.expand(g.edge_flow, len(instance.base.edges)), g.arc_flow)
                expanded = frozenset(eid for sid in st.edge_ids for eid in seg.edges[sid].edge_ids)
                assert (expanded, st.weight) == connectivity_repair(instance, base_g), seed
                checked.add((seed, g))
    assert {seed for seed, _ in checked} >= set(pinned)
    assert len(checked) > 400, len(checked)


def test_solve_repairs_on_the_segment_graph_only(monkeypatch):
    # a split winner's tour takes the Steiner edges of the repair that priced
    # it, so no connectivity_repair call sees the base instance
    from test_golden import TIE_SEEDS, tie_instance

    repair, build = cli_io.connectivity_repair, cli_io.build_euler_multigraph
    graphs = set()
    split_winners = 0

    def recorded(inner, g):
        graphs.add(type(inner.base))
        return repair(inner, g)

    def counted(instance, g, st):
        nonlocal split_winners
        split_winners += bool(st.edge_ids)
        return build(instance, g, st)

    monkeypatch.setattr(cli_io, "connectivity_repair", recorded)
    monkeypatch.setattr(cli_io, "build_euler_multigraph", counted)
    for seed in TIE_SEEDS:
        instance = tie_instance(seed)
        report = solve(instance)
        check = verify_tour(instance, report.tour)
        assert check.valid and check.cost == report.cost, seed
    assert graphs == {graph_core.SegmentGraph}
    assert split_winners >= 15, split_winners


def test_solve_breaks_total_cost_ties_on_the_smallest_lambda():
    # a draw where two lambda tie on the minimum base cost and on the total,
    # and Gray order meets the larger one first
    instance = random_instance(8959837491476124066, 10, 4, 6, 20)
    graph = instance.base
    r = cycle_rank(graph)
    f = min_cost_circulation(instance)
    candidates = enumerate_candidates(f, fundamental_cycles(graph, spanning_tree(graph)), r)
    base = {lam: (circulation_cost(instance, g), g) for lam, g in zip(gray_code_lambdas(r, r), candidates)}
    cheapest = min(c for c, _ in base.values())
    tied = [lam for lam, (c, g) in base.items() if c == cheapest and connectivity_repair(instance, g).weight == 0]
    assert len(tied) >= 2 and tied[0] != min(tied)
    report = solve(instance)
    assert report.cost == cheapest and report.winning_lambda == min(tied)
    assert (report.cost, report.winning_lambda, report.candidates_evaluated) == reference_sweep(instance)


def test_parse_then_solve_checks_connectivity_once(monkeypatch):
    passes = []
    real = graph_core.component_roots

    def counted(size, pairs):
        passes.append(size)
        return real(size, pairs)

    monkeypatch.setattr(graph_core, "component_roots", counted)
    instance = _family_instance("theta", 12, 1)
    solve(parse_instance(format_instance(instance)))
    assert passes == [instance.base.vertex_count + 1]


def test_solve_refuses_a_disconnected_graph():
    graph = BaseGraph.from_edges(4, [(1, 2, 1), (3, 4, 1)])
    with pytest.raises(ValueError, match="not connected"):
        solve(Instance(graph, (Request(1, 2, 1),)))


# --- reports ---


def test_json_report_is_canonical_and_stable():
    inst = parse_instance(RING_TEXT)
    a = emit_report(solve(inst), "json")
    b = emit_report(solve(inst), "json")
    assert a == b
    obj = json.loads(a)
    assert obj["cost"] == 4
    assert obj["parameters"] == {"n": 4, "m": 4, "p": 1, "r": 1, "k": 0}
    assert obj["timings_ms"] == {}
    assert list(obj) == sorted(obj)


def test_json_report_trivial_instance_golden():
    report = solve(Instance(BaseGraph(1, ()), ()))
    assert emit_report(report, "json") == (
        '{"candidates_evaluated":0,"cost":0,'
        '"parameters":{"k":0,"m":0,"n":1,"p":0,"r":0},'
        '"steps":[],"timings_ms":{},"winning_lambda":[]}\n'
    )


def test_text_report_shows_cost_and_no_timings():
    report = solve(parse_instance(RING_TEXT))
    out = emit_report(report, "text")
    assert "cost 4" in out
    assert "candidates 3" in out
    assert "timings" not in out
    assert step_lines(out) == reference_step_lines(report)  # nothing follows the last step


def test_text_report_is_byte_stable():
    for inst in [parse_instance(RING_TEXT)] + [random_instance(seed, 10, 4, 6, 20) for seed in range(10)]:
        assert emit_report(solve(inst), "text") == emit_report(solve(inst), "text")


@pytest.fixture(scope="module")
def bulk_case():
    """One request of demand 100,000: a 200,000-step tour over two distinct arcs."""
    g = BaseGraph.from_edges(3, [(1, 2, 2), (2, 3, 1), (1, 3, 4)])
    inst = Instance(g, (Request(1, 2, 2, 100_000),))
    return inst, solve(inst)


def reference_step_lines(report):
    """The text report's step lines, formatted once per step."""
    lines = []
    for s in report.tour.steps:
        label = "arc" if s.kind == "request" else "edge"
        lines.append(f"  {s.kind} {s.source} -> {s.target} [{label} {s.ref}]")
    return lines


def reference_json_steps(report):
    """The JSON report's steps array body, formatted once per step."""
    return ",".join(
        '{"from":%d,"id":%d,"kind":%s,"to":%d}' % (s.source, s.ref, encode_basestring_ascii(s.kind), s.target)
        for s in report.tour.steps
    )


def step_lines(text):
    lines = text.splitlines()
    return lines[lines.index("steps:") + 1 :]


def json_steps(text):
    return text[text.index('"steps":[') + len('"steps":[') : text.index('],"timings_ms":')]


def tenths(inst):
    """inst with every cost k turned into k/10, the value the parser reads
    from the text ``0.1`` for k = 1."""
    graph = BaseGraph.from_edges(inst.base.vertex_count, [(e.u, e.v, Fraction(e.cost, 10)) for e in inst.base.edges])
    return Instance(graph, tuple(Request(r.source, r.target, Fraction(r.cost, 10), r.demand) for r in inst.requests))


def tenths_instance(seed):
    """A random_instance draw with every cost k turned into k/10."""
    return tenths(random_instance(seed, 8, 3, 4, 20))


@pytest.fixture(scope="module")
def rendered_reports(bulk_case):
    """The demand-100,000 tour, 40 random draws, a demand-7 ring and 12 k/10 draws."""
    _, bulk = bulk_case
    reports = [bulk] + [solve(random_instance(seed, 10, 4, 6, 20)) for seed in range(40)]
    reports.append(solve(parse_instance(RING_TEXT.replace("request 1 3 2", "request 1 3 2 7"))))
    reports += [solve(tenths_instance(seed)) for seed in range(12)]
    return reports


def test_decimal_costs_solve_exactly():
    # 300 draws with costs k/10: each report equals the brute-force optimum
    # exactly, replays as valid and reads back from its own JSON
    fractional = 0
    for seed in range(300):
        inst = tenths(random_instance(seed, 10, 4, 6, 20))
        report = solve(inst)
        assert report.cost == brute_force_tour(inst).cost, seed
        check = verify_tour(inst, report.tour)
        assert check.valid and check.cost == report.cost == report.tour.total, seed
        cost, tour = parse_report(emit_report(report, "json"))
        assert cost == report.cost and verify_tour(inst, tour).valid, seed
        fractional += report.cost.denominator != 1
    assert fractional > 200


def test_solve_scales_fraction_and_float_costs_to_one_integer_instance():
    # a library float is its exact binary value; Fraction("0.1") is 1/10.
    # Either way the tour, lambda and counters are the integer instance's.
    base = random_instance(5, 10, 4, 6, 20)
    want = solve(base)
    for inst, factor in (
        (tenths(base), Fraction(1, 10)),
        (Instance(
            BaseGraph.from_edges(base.base.vertex_count, [(e.u, e.v, e.cost / 4) for e in base.base.edges]),
            tuple(r._replace(cost=r.cost / 4) for r in base.requests),
        ), Fraction(1, 4)),
    ):
        got = solve(inst)
        assert got.cost == want.cost * factor and got.tour.total == got.cost
        assert got.tour.keys == want.tour.keys and got.tour.runs == want.tour.runs
        assert got._replace(tour=want.tour, cost=want.cost) == want


def test_text_report_step_lines_match_per_step_formatting(bulk_case, rendered_reports):
    _, bulk = bulk_case
    assert len(bulk.tour.steps) == 200_000
    for report in rendered_reports:
        assert step_lines(emit_report(report, "text")) == reference_step_lines(report)


def test_json_report_steps_match_per_step_formatting(rendered_reports):
    for report in rendered_reports:
        text = emit_report(report, "json")
        assert json_steps(text) == reference_json_steps(report)
        assert json.loads(text)["steps"] == [
            {"from": s.source, "id": s.ref, "kind": s.kind, "to": s.target} for s in report.tour.steps
        ]


def test_reports_of_flat_tours_match_per_step_formatting(rendered_reports):
    for report in rendered_reports[1:]:
        report = report._replace(tour=Tour(report.tour.steps, report.tour.total))
        assert json_steps(emit_report(report, "json")) == reference_json_steps(report)
        assert step_lines(emit_report(report, "text")) == reference_step_lines(report)


def test_emit_report_rejects_unknown_format():
    with pytest.raises(ValueError):
        emit_report(solve(parse_instance(RING_TEXT)), "xml")


def test_parse_report_roundtrips_cost_and_steps():
    inst = parse_instance(PATH_TEXT)
    report = solve(inst)
    cost, tour = parse_report(emit_report(report, "json"))
    assert cost == report.cost
    assert tour.steps == report.tour.steps


def test_parse_report_shares_one_step_per_distinct_step(bulk_case):
    inst, report = bulk_case
    cost, tour = parse_report(emit_report(report, "json"))
    assert cost == report.cost
    assert tour == report.tour
    assert len({id(s) for s in tour.steps}) == len(set(tour.steps)) == 2
    check = verify_tour(inst, tour)
    assert check.valid and check.cost == cost


def test_parse_report_gives_solves_tour(rendered_reports):
    for report in rendered_reports:
        cost, tour = parse_report(emit_report(report, "json"))
        assert cost == report.cost
        assert tour == report.tour


# --- acceptance runner ---


def test_run_acceptance_passes_and_is_deterministic():
    a = run_acceptance(seed=5, count=12)
    b = run_acceptance(seed=5, count=12)
    assert a.ok
    assert a == b
    assert set(a.results) == {
        "solve_matches_oracle",
        "tours_valid",
        "proximity",
        "relaxation",
        "candidate_count",
        "decomposition",
    }
    assert all(o.passed == 12 for o in a.results.values())


def test_run_acceptance_flags_a_relaxation_off_its_optimum(monkeypatch):
    """The shifted relaxation is a feasible circulation, but neither optimal nor near the optimum."""
    relax = acceptance.min_cost_circulation

    def shifted(instance):
        f = relax(instance)
        basis = fundamental_cycles(instance.base, spanning_tree(instance.base))
        if not basis.cycles:
            return f
        flows = list(f.edge_flow)
        for eid, sign in basis.cycles[0].items():
            flows[eid] += 2 * sign
        return Circulation(tuple(flows), f.arc_flow)

    monkeypatch.setattr(acceptance, "min_cost_circulation", shifted)
    summary = run_acceptance(seed=5, count=40)
    assert not summary.ok
    for name in ("proximity", "relaxation"):
        outcome = summary.results[name]
        assert outcome.failed > 0
        assert outcome.passed + outcome.failed == 40
        assert len(outcome.failing_seeds) == outcome.failed


def test_run_acceptance_flags_a_wrong_solver_cost(monkeypatch):
    honest = acceptance.solve

    def off_by_one(instance):
        report = honest(instance)
        return report._replace(cost=report.cost + 1)

    monkeypatch.setattr(acceptance, "solve", off_by_one)
    summary = run_acceptance(seed=5, count=12)
    assert not summary.ok
    assert summary.results["solve_matches_oracle"].failed == 12


def test_run_acceptance_flags_a_wrong_candidate_count(monkeypatch):
    honest = acceptance.solve

    def miscounted(instance):
        report = honest(instance)
        return report._replace(candidates_evaluated=report.candidates_evaluated + 1)

    monkeypatch.setattr(acceptance, "solve", miscounted)
    summary = run_acceptance(seed=5, count=12)
    assert not summary.ok
    assert summary.results["candidate_count"].failed == 12
    assert summary.results["solve_matches_oracle"].failed == 0


# --- graph families ---


def test_family_shapes():
    assert cycle_rank(_family_instance("path", 6, 1).base) == 0
    assert cycle_rank(_family_instance("cycle", 6, 1).base) == 1
    assert cycle_rank(_family_instance("theta", 7, 1).base) == 2
    assert cycle_rank(_family_instance("grid-aisle", 4, 1).base) == 3


def test_family_rejects_unknown_name():
    with pytest.raises(ValueError):
        _family_instance("torus", 4, 1)


def test_family_instances_solve_cleanly():
    for fam, size in (("path", 5), ("cycle", 5), ("theta", 6), ("grid-aisle", 3)):
        inst = _family_instance(fam, size, 2)
        report = solve(inst)
        assert report.cost == brute_force_tour(inst).cost


@pytest.mark.parametrize("family,cost,rk", [("path", 69_526, (0, 0)), ("theta", 36_304, (2, 2))])
def test_large_family_instances_solve(family, cost, rk):
    # 8,000 vertices: quadratic smoothing or preprocessing would take seconds
    inst = _family_instance(family, 8_000, 1)
    report = solve(inst)
    check = verify_tour(inst, report.tour)
    assert check.valid and check.cost == cost
    assert report.tour.total == report.cost == cost
    assert (report.r, report.k) == rk


@pytest.mark.parametrize("family", ["path", "cycle", "theta"])
def test_segment_sweep_solves_20000_vertex_chains(family, monkeypatch):
    inst = _family_instance(family, 20_000, 1)
    graph, p = inst.base, len(inst.requests)
    swept = set()
    priced = cli_io.circulation_cost

    def recording(instance, g):
        swept.add(len(g.edge_flow))
        return priced(instance, g)

    monkeypatch.setattr(cli_io, "circulation_cost", recording)
    report = solve(inst)
    # segments = segment vertices - 1 + r, and the segment vertices are the
    # k branch vertices, the leaves and at most 2p request endpoints
    leaves = sum(len(graph.adjacency[v]) == 1 for v in range(1, graph.vertex_count + 1))
    (segments,) = swept
    assert segments <= report.r + report.k + 2 * p + leaves - 1
    check = verify_tour(inst, report.tour)
    assert check.valid and check.cost == report.cost
    assert report.cost >= circulation_cost(inst, min_cost_circulation(inst))


def ring(vertices, cost):
    return [(a, b, cost + i % 3) for i, (a, b) in enumerate(zip(vertices, vertices[1:] + vertices[:1]))]


SEGMENT_SHAPES = {
    # two endpoints on a ring: two parallel segments between them
    "two-parallels": (12, ring(list(range(1, 13)), 2), [(3, 9, 1, 2), (9, 3, 5, 1)]),
    # requests only at the hubs: three bare parallel chains
    "bare-theta": (
        14,
        [(a, b, 1 + (a + b) % 4) for chain in ([1, 3, 4, 5, 6, 2], [1, 7, 8, 9, 10, 2], [1, 11, 12, 13, 14, 2])
         for a, b in zip(chain, chain[1:])],
        [(1, 2, 3, 1), (2, 1, 9, 1)],
    ),
    # a ring hanging off vertex 1 of a path: a loop segment
    "hanging-loop": (
        14,
        ring(list(range(1, 9)), 1) + [(1, 9, 2)] + [(v, v + 1, 1 + v % 2) for v in range(9, 14)],
        [(14, 10, 2, 2), (9, 12, 6, 1)],
    ),
}


@pytest.mark.parametrize("shape", SEGMENT_SHAPES)
def test_segment_sweep_handles_loops_and_parallel_segments(shape, monkeypatch):
    n, triples, requests = SEGMENT_SHAPES[shape]
    inst = Instance(BaseGraph.from_edges(n, triples), tuple(Request(*r) for r in requests))
    swept = set()
    priced = cli_io.circulation_cost

    def recording(instance, g):
        swept.add(type(instance.base))
        return priced(instance, g)

    monkeypatch.setattr(cli_io, "circulation_cost", recording)
    report = solve(inst)
    assert swept == {graph_core.SegmentGraph}
    assert (report.cost, report.winning_lambda, report.candidates_evaluated) == reference_sweep(inst)
    assert report.cost == brute_force_tour(inst).cost
    check = verify_tour(inst, report.tour)
    assert check.valid and check.cost == report.cost


def test_subdividing_a_chain_edge_keeps_the_segment_graph_and_the_optimum():
    # edge i of cost c becomes u - x - v with costs a + b = c, x a new
    # degree-2 vertex with no request
    rng = SplitMix64(12)
    checked = 0
    while checked < 60:
        inst = random_instance(rng.next64(), 9, 3, 4, 9)
        if not inst.requests:
            continue
        g = inst.base
        i = rng.randint(0, len(g.edges) - 1)
        e = g.edges[i]
        a = rng.randint(0, e.cost)
        x = g.vertex_count + 1
        triples = [(f.u, f.v, f.cost) for f in g.edges]
        triples[i] = (e.u, x, a)
        triples.append((x, e.v, e.cost - a))
        sub = Instance(BaseGraph.from_edges(x, triples), inst.requests)
        keep = {v for r in inst.requests for v in (r.source, r.target)}
        before, after = smooth_topology(g, keep), smooth_topology(sub.base, keep)
        assert (after.vertices, after.cycle_rank, after.branch_vertices) == (before.vertices, before.cycle_rank, before.branch_vertices)
        assert sorted(s[:3] for s in after.edges) == sorted(s[:3] for s in before.edges)
        assert solve(sub).cost == solve(inst).cost
        checked += 1


# --- command line ---


@pytest.fixture
def ring_file(tmp_path):
    f = tmp_path / "ring.scp"
    f.write_text(RING_TEXT, encoding="utf-8")
    return str(f)


def test_cli_solve_text(ring_file, capsys):
    assert main(["solve", ring_file]) == OK
    out = capsys.readouterr().out
    assert out.startswith("n=4 m=4 p=1 r=1 k=0")
    assert "cost 4" in out


def test_cli_solve_text_is_byte_stable(ring_file, capsys):
    assert main(["solve", ring_file]) == OK
    first = capsys.readouterr().out
    assert main(["solve", ring_file]) == OK
    assert capsys.readouterr().out == first


def test_cli_solve_json_is_byte_stable(ring_file, capsys):
    assert main(["solve", ring_file, "--json"]) == OK
    first = capsys.readouterr().out
    assert main(["solve", ring_file, "--json"]) == OK
    assert capsys.readouterr().out == first
    assert json.loads(first)["cost"] == 4


def test_python_dash_m_scpsolver_matches_main(tmp_path, capsys):
    f = tmp_path / "bulk.scp"
    f.write_text(RING_TEXT.replace("request 1 3 2", "request 1 3 2 500"), encoding="utf-8")
    src = os.path.dirname(os.path.dirname(os.path.abspath(scpsolver.__file__)))
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(filter(None, (src, os.environ.get("PYTHONPATH")))))
    proc = subprocess.run(
        [sys.executable, "-m", "scpsolver", "solve", str(f), "--json"],
        capture_output=True, env=env, timeout=60,
    )
    assert proc.returncode == OK, proc.stderr
    assert proc.stderr == b""
    assert main(["solve", str(f), "--json"]) == OK
    assert proc.stdout == capsys.readouterr().out.encode()


def test_python_dash_m_scpsolver_cli_runs_without_warning(tmp_path):
    # the package root does not import scpsolver.cli, so runpy finds no
    # half-imported module and warns nothing; a warning here exits nonzero
    f = tmp_path / "ring.scp"
    f.write_text(RING_TEXT, encoding="utf-8")
    src = os.path.dirname(os.path.dirname(os.path.abspath(scpsolver.__file__)))
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(filter(None, (src, os.environ.get("PYTHONPATH")))))
    run = [sys.executable, "-W", "error::RuntimeWarning", "-m"]
    proc = subprocess.run([*run, "scpsolver.cli", "solve", str(f), "--json"], capture_output=True, env=env, timeout=60)
    assert proc.returncode == OK, proc.stderr
    assert proc.stderr == b""
    package = subprocess.run([*run, "scpsolver", "solve", str(f), "--json"], capture_output=True, env=env, timeout=60)
    assert package.returncode == OK, package.stderr
    assert proc.stdout == package.stdout != b""


def test_cli_solve_missing_file(capsys):
    assert main(["solve", "/nonexistent/x.scp"]) == BAD_INPUT
    assert "cannot read" in capsys.readouterr().err


def test_cli_solve_malformed(tmp_path, capsys):
    f = tmp_path / "bad.scp"
    f.write_text("scp 1\nn 2\nedge 1 5 1\n", encoding="utf-8")
    assert main(["solve", str(f)]) == BAD_INPUT
    assert "bad-vertex" in capsys.readouterr().err


def test_cli_solve_reports_solver_error_without_traceback(ring_file, capsys, monkeypatch):
    # stands in for a fault detector firing inside solve
    def faulty(instance):
        raise RuntimeError("winning tour cost disagrees with candidate cost")

    monkeypatch.setattr(cli, "solve", faulty)
    assert main(["solve", ring_file]) == FAIL
    out, err = capsys.readouterr()
    assert (out, err) == ("", "solver error: winning tour cost disagrees with candidate cost\n")


def test_cli_solves_and_checks_the_decimal_triangle(tmp_path, capsys):
    # 0.1 + 0.2 != 0.3 in floats; read exactly, the costs add up
    f = tmp_path / "decimal.scp"
    f.write_text("scp 1\nn 3\nedge 1 2 0.1\nedge 2 3 0.2\nedge 1 3 0.7\nrequest 1 3 0.3\n", encoding="utf-8")
    assert main(["solve", str(f)]) == OK
    assert "\ncost 0.6\n" in capsys.readouterr().out
    assert main(["solve", str(f), "--json"]) == OK
    report = capsys.readouterr().out
    assert '"cost":0.6,' in report
    report_path = tmp_path / "report.json"
    report_path.write_text(report, encoding="utf-8")
    assert main(["check", str(f), str(report_path)]) == OK
    assert capsys.readouterr().out == "valid tour, cost 0.6\n"
    assert main(["oracle", str(f)]) == OK
    assert capsys.readouterr().out.splitlines()[1:] == ["solver cost 0.6", "match"]


def test_cli_solve_gives_the_1e308_triangle_its_exact_integer_cost(tmp_path, capsys):
    # 1e308 is the integer 10**308; the total 6 * 10**308 overflows a double
    # but not an int, so the report carries it exactly
    f = tmp_path / "huge.scp"
    f.write_text(
        "scp 1\nn 3\nedge 1 2 1e308\nedge 2 3 1e308\nedge 1 3 1e308\nrequest 1 3 1e308 3\n",
        encoding="utf-8",
    )
    assert main(["solve", str(f), "--json"]) == OK
    out, err = capsys.readouterr()
    assert err == "" and json.loads(out)["cost"] == 6 * 10**308
    report_path = tmp_path / "report.json"
    report_path.write_text(out, encoding="utf-8")
    assert main(["check", str(f), str(report_path)]) == OK
    assert capsys.readouterr().out == f"valid tour, cost {6 * 10**308}\n"


def test_cli_solve_reports_out_of_memory_without_traceback(ring_file, capsys, monkeypatch):
    # stands in for a demand whose tour does not fit in memory; nothing is allocated
    def exhausted(instance):
        raise MemoryError

    monkeypatch.setattr(cli, "solve", exhausted)
    assert main(["solve", ring_file]) == FAIL
    out, err = capsys.readouterr()
    assert (out, err) == ("", "solver error: out of memory\n")


@pytest.mark.parametrize("flags", [[], ["--json"]])
def test_cli_solve_refuses_a_demand_beyond_an_index_without_traceback(tmp_path, capsys, flags):
    # a demand above sys.maxsize: writing its tour repeats a run more times
    # than a list can hold, which raises OverflowError before allocating
    f = tmp_path / "huge-demand.scp"
    f.write_text("scp 1\nn 2\nedge 1 2 1\nrequest 1 2 1 99999999999999999999\n", encoding="utf-8")
    assert main(["solve", str(f), *flags]) == FAIL
    out, err = capsys.readouterr()
    assert out == ""
    assert err.startswith("solver error: ") and err.count("\n") == 1


def test_cli_oracle_match(ring_file, capsys):
    assert main(["oracle", ring_file]) == OK
    assert "match" in capsys.readouterr().out


def test_cli_oracle_refuses_big_instances(tmp_path, capsys):
    f = tmp_path / "big.scp"
    f.write_text("scp 1\nn 2\nedge 1 2 1\nrequest 1 2 1 9\n", encoding="utf-8")
    assert main(["oracle", str(f)]) == FAIL
    assert "oracle refused" in capsys.readouterr().err


def test_cli_check_accepts_own_report(ring_file, tmp_path, capsys):
    assert main(["solve", ring_file, "--json"]) == OK
    report_path = tmp_path / "report.json"
    report_path.write_text(capsys.readouterr().out, encoding="utf-8")
    assert main(["check", ring_file, str(report_path)]) == OK
    assert "valid tour" in capsys.readouterr().out


def test_cli_check_flags_tampered_cost(ring_file, tmp_path, capsys):
    assert main(["solve", ring_file, "--json"]) == OK
    obj = json.loads(capsys.readouterr().out)
    obj["cost"] += 1
    report_path = tmp_path / "report.json"
    report_path.write_text(json.dumps(obj), encoding="utf-8")
    assert main(["check", ring_file, str(report_path)]) == FAIL


def test_cli_check_flags_tampered_steps(ring_file, tmp_path, capsys):
    assert main(["solve", ring_file, "--json"]) == OK
    obj = json.loads(capsys.readouterr().out)
    del obj["steps"][0]
    report_path = tmp_path / "report.json"
    report_path.write_text(json.dumps(obj), encoding="utf-8")
    assert main(["check", ring_file, str(report_path)]) == FAIL


@pytest.mark.parametrize(
    "field,bad",
    [
        ('"id":0', '"id":0.5'),
        ('"id":0', '"id":0.0'),
        ('"id":0', '"id":true'),
        ('"from":1', '"from":"1"'),
        ('"kind":"request"', '"kind":1'),
        ('"cost":2', '"cost":Infinity'),
        ('"cost":2', '"cost":NaN'),
        ('"cost":2', '"cost":1e400'),
        ('"cost":2', '"cost":1e-400'),
        ('"cost":2', '"cost":-Infinity'),
        ('"cost":2', '"cost":true'),
        ('"cost":2', '"cost":"2"'),
    ],
)
def test_cli_check_rejects_step_fields_of_the_wrong_type(tmp_path, capsys, field, bad):
    instance_path = tmp_path / "one-edge.scp"
    instance_path.write_text(ONE_EDGE_TEXT, encoding="utf-8")
    assert main(["solve", str(instance_path), "--json"]) == OK
    report = capsys.readouterr().out
    assert field in report
    report_path = tmp_path / "report.json"
    report_path.write_text(report.replace(field, bad, 1), encoding="utf-8")
    assert main(["check", str(instance_path), str(report_path)]) == BAD_INPUT
    assert "malformed report" in capsys.readouterr().err


@pytest.mark.parametrize(
    "cost,status,out",
    [
        ("2.0", OK, "valid tour, cost 2\n"),
        ("20e-1", OK, "valid tour, cost 2\n"),
        # equal to 2 as a double, but not exactly
        ("2.0000000000000001", FAIL, "invalid tour: recorded total differs from recomputed cost\n"),
    ],
)
def test_cli_check_reads_report_costs_exactly(tmp_path, capsys, cost, status, out):
    instance_path = tmp_path / "one-edge.scp"
    instance_path.write_text(ONE_EDGE_TEXT, encoding="utf-8")
    assert main(["solve", str(instance_path), "--json"]) == OK
    report_path = tmp_path / "report.json"
    report_path.write_text(capsys.readouterr().out.replace('"cost":2,', f'"cost":{cost},', 1), encoding="utf-8")
    assert main(["check", str(instance_path), str(report_path)]) == status
    assert capsys.readouterr().out == out


def test_cli_check_rejects_malformed_report(ring_file, tmp_path, capsys):
    report_path = tmp_path / "report.json"
    report_path.write_text("{not json", encoding="utf-8")
    assert main(["check", ring_file, str(report_path)]) == BAD_INPUT
    assert "malformed report" in capsys.readouterr().err


def test_cli_gen_is_seeded_and_parseable(capsys):
    assert main(["gen", "--seed", "7"]) == OK
    first = capsys.readouterr().out
    assert main(["gen", "--seed", "7"]) == OK
    assert capsys.readouterr().out == first
    inst = parse_instance(first)
    assert inst.base.vertex_count >= 2


def test_cli_gen_env_seed_wins(monkeypatch, capsys):
    monkeypatch.setenv("SCP_SEED", "99")
    assert main(["gen", "--seed", "7"]) == OK
    with_env = capsys.readouterr().out
    monkeypatch.delenv("SCP_SEED")
    assert main(["gen", "--seed", "99"]) == OK
    assert capsys.readouterr().out == with_env
    assert main(["gen", "--seed", "7"]) == OK
    assert capsys.readouterr().out != with_env


@pytest.mark.parametrize("flags", [["--n", "1"], ["--cost-max", "0"], ["--r", "-1"], ["--p", "-1"]])
def test_cli_gen_rejects_out_of_range_flags(flags, capsys):
    assert main(["gen", *flags]) == BAD_INPUT
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.startswith("malformed input: gen needs")
    assert captured.err.count("\n") == 1


def test_cli_rejects_non_integer_env_seed(monkeypatch, capsys):
    monkeypatch.setenv("SCP_SEED", "abc")
    assert main(["gen"]) == BAD_INPUT
    assert capsys.readouterr().err == "malformed input: SCP_SEED is not an integer: 'abc'\n"


def test_cli_refuses_files_that_are_not_utf8(ring_file, tmp_path, capsys):
    latin1 = tmp_path / "latin1.scp"
    latin1.write_bytes("# café\nscp 1\nn 2\nedge 1 2 1\n".encode("latin-1"))
    assert main(["solve", str(latin1)]) == BAD_INPUT
    assert capsys.readouterr().err.startswith("cannot read input: not UTF-8:")
    assert main(["check", str(latin1), ring_file]) == BAD_INPUT
    assert capsys.readouterr().err.startswith("cannot read input: not UTF-8:")
    assert main(["check", ring_file, str(latin1)]) == BAD_INPUT
    assert capsys.readouterr().err.startswith("cannot read input: not UTF-8:")


def test_cli_has_no_bench_command(capsys):
    with pytest.raises(SystemExit) as exc:
        main(["bench", "--family", "path", "--sizes", "4"])
    assert exc.value.code == BAD_INPUT
    assert "invalid choice" in capsys.readouterr().err


def test_cli_accept_small_run(capsys):
    assert main(["accept", "--seed", "3", "--count", "6"]) == OK
    out = capsys.readouterr().out
    assert out.count("PASS") == 6
    assert "solve_matches_oracle" in out


@pytest.mark.parametrize("count", ["0", "-1"])
def test_cli_accept_rejects_count_below_one(count, capsys):
    assert main(["accept", "--count", count]) == BAD_INPUT
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == "malformed input: accept needs --count >= 1\n"
