"""Property tests of exact decimal costs, from parse to report.

Hypothesis is in the ``test`` extra only; without it this module is skipped.
Every property runs derandomized with a bounded number of examples, so the
suite stays deterministic and quick.
"""

from __future__ import annotations

from fractions import Fraction

import pytest

pytest.importorskip("hypothesis")

from hypothesis import given, settings  # noqa: E402
from hypothesis import strategies as st  # noqa: E402

from scpsolver import (  # noqa: E402
    BaseGraph,
    Instance,
    InstanceFormatError,
    brute_force_tour,
    format_instance,
    parse_instance,
    random_instance,
    solve,
    verify_tour,
)

BOUNDED = settings(derandomize=True, deadline=None, database=None)

# exact decimals with up to three places, integers and zero included
decimals = st.builds(Fraction, st.integers(0, 9999), st.sampled_from([1, 2, 4, 5, 10, 100, 1000]))
seeds = st.integers(0, 2**32 - 1)


def with_costs(inst: Instance, data: st.DataObject) -> Instance:
    """inst's graph and requests with every cost drawn from ``decimals``."""
    edges = [(e.u, e.v, data.draw(decimals)) for e in inst.base.edges]
    requests = tuple(r._replace(cost=data.draw(decimals)) for r in inst.requests)
    return Instance(BaseGraph.from_edges(inst.base.vertex_count, edges), requests)


@settings(BOUNDED, max_examples=100)
@given(seeds, st.data())
def test_format_then_parse_roundtrips_decimal_costs(seed, data):
    inst = with_costs(random_instance(seed, 12, 4, 6, 9), data)
    text = format_instance(inst)
    again = parse_instance(text)
    assert again == inst
    assert format_instance(again) == text
    for cost in (*again.base.edge_costs, *again.arc_costs):
        assert type(cost) is (int if cost.denominator == 1 else Fraction)


TOKENS = [
    "scp", "1", "n", "2", "3", "0", "-1", "edge", "request", "#", "x", "1.5", "-0.5", "1e-400", "1e400",
    "nan", "inf", "1_0", "3/2", ".5", "5.", "1E3", "99999999999999999999", "\t", "",
]
lines = st.lists(st.sampled_from(TOKENS), max_size=6).map(" ".join) | st.text(max_size=12)


@settings(BOUNDED, max_examples=300)
@given(st.lists(lines, max_size=8), st.booleans())
def test_line_soup_raises_nothing_but_instance_format_errors(soup, with_header):
    text = "\n".join((["scp 1", "n 3"] if with_header else []) + soup)
    try:
        parse_instance(text)
    except InstanceFormatError:
        pass


@settings(BOUNDED, max_examples=200)
@given(seeds, st.data())
def test_solve_equals_the_brute_force_optimum_on_decimal_costs(seed, data):
    inst = with_costs(random_instance(seed, 6, 2, 4, 9), data)
    report = solve(inst)
    assert report.cost == brute_force_tour(inst).cost
    check = verify_tour(inst, report.tour)
    assert check.valid and check.cost == report.cost


@settings(BOUNDED, max_examples=100)
@given(seeds, st.data())
def test_subdividing_an_edge_keeps_the_optimum(seed, data):
    # a new vertex of degree 2 with no request: a tour crosses it whole or
    # not at all, so splitting the edge's cost over two edges changes nothing
    inst = with_costs(random_instance(seed, 8, 3, 4, 9), data)
    edges = list(inst.base.edges)
    u, v, cost = edges.pop(data.draw(st.integers(0, len(edges) - 1)))
    part = cost * data.draw(st.sampled_from([0, Fraction(1, 4), Fraction(1, 2), 1]))
    w = inst.base.vertex_count + 1
    split = Instance(BaseGraph.from_edges(w, [*edges, (u, w, part), (w, v, cost - part)]), inst.requests)
    assert solve(split).cost == solve(inst).cost
