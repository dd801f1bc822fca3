"""Gray-code sweep of the circulations near a feasible base circulation.

Candidate homology classes are f plus small integer combinations of the
fundamental cycles.  Walking coefficient vectors in reflected mixed-radix
Gray order changes one coefficient by one per step, so each candidate is the
previous one plus or minus one fundamental cycle: O(|C_i|) additions, then an
O(m) copy of the edge flows into the yielded ``Circulation``, a named tuple
built without running any Python-level constructor.  The walk comes in runs
of equal steps (``_gray_runs``): coordinate 0 moves 2k times in a row between
carries, so the step walker resumes, and the run's cycle entries are looked
up, once per 2k+1 candidates, not once per candidate.

The edges may be a base graph's or, as in ``cli_io.solve``, the segments of
its segment graph (``graph_core.segment_basis`` projects the cycles): O(r +
k + p + leaves) of them however long the chains are.  The walk yields no
coefficient vector alongside: each cycle is +1 or -1 on its own non-tree
edge and 0 on every other, so a caller that needs lambda reads it off the
candidate's non-tree flows.  Every candidate shares f's arc flows, the very
tuple: ``solve`` passes the swept instance's ``demands``, whose request term
``circulation_cost`` then adds once per instance.

Every box point is still yielded, and its caller still prices each one with
``circulation_cost`` (O(m) once the request term is cached); together these
are nearly all of a large sweep.  A sweep that skips points needs the
benchmark's tracing contract, one yielded candidate and one cost call per box
point, to be redefined first.
"""

from __future__ import annotations

from typing import Iterator

from .circulation import Circulation
from .graph_core import CycleBasis

LambdaVector = tuple[int, ...]


def _gray_runs(r: int, k: int) -> Iterator[tuple[int, int, int]]:
    """(coordinate, +1 or -1, count) for each run of equal steps of the walk
    over [-k, k]^r.

    Reflected mixed-radix Gray order (Knuth, TAOCP Vol. 4A, 7.2.1.1,
    Algorithm H), started at all -k.  Coordinate 0 moves 2k times in a row
    between two carries, so it comes as one run of 2k steps and each carry
    as a run of 1: the search for the coordinate that carries, the direction
    flips below it and this generator's resume happen once per 2k+1
    vectors.
    """
    if r == 0:
        return
    hi = 2 * k
    digits = [0] * r  # coordinate i sits at digits[i] - k
    dirs = [1] * r
    while True:
        yield (0, dirs[0], hi)
        dirs[0] = -dirs[0]
        for i in range(1, r):
            nxt = digits[i] + dirs[i]
            if 0 <= nxt <= hi:
                digits[i] = nxt
                yield (i, dirs[i], 1)
                for j in range(1, i):
                    dirs[j] = -dirs[j]
                break
            # this digit is pinned at its wall; carry to the next coordinate
        else:
            return


def gray_code_lambdas(r: int, k: int) -> Iterator[LambdaVector]:
    """All (2k+1)^r vectors in [-k, k]^r, adjacent vectors one step apart.

    Coordinate 0 varies fastest.  The first vector is all -k.
    """
    if r < 0 or k < 0:
        raise ValueError("r and k must be nonnegative")
    lam = [-k] * r
    yield tuple(lam)
    for i, d, count in _gray_runs(r, k):
        for _ in range(count):
            lam[i] += d
            yield tuple(lam)


def enumerate_candidates(f: Circulation, basis: CycleBasis, k: int) -> Iterator[Circulation]:
    """Stream f + sum(lambda_i * C_i) over gray_code_lambdas(r, k).

    Candidates appear in the same order as the lambda vectors, all share
    f's arc-flow tuple itself, not a copy, and all conserve flow because
    every term does.
    """
    if k < 0:
        raise ValueError("k must be nonnegative")
    r = len(basis.non_tree_edges)
    arc_flow = f.arc_flow
    working = list(f.edge_flow)
    for cycle in basis.cycles:
        for eid, val in cycle.items():
            working[eid] -= k * val
    new = tuple.__new__  # Circulation(...) without the named tuple's __new__ wrapper
    yield new(Circulation, (tuple(working), arc_flow))
    # a step (i, d) adds d * C_i: the (edge id, signed value) pairs to apply,
    # looked up once per run
    moves = {}
    for i, cycle in enumerate(basis.cycles):
        moves[i, 1] = tuple(cycle.items())
        moves[i, -1] = tuple((eid, -val) for eid, val in cycle.items())
    for i, d, count in _gray_runs(r, k):
        pairs = moves[i, d]
        for _ in range(count):
            for eid, val in pairs:
                working[eid] += val
            yield new(Circulation, (tuple(working), arc_flow))
