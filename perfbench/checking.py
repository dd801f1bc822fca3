"""Output checks for every benchmark solve, and the reference data they use.

A solve is correct when its JSON report parses, its tour replays as valid
under ``verify_tour``, the replayed total equals the report's cost, and that
cost equals the instance's reference optimum.  For the default seed the
optimum comes from ``refs/<workload>.json`` (written by ``make_refs.py``);
for any other seed it comes from ``brute_force_tour`` wherever the oracle
runs (total demand at most 8) and is left unchecked elsewhere, where the
``verify_tour`` replay is the whole check.
"""

from __future__ import annotations

import hashlib
import json
import os

from scpsolver import Instance, brute_force_tour, verify_tour
from scpsolver.cli_io import parse_report

from workloads import DEFAULT_SEED

REFS_DIR = os.path.join(os.path.dirname(os.path.abspath(__file__)), "refs")
ORACLE_MAX_DEMAND = 8  # brute_force_tour refuses anything larger


def sha256(text: str) -> str:
    return hashlib.sha256(text.encode()).hexdigest()


def refs_path(workload: str) -> str:
    return os.path.join(REFS_DIR, f"{workload}.json")


def oracle_cost(instance: Instance):
    """Brute-force optimum, or None where the oracle would refuse."""
    if sum(r.demand for r in instance.requests) > ORACLE_MAX_DEMAND:
        return None
    return brute_force_tour(instance).cost


def check_report(instance: Instance, report: str, expected_cost) -> str | None:
    """Why ``report`` is a wrong answer for ``instance``, or None if it is right."""
    try:
        cost, tour = parse_report(report)
    except (ValueError, KeyError, TypeError) as exc:
        return f"malformed report: {exc!r}"
    verdict = verify_tour(instance, tour)
    if not verdict.valid:
        return f"invalid tour: {verdict.reason}"
    if verdict.cost != cost:
        return f"tour total {verdict.cost} differs from report cost {cost}"
    if expected_cost is not None and cost != expected_cost:
        return f"cost {cost} differs from reference optimum {expected_cost}"
    return None


class Checker:
    """Checks each solve's output and counts failures and report drift."""

    def __init__(self, workload: str, seed: int, instances: list[Instance], texts: list[str]):
        self.instances = instances
        self.failed = 0
        self.drift = 0
        self.reasons: list[str] = []
        self._verified: dict[int, str] = {}  # index -> digest of a report already checked
        self._expected: dict[int, object] = {}
        self._digests: dict[int, str] = {}
        if seed == DEFAULT_SEED:
            with open(refs_path(workload), encoding="utf-8") as fh:
                rows = json.load(fh)["instances"]
            if len(rows) != len(texts) or any(row["instance_sha256"] != sha256(t) for row, t in zip(rows, texts)):
                raise RuntimeError(f"{refs_path(workload)} does not match the generated instances; rerun make_refs.py")
            for i, row in enumerate(rows):
                self._expected[i] = row["cost"]
                self._digests[i] = row["report_sha256"]

    def expected_cost(self, i: int):
        if i not in self._expected:
            self._expected[i] = oracle_cost(self.instances[i])
        return self._expected[i]

    def fail(self, i: int, reason: str) -> None:
        self.failed += 1
        if len(self.reasons) < 5:
            self.reasons.append(f"instance {i}: {reason}")

    def check(self, i: int, report: str) -> bool:
        """Record one solve's output; False (and a failure) when it is wrong."""
        digest = sha256(report)
        if i in self._digests and digest != self._digests[i]:
            self.drift += 1
        if self._verified.get(i) == digest:
            return True  # byte-identical to a report that already passed
        reason = check_report(self.instances[i], report, self.expected_cost(i))
        if reason is not None:
            self.fail(i, reason)
            return False
        self._verified[i] = digest
        return True
