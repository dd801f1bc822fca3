"""Write the reference data for the default seed: ``refs/<workload>.json``.

    python3 perfbench/make_refs.py [WORKLOAD ...]

For each instance of one pass it stores the sha256 of the instance text, the
optimum cost and the sha256 of the canonical JSON report.  Every report must
replay as a valid tour under ``verify_tour`` at the cost it states.  Wherever
the total demand is at most 8 (all of corpus, relax-chain and sweep-grid) the
cost is also checked against ``brute_force_tour``; bulk-demand costs are the
solver's own, validated by ``verify_tour`` alone.
"""

from __future__ import annotations

import json
import os
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
sys.path.insert(0, os.path.join(os.path.dirname(HERE), "src"))

import checking  # noqa: E402
import workloads  # noqa: E402
from worker import solve_text  # noqa: E402


def references(workload: str) -> list[dict]:
    instances = workloads.build(workload, workloads.DEFAULT_SEED)
    rows = []
    for i, (instance, text) in enumerate(zip(instances, workloads.texts(instances))):
        report = solve_text(text)
        cost = json.loads(report)["cost"]
        oracle = checking.oracle_cost(instance)
        reason = checking.check_report(instance, report, oracle)
        if reason is not None:
            raise SystemExit(f"{workload} instance {i}: {reason}")
        rows.append({
            "instance_sha256": checking.sha256(text),
            "cost": cost,
            "oracle_checked": oracle is not None,
            "report_sha256": checking.sha256(report),
        })
    return rows


def main(argv: list[str]) -> int:
    os.makedirs(checking.REFS_DIR, exist_ok=True)
    for workload in argv or workloads.WORKLOADS:
        rows = references(workload)
        lines = ",\n".join(json.dumps(row, sort_keys=True) for row in rows)
        with open(checking.refs_path(workload), "w", encoding="utf-8") as fh:
            fh.write(f'{{"workload": "{workload}", "seed": {workloads.DEFAULT_SEED}, "instances": [\n{lines}\n]}}\n')
        checked = sum(row["oracle_checked"] for row in rows)
        print(f"{workload}: {len(rows)} instances, {checked} cross-checked by brute_force_tour")
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
