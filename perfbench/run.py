"""Solver benchmark: one workload per invocation, printed as one JSON line.

    python3 perfbench/run.py --workload corpus --seed 1 --seconds 25 --trace 0

Run from the repository root; the solver is imported from ``src/``.  With
``--trace 0`` it prints the end-to-end metrics: set-up time (median of
several fresh processes) and the closed-loop solve metrics of one
single-threaded worker with one client.  With ``--trace 1`` it prints the
per-layer metrics of one traced pass, plus the tracing overhead against an
untraced worker.  Every solve's output is checked; the last line of standard
output is ``{"correct", "attempted", "failed", "metrics"}``.  See README.md.
"""

from __future__ import annotations

import argparse
import json
import os
import statistics
import subprocess
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
WORKER = os.path.join(HERE, "worker.py")
WORKLOADS = ("relax-chain", "sweep-grid", "corpus", "bulk-demand")
SETUP_SAMPLES = 7  # set-up time is the median over this many fresh processes
DEADLINE_S = 170.0  # the whole invocation ends well inside 180 s

END_TO_END = {
    "setup_s": "s",
    "solves_per_s": "1/s",
    "solve_ms.p50": "ms",
    "solve_ms.p90": "ms",
    "peak_rss_mb": "MB",
}
PER_LAYER = {
    "cli_io.parse_instance.self_ms": "ms",
    "cli_io.solve.self_ms": "ms",
    "cli_io.emit_report.self_ms": "ms",
    "cli_io.emit_report.bytes": "bytes",
    "graph_core.smooth_topology.self_ms": "ms",
    "graph_core.spanning_tree.self_ms": "ms",
    "graph_core.fundamental_cycles.self_ms": "ms",
    "circulation.min_cost_circulation.self_ms": "ms",
    "circulation.circulation_cost.self_ms": "ms",
    "circulation.circulation_cost.calls": "count",
    "enumeration.enumerate_candidates.self_ms": "ms",
    "enumeration.gray_code_lambdas.self_ms": "ms",
    "enumeration.candidates": "count",
    "homology_tour.connectivity_repair.self_ms": "ms",
    "homology_tour.connectivity_repair.calls": "count",
    "homology_tour.contract_support.self_ms": "ms",
    "homology_tour.steiner_preprocess.self_ms": "ms",
    "homology_tour.min_steiner_tree.self_ms": "ms",
    "homology_tour.steiner_subsets": "count",
    "homology_tour.build_euler_multigraph.self_ms": "ms",
    "homology_tour.euler_arcs": "count",
    "homology_tour.euler_tour.self_ms": "ms",
    "sweep.repair_ratio": "ratio",
    "trace.wall_ms": "ms",
    "trace.overhead_ratio": "ratio",
}


class WorkerError(RuntimeError):
    pass


def run_worker(role: str, workload: str, seed: int, seconds: float, deadline: float) -> dict:
    """Start one worker process, wait for it to end, return its JSON result."""
    spawned_at = time.monotonic()
    proc = subprocess.Popen(
        [sys.executable, WORKER, role, workload, str(seed), str(seconds), repr(spawned_at)],
        stdout=subprocess.PIPE,
        text=True,
        cwd=ROOT,
    )
    try:
        out, _ = proc.communicate(timeout=max(1.0, deadline - time.monotonic()))
    except subprocess.TimeoutExpired:
        proc.kill()
        proc.communicate()
        raise WorkerError(f"{role} worker ran past the deadline") from None
    if proc.returncode != 0:
        raise WorkerError(f"{role} worker exited with code {proc.returncode}")
    return json.loads(out.strip().splitlines()[-1])


def end_to_end(workload: str, seed: int, seconds: float, deadline: float) -> tuple[dict, dict]:
    setups = [run_worker("setup", workload, seed, seconds, deadline) for _ in range(SETUP_SAMPLES - 1)]
    run = run_worker("measure", workload, seed, seconds, deadline)
    metrics = {name: run[name] for name in END_TO_END if name in run}
    metrics["setup_s"] = statistics.median([s["setup_s"] for s in setups] + [run["setup_s"]])
    print(
        f"{workload} seed {seed}: {run['attempted']} timed solves in {run['passes']} passes, "
        f"{run['beyond_p90']} beyond p90, fail_ratio {run['failed'] / run['attempted']:.4f} "
        f"({run['failed']}/{run['attempted']}), report_drift {run['report_drift']}"
    )
    return metrics, {"attempted": run["attempted"], "failed": run["failed"], "reasons": run["reasons"]}


def traced(workload: str, seed: int, seconds: float, deadline: float) -> tuple[dict, dict]:
    base = run_worker("measure", workload, seed, seconds / 2, deadline)
    run = run_worker("trace", workload, seed, seconds, deadline)
    metrics = {name: run["metrics"].get(name, 0) for name in PER_LAYER}
    metrics["trace.overhead_ratio"] = metrics["trace.wall_ms"] / base["pass_ms"]
    print(
        f"{workload} seed {seed}: one traced pass of {run['attempted']} solves, "
        f"untraced pass {base['pass_ms']:.1f} ms, report_drift {run['report_drift']}"
    )
    attempted = base["attempted"] + run["attempted"]
    return metrics, {"attempted": attempted, "failed": base["failed"] + run["failed"], "reasons": base["reasons"] + run["reasons"]}


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n", 1)[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=25.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    if not os.path.isfile(os.path.join(ROOT, "src", "scpsolver", "__init__.py")):
        print(f"perfbench: no solver sources at {os.path.join(ROOT, 'src', 'scpsolver')}", file=sys.stderr)
        return 2
    deadline = time.monotonic() + DEADLINE_S
    units = PER_LAYER if args.trace else END_TO_END
    try:
        if args.trace:
            metrics, counts = traced(args.workload, args.seed, args.seconds, deadline)
        else:
            metrics, counts = end_to_end(args.workload, args.seed, args.seconds, deadline)
    except WorkerError as exc:
        print(f"perfbench: {exc}", file=sys.stderr)
        return 1
    for reason in counts["reasons"]:
        print(f"perfbench: failed solve: {reason}", file=sys.stderr)
    for name, value in metrics.items():
        print(f"  {name:45s} {value:14.4f} {units[name]}")
    # printed, not in "metrics": a metric there must never read 0
    print(f"  {'fail_ratio':45s} {counts['failed'] / counts['attempted']:14.4f} ratio")
    result = {
        "correct": counts["failed"] == 0,
        "attempted": counts["attempted"],
        "failed": counts["failed"],
        "metrics": {name: {"value": metrics[name], "unit": unit} for name, unit in units.items()},
    }
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
