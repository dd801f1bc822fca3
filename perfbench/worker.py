"""One benchmark process: set up a workload, then measure or trace it.

    python3 perfbench/worker.py ROLE WORKLOAD SEED SECONDS SPAWNED_AT

ROLE is ``setup`` (set up and stop), ``measure`` (closed loop, one client,
untraced) or ``trace`` (one traced pass).  SPAWNED_AT is the parent's
``time.monotonic()`` just before it started this process, so set-up time
counts interpreter start, the scpsolver import, workload generation and
loading references.  The process prints one JSON line of results.
"""

from __future__ import annotations

import json
import os
import resource
import statistics
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
sys.path.insert(0, os.path.join(ROOT, "src"))

from scpsolver import cli_io  # noqa: E402  (needs the path above)

import checking  # noqa: E402
import workloads  # noqa: E402

SPANS_DIR = os.path.join(HERE, "out")


def solve_text(text: str) -> str:
    """The CLI's library path, looked up at call time so traced wrappers apply."""
    return cli_io.emit_report(cli_io.solve(cli_io.parse_instance(text)), "json")


def measure(texts: list[str], checker: checking.Checker, seconds: float) -> dict:
    """Whole passes over the workload, back to back, for up to ``seconds``.

    Only text -> JSON is timed, failed solves included; the output check
    runs between solves.  A new pass starts only if it is expected to end
    within ``seconds``, and at least one runs, so every run weighs the
    workload's instances alike.
    """
    times: list[float] = []
    pass_s: list[float] = []
    loop_start = time.perf_counter()
    while True:
        for i, text in enumerate(texts):
            t0 = time.perf_counter()
            try:
                report, error = solve_text(text), None
            except Exception as exc:  # a crash is a failed solve, never the end of the run
                report, error = None, exc
            times.append(time.perf_counter() - t0)
            if error is None:
                checker.check(i, report)
            else:
                checker.fail(i, repr(error))
        pass_s.append(sum(times[-len(texts):]))
        elapsed = time.perf_counter() - loop_start
        if elapsed * (len(pass_s) + 1) / len(pass_s) > seconds:
            break
    p90 = statistics.quantiles(times, n=10)[8]
    return {
        "attempted": len(times),
        "passes": len(pass_s),
        "beyond_p90": sum(t > p90 for t in times),
        "solves_per_s": len(times) / sum(pass_s),
        "solve_ms.p50": statistics.median(times) * 1000.0,
        "solve_ms.p90": p90 * 1000.0,
        "pass_ms": statistics.median(pass_s) * 1000.0,
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
    }


def trace(workload: str, texts: list[str], checker: checking.Checker) -> dict:
    """One traced pass; per-layer self times and work counts for that pass."""
    import tracing  # only the traced process ever loads the wrappers

    rec = tracing.SpanRecorder()
    with tracing.installed(rec):
        for i, text in enumerate(texts):
            rec.solve_id = i
            sid = rec.open("bench.request")
            try:
                report = solve_text(text)
            except Exception as exc:  # counted, as in the measured loop
                checker.fail(i, repr(exc))
                continue
            finally:
                rec.close(sid)
            checker.check(i, report)
    os.makedirs(SPANS_DIR, exist_ok=True)
    rec.dump(os.path.join(SPANS_DIR, f"spans-{workload}.bin"))

    calls = rec.calls()
    metrics = {f"{name}.self_ms": ns / 1e6 for name, ns in rec.self_ns().items() if name != "bench.request"}
    metrics.update(rec.counts)
    for name in ("circulation.circulation_cost", "homology_tour.connectivity_repair"):
        metrics[f"{name}.calls"] = calls.get(name, 0)
    candidates = rec.counts["enumeration.candidates"]
    metrics["sweep.repair_ratio"] = metrics["homology_tour.connectivity_repair.calls"] / candidates if candidates else 0.0
    wall_ns = sum(rec.end[sid] - rec.start[sid] for sid, parent in enumerate(rec.parent) if parent < 0)
    metrics["trace.wall_ms"] = wall_ns / 1e6
    return {"attempted": len(texts), "metrics": metrics}


def main(argv: list[str]) -> int:
    role, workload, seed, seconds, spawned_at = argv[0], argv[1], int(argv[2]), float(argv[3]), float(argv[4])
    instances = workloads.build(workload, seed)
    texts = workloads.texts(instances)
    checker = checking.Checker(workload, seed, instances, texts)
    result = {"setup_s": time.monotonic() - spawned_at}
    if role == "measure":
        result.update(measure(texts, checker, seconds))
    elif role == "trace":
        result.update(trace(workload, texts, checker))
    elif role != "setup":
        raise SystemExit(f"unknown role {role!r}")
    result.update(failed=checker.failed, reasons=checker.reasons, report_drift=checker.drift)
    print(json.dumps(result), flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
