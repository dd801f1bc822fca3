"""Tests for the benchmark's own code: spans, generators, checks, contract."""

from __future__ import annotations

import itertools
import json
import os
import shutil
import subprocess
import sys

import pytest

import checking
import run
import tracing
import workloads
from scpsolver import cli_io, random_instance
from worker import measure, solve_text

HERE = os.path.dirname(os.path.abspath(__file__))


def ticks(*values):
    return iter(values).__next__


def test_self_time_subtracts_direct_children_only():
    # a[0,100] holds b[10,50] and c[60,70]; b holds d[20,30]
    rec = tracing.SpanRecorder(clock=ticks(0, 10, 20, 30, 50, 60, 70, 100))
    a = rec.open("a")
    b = rec.open("b")
    d = rec.open("d")
    rec.close(d)
    rec.close(b)
    c = rec.open("c")
    rec.close(c)
    rec.close(a)
    assert rec.parent.tolist() == [-1, a, b, a]
    assert rec.self_ns() == {"a": 100 - 40 - 10, "b": 40 - 10, "d": 10, "c": 10}
    assert rec.calls() == {"a": 1, "b": 1, "c": 1, "d": 1}


def test_spans_record_solve_id_and_refuse_bad_nesting():
    rec = tracing.SpanRecorder(clock=itertools.count().__next__)
    rec.solve_id = 7
    outer = rec.open("outer")
    rec.open("inner")
    with pytest.raises(RuntimeError):
        rec.close(outer)
    assert rec.solve.tolist() == [7, 7]


def test_generator_is_timed_per_next():
    def enumerate_candidates(n):
        yield from range(n)

    enumerate_candidates.__module__ = "scpsolver.enumeration"
    rec = tracing.SpanRecorder(clock=itertools.count().__next__)
    gen = tracing.wrap(rec, enumerate_candidates)(3)
    assert rec.calls() == {}  # creating the generator runs none of it
    parent = rec.open("solve")
    assert list(gen) == [0, 1, 2]
    rec.close(parent)
    name = "enumeration.enumerate_candidates"
    assert rec.calls()[name] == 4  # three yields and the final StopIteration
    assert rec.counts["enumeration.candidates"] == 3
    assert rec.self_ns()[name] == 4  # each next() spans one clock tick
    assert all(p == parent for p in rec.parent.tolist()[1:])


def test_installed_wrappers_keep_output_and_restore_modules():
    text = cli_io.format_instance(random_instance(2, 7, 2, 4, 9))
    originals = {attr: getattr(module, attr) for module, attr in tracing.TRACED}
    plain = solve_text(text)
    rec = tracing.SpanRecorder()
    with tracing.installed(rec):
        traced = solve_text(text)
    assert traced == plain
    assert all(getattr(module, attr) is originals[attr] for module, attr in tracing.TRACED)
    report = json.loads(plain)
    calls = rec.calls()
    assert rec.counts["enumeration.candidates"] == report["candidates_evaluated"]
    assert calls["circulation.circulation_cost"] == report["candidates_evaluated"]
    assert calls["circulation.min_cost_circulation"] == 1
    assert rec.counts["cli_io.emit_report.bytes"] == len(plain)


def test_spans_round_trip_through_dump(tmp_path):
    rec = tracing.SpanRecorder(clock=itertools.count().__next__)
    rec.close(rec.open("x"))
    path = str(tmp_path / "spans.bin")
    rec.dump(path)
    names, columns = tracing.load_spans(path)
    assert names == ["x"]
    assert columns["end_ns"].tolist() == [1]
    assert columns["parent"].tolist() == [-1]


@pytest.mark.parametrize("workload", workloads.WORKLOADS)
def test_same_seed_gives_identical_workload_text(workload):
    first = workloads.texts(workloads.build(workload, 5))
    assert first == workloads.texts(workloads.build(workload, 5))
    assert first != workloads.texts(workloads.build(workload, 6))


@pytest.mark.parametrize("workload", workloads.WORKLOADS)
def test_reference_data_matches_default_seed_instances(workload):
    instances = workloads.build(workload, workloads.DEFAULT_SEED)
    checking.Checker(workload, workloads.DEFAULT_SEED, instances, workloads.texts(instances))


def small_case():
    instance = random_instance(2, 7, 2, 4, 9)
    text = cli_io.format_instance(instance)
    return instance, text, solve_text(text)


def test_correct_report_passes_and_repeats_are_cached():
    instance, text, report = small_case()
    checker = checking.Checker("corpus", 99, [instance], [text])
    assert checker.check(0, report)
    assert checker.check(0, report)
    assert checker.failed == 0


@pytest.mark.parametrize("corrupt", ["cost", "step", "json"])
def test_corrupted_report_is_counted_as_failure(corrupt):
    instance, text, report = small_case()
    obj = json.loads(report)
    if corrupt == "cost":
        obj["cost"] += 1
    elif corrupt == "step":
        obj["steps"].pop()
    bad = report[:-5] if corrupt == "json" else json.dumps(obj)
    checker = checking.Checker("corpus", 99, [instance], [text])
    assert not checker.check(0, bad)
    assert checker.failed == 1


def test_crashing_solve_is_counted_and_the_loop_goes_on():
    instance, text, _ = small_case()
    checker = checking.Checker("corpus", 99, [instance, instance], [text, "scp 1\nn 0\n"])
    result = measure([text, "scp 1\nn 0\n"], checker, seconds=0)
    assert (result["attempted"], result["passes"]) == (2, 1)
    assert checker.failed == 1
    assert "InstanceFormatError" in checker.reasons[0]


def test_wrong_cost_against_reference_is_a_failure():
    instance, _, report = small_case()
    cost = json.loads(report)["cost"]
    assert checking.check_report(instance, report, cost) is None
    assert "reference optimum" in checking.check_report(instance, report, cost - 1)


def test_byte_drift_is_counted_but_not_failed():
    instances = workloads.build("sweep-grid", workloads.DEFAULT_SEED)
    texts = workloads.texts(instances)
    checker = checking.Checker("sweep-grid", workloads.DEFAULT_SEED, instances, texts)
    reformatted = json.dumps(json.loads(solve_text(texts[0])), indent=1)
    assert checker.check(0, reformatted)
    assert (checker.drift, checker.failed) == (1, 0)


def test_metric_names_match_benchmark_json():
    with open(os.path.join(os.path.dirname(HERE), "BENCHMARK.json"), encoding="utf-8") as fh:
        spec = json.load(fh)
    assert {m["name"]: m["unit"] for m in spec["end_to_end"]} == run.END_TO_END
    assert {m["name"]: m["unit"] for m in spec["per_layer"]} == run.PER_LAYER
    assert [w["name"] for w in spec["workloads"]] == list(workloads.WORKLOADS) == list(run.WORKLOADS)


def test_refuses_to_run_without_solver_sources(tmp_path):
    shutil.copytree(HERE, tmp_path / "perfbench", ignore=shutil.ignore_patterns("out", "__pycache__"))
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "corpus", "--seed", "1", "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=60,
    )
    assert proc.returncode != 0
    assert proc.stdout == ""
