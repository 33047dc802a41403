"""Tests of the benchmark itself; run with ``python3 -m pytest perfbench``."""

from __future__ import annotations

import hashlib
import json
import re
import sys

import pytest

import run

sys.path.insert(0, str(run.SRC))
import layers  # noqa: E402

NAME = re.compile(r"[A-Za-z0-9_.-]+")
# a quick workload for the in-process tests: one small suite at L=2
TINY = run.Workload("tiny", ("unit-axioms",), 2, 1)


def declared(kind: str) -> dict[str, str]:
    with open(run.ROOT / "BENCHMARK.json") as fh:
        return {m["name"]: m["unit"] for m in json.load(fh)[kind]}


@pytest.fixture(scope="module")
def tiny_trace():
    return layers.trace_run(TINY, seed=0)


def test_benchmark_json_follows_the_contract():
    with open(run.ROOT / "BENCHMARK.json") as fh:
        doc = json.load(fh)
    assert set(doc) == {"command", "paths", "run_seconds", "workloads", "end_to_end", "per_layer"}
    assert {w["name"] for w in doc["workloads"]} <= set(run.WORKLOADS)
    assert all(len(w["why"]) <= 200 for w in doc["workloads"])
    e2e = {m["name"]: m for m in doc["end_to_end"]}
    assert e2e["setup_s"]["unit"] == "s" and e2e["setup_s"]["better"] == "lower"
    assert all(0 < m["bound"] <= 0.25 for m in e2e.values())
    assert e2e["setup_s"]["bound"] == max(m["bound"] for m in e2e.values())
    names = [m["name"] for kind in ("end_to_end", "per_layer") for m in doc[kind]]
    assert len(names) == len(set(names))


def test_end_to_end_metrics_are_declared():
    assert run.E2E_UNITS == declared("end_to_end")
    assert all(NAME.fullmatch(name) for name in run.E2E_UNITS)


def test_every_microbenchmark_runs_at_a_tiny_repeat_count(tiny_trace):
    values = layers.microbenchmarks(tiny_trace.report, repeats=1, batch=1)
    assert values and all(v > 0 for v, _ in values.values())


def test_per_layer_metrics_are_declared(tiny_trace):
    values = layers.layer_metrics(tiny_trace, untraced_wall_s=1.0)
    values.update(layers.microbenchmarks(tiny_trace.report, repeats=1, batch=1))
    assert {name: unit for name, (_, unit) in values.items()} == declared("per_layer")
    assert all(NAME.fullmatch(name) for name in values)


def test_rebuilt_report_has_one_item_span_per_item(tiny_trace):
    items = sum(len(s.results) for s in tiny_trace.report.suites)
    assert len(tiny_trace.item_s) == items
    assert [s.name for s in tiny_trace.spans if s.parent is None] == list(TINY.suites)


def _gate_inputs(tiny_trace):
    payload = layers.report_bytes(tiny_trace.report)
    report = json.loads(payload)
    identities = [i for s in report["suites"] for i in s["identities"]]
    expected = {
        "items": len(identities),
        "points": sum(len(i["report"]["points"]) for i in identities),
        "sha256": {"0": hashlib.sha256(payload).hexdigest()},
    }
    return payload, expected


def test_recorded_report_passes_the_gate(tiny_trace):
    payload, expected = _gate_inputs(tiny_trace)
    verdict = run.judge(0, payload, expected, 0)
    assert verdict.problems == [] and verdict.failed == 0
    assert verdict.attempted == expected["items"]


@pytest.mark.parametrize("where", ["value", "syntax"])
def test_report_with_one_byte_changed_fails(tiny_trace, where):
    payload, expected = _gate_inputs(tiny_trace)
    if where == "value":  # still valid JSON with the same counts
        at = payload.index(b'"lhs": "') + len(b'"lhs": "')
        changed = payload[:at] + (b"7" if payload[at:at + 1] != b"7" else b"8") + payload[at + 1:]
    else:
        at = payload.index(b"{")
        changed = payload[:at] + b"[" + payload[at + 1:]
    verdict = run.judge(0, changed, expected, 0)
    assert verdict.problems and verdict.failed == expected["items"]


def test_nonzero_exit_fails_every_item(tiny_trace):
    payload, expected = _gate_inputs(tiny_trace)
    verdict = run.judge(1, payload, expected, 0)
    assert verdict.failed == expected["items"]


def test_peak_rss_is_read_per_child():
    env = run.child_env()
    big = run.run_process([sys.executable, "-c", "b = bytearray(150 << 20)"], env)
    small = run.run_process([sys.executable, "-c", "pass"], env)
    assert big.returncode == small.returncode == 0
    assert big.peak_rss_mb > 150 > small.peak_rss_mb


def test_benchmark_seeds_wrap_around_the_recorded_table():
    expected = run.load_expected()
    for name in run.WORKLOADS:
        table = expected[name]["sha256"]
        assert sorted(table, key=int) == [str(i) for i in range(len(table))]
        assert run.program_seed(expected[name], len(table) + 3) == 3
