"""Per-layer measurements for the traced benchmark run.

The layers are the modules of ``flexionlab``. ``trace_run`` rebuilds a
workload's ``RunReport`` through the public suite registry, with one fresh
``EvalContext`` per item, and keeps a span per suite and per item plus the
engine's counters. ``microbenchmarks`` times public functions of each module
on fixed seeded inputs and reports medians.

Which end-to-end metric each layer metric should move, and on which workload:

- ``suites.<suite>_s``, ``suites.top_item_s``: ``wall_s`` wherever the suite
  runs (the top item of all-L4 is ``symmetry/al-ol-profile``).
- ``suites.items_capped``: items whose deepest point is shorter than the
  configured length; moves coverage (``points_per_s``, the report) only.
- ``engine.evals``, ``engine.memo_hits``, ``engine.memo_hit_ratio``,
  ``engine.div_by_zero``: ``wall_s`` on every workload.
- ``engine.memo_entries_max``: ``peak_rss_mb`` on all-L4 and wide-L3.
- ``engine.evals_per_s``: ``points_per_s`` on wide-L3.
- ``engine.memo_hit_us``, ``words.hash_word4_us``, ``words.flexion4_us``,
  ``words.swap_pullback4_us``, ``symmetry.check_alternal_L4_ms``: ``wall_s``
  on all-L4 and wide-L3 (memo keys hash whole words of ``Fraction``).
- ``words.sample_word4_us``, ``engine.mu_r4_us``,
  ``engine.check_identity_L4_ms``, ``cli.report_json_ms``: ``points_per_s``
  on wide-L3.
- ``flexion.gaxit_r{4,5,6}_ms``, ``flexion.invgari_r5_ms``,
  ``canonical.ess_r5_ms``, ``senary.e_sena_r5_ms``: ``wall_s`` on
  theorems-L5, little on wide-L3.
- ``negelon.scan_r12_ms``: a control that no memo or depth change moves.
- ``trace.overhead_ratio``: traced item time over the untraced ``wall_s``.
"""

from __future__ import annotations

import hashlib
import json
import random
import statistics
import time
from dataclasses import asdict, dataclass
from typing import Optional

from flexionlab.canonical import ess, get_unit
from flexionlab.engine import (
    DigestMould,
    EvalContext,
    Mu,
    SamplePlan,
    check_identity,
    derived_rng,
    mu,
    one,
)
from flexionlab.flexion import gaxit, invgari
from flexionlab.negelon import negelon_scan
from flexionlab.senary import e_sena
from flexionlab.suites import SUITES, Config, ItemResult, RunReport, SuiteReport
from flexionlab.symmetry import Profile, check_alternal, gen_bimould
from flexionlab.words import fll, flr, ful, fur, sample_word, swap_pullback

MICRO_SEED = "perfbench-micro"
MICRO_REPEATS = 5
MICRO_BATCH = 2000  # calls per timed sample for the microsecond cases
SCALE = {"us": 1e6, "ms": 1e3}


@dataclass
class Span:
    name: str
    start: float
    end: float
    parent: Optional[str]


@dataclass
class Trace:
    report: RunReport
    spans: list[Span]
    item_s: dict[str, float]  # "suite/item" -> seconds
    stats: dict[str, int]  # engine counters summed over items
    memo_entries_max: int
    items_capped: int

    @property
    def top_item(self) -> tuple[str, float]:
        return max(self.item_s.items(), key=lambda kv: kv[1])


def report_bytes(report: RunReport) -> bytes:
    """The bytes ``flexionlab verify --report json`` writes for ``report``."""
    return (json.dumps(report.to_json(), indent=2, sort_keys=True) + "\n").encode()


def trace_run(workload, seed: int) -> Trace:
    """Rebuild the workload's report with one fresh context per item."""
    cfg = Config(
        max_length=workload.max_length, samples=workload.samples, seed=seed, jobs=1
    )
    spans: list[Span] = []
    item_s: dict[str, float] = {}
    stats = {"evals": 0, "memo_hits": 0, "div_by_zero": 0}
    memo_max = capped = 0
    suite_reports = []
    for name in workload.suites or tuple(SUITES):
        suite = SUITES[name]
        suite_start = time.perf_counter()
        results = []
        for item in suite.items:
            ctx = EvalContext(retry_cap=cfg.retry_cap)
            start = time.perf_counter()
            report = item.run(cfg, ctx)
            end = time.perf_counter()
            key = f"{name}/{item.name}"
            spans.append(Span(key, start, end, name))
            item_s[key] = end - start
            for counter in stats:
                stats[counter] += ctx.stats[counter]
            memo_max = max(memo_max, len(ctx.memo))
            depth = max((p.length for p in report.points), default=-1)
            capped += depth < cfg.max_length
            results.append(ItemResult(name=item.name, expect=item.expect, report=report))
        spans.append(Span(name, suite_start, time.perf_counter(), None))
        suite_reports.append(SuiteReport(name, suite.anchor, cfg, results))
    return Trace(RunReport(cfg, suite_reports), spans, item_s, stats, memo_max, capped)


def layer_metrics(trace: Trace, untraced_wall_s: float) -> dict[str, tuple[float, str]]:
    """Per-suite times and engine counters; a suite outside the workload reads 0."""
    values = {f"suites.{name}_s": (0.0, "s") for name in SUITES}
    for span in trace.spans:
        if span.parent is None:
            values[f"suites.{span.name}_s"] = (span.end - span.start, "s")
    item_total = sum(trace.item_s.values())
    evals, hits = trace.stats["evals"], trace.stats["memo_hits"]
    values.update(
        {
            "suites.top_item_s": (trace.top_item[1], "s"),
            "suites.items_capped": (trace.items_capped, "count"),
            "engine.evals": (evals, "count"),
            "engine.memo_hits": (hits, "count"),
            "engine.memo_hit_ratio": (hits / (hits + evals), "ratio"),
            "engine.div_by_zero": (trace.stats["div_by_zero"], "count"),
            "engine.memo_entries_max": (trace.memo_entries_max, "count"),
            "engine.evals_per_s": (evals / item_total, "1/s"),
            "trace.overhead_ratio": (item_total / untraced_wall_s, "ratio"),
        }
    )
    return values


def _fresh_eval(mould, w):
    return lambda: EvalContext().eval(mould, w)


def _micro_cases(report: RunReport):
    """(name, unit, fast, fn): ``fast`` cases are timed in batches of calls."""
    rng = derived_rng(MICRO_SEED)
    w = {r: sample_word(rng, r) for r in (4, 5, 6)}
    w4 = w[4]
    a, b = w4[:2], w4[2:]
    A = DigestMould(1, tag="micro-a")
    B = DigestMould(2, tag="micro-b")
    C = DigestMould(3, tag="micro-c")
    X = one() + DigestMould(4, tag="micro-x")
    Y = one() + DigestMould(5, tag="micro-y")
    polar = get_unit("polar")
    plan = SamplePlan(max_length=4, samples_per_length=4, seed=0)
    alternal = gen_bimould(Profile(kind="alternal", seed=1))
    warm = EvalContext()
    warm.eval(A, w4)
    sample_rng = random.Random(0)
    return [
        ("engine.memo_hit_us", "us", True, lambda: warm.eval(A, w4)),
        ("words.hash_word4_us", "us", True, lambda: hash(w4)),
        # one call = the four flexions of a 2|2 split
        ("words.flexion4_us", "us", True, lambda: (ful(a, b), fur(a, b), fll(a, b), flr(a, b))),
        ("words.swap_pullback4_us", "us", True, lambda: swap_pullback(w4)),
        ("words.sample_word4_us", "us", True, lambda: sample_word(sample_rng, 4)),
        ("engine.mu_r4_us", "us", True, _fresh_eval(Mu(A, B), w4)),
        (
            "engine.check_identity_L4_ms",
            "ms",
            False,
            lambda: check_identity(
                mu(mu(A, B), C), mu(A, mu(B, C)), plan, "mu-assoc", EvalContext()
            ),
        ),
        (
            "symmetry.check_alternal_L4_ms",
            "ms",
            False,
            lambda: check_alternal(alternal, plan, ctx=EvalContext()),
        ),
        ("cli.report_json_ms", "ms", False, lambda: hashlib.sha256(report_bytes(report))),
        ("flexion.gaxit_r4_ms", "ms", False, _fresh_eval(gaxit(X, Y, A), w[4])),
        ("flexion.gaxit_r5_ms", "ms", False, _fresh_eval(gaxit(X, Y, A), w[5])),
        ("flexion.gaxit_r6_ms", "ms", False, _fresh_eval(gaxit(X, Y, A), w[6])),
        ("flexion.invgari_r5_ms", "ms", False, _fresh_eval(invgari(X), w[5])),
        ("canonical.ess_r5_ms", "ms", False, _fresh_eval(ess(polar), w[5])),
        ("senary.e_sena_r5_ms", "ms", False, _fresh_eval(e_sena(polar, A), w[5])),
        ("negelon.scan_r12_ms", "ms", False, lambda: negelon_scan(12)),
    ]


def microbenchmarks(
    report: RunReport, repeats: int = MICRO_REPEATS, batch: int = MICRO_BATCH
) -> dict[str, tuple[float, str]]:
    """Median time per call of each case, over ``repeats`` timed samples."""
    values = {}
    for name, unit, fast, fn in _micro_cases(report):
        calls = batch if fast else 1
        samples = []
        for _ in range(repeats):
            start = time.perf_counter()
            for _ in range(calls):
                fn()
            samples.append((time.perf_counter() - start) / calls)
        values[name] = (statistics.median(samples) * SCALE[unit], unit)
    return values


def write_trace(path, trace: Trace, values: dict) -> None:
    """Spans, item times and per-layer metrics of one traced run, as JSON."""
    doc = {
        "spans": [asdict(s) for s in trace.spans],
        "items_by_time": sorted(trace.item_s.items(), key=lambda kv: -kv[1]),
        "metrics": {name: {"value": v, "unit": u} for name, (v, u) in values.items()},
    }
    with open(path, "w") as fh:
        json.dump(doc, fh, indent=1)
