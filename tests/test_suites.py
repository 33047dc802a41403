"""Tests for the verification-suite registry, runner, and report plumbing."""

from __future__ import annotations

import gc
import json
import os
import weakref
from collections import Counter

import pytest

from fractions import Fraction

from oracles import fk_expansion_sides, sampled_points, shuffle_rec
from flexionlab import engine, flexion, suites
from flexionlab.canonical import recip
from flexionlab.engine import (
    FREE,
    LIE,
    DigestMould,
    EvalContext,
    FuncMould,
    Mu,
    Report,
    SamplePlan,
    check_identity,
    leng_r,
    one,
    push,
    zero,
)
from flexionlab.flexion import ari, arit
from flexionlab.suites import (
    ALL_SUITE,
    Config,
    SUITES,
    list_suites,
    run_item,
    run_suites,
)
from flexionlab.symmetry import check_alternal, check_push_order, check_symmetral
from flexionlab.words import DivByZero

SMALL = Config(max_length=3, samples=2)


# ---------------------------------------------------------------------------
# Registry shape
# ---------------------------------------------------------------------------


def test_registry_names_and_order():
    assert list(SUITES) == [
        "unit-axioms",
        "algebra-core",
        "swamu",
        "symmetry",
        "mould-constants",
        "dilator",
        "fundamental",
        "senary",
        "push-sena",
        "lemmas-6",
        "negelon",
    ]


def test_registry_size():
    assert sum(len(s.items) for s in SUITES.values()) == 169
    controls = [
        (name, it.name)
        for name, s in SUITES.items()
        for it in s.items
        if it.expect == "fail"
    ]
    assert len(controls) == 18
    assert all("control" in item_name for _, item_name in controls)


def test_registry_anchors():
    anchors = {name: s.anchor for name, s in SUITES.items()}
    assert anchors["senary"] == "Theorem 1.1"
    assert anchors["push-sena"] == "Theorem 1.2"
    assert anchors["fundamental"] == "Theorem 357 (Section 5)"
    assert anchors["dilator"] == "Appendix A"
    assert anchors["negelon"] == "Appendix A (Lemma negelon)"
    assert anchors["mould-constants"] == "Section 2 & Appendix A (Thm. sro_dimorphy)"


def test_senary_suite_has_many_identities():
    assert len(SUITES["senary"].items) >= 20


def test_item_names_unique_within_suite():
    for s in SUITES.values():
        names = [it.name for it in s.items]
        assert len(set(names)) == len(names), s.name


# items whose report identity is not their name without " (control)"
OWN_IDENTITIES = {
    ("mould-constants", "ganit-os-of-O (bipolar control)"): "ganit-os-of-O (bipolar unit)",
    ("negelon", "full-scan-r12"): "negelon-scan(r_max=12,h_min=1)",
    ("negelon", "minimal-scan-r2"): "negelon-scan(r_max=2,h_min=1)",
    ("negelon", "binomial-auxiliaries"): "binomial-aux(n_max=12)",
    ("negelon", "h0-scan (control)"): "negelon-scan(r_max=6,h_min=0)",
}


def test_every_item_reports_under_its_own_name():
    cfg = Config(max_length=1, samples=1, jobs=1)
    for suite_name, suite in SUITES.items():
        for index, item in enumerate(suite.items):
            want = OWN_IDENTITIES.get(
                (suite_name, item.name), item.name.removesuffix(" (control)")
            )
            assert run_item(suite_name, index, cfg).report.identity == want


ROW_CFG = Config(max_length=2, samples=1, jobs=1)


def _run_named(suite_name: str, item_name: str):
    index = [it.name for it in SUITES[suite_name].items].index(item_name)
    return run_item(suite_name, index, ROW_CFG)


def test_checker_row_keeps_its_report_note():
    result = _run_named("mould-constants", "To-is-O-alternal")
    assert result.ok
    assert result.report.identity == "To-is-O-alternal"
    assert result.report.note == "ganit- and gamit-route points merged"
    assert {p.identity for p in result.report.points} == {
        "To-is-O-alternal",
        "To-is-O-alternal#gamit",
    }


def test_named_checker_rows_are_merged_under_the_item():
    result = _run_named("symmetry", "bialternal-profile")
    assert result.ok
    assert result.report.identity == "bialternal-profile"
    assert result.report.note == ""
    identities = [p.identity for p in result.report.points]
    assert set(identities) == {"bialternal-direct", "bialternal-swapped"}
    # checked in dict order, so the direct points come first
    assert identities == sorted(identities)


def test_list_suites_rows():
    rows = list_suites()
    assert [row["suite"] for row in rows] == list(SUITES) + [ALL_SUITE]
    assert rows[-1]["identities"] == 169
    by_name = {row["suite"]: row for row in rows}
    assert by_name["senary"]["anchor"] == "Theorem 1.1"
    assert all({"suite", "anchor", "description", "identities"} <= set(r) for r in rows)


# ---------------------------------------------------------------------------
# Config
# ---------------------------------------------------------------------------


def test_config_defaults():
    cfg = Config()
    assert (cfg.unit, cfg.max_length, cfg.samples) == ("polar", 4, 4)
    assert (cfg.seed, cfg.jobs, cfg.retry_cap) == (0, 0, 8)


def test_config_plan_caps_length():
    cfg = Config(max_length=4, samples=3, seed=7)
    p = cfg.plan()
    assert (p.max_length, p.samples_per_length, p.seed) == (4, 3, 7)
    assert cfg.plan(cap=2).max_length == 2
    assert cfg.plan(cap=9).max_length == 4


def test_config_resolved_jobs():
    assert Config(jobs=3).resolved_jobs() == 3
    assert Config(jobs=0).resolved_jobs() >= 1


def test_jobs_0_counts_the_cpus_this_process_may_use(monkeypatch):
    # a process pinned to one CPU of a 64-CPU machine gets one worker
    monkeypatch.setattr(os, "sched_getaffinity", lambda pid: {0}, raising=False)
    monkeypatch.setattr(os, "cpu_count", lambda: 64)
    assert Config(jobs=0).resolved_jobs() == 1


def test_config_json_echo():
    cfg = Config(unit="polar-conjugate", max_length=2, samples=1, seed=9, jobs=2)
    assert cfg.to_json() == {
        "unit": "polar-conjugate",
        "max_length": 2,
        "samples": 1,
        "seed": 9,
        "jobs": 2,
        "retry_cap": 8,
    }


# ---------------------------------------------------------------------------
# Running suites
# ---------------------------------------------------------------------------


def test_run_single_suite_passes():
    rr = run_suites(["unit-axioms"], SMALL)
    assert rr.status == "pass"
    assert [sr.suite for sr in rr.suites] == ["unit-axioms"]
    sr = rr.suites[0]
    assert sr.totals()["identities"] == 6
    assert sr.totals()["not_ok"] == 0
    assert all(res.ok for res in sr.results)


def test_negative_control_counts_as_ok():
    rr = run_suites(["negelon"], SMALL)
    sr = rr.suites[0]
    controls = [res for res in sr.results if res.expect == "fail"]
    assert controls, "suite should carry a negative control"
    for res in controls:
        assert res.observed == "fail"
        assert res.ok
    assert sr.status == "pass"


def test_all_expands_to_registry_order():
    rr = run_suites(["all"], SMALL)
    assert [sr.suite for sr in rr.suites] == list(SUITES)
    assert rr.status == "pass"


def test_runs_are_deterministic():
    a = run_suites(["swamu"], SMALL).to_json()
    b = run_suites(["swamu"], SMALL).to_json()
    assert json.dumps(a, sort_keys=True) == json.dumps(b, sort_keys=True)


def test_parallel_run_matches_sequential():
    # the swamu suite's product nodes make each worker compile its own plans
    names = ["unit-axioms", "negelon", "swamu"]
    seq = run_suites(names, SMALL).to_json()
    par_cfg = Config(max_length=3, samples=2, jobs=2)
    par = run_suites(names, par_cfg).to_json()
    # the jobs knob is echoed in the config but must not affect any result
    seq["config"].pop("jobs")
    par["config"].pop("jobs")
    for sr in seq["suites"] + par["suites"]:
        sr["config"].pop("jobs")
    assert json.dumps(seq, sort_keys=True) == json.dumps(par, sort_keys=True)


def test_unknown_suite_rejected():
    with pytest.raises(KeyError):
        run_suites(["nonexistent"], SMALL)


def test_report_json_shape():
    rr = run_suites(["negelon"], SMALL)
    data = rr.to_json()
    assert set(data) == {"config", "status", "suites"}
    suite = data["suites"][0]
    assert {"suite", "anchor", "status", "config", "identities"} <= set(suite)
    item = suite["identities"][0]
    assert {"name", "expect", "observed", "ok", "report"} <= set(item)
    # exact values serialize as fraction strings
    text = json.dumps(data)
    assert "Fraction" not in text


def test_item_contexts_die_with_their_items(monkeypatch):
    made = []

    class TrackedContext(EvalContext):
        def __init__(self, *args, **kwargs):
            super().__init__(*args, **kwargs)
            made.append(weakref.ref(self))

    monkeypatch.setattr(suites, "EvalContext", TrackedContext)
    first = run_item("algebra-core", 0, SMALL)
    second = run_item("algebra-core", 1, SMALL)
    assert first.ok and second.ok
    gc.collect()
    assert len(made) == 2
    assert all(ref() is None for ref in made)


def test_item_time_is_kept_out_of_json_and_equality():
    result = run_item("unit-axioms", 0, SMALL)
    assert result.seconds > 0
    twin = suites.ItemResult(result.name, result.expect, result.report, seconds=0.0)
    assert twin == result
    assert twin.to_json() == result.to_json()
    assert "seconds" not in result.to_json()


def _singular(*w):
    raise DivByZero("forced singular value")


# every randomized checker, run on a mould that is singular at every word
SKIP_CHECKERS = {
    "check_identity": lambda M, cfg, ctx: check_identity(M, zero(), cfg.plan(), "s", ctx),
    "check_alternal": lambda M, cfg, ctx: check_alternal(M, cfg.plan(), "s", ctx),
    "check_symmetral": lambda M, cfg, ctx: check_symmetral(M, cfg.plan(), "s", ctx),
    "check_push_order": lambda M, cfg, ctx: check_push_order(M, cfg.plan(), "s", ctx),
    "_fk_expansion_check": lambda M, cfg, ctx: suites._fk_expansion_check(
        M, suites._profile(cfg, "alternal", 702), cfg.plan(), "s", ctx
    ),
}
TWO_PART = {"check_alternal", "check_symmetral", "_fk_expansion_check"}


@pytest.mark.parametrize(
    "checker, samples",
    # one sample per shape keeps the plain checker name as its id
    [pytest.param(c, 1, id=c) for c in sorted(SKIP_CHECKERS)]
    + [pytest.param(c, 3, id=f"{c}-samples3") for c in sorted(SKIP_CHECKERS)],
)
def test_skipped_points_keep_word_split_and_detail(checker, samples):
    # with three samples, the points of a shape are the lanes of one walk,
    # every lane is poisoned, and each is resampled until it is skipped
    # free, so that it is called, and skipped, at the empty word too
    singular = FuncMould("singular", _singular, FREE)
    cfg = Config(max_length=3, samples=samples, retry_cap=2)
    report = SKIP_CHECKERS[checker](singular, cfg, EvalContext(retry_cap=cfg.retry_cap))
    assert report.points and report.status == "fail"
    for point in report.points:
        assert point.status == "skipped"
        assert point.lhs is None and point.rhs is None
        assert len(point.word) == point.length
        if checker in TWO_PART:
            assert 1 <= point.split < point.length
        else:
            assert point.split is None
        assert "forced singular value" in point.detail


def _sometimes_singular(*w):
    # singular wherever a letter's u has a numerator divisible by 4: about a
    # quarter of the sampled letters, and of the letters derived from them
    total = Fraction(0)
    for i, x in enumerate(w):
        total += (i + 1) * x.v * recip(Fraction(x.u.numerator % 4))
    return total


def _lane_table():
    """Per checker: its report at (plan, ctx), its shapes and the sides of
    a point through the public ``ctx.eval``, for the oracle sampler."""
    S = FuncMould("sometimes-singular", _sometimes_singular, LIE)
    D, D1, D2 = DigestMould(41, tag="lanes"), DigestMould(42, tag="lanes"), DigestMould(43, tag="lanes")
    L, R = Mu(S, D) + Mu(D, S), Mu(D, S) + Mu(S, D)
    # Mu(D, S) reads S at the full word only in its cut with an empty left
    # block, whose other factor D(empty) is the shared zeros, and Mu(D, S, 1)
    # drops that cut: at length 1 that zero-weighted read is the only one
    # that can divide by zero, and its lane must be resampled all the same
    hidden, proper = Mu(D, S), Mu(D, S, proper=1)
    alt = ari(S, D)
    sym = one() + S + Mu(S, D)
    pushed = S + D
    B = leng_r(D1, 1) + ari(leng_r(D1, 1), leng_r(D2, 1))
    F = arit(B, S)

    def power(r):
        out = pushed
        for _ in range(r + 1):
            out = push(out)
        return out

    def lengths(L):
        return [((r,), (r,)) for r in range(L + 1)]

    def halves(L):
        return [((p, t - p), (p, t - p)) for t in range(2, L + 1) for p in range(1, t // 2 + 1)]

    def fk_shapes(L):
        return [((t, la), (la, t - la)) for t in range(2, L + 1) for la in range(1, t)]

    return {
        "check_identity": (
            lambda plan, ctx: check_identity(L, R, plan, "lanes", ctx),
            lengths,
            lambda ev: lambda w: (ev(L, w), ev(R, w)),
        ),
        "check_identity_behind_a_zero_factor": (
            lambda plan, ctx: check_identity(hidden, proper, plan, "lanes", ctx),
            lengths,
            lambda ev: lambda w: (ev(hidden, w), ev(proper, w)),
        ),
        "check_alternal": (
            lambda plan, ctx: check_alternal(alt, plan, "lanes", ctx),
            halves,
            lambda ev: lambda a, b: (sum((ev(alt, s) for s in shuffle_rec(a, b)), Fraction(0)), Fraction(0)),
        ),
        "check_symmetral": (
            lambda plan, ctx: check_symmetral(sym, plan, "lanes", ctx),
            halves,
            lambda ev: lambda a, b: (
                sum((ev(sym, s) for s in shuffle_rec(a, b)), Fraction(0)),
                ev(sym, a) * ev(sym, b),
            ),
        ),
        "check_push_order": (
            lambda plan, ctx: check_push_order(pushed, plan, "lanes", ctx),
            lengths,
            lambda ev: lambda w: (ev(power(len(w)), w), ev(pushed, w)),
        ),
        "_fk_expansion_check": (
            lambda plan, ctx: suites._fk_expansion_check(S, B, plan, "lanes", ctx),
            fk_shapes,
            lambda ev: lambda a, b: fk_expansion_sides(ev, S, B, F, a, b),
        ),
    }


@pytest.mark.parametrize("checker", sorted(_lane_table()))
def test_lane_walks_report_what_one_sample_at_a_time_reports(checker):
    # three samples per shape are three lanes of one walk; a lane that
    # divides by zero is resampled in the next walk with the other pending
    # lanes, so each point must read as the oracle's, which evaluates one
    # sample and one attempt at a time
    run, shapes, sides = _lane_table()[checker]
    plan = SamplePlan(max_length=3, samples_per_length=3, seed=11)
    report = run(plan, EvalContext(retry_cap=2))
    oracle_ctx = EvalContext(retry_cap=2)
    expected = sampled_points(oracle_ctx, plan, "lanes", shapes(3), sides(oracle_ctx.eval))
    got = [(p.word, p.split, p.lhs, p.rhs, p.detail) for p in report.points]
    assert got == [(o["word"], o["split"], o["lhs"], o["rhs"], o["detail"]) for o in expected]
    # some lanes of the walks were poisoned and resampled, and others were not
    attempts = [o["attempts"] for o in expected if o["word"]]
    assert 1 in attempts and max(attempts) > 1


def test_engine_counters_over_every_item_pin_the_graph_shapes():
    # Summed over every item, each with a fresh context.  A change in the
    # shape of any graph (a node more or less, a child evaluated at another
    # word) moves these counts even when every value stays the same.  At one
    # sample every walk is one lane and starts from an empty memo, a singular
    # walk runs to its end, and div_by_zero counts the singular samples.
    # A product node reads each distinct factor of a call once, so a factor
    # that several terms share is one memo lookup per call, not one per term.
    cfg = Config(max_length=3, samples=1, jobs=1)
    total = Counter()
    for suite in SUITES.values():
        for item in suite.items:
            ctx = EvalContext(retry_cap=cfg.retry_cap)
            item.run(cfg, ctx)
            total.update(ctx.stats)
    assert total == {"evals": 152468, "memo_hits": 126729, "div_by_zero": 2}


def test_a_run_compiles_no_plan_function(monkeypatch):
    # every plan is a module constant, built at import, so a run that builds
    # and evaluates every graph makes no plan function; a builder that made
    # its plan per node would reach compile_plan here
    def refuse(terms):
        raise AssertionError("a plan function compiled after import")

    monkeypatch.setattr(engine, "compile_plan", refuse)
    monkeypatch.setattr(flexion, "compile_plan", refuse)
    report = run_suites("all", Config(max_length=3, samples=1, jobs=1))
    assert report.status == "pass"


def test_items_that_check_nothing_are_not_ok():
    # shuffle checks need words of length 2, so at L=1 these have no point
    report = run_suites("all", Config(max_length=1, samples=1, jobs=1))
    results = {r.name: r for s in report.suites for r in s.results}
    for name in (
        "generic-alternal (control)",
        "alternal-symmetral (control)",
        "generic-flow-symmetral (control)",
        "o-alternality-routes-agree",
    ):
        assert results[name].report.points == []
        assert results[name].observed == "unchecked"
        assert not results[name].ok
    for result in results.values():
        assert (result.observed == "unchecked") == (not result.report.points)


def test_run_report_reads_each_item_status_at_most_twice(monkeypatch):
    reads = Counter()
    status = Report.status.fget

    def counted(report):
        reads[report.identity] += 1
        return status(report)

    monkeypatch.setattr(Report, "status", property(counted))
    report = run_suites(["algebra-core", "swamu"], Config(max_length=2, samples=1, jobs=1))
    report.to_json()
    assert reads and max(reads.values()) <= 2
