"""Named verification suites: the registry behind ``flexionlab verify``.

Each suite bundles exact-rational identity checks (plus negative controls
that must *fail*) for one slice of the flexion-algebra surface.  Every item
is a pure function of the run configuration, so reports are deterministic
and safe to compute in parallel worker processes.

Conventions used by the item runners:

* ``[polar]`` in an item name means the item pins the polar unit regardless
  of the configured one, because the identity holds only when the conjugate
  letter function depends on ``v`` alone.
* ``expect="fail"`` marks a negative control: the suite passes only if the
  check fails (a generic mould really does violate the property).
"""

from __future__ import annotations

import os
import time
from concurrent.futures import ProcessPoolExecutor
from dataclasses import dataclass, field
from fractions import Fraction
from typing import Callable, Optional

from .canonical import (
    FlexionUnit,
    To_series,
    check_tripartite,
    dilator_D,
    eess,
    es_closed,
    ess,
    ganit_oz_inv,
    ganit_oz_inv_closed,
    get_unit,
    mould_E,
    mould_O,
    mould_es,
    mould_ez,
    mould_os,
    mould_oz,
    oess,
    oss,
    oz_closed,
    recip,
    ro_component,
    solve_dilator_ode,
)
from .engine import (
    DigestMould,
    EvalContext,
    Mould,
    PointRecord,
    Report,
    SamplePlan,
    SMul,
    anti,
    check_identity,
    der,
    derived_rng,
    invmu,
    leng_r,
    mantar,
    mu,
    neg,
    one,
    pari,
    push,
    push_inv,
    swap,
    zero,
)
from .flexion import (
    adari,
    adari_inv,
    adari_series,
    amit,
    anit,
    answamu,
    ari,
    arit,
    axit,
    dilator_of,
    expari,
    fragari,
    gamit,
    gamit_inv,
    ganit,
    ganit_inv,
    gari,
    garit,
    gaxit,
    gaxit_inv,
    girat,
    invgari,
    irat,
    logari,
    preari,
    preira,
    swamu,
)
from .negelon import aux_identities, mu_factor_check, negelon_f, negelon_scan
from .senary import (
    e_neg,
    e_neg_inv,
    e_negpush,
    e_negpush_inv,
    e_push,
    e_push_inv,
    e_push_inv_explicit,
    e_sena,
    e_sena_explicit,
    e_swap,
    e_swap_inv,
    e_swap_inv_2,
    e_swap_inv_3,
    e_ter,
    e_ter_explicit,
    e_ter_inv,
    e_ter_inv_triple,
    o_mantar,
    o_mantar_gaxit,
    o_rush,
    rush_r2,
    rush_r3,
    rush_r4,
    rush_r4_alt,
    senary_defect,
)
from .symmetry import (
    Profile,
    check_alternal,
    check_invariant,
    check_o_alternal,
    check_push_order,
    check_symmetral,
    gen_bimould,
    o_alternal_routes_agree,
    pushsym,
)
from .words import DivByZero, EMPTY, bl, flr, fll, ful, fur, sample_word, shuffles, word

__all__ = [
    "Config",
    "Item",
    "ItemResult",
    "Suite",
    "SuiteReport",
    "RunReport",
    "SUITES",
    "suite_names",
    "list_suites",
    "run_suite",
    "run_suites",
]


# ---------------------------------------------------------------------------
# Configuration
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class Config:
    """Run configuration; reports are deterministic functions of this."""

    unit: str = "polar"
    max_length: int = 4
    samples: int = 4
    seed: int = 0
    jobs: int = 0  # 0 -> one worker per available CPU
    retry_cap: int = 8

    def plan(self, cap: Optional[int] = None) -> SamplePlan:
        length = self.max_length if cap is None else min(self.max_length, cap)
        return SamplePlan(
            max_length=length, samples_per_length=self.samples, seed=self.seed
        )

    def resolved_jobs(self) -> int:
        return self.jobs if self.jobs > 0 else (os.cpu_count() or 1)

    def to_json(self) -> dict:
        return {
            "unit": self.unit,
            "max_length": self.max_length,
            "samples": self.samples,
            "seed": self.seed,
            "jobs": self.jobs,
            "retry_cap": self.retry_cap,
        }


# Seed salts are spaced out so distinct generators never collide even when
# cfg.seed varies over a contiguous range.
def _salted(cfg: Config, salt: int) -> int:
    return cfg.seed * 9973 + salt


def _digest(cfg: Config, salt: int, tag: str = "gen") -> Mould:
    return DigestMould(_salted(cfg, salt), tag=tag)


def _group(cfg: Config, salt: int, tag: str = "grp") -> Mould:
    return one() + DigestMould(_salted(cfg, salt), tag=tag)


def _profile(
    cfg: Config, kind: str, salt: int, unit: Optional[FlexionUnit] = None
) -> Mould:
    return gen_bimould(Profile(kind=kind, seed=_salted(cfg, salt)), unit=unit)


def _unit(cfg: Config) -> FlexionUnit:
    return get_unit(cfg.unit)


def _polar() -> FlexionUnit:
    return get_unit("polar")


def _bipolar() -> FlexionUnit:
    # Self-conjugate unit mixing both letter slots; kept out of the named
    # registry because it breaks the v-only closed forms (by design: it is
    # the counterexample unit for those).
    fn = lambda w: recip(w.u) + recip(w.v)  # noqa: E731
    return FlexionUnit("bipolar", fn, fn)


def _inv_square() -> FlexionUnit:
    fn = lambda w: recip(w.u * w.u)  # noqa: E731
    return FlexionUnit("inv-square", fn, fn)


# ---------------------------------------------------------------------------
# Report helpers
# ---------------------------------------------------------------------------


def _bool_report(name: str, ok: bool, note: str = "") -> Report:
    point = PointRecord(
        identity=name,
        length=0,
        word=EMPTY,
        lhs=Fraction(1),
        rhs=Fraction(1) if ok else Fraction(0),
        status="pass" if ok else "fail",
    )
    return Report(identity=name, points=[point], note=note)


def _value_report(name: str, rows, note: str = "") -> Report:
    """Exact spot checks; rows are (word, lhs_value, rhs_value) triples."""
    points = [
        PointRecord(
            identity=name,
            length=len(w),
            word=w,
            lhs=lhs,
            rhs=rhs,
            status="pass" if lhs == rhs else "fail",
        )
        for (w, lhs, rhs) in rows
    ]
    return Report(identity=name, points=points, note=note)


def _merged(name: str, reports, note: str = "") -> Report:
    points = []
    for rep in reports:
        points.extend(rep.points)
    return Report(identity=name, points=points, note=note)


def _fk_half(ctx: EvalContext, A: Mould, B: Mould, a, b) -> Fraction:
    total = Fraction(0)
    n = len(a)
    for i in range(n + 1):
        for j in range(i, n + 1):
            p, q, r = a[:i], a[i:j], a[j:]
            if q and r:
                shuffled = shuffles(p + ful(q, r), b)
                total += sum(ctx.eval(A, s) for s in shuffled) * ctx.eval(B, flr(q, r))
            if p and q:
                shuffled = shuffles(fur(p, q) + r, b)
                total -= sum(ctx.eval(A, s) for s in shuffled) * ctx.eval(B, fll(p, q))
    return total


def _fk_expansion_report(
    cfg: Config, ctx: EvalContext, name: str = "arit-shuffle-expansion"
) -> Report:
    """arit(B)(A) summed over shuffles of (a, b) equals the four-part
    flexion expansion, for alternal B and nonempty a, b."""
    A = _digest(cfg, 701, tag="fk-subject")
    B = _profile(cfg, "alternal", 702)
    F = arit(B, A)
    plan = cfg.plan()
    points = []
    for total_len in range(2, plan.max_length + 1):
        for la in range(1, total_len):
            lb = total_len - la
            for i in range(plan.samples_per_length):
                rec = None
                last_exc = None
                for attempt in range(ctx.retry_cap + 1):
                    rng = derived_rng(plan.seed, name, total_len, la, i, attempt)
                    a = sample_word(rng, la, plan.bounds)
                    b = sample_word(rng, lb, plan.bounds)
                    try:
                        lhs = sum(ctx.eval(F, s) for s in shuffles(a, b))
                        rhs = _fk_half(ctx, A, B, a, b) + _fk_half(ctx, A, B, b, a)
                    except DivByZero as exc:
                        last_exc = exc
                        continue
                    rec = PointRecord(
                        identity=name,
                        length=total_len,
                        word=a + b,
                        lhs=lhs,
                        rhs=rhs,
                        status="pass" if lhs == rhs else "fail",
                        split=la,
                    )
                    break
                if rec is None:
                    rec = PointRecord(
                        identity=name,
                        length=total_len,
                        word=a + b,
                        lhs=None,
                        rhs=None,
                        status="skipped",
                        split=la,
                        detail=None if last_exc is None else str(last_exc),
                    )
                points.append(rec)
    return Report(identity=name, points=points)


# ---------------------------------------------------------------------------
# Suite registry types
# ---------------------------------------------------------------------------

Runner = Callable[[Config, EvalContext], Report]


@dataclass(frozen=True)
class Item:
    name: str
    run: Runner
    expect: str = "pass"  # "fail" marks a negative control


@dataclass(frozen=True)
class Suite:
    name: str
    anchor: str
    description: str
    items: tuple[Item, ...]


@dataclass
class ItemResult:
    name: str
    expect: str
    report: Report
    # wall time of the item; console telemetry, kept out of JSON and equality
    seconds: float = field(default=0.0, compare=False)

    @property
    def observed(self) -> str:
        return self.report.status

    @property
    def ok(self) -> bool:
        return self.observed == self.expect

    def to_json(self) -> dict:
        return {
            "name": self.name,
            "expect": self.expect,
            "observed": self.observed,
            "ok": self.ok,
            "report": self.report.to_json(),
        }


@dataclass
class SuiteReport:
    suite: str
    anchor: str
    config: Config
    results: list[ItemResult]

    @property
    def status(self) -> str:
        return "pass" if all(r.ok for r in self.results) else "fail"

    def totals(self) -> dict:
        return {
            "identities": len(self.results),
            "ok": sum(1 for r in self.results if r.ok),
            "not_ok": sum(1 for r in self.results if not r.ok),
            "points": sum(len(r.report.points) for r in self.results),
        }

    def to_json(self) -> dict:
        return {
            "suite": self.suite,
            "anchor": self.anchor,
            "status": self.status,
            "totals": self.totals(),
            "config": self.config.to_json(),
            "identities": [r.to_json() for r in self.results],
        }


@dataclass
class RunReport:
    config: Config
    suites: list[SuiteReport]

    @property
    def status(self) -> str:
        return "pass" if all(s.status == "pass" for s in self.suites) else "fail"

    def to_json(self) -> dict:
        return {
            "status": self.status,
            "config": self.config.to_json(),
            "suites": [s.to_json() for s in self.suites],
        }


# ---------------------------------------------------------------------------
# Suite definitions
# ---------------------------------------------------------------------------


def _suite_unit_axioms() -> Suite:
    def tripartite_polar(cfg, ctx):
        return _bool_report("tripartite-polar", check_tripartite(_polar(), seed=cfg.seed))

    def tripartite_conj(cfg, ctx):
        return _bool_report(
            "tripartite-polar-conjugate",
            check_tripartite(get_unit("polar-conjugate"), seed=cfg.seed),
        )

    def tripartite_bipolar(cfg, ctx):
        return _bool_report(
            "tripartite-bipolar",
            check_tripartite(_bipolar(), seed=cfg.seed),
            note="self-conjugate unit mixing u and v; valid unit, excluded from v-only closed forms",
        )

    def tripartite_spots(cfg, ctx):
        w_polar = word([(2, 7), (3, 11)])
        w_conj = word([(5, 1), (7, 3)])
        rows = [
            (w_polar, Fraction(1, 6), Fraction(1, 15) + Fraction(1, 10)),
            (w_conj, Fraction(1, 3), Fraction(1, 2) - Fraction(1, 6)),
        ]
        P, C = _polar(), get_unit("polar-conjugate")

        def lhs_rhs(U, w):
            w1, w2 = w
            lhs = U.E(w1) * U.E(w2)
            rhs = U.E(bl(w1.u + w2.u, w1.v)) * U.E(bl(w2.u, w2.v - w1.v)) + U.E(
                bl(w1.u + w2.u, w2.v)
            ) * U.E(bl(w1.u, w1.v - w2.v))
            return lhs, rhs

        checked = []
        for (w, want_lhs, want_rhs), U in zip(rows, (P, C)):
            lhs, rhs = lhs_rhs(U, w)
            checked.append((w, lhs, rhs))
            # pin the arithmetic itself, not just lhs == rhs
            checked.append((w, lhs, want_lhs))
            checked.append((w, rhs, want_rhs))
        return _value_report("tripartite-spot-values", checked)

    def conjugate_swaps_letters(cfg, ctx):
        U = _unit(cfg)
        C = U.conjugate()
        plan = cfg.plan(cap=1)
        return _merged(
            "conjugate-swaps-letters",
            [
                check_identity(mould_E(C), mould_O(U), plan, "conjugate-E", ctx),
                check_identity(mould_O(C), mould_E(U), plan, "conjugate-O", ctx),
                _bool_report("conjugate-involution", C.conjugate() is U),
            ],
        )

    def tripartite_inv_square(cfg, ctx):
        return _bool_report(
            "tripartite-inv-square", check_tripartite(_inv_square(), seed=cfg.seed)
        )

    return Suite(
        name="unit-axioms",
        anchor="Section 2",
        description="Flexion-unit axioms: tripartite relation, conjugation, exact spot values.",
        items=(
            Item("tripartite-polar", tripartite_polar),
            Item("tripartite-polar-conjugate", tripartite_conj),
            Item("tripartite-bipolar", tripartite_bipolar),
            Item("tripartite-spot-values", tripartite_spots),
            Item("conjugate-swaps-letters", conjugate_swaps_letters),
            Item("tripartite-inv-square (control)", tripartite_inv_square, expect="fail"),
        ),
    )


def _suite_algebra_core() -> Suite:
    def mu_associative(cfg, ctx):
        A, B, C = _digest(cfg, 11, "a"), _digest(cfg, 12, "b"), _group(cfg, 13, "c")
        return check_identity(
            mu(A, mu(B, C)), mu(mu(A, B), C), cfg.plan(), "mu-associative", ctx
        )

    def mu_unit(cfg, ctx):
        A = _digest(cfg, 14, "a")
        plan = cfg.plan()
        return _merged(
            "mu-unit",
            [
                check_identity(mu(one(), A), A, plan, "mu-unit-left", ctx),
                check_identity(mu(A, one()), A, plan, "mu-unit-right", ctx),
            ],
        )

    def anti_mu_reversal(cfg, ctx):
        A, B = _digest(cfg, 15, "a"), _group(cfg, 16, "b")
        return check_identity(
            anti(mu(A, B)), mu(anti(B), anti(A)), cfg.plan(), "anti-mu-reversal", ctx
        )

    def invmu_roundtrip(cfg, ctx):
        S = _group(cfg, 17, "s")
        plan = cfg.plan()
        return _merged(
            "invmu-roundtrip",
            [
                check_identity(mu(S, invmu(S)), one(), plan, "invmu-right", ctx),
                check_identity(mu(invmu(S), S), one(), plan, "invmu-left", ctx),
            ],
        )

    def arit_derivation(cfg, ctx):
        X = _digest(cfg, 18, "x")
        A, B = _digest(cfg, 19, "a"), _group(cfg, 20, "b")
        return check_identity(
            arit(X, mu(A, B)),
            mu(arit(X, A), B) + mu(A, arit(X, B)),
            cfg.plan(),
            "arit-mu-derivation",
            ctx,
        )

    def axit_derivation(cfg, ctx):
        X, Y = _digest(cfg, 21, "x"), _digest(cfg, 22, "y")
        A, B = _digest(cfg, 23, "a"), _group(cfg, 24, "b")
        return check_identity(
            axit(X, Y, mu(A, B)),
            mu(axit(X, Y, A), B) + mu(A, axit(X, Y, B)),
            cfg.plan(),
            "axit-mu-derivation",
            ctx,
        )

    def ari_antisymmetry(cfg, ctx):
        A = _digest(cfg, 25, "a")
        return check_identity(ari(A, A), zero(), cfg.plan(), "ari-antisymmetry", ctx)

    def ari_length1(cfg, ctx):
        A, B = _digest(cfg, 26, "a"), _digest(cfg, 27, "b")
        return check_identity(
            ari(A, B), zero(), cfg.plan(cap=1), "ari-vanishes-at-length-1", ctx
        )

    def ari_jacobi(cfg, ctx):
        A, B, C = _digest(cfg, 28, "a"), _digest(cfg, 29, "b"), _digest(cfg, 30, "c")
        total = ari(A, ari(B, C)) + ari(B, ari(C, A)) + ari(C, ari(A, B))
        return check_identity(total, zero(), cfg.plan(cap=3), "ari-jacobi", ctx)

    def ari_preari(cfg, ctx):
        A, B = _digest(cfg, 31, "a"), _digest(cfg, 32, "b")
        return check_identity(
            ari(A, B), preari(A, B) - preari(B, A), cfg.plan(), "ari-is-preari-antisymmetrized", ctx
        )

    def gaxit_identity(cfg, ctx):
        S1, S2 = _group(cfg, 33, "s"), _group(cfg, 34, "t")
        return check_identity(
            gaxit(S1, S2, one()), one(), cfg.plan(), "gaxit-fixes-unit-mould", ctx
        )

    def gamit_linear(cfg, ctx):
        X = _digest(cfg, 35, "x")
        A = _digest(cfg, 36, "a")
        return check_identity(
            gamit(one() + X, A) - A, amit(X, A), cfg.plan(cap=3), "gamit-linear-part", ctx
        )

    def ganit_linear(cfg, ctx):
        Y = _digest(cfg, 37, "y")
        A = _digest(cfg, 38, "a")
        return check_identity(
            ganit(one() + Y, A) - A, anit(Y, A), cfg.plan(cap=3), "ganit-linear-part", ctx
        )

    def gaxit_compose_left(cfg, ctx):
        X, Y = _group(cfg, 39, "x"), _group(cfg, 40, "y")
        A = _digest(cfg, 41, "a")
        return check_identity(
            gaxit(X, Y, A),
            gamit(X, ganit(gamit_inv(X, Y), A)),
            cfg.plan(cap=3),
            "gaxit-separates-gamit-first",
            ctx,
        )

    def gaxit_compose_right(cfg, ctx):
        X, Y = _group(cfg, 42, "x"), _group(cfg, 43, "y")
        A = _digest(cfg, 44, "a")
        return check_identity(
            gaxit(X, Y, A),
            ganit(Y, gamit(ganit_inv(Y, X), A)),
            cfg.plan(cap=3),
            "gaxit-separates-ganit-first",
            ctx,
        )

    def gamit_mu_hom(cfg, ctx):
        X = _group(cfg, 45, "x")
        A, B = _digest(cfg, 46, "a"), _group(cfg, 47, "b")
        return check_identity(
            gamit(X, mu(A, B)),
            mu(gamit(X, A), gamit(X, B)),
            cfg.plan(),
            "gamit-mu-homomorphism",
            ctx,
        )

    def ganit_mu_hom(cfg, ctx):
        Y = _group(cfg, 48, "y")
        A, B = _digest(cfg, 49, "a"), _group(cfg, 50, "b")
        return check_identity(
            ganit(Y, mu(A, B)),
            mu(ganit(Y, A), ganit(Y, B)),
            cfg.plan(),
            "ganit-mu-homomorphism",
            ctx,
        )

    def gari_unit(cfg, ctx):
        S = _group(cfg, 51, "s")
        plan = cfg.plan()
        return _merged(
            "gari-unit",
            [
                check_identity(gari(S, one()), S, plan, "gari-unit-right", ctx),
                check_identity(gari(one(), S), S, plan, "gari-unit-left", ctx),
            ],
        )

    def gari_inverse(cfg, ctx):
        S = _group(cfg, 52, "s")
        plan = cfg.plan()
        return _merged(
            "gari-inverse",
            [
                check_identity(gari(S, invgari(S)), one(), plan, "gari-inverse-right", ctx),
                check_identity(gari(invgari(S), S), one(), plan, "gari-inverse-left", ctx),
            ],
        )

    def gari_assoc(cfg, ctx):
        A, B, C = _group(cfg, 53, "a"), _group(cfg, 54, "b"), _group(cfg, 55, "c")
        return check_identity(
            gari(gari(A, B), C), gari(A, gari(B, C)), cfg.plan(cap=3), "gari-associative", ctx
        )

    def gari_length1(cfg, ctx):
        A, B = _group(cfg, 56, "a"), _group(cfg, 57, "b")
        return check_identity(
            leng_r(gari(A, B), 1),
            leng_r(A, 1) + leng_r(B, 1),
            cfg.plan(cap=1),
            "gari-length-1-additive",
            ctx,
        )

    def expari_zero(cfg, ctx):
        return check_identity(expari(zero()), one(), cfg.plan(), "expari-of-zero", ctx)

    def logari_one(cfg, ctx):
        return check_identity(logari(one()), zero(), cfg.plan(), "logari-of-unit", ctx)

    def exp_log_roundtrip(cfg, ctx):
        A = _digest(cfg, 58, "a")
        S = _group(cfg, 59, "s")
        plan = cfg.plan()
        return _merged(
            "expari-logari-roundtrip",
            [
                check_identity(logari(expari(A)), A, plan, "log-exp", ctx),
                check_identity(expari(logari(S)), S, plan, "exp-log", ctx),
            ],
        )

    def adari_identity(cfg, ctx):
        A = _digest(cfg, 60, "a")
        return check_identity(adari(one(), A), A, cfg.plan(), "adari-of-unit", ctx)

    def adari_vs_series(cfg, ctx):
        M = _group(cfg, 61, "m")
        A = _digest(cfg, 62, "a")
        return check_identity(
            adari(M, A), adari_series(M, A), cfg.plan(), "adari-closed-vs-series", ctx
        )

    def adari_length1(cfg, ctx):
        M = _group(cfg, 63, "m")
        A = _digest(cfg, 64, "a")
        return check_identity(
            leng_r(adari(M, A), 1), leng_r(A, 1), cfg.plan(cap=1), "adari-preserves-length-1", ctx
        )

    def adari_roundtrip(cfg, ctx):
        M = _group(cfg, 65, "m")
        A = _digest(cfg, 66, "a")
        return check_identity(
            adari_inv(M, adari(M, A)), A, cfg.plan(cap=3), "adari-inverse-roundtrip", ctx
        )

    def fragari_roundtrip(cfg, ctx):
        A, B = _group(cfg, 67, "a"), _group(cfg, 68, "b")
        return check_identity(
            fragari(gari(A, B), B), A, cfg.plan(cap=3), "fragari-undoes-gari", ctx
        )

    def mu_commutative(cfg, ctx):
        A, B = _digest(cfg, 69, "a"), _digest(cfg, 70, "b")
        return check_identity(mu(A, B), mu(B, A), cfg.plan(), "mu-commutative", ctx)

    def der_expari(cfg, ctx):
        A = _digest(cfg, 71, "a")
        S = expari(A)
        return check_identity(
            der(S), preari(S, A), cfg.plan(cap=3), "der-expari-naive-ode", ctx
        )

    return Suite(
        name="algebra-core",
        anchor="Section 2",
        description="mu/ari/gari algebra: derivations, group laws, exp/log, adjoint action.",
        items=(
            Item("mu-associative", mu_associative),
            Item("mu-unit", mu_unit),
            Item("anti-mu-reversal", anti_mu_reversal),
            Item("invmu-roundtrip", invmu_roundtrip),
            Item("arit-mu-derivation", arit_derivation),
            Item("axit-mu-derivation", axit_derivation),
            Item("ari-antisymmetry", ari_antisymmetry),
            Item("ari-vanishes-at-length-1", ari_length1),
            Item("ari-jacobi", ari_jacobi),
            Item("ari-is-preari-antisymmetrized", ari_preari),
            Item("gaxit-fixes-unit-mould", gaxit_identity),
            Item("gamit-linear-part", gamit_linear),
            Item("ganit-linear-part", ganit_linear),
            Item("gaxit-separates-gamit-first", gaxit_compose_left),
            Item("gaxit-separates-ganit-first", gaxit_compose_right),
            Item("gamit-mu-homomorphism", gamit_mu_hom),
            Item("ganit-mu-homomorphism", ganit_mu_hom),
            Item("gari-unit", gari_unit),
            Item("gari-inverse", gari_inverse),
            Item("gari-associative", gari_assoc),
            Item("gari-length-1-additive", gari_length1),
            Item("expari-of-zero", expari_zero),
            Item("logari-of-unit", logari_one),
            Item("expari-logari-roundtrip", exp_log_roundtrip),
            Item("adari-of-unit", adari_identity),
            Item("adari-closed-vs-series", adari_vs_series),
            Item("adari-preserves-length-1", adari_length1),
            Item("adari-inverse-roundtrip", adari_roundtrip),
            Item("fragari-undoes-gari", fragari_roundtrip),
            Item("mu-commutative (control)", mu_commutative, expect="fail"),
            Item("der-expari-naive-ode (control)", der_expari, expect="fail"),
        ),
    )


def _suite_swamu() -> Suite:
    def via_swap(cfg, ctx):
        A, B = _digest(cfg, 101, "a"), _group(cfg, 102, "b")
        return check_identity(
            swamu(A, B), swap(mu(swap(A), swap(B))), cfg.plan(), "swamu-is-swapped-mu", ctx
        )

    def answamu_via_anti(cfg, ctx):
        A, B = _digest(cfg, 103, "a"), _group(cfg, 104, "b")
        return check_identity(
            answamu(A, B),
            anti(swamu(anti(A), anti(B))),
            cfg.plan(),
            "answamu-is-anti-swamu",
            ctx,
        )

    def answamu_via_antiswap(cfg, ctx):
        A, B = _digest(cfg, 105, "a"), _group(cfg, 106, "b")
        return check_identity(
            answamu(A, B),
            anti(swap(mu(swap(anti(A)), swap(anti(B))))),
            cfg.plan(),
            "answamu-is-antiswapped-mu",
            ctx,
        )

    def law1(cfg, ctx):
        A = _digest(cfg, 107, "a")
        B, C = _group(cfg, 108, "b"), _group(cfg, 109, "c")
        return check_identity(
            swamu(mu(A, B), C), mu(swamu(A, C), B), cfg.plan(), "swamu-slides-right-mu-factor", ctx
        )

    def law2(cfg, ctx):
        B = _digest(cfg, 110, "b")
        A, C = _group(cfg, 111, "a"), _group(cfg, 112, "c")
        return check_identity(
            answamu(mu(A, B), C), mu(A, answamu(B, C)), cfg.plan(), "answamu-slides-left-mu-factor", ctx
        )

    def law3(cfg, ctx):
        A = _digest(cfg, 113, "a")
        B, C = _group(cfg, 114, "b"), _group(cfg, 115, "c")
        return check_identity(
            swamu(answamu(A, B), C),
            answamu(swamu(A, C), B),
            cfg.plan(),
            "swamu-answamu-commute",
            ctx,
        )

    def associative(cfg, ctx):
        A, B, C = _digest(cfg, 116, "a"), _group(cfg, 117, "b"), _group(cfg, 118, "c")
        return check_identity(
            swamu(swamu(A, B), C), swamu(A, swamu(B, C)), cfg.plan(), "swamu-associative", ctx
        )

    def push_lemma(cfg, ctx):
        A, B = _digest(cfg, 119, "a"), _digest(cfg, 120, "b")
        return check_identity(
            push(swamu(A, B)), answamu(push(B), push(A)), cfg.plan(), "push-of-swamu", ctx
        )

    def empty_word(cfg, ctx):
        A, B = _group(cfg, 121, "a"), _group(cfg, 122, "b")
        return check_identity(
            swamu(A, B), mu(A, B), cfg.plan(cap=0), "swamu-agrees-with-mu-at-length-0", ctx
        )

    def rush_r4_reversal(cfg, ctx):
        P = _polar()
        X = _digest(cfg, 123, "x")
        return check_identity(
            rush_r4(P, X), rush_r4_alt(P, X), cfg.plan(), "rush-tail-reversal [polar]", ctx
        )

    def preari_es_expansion(cfg, ctx):
        U = _unit(cfg)
        es = mould_es(U)
        B = _digest(cfg, 124, "b")
        return check_identity(
            preari(es, B),
            swamu(es, mu(es, B) - answamu(es - one(), B)),
            cfg.plan(),
            "preari-es-expansion",
            ctx,
        )

    def commutative(cfg, ctx):
        A, B = _digest(cfg, 125, "a"), _digest(cfg, 126, "b")
        return check_identity(swamu(A, B), swamu(B, A), cfg.plan(), "swamu-commutative", ctx)

    return Suite(
        name="swamu",
        anchor="Section 5 (Prop. swamu_answamu)",
        description="Swap/anti-transported convolutions: cut formulas, sliding laws, push lemma.",
        items=(
            Item("swamu-is-swapped-mu", via_swap),
            Item("answamu-is-anti-swamu", answamu_via_anti),
            Item("answamu-is-antiswapped-mu", answamu_via_antiswap),
            Item("swamu-slides-right-mu-factor", law1),
            Item("answamu-slides-left-mu-factor", law2),
            Item("swamu-answamu-commute", law3),
            Item("swamu-associative", associative),
            Item("push-of-swamu", push_lemma),
            Item("swamu-agrees-with-mu-at-length-0", empty_word),
            Item("rush-tail-reversal [polar]", rush_r4_reversal),
            Item("preari-es-expansion", preari_es_expansion),
            Item("swamu-commutative (control)", commutative, expect="fail"),
        ),
    )


def _suite_symmetry() -> Suite:
    def alternal_profile(cfg, ctx):
        A = _profile(cfg, "alternal", 201)
        return check_alternal(A, cfg.plan(), "alternal-profile", ctx)

    def symmetral_profile(cfg, ctx):
        S = _profile(cfg, "symmetral", 202)
        return check_symmetral(S, cfg.plan(), "symmetral-profile", ctx)

    def al_al_profile(cfg, ctx):
        A = _profile(cfg, "al_al_seed", 203)
        plan = cfg.plan()
        return _merged(
            "bialternal-profile",
            [
                check_alternal(A, plan, "bialternal-direct", ctx),
                check_alternal(swap(A), plan, "bialternal-swapped", ctx),
            ],
        )

    def al_ol_profile(cfg, ctx):
        U = _unit(cfg)
        A = _profile(cfg, "al_ol", 204, unit=U)
        plan = cfg.plan()
        return _merged(
            "al-ol-profile",
            [
                check_alternal(A, plan, "al-ol-direct", ctx),
                check_o_alternal(U, swap(A), plan, "al-ol-swapped", ctx, both_routes=True),
            ],
        )

    def even_length1(cfg, ctx):
        A = _profile(cfg, "even_length1", 205)
        plan = cfg.plan(cap=2)
        return _merged(
            "even-length-1-profile",
            [
                check_identity(neg(A), A, plan, "even-under-negation", ctx),
                check_identity(leng_r(A, 1), A, plan, "supported-at-length-1", ctx),
            ],
        )

    def length1_alternal(cfg, ctx):
        A = leng_r(_digest(cfg, 206, "a"), 1)
        return check_alternal(A, cfg.plan(cap=2), "length-1-is-alternal", ctx)

    def pushsym_invariant(cfg, ctx):
        A = pushsym(_digest(cfg, 207, "a"))
        return check_identity(push(A), A, cfg.plan(cap=3), "pushsym-is-push-invariant", ctx)

    def pushsym_idempotent(cfg, ctx):
        A = _digest(cfg, 208, "a")
        return check_identity(
            pushsym(pushsym(A)), pushsym(A), cfg.plan(cap=3), "pushsym-idempotent", ctx
        )

    def pushsym_length1(cfg, ctx):
        A = _digest(cfg, 209, "a")
        avg = SMul(Fraction(1, 2), A + push(A))
        return check_identity(
            pushsym(A), avg, cfg.plan(cap=1), "pushsym-averages-push-orbit", ctx
        )

    def push_order(cfg, ctx):
        A = _digest(cfg, 210, "a")
        return check_push_order(A, cfg.plan(), "push-order", ctx)

    def alternal_mantar(cfg, ctx):
        A = _profile(cfg, "alternal", 211)
        return check_invariant("mantar", A, cfg.plan(), None, "alternal-is-mantar-invariant", ctx)

    def mantar_vs_pari(cfg, ctx):
        A = _digest(cfg, 212, "a")
        return check_identity(
            anti(mantar(A)), SMul(Fraction(-1), pari(A)), cfg.plan(), "anti-mantar-is-minus-pari", ctx
        )

    def ari_preserves_bialternal(cfg, ctx):
        A = _profile(cfg, "al_al_seed", 213)
        B = _profile(cfg, "al_al_seed", 214)
        C = ari(A, B)
        plan = cfg.plan(cap=3)
        return _merged(
            "ari-preserves-bialternality",
            [
                check_alternal(C, plan, "bracket-direct", ctx),
                check_alternal(swap(C), plan, "bracket-swapped", ctx),
            ],
        )

    def bialternal_neg_push(cfg, ctx):
        A = _profile(cfg, "al_al_seed", 215)
        plan = cfg.plan()
        return _merged(
            "bialternal-neg-and-push-invariant",
            [
                check_invariant("neg", A, plan, None, "bialternal-neg", ctx),
                check_invariant("push", A, plan, None, "bialternal-push", ctx),
            ],
        )

    def routes_agree(cfg, ctx):
        U = _unit(cfg)
        A = _digest(cfg, 216, "a")
        return o_alternal_routes_agree(U, A, cfg.plan(cap=3), "o-alternality-routes-agree", ctx)

    def generic_not_alternal(cfg, ctx):
        return check_alternal(_digest(cfg, 217, "a"), cfg.plan(), "generic-alternal", ctx)

    def generic_not_push(cfg, ctx):
        A = _digest(cfg, 218, "a")
        return check_identity(push(A), A, cfg.plan(), "generic-push-invariant", ctx)

    def alternal_not_symmetral(cfg, ctx):
        A = _profile(cfg, "alternal", 219)
        return check_symmetral(A, cfg.plan(), "alternal-symmetral", ctx)

    return Suite(
        name="symmetry",
        anchor="Section 3",
        description="Alternality, symmetrality, push-invariance: generators, checks, transports.",
        items=(
            Item("alternal-profile", alternal_profile),
            Item("symmetral-profile", symmetral_profile),
            Item("bialternal-profile", al_al_profile),
            Item("al-ol-profile", al_ol_profile),
            Item("even-length-1-profile", even_length1),
            Item("length-1-is-alternal", length1_alternal),
            Item("pushsym-is-push-invariant", pushsym_invariant),
            Item("pushsym-idempotent", pushsym_idempotent),
            Item("pushsym-averages-push-orbit", pushsym_length1),
            Item("push-order", push_order),
            Item("alternal-is-mantar-invariant", alternal_mantar),
            Item("anti-mantar-is-minus-pari", mantar_vs_pari),
            Item("ari-preserves-bialternality", ari_preserves_bialternal),
            Item("bialternal-neg-and-push-invariant", bialternal_neg_push),
            Item("o-alternality-routes-agree", routes_agree),
            Item("generic-alternal (control)", generic_not_alternal, expect="fail"),
            Item("generic-push-invariant (control)", generic_not_push, expect="fail"),
            Item("alternal-symmetral (control)", alternal_not_symmetral, expect="fail"),
        ),
    )


def _suite_mould_constants() -> Suite:
    def oz_vs_closed(cfg, ctx):
        U = _unit(cfg)
        return check_identity(mould_oz(U), oz_closed(U), cfg.plan(), "oz-matches-closed-form", ctx)

    def es_vs_closed(cfg, ctx):
        U = _unit(cfg)
        return check_identity(mould_es(U), es_closed(U), cfg.plan(), "es-matches-closed-form", ctx)

    def pari_oz(cfg, ctx):
        U = _unit(cfg)
        return check_identity(
            pari(mould_oz(U)), invmu(one() + mould_O(U)), cfg.plan(), "pari-oz-inverts-one-plus-O", ctx
        )

    def swap_ez(cfg, ctx):
        P = _polar()
        return check_identity(
            swap(mould_ez(P)), anti(mould_os(P)), cfg.plan(), "swap-ez-is-anti-os [polar]", ctx
        )

    def ez_length1(cfg, ctx):
        U = _unit(cfg)
        return check_identity(
            leng_r(mould_ez(U), 1), mould_E(U), cfg.plan(cap=1), "ez-length-1-is-E", ctx
        )

    def invmu_es(cfg, ctx):
        U = _unit(cfg)
        es = mould_es(U)
        return check_identity(invmu(es), push(es), cfg.plan(), "invmu-es-is-push-es", ctx)

    def os_gantar(cfg, ctx):
        U = _unit(cfg)
        return check_invariant("gantar", mould_os(U), cfg.plan(), None, "os-gantar-invariant", ctx)

    def mantar_os(cfg, ctx):
        U = _unit(cfg)
        osm = mould_os(U)
        return check_identity(
            mantar(osm), SMul(Fraction(-1), invmu(osm)), cfg.plan(), "mantar-os-is-minus-invmu-os", ctx
        )

    def ro1(cfg, ctx):
        U = _unit(cfg)
        return check_identity(
            ro_component(U, 1), mould_O(U), cfg.plan(cap=2), "ro-component-1-is-O", ctx
        )

    def to_length1(cfg, ctx):
        U = _unit(cfg)
        return check_identity(
            leng_r(To_series(U), 1),
            SMul(Fraction(1, 2), mould_O(U)),
            cfg.plan(cap=1),
            "To-length-1-is-half-O",
            ctx,
        )

    def to_o_alternal(cfg, ctx):
        U = _unit(cfg)
        return check_o_alternal(
            U, To_series(U), cfg.plan(), "To-is-O-alternal", ctx, both_routes=True
        )

    def to_o_alternal_conjugate(cfg, ctx):
        C = get_unit("polar-conjugate")
        return check_o_alternal(
            C, To_series(C), cfg.plan(), "To-is-O-alternal (conjugate unit)", ctx
        )

    def eq_ganit_os(cfg, ctx):
        P = _polar()
        osm = mould_os(P)
        return check_identity(
            ganit(osm, mould_O(P)), osm - one(), cfg.plan(), "ganit-os-of-O [polar]", ctx
        )

    def ganit_os_pari_oz(cfg, ctx):
        P = _polar()
        osm = mould_os(P)
        return check_identity(
            ganit(osm, pari(mould_oz(P))), invmu(osm), cfg.plan(), "ganit-os-of-pari-oz [polar]", ctx
        )

    def ganit_inv_oz_oz(cfg, ctx):
        P = _polar()
        ozm = mould_oz(P)
        return check_identity(
            ganit_inv(ozm, ozm), anti(mould_os(P)), cfg.plan(), "ganit-inverse-oz-of-oz [polar]", ctx
        )

    def gamit_inv_oz_oz(cfg, ctx):
        P = _polar()
        ozm = mould_oz(P)
        return check_identity(
            gamit_inv(ozm, ozm), mould_os(P), cfg.plan(), "gamit-inverse-oz-of-oz [polar]", ctx
        )

    def girat_vs_gaxit(cfg, ctx):
        P = _polar()
        ozm = mould_oz(P)
        A = _digest(cfg, 301, "a")
        return check_identity(
            girat(ozm, A), gaxit(ozm, ozm, A), cfg.plan(), "girat-oz-is-gaxit-oz-oz [polar]", ctx
        )

    def girat_inv_oz(cfg, ctx):
        P = _polar()
        ozm = mould_oz(P)
        return check_identity(
            gaxit_inv(ozm, ozm, ozm), one() + mould_O(P), cfg.plan(), "girat-inverse-of-oz [polar]", ctx
        )

    def solver_vs_closed(cfg, ctx):
        P = _polar()
        A = _digest(cfg, 302, "a")
        return check_identity(
            ganit_oz_inv(P, A),
            ganit_oz_inv_closed(P, A),
            cfg.plan(),
            "ganit-oz-inverse-solver-vs-closed [polar]",
            ctx,
        )

    def cor311_ganit_route(cfg, ctx):
        P = _polar()
        ozm, osm = mould_oz(P), mould_os(P)
        A = _digest(cfg, 303, "a")
        return check_identity(
            ganit_oz_inv(P, A),
            gamit(anti(osm), gaxit_inv(ozm, ozm, A)),
            cfg.plan(cap=3),
            "ganit-oz-inverse-via-gaxit [polar]",
            ctx,
        )

    def cor311_gamit_route(cfg, ctx):
        P = _polar()
        ozm, osm = mould_oz(P), mould_os(P)
        A = _digest(cfg, 304, "a")
        return check_identity(
            gamit_inv(ozm, A),
            ganit(osm, gaxit_inv(ozm, ozm, A)),
            cfg.plan(cap=3),
            "gamit-oz-inverse-via-gaxit [polar]",
            ctx,
        )

    def bipolar_breaks_closed(cfg, ctx):
        B = _bipolar()
        osm = mould_os(B)
        return check_identity(
            ganit(osm, mould_O(B)), osm - one(), cfg.plan(cap=2), "ganit-os-of-O (bipolar unit)", ctx
        )

    def gantar_oz(cfg, ctx):
        U = _unit(cfg)
        return check_invariant("gantar", mould_oz(U), cfg.plan(), None, "oz-gantar-invariant", ctx)

    return Suite(
        name="mould-constants",
        anchor="Section 2 & Appendix A (Thm. sro_dimorphy)",
        description="Distinguished unit moulds oz/ez/os/es, ro/To series, exact inter-relations.",
        items=(
            Item("oz-matches-closed-form", oz_vs_closed),
            Item("es-matches-closed-form", es_vs_closed),
            Item("pari-oz-inverts-one-plus-O", pari_oz),
            Item("swap-ez-is-anti-os [polar]", swap_ez),
            Item("ez-length-1-is-E", ez_length1),
            Item("invmu-es-is-push-es", invmu_es),
            Item("os-gantar-invariant", os_gantar),
            Item("mantar-os-is-minus-invmu-os", mantar_os),
            Item("ro-component-1-is-O", ro1),
            Item("To-length-1-is-half-O", to_length1),
            Item("To-is-O-alternal", to_o_alternal),
            Item("To-is-O-alternal (conjugate unit)", to_o_alternal_conjugate),
            Item("ganit-os-of-O [polar]", eq_ganit_os),
            Item("ganit-os-of-pari-oz [polar]", ganit_os_pari_oz),
            Item("ganit-inverse-oz-of-oz [polar]", ganit_inv_oz_oz),
            Item("gamit-inverse-oz-of-oz [polar]", gamit_inv_oz_oz),
            Item("girat-oz-is-gaxit-oz-oz [polar]", girat_vs_gaxit),
            Item("girat-inverse-of-oz [polar]", girat_inv_oz),
            Item("ganit-oz-inverse-solver-vs-closed [polar]", solver_vs_closed),
            Item("ganit-oz-inverse-via-gaxit [polar]", cor311_ganit_route),
            Item("gamit-oz-inverse-via-gaxit [polar]", cor311_gamit_route),
            Item("ganit-os-of-O (bipolar control)", bipolar_breaks_closed, expect="fail"),
            Item("oz-gantar-invariant (control)", gantar_oz, expect="fail"),
        ),
    )


def _suite_dilator() -> Suite:
    def d_length1(cfg, ctx):
        U = _unit(cfg)
        return check_identity(
            leng_r(dilator_D(U), 1),
            SMul(Fraction(1, 2), mould_O(U)),
            cfg.plan(cap=1),
            "dilator-length-1-is-half-O",
            ctx,
        )

    def d_alternal(cfg, ctx):
        U = _unit(cfg)
        return check_alternal(dilator_D(U), cfg.plan(), "dilator-alternal", ctx)

    def flow_ode(cfg, ctx):
        D = _profile(cfg, "alternal", 401)
        S = solve_dilator_ode(D)
        return check_identity(der(S), preari(S, D), cfg.plan(), "flow-satisfies-dilation-ode", ctx)

    def pair_empty(cfg, ctx):
        U = _unit(cfg)
        plan = cfg.plan(cap=0)
        return _merged(
            "secondary-pair-normalized",
            [
                check_identity(ess(U), one(), plan, "ess-empty-value", ctx),
                check_identity(oess(U), one(), plan, "oess-empty-value", ctx),
            ],
        )

    def ess_symmetral(cfg, ctx):
        return check_symmetral(ess(_unit(cfg)), cfg.plan(), "ess-symmetral", ctx)

    def oess_symmetral(cfg, ctx):
        return check_symmetral(oess(_unit(cfg)), cfg.plan(), "oess-symmetral", ctx)

    def eess_symmetral(cfg, ctx):
        return check_symmetral(eess(_unit(cfg)), cfg.plan(), "eess-symmetral", ctx)

    def oss_symmetral(cfg, ctx):
        return check_symmetral(oss(_unit(cfg)), cfg.plan(), "oss-symmetral", ctx)

    def alternal_to_symmetral(cfg, ctx):
        plan = cfg.plan()
        reports = []
        for j in range(3):
            D = _profile(cfg, "alternal", 402 + j)
            S = solve_dilator_ode(D)
            reports.append(check_symmetral(S, plan, f"flow-of-alternal-{j}", ctx))
        return _merged("alternal-dilator-gives-symmetral-flow", reports)

    def symmetral_to_alternal(cfg, ctx):
        plan = cfg.plan()
        reports = []
        for j in range(3):
            S = _profile(cfg, "symmetral", 405 + j)
            D = dilator_of(S)
            reports.append(check_alternal(D, plan, f"dilator-of-symmetral-{j}", ctx))
        return _merged("symmetral-flow-gives-alternal-dilator", reports)

    def roundtrip_d(cfg, ctx):
        D = _profile(cfg, "alternal", 408)
        return check_identity(
            dilator_of(solve_dilator_ode(D)), D, cfg.plan(cap=3), "dilator-of-flow-roundtrip", ctx
        )

    def roundtrip_s(cfg, ctx):
        S = _profile(cfg, "symmetral", 409)
        return check_identity(
            solve_dilator_ode(dilator_of(S)), S, cfg.plan(cap=3), "flow-of-dilator-roundtrip", ctx
        )

    def fk_expansion(cfg, ctx):
        return _fk_expansion_report(cfg, ctx)

    def neg_flow_fragari(cfg, ctx):
        U = _unit(cfg)
        return check_identity(
            fragari(neg(ess(U)), ess(U)),
            mould_es(U),
            cfg.plan(cap=3),
            "negated-flow-fragari-gives-es",
            ctx,
        )

    def generic_flow(cfg, ctx):
        D = _digest(cfg, 410, "d")
        return check_symmetral(solve_dilator_ode(D), cfg.plan(), "generic-flow-symmetral", ctx)

    return Suite(
        name="dilator",
        anchor="Appendix A",
        description="Canonical dilator, its flow ODE, and bisymmetrality of the secondary pair.",
        items=(
            Item("dilator-length-1-is-half-O", d_length1),
            Item("dilator-alternal", d_alternal),
            Item("flow-satisfies-dilation-ode", flow_ode),
            Item("secondary-pair-normalized", pair_empty),
            Item("ess-symmetral", ess_symmetral),
            Item("oess-symmetral", oess_symmetral),
            Item("eess-symmetral", eess_symmetral),
            Item("oss-symmetral", oss_symmetral),
            Item("alternal-dilator-gives-symmetral-flow", alternal_to_symmetral),
            Item("symmetral-flow-gives-alternal-dilator", symmetral_to_alternal),
            Item("dilator-of-flow-roundtrip", roundtrip_d),
            Item("flow-of-dilator-roundtrip", roundtrip_s),
            Item("arit-shuffle-expansion", fk_expansion),
            Item("negated-flow-fragari-gives-es", neg_flow_fragari),
            Item("generic-flow-symmetral (control)", generic_flow, expect="fail"),
        ),
    )


def _suite_fundamental() -> Suite:
    def main_identity(cfg, ctx):
        U = _unit(cfg)
        es = mould_es(U)
        plan = cfg.plan()
        reports = []
        for j in range(3):
            B = _digest(cfg, 501 + j, tag=f"b{j}")
            reports.append(
                check_identity(
                    B - e_sena(U, B),
                    swamu(es, B - e_push(U, B)),
                    plan,
                    f"universal-identity-{j}",
                    ctx,
                )
            )
        return _merged("sena-push-swamu-identity", reports)

    def rephrase_collapse(cfg, ctx):
        U = _unit(cfg)
        O = mould_O(U)
        B = _digest(cfg, 504, "b")
        lhs = o_rush(U, mu(O, B) + mu(one() - O, swap(e_sena(U, swap(B)))))
        rhs = mu(B, one() - O)
        return check_identity(lhs, rhs, cfg.plan(), "rush-rephrasing", ctx)

    def rephrase_rest(cfg, ctx):
        U = _unit(cfg)
        O = mould_O(U)
        C = _digest(cfg, 505, "c")
        lhs = mu(swap(e_push_inv(U, swap(C))), one() - O)
        return check_identity(lhs, o_rush(U, C), cfg.plan(), "rush-is-swapped-push-inverse", ctx)

    def sena_swap_expression(cfg, ctx):
        U = _unit(cfg)
        O, ozm = mould_O(U), mould_oz(U)
        B = _digest(cfg, 506, "b")
        B_prime = B - mu(B, O) + swamu(O, B)
        lhs = swap(e_sena(U, swap(B)))
        rhs = swamu(push_inv(mu(ozm, B_prime)), ozm)
        return check_identity(lhs, rhs, cfg.plan(), "swapped-sena-expression", ctx)

    def sena_length1(cfg, ctx):
        U = _unit(cfg)
        B = _digest(cfg, 507, "b")
        return check_identity(
            leng_r(e_sena(U, B), 1), leng_r(neg(B), 1), cfg.plan(cap=1), "sena-negates-length-1", ctx
        )

    def rush_blocks(cfg, ctx):
        U = _unit(cfg)
        M = _digest(cfg, 508, "m")
        arg = mu(mould_O(U), M)
        combo = SMul(Fraction(-1), rush_r2(U, arg)) + rush_r3(U, arg) - rush_r4(U, arg)
        return check_identity(combo, zero(), cfg.plan(), "rush-blocks-collapse", ctx)

    def rush_zero(cfg, ctx):
        U = _unit(cfg)
        return check_identity(o_rush(U, zero()), zero(), cfg.plan(cap=2), "rush-annihilates-zero", ctx)

    def wrong_constant(cfg, ctx):
        U = _unit(cfg)
        B = _digest(cfg, 509, "b")
        return check_identity(
            B - e_sena(U, B),
            swamu(mould_oz(U), B - e_push(U, B)),
            cfg.plan(cap=3),
            "sena-push-with-oz-constant",
            ctx,
        )

    return Suite(
        name="fundamental",
        anchor="Theorem 357 (Section 5)",
        description="The universal identity (id - E-sena)(B) = swamu(es, (id - E-push)(B)) and rephrasings.",
        items=(
            Item("sena-push-swamu-identity", main_identity),
            Item("rush-rephrasing", rephrase_collapse),
            Item("rush-is-swapped-push-inverse", rephrase_rest),
            Item("swapped-sena-expression", sena_swap_expression),
            Item("sena-negates-length-1", sena_length1),
            Item("rush-blocks-collapse", rush_blocks),
            Item("rush-annihilates-zero", rush_zero),
            Item("sena-push-with-oz-constant (control)", wrong_constant, expect="fail"),
        ),
    )


def _suite_senary() -> Suite:
    def o_mantar_fixes_to(cfg, ctx):
        U = _unit(cfg)
        return check_invariant("o-mantar", To_series(U), cfg.plan(), U, "o-mantar-fixes-To", ctx)

    def o_mantar_involution(cfg, ctx):
        U = _unit(cfg)
        A = _digest(cfg, 601, "a")
        return check_identity(
            o_mantar(U, o_mantar(U, A)), A, cfg.plan(cap=3), "o-mantar-involution", ctx
        )

    def o_mantar_gaxit_route(cfg, ctx):
        U = _unit(cfg)
        A = _digest(cfg, 602, "a")
        return check_identity(
            o_mantar(U, A), o_mantar_gaxit(U, A), cfg.plan(cap=3), "o-mantar-gaxit-route", ctx
        )

    def negpush_fixes_al_ol(cfg, ctx):
        U = _unit(cfg)
        A = _profile(cfg, "al_ol", 603, unit=U)
        return check_invariant("e-negpush", A, cfg.plan(cap=3), U, "negpush-fixes-al-ol", ctx)

    def push_fixes_al_ol(cfg, ctx):
        U = _unit(cfg)
        A = _profile(cfg, "al_ol", 604, unit=U)
        return check_invariant("e-push", A, cfg.plan(cap=3), U, "push-twist-fixes-al-ol", ctx)

    def negpush_roundtrip(cfg, ctx):
        U = _unit(cfg)
        A = _digest(cfg, 605, "a")
        return check_identity(
            e_negpush_inv(U, e_negpush(U, A)), A, cfg.plan(), "negpush-roundtrip", ctx
        )

    def neg_conj_ess(cfg, ctx):
        U = _unit(cfg)
        S = ess(U)
        B = _digest(cfg, 606, "b")
        return check_identity(
            e_neg(U, B), adari(S, neg(adari_inv(S, B))), cfg.plan(cap=3), "neg-twist-conjugates-ess", ctx
        )

    def neg_conj_eess(cfg, ctx):
        U = _unit(cfg)
        S = eess(U)
        B = _digest(cfg, 607, "b")
        return check_identity(
            e_neg(U, B), adari(S, neg(adari_inv(S, B))), cfg.plan(cap=3), "neg-twist-conjugates-eess", ctx
        )

    def neg_roundtrip(cfg, ctx):
        U = _unit(cfg)
        B = _digest(cfg, 608, "b")
        return check_identity(e_neg_inv(U, e_neg(U, B)), B, cfg.plan(), "neg-twist-roundtrip", ctx)

    def push_roundtrip(cfg, ctx):
        U = _unit(cfg)
        B = _digest(cfg, 609, "b")
        return check_identity(
            e_push_inv(U, e_push(U, B)), B, cfg.plan(cap=3), "push-twist-roundtrip", ctx
        )

    def push_inv_explicit(cfg, ctx):
        U = _unit(cfg)
        C = _digest(cfg, 610, "c")
        return check_identity(
            e_push_inv(U, C), e_push_inv_explicit(U, C), cfg.plan(cap=3), "push-twist-inverse-explicit", ctx
        )

    def push_composition(cfg, ctx):
        U = _unit(cfg)
        B = _digest(cfg, 611, "b")
        return check_identity(
            e_push(U, B),
            neg(mantar(e_swap(U, mantar(swap(B))))),
            cfg.plan(cap=3),
            "push-twist-via-swap-twist",
            ctx,
        )

    def swap_roundtrip(cfg, ctx):
        U = _unit(cfg)
        B = _digest(cfg, 612, "b")
        return check_identity(
            e_swap_inv(U, e_swap(U, B)), B, cfg.plan(cap=3), "swap-twist-roundtrip", ctx
        )

    def swap_inv_2(cfg, ctx):
        U = _unit(cfg)
        B = _digest(cfg, 613, "b")
        return check_identity(
            e_swap_inv(U, B), e_swap_inv_2(U, B), cfg.plan(cap=3), "swap-twist-inverse-form-2", ctx
        )

    def swap_inv_3(cfg, ctx):
        U = _unit(cfg)
        B = _digest(cfg, 614, "b")
        return check_identity(
            e_swap_inv(U, B), e_swap_inv_3(U, B), cfg.plan(cap=3), "swap-twist-inverse-form-3", ctx
        )

    def ter_length1(cfg, ctx):
        U = _unit(cfg)
        B = _digest(cfg, 615, "b")
        return check_identity(
            leng_r(e_ter(U, B), 1), leng_r(B, 1), cfg.plan(cap=1), "ter-fixes-length-1", ctx
        )

    def ter_roundtrip(cfg, ctx):
        U = _unit(cfg)
        B = _digest(cfg, 616, "b")
        return check_identity(e_ter_inv(U, e_ter(U, B)), B, cfg.plan(), "ter-roundtrip", ctx)

    def ter_inv_triple(cfg, ctx):
        U = _unit(cfg)
        B = _digest(cfg, 617, "b")
        return check_identity(
            e_ter_inv(U, B), e_ter_inv_triple(U, B), cfg.plan(), "ter-inverse-triple-sum", ctx
        )

    def ter_explicit(cfg, ctx):
        U = _unit(cfg)
        B = _digest(cfg, 618, "b")
        return check_identity(
            e_ter(U, B), e_ter_explicit(U, B), cfg.plan(), "ter-explicit-form", ctx
        )

    def sena_explicit(cfg, ctx):
        U = _unit(cfg)
        B = _digest(cfg, 619, "b")
        return check_identity(
            e_sena(U, B), e_sena_explicit(U, B), cfg.plan(), "sena-explicit-form", ctx
        )

    def senary_transported(cfg, ctx):
        U = _unit(cfg)
        A = _profile(cfg, "al_al_seed", 620)
        T = adari(ess(U), A)
        return check_identity(
            senary_defect(U, T), zero(), cfg.plan(), "senary-relation-on-transported-bialternal", ctx
        )

    def senary_al_ol(cfg, ctx):
        U = _unit(cfg)
        A = _profile(cfg, "al_ol", 621, unit=U)
        return check_identity(
            senary_defect(U, A), zero(), cfg.plan(), "senary-relation-on-al-ol", ctx
        )

    def mantar_involution(cfg, ctx):
        A = _digest(cfg, 622, "a")
        return check_identity(mantar(mantar(A)), A, cfg.plan(), "mantar-involution", ctx)

    def senary_generic(cfg, ctx):
        U = _unit(cfg)
        A = _digest(cfg, 623, "a")
        return check_identity(senary_defect(U, A), zero(), cfg.plan(cap=3), "senary-relation-generic", ctx)

    def push_generic(cfg, ctx):
        U = _unit(cfg)
        A = _digest(cfg, 624, "a")
        return check_invariant("e-push", A, cfg.plan(cap=3), U, "push-twist-fixes-generic", ctx)

    return Suite(
        name="senary",
        anchor="Theorem 1.1",
        description="The senary relation and the six subsymmetry operators with their inverses.",
        items=(
            Item("o-mantar-fixes-To", o_mantar_fixes_to),
            Item("o-mantar-involution", o_mantar_involution),
            Item("o-mantar-gaxit-route", o_mantar_gaxit_route),
            Item("negpush-fixes-al-ol", negpush_fixes_al_ol),
            Item("push-twist-fixes-al-ol", push_fixes_al_ol),
            Item("negpush-roundtrip", negpush_roundtrip),
            Item("neg-twist-conjugates-ess", neg_conj_ess),
            Item("neg-twist-conjugates-eess", neg_conj_eess),
            Item("neg-twist-roundtrip", neg_roundtrip),
            Item("push-twist-roundtrip", push_roundtrip),
            Item("push-twist-inverse-explicit", push_inv_explicit),
            Item("push-twist-via-swap-twist", push_composition),
            Item("swap-twist-roundtrip", swap_roundtrip),
            Item("swap-twist-inverse-form-2", swap_inv_2),
            Item("swap-twist-inverse-form-3", swap_inv_3),
            Item("ter-fixes-length-1", ter_length1),
            Item("ter-roundtrip", ter_roundtrip),
            Item("ter-inverse-triple-sum", ter_inv_triple),
            Item("ter-explicit-form", ter_explicit),
            Item("sena-explicit-form", sena_explicit),
            Item("senary-relation-on-transported-bialternal", senary_transported),
            Item("senary-relation-on-al-ol", senary_al_ol),
            Item("mantar-involution", mantar_involution),
            Item("senary-relation-generic (control)", senary_generic, expect="fail"),
            Item("push-twist-fixes-generic (control)", push_generic, expect="fail"),
        ),
    )


def _suite_push_sena() -> Suite:
    def transport_ess(cfg, ctx):
        U = _unit(cfg)
        S = ess(U)
        plan = cfg.plan()
        reports = []
        for j in range(2):
            A = pushsym(_digest(cfg, 651 + j, tag=f"p{j}"))
            reports.append(
                check_invariant("e-sena", adari(S, A), plan, U, f"transported-ess-{j}", ctx)
            )
        return _merged("transport-ess-lands-in-sena-invariants", reports)

    def transport_eess(cfg, ctx):
        U = _unit(cfg)
        S = eess(U)
        plan = cfg.plan()
        reports = []
        for j in range(2):
            A = pushsym(_digest(cfg, 653 + j, tag=f"q{j}"))
            reports.append(
                check_invariant("e-sena", adari(S, A), plan, U, f"transported-eess-{j}", ctx)
            )
        return _merged("transport-eess-lands-in-sena-invariants", reports)

    def roundtrip_ess(cfg, ctx):
        U = _unit(cfg)
        S = ess(U)
        A = pushsym(_digest(cfg, 655, "p"))
        back = adari(invgari(S), adari(S, A))
        return check_identity(push(back), back, cfg.plan(), "transport-ess-roundtrip-push", ctx)

    def roundtrip_eess(cfg, ctx):
        U = _unit(cfg)
        S = eess(U)
        A = pushsym(_digest(cfg, 656, "q"))
        back = adari(invgari(S), adari(S, A))
        return check_identity(push(back), back, cfg.plan(), "transport-eess-roundtrip-push", ctx)

    def swap_transport_corrected(cfg, ctx):
        U = _unit(cfg)
        A = pushsym(_digest(cfg, 657, "p"))
        lhs = swap(adari(ess(U), A))
        rhs = ganit(mould_oz(U), adari(oess(U), swap(A)))
        return check_identity(lhs, rhs, cfg.plan(cap=3), "swap-transport-ess-via-oess", ctx)

    def swap_transport_verbatim(cfg, ctx):
        U = _unit(cfg)
        A = pushsym(_digest(cfg, 658, "q"))
        lhs = swap(adari(eess(U), A))
        rhs = ganit(mould_oz(U), adari(oss(U), swap(A)))
        return check_identity(lhs, rhs, cfg.plan(cap=3), "swap-transport-eess-via-oss", ctx)

    def swap_transport_displayed(cfg, ctx):
        U = _unit(cfg)
        A = pushsym(_digest(cfg, 659, "p"))
        lhs = swap(adari(ess(U), A))
        rhs = ganit(mould_oz(U), adari(eess(U), swap(A)))
        return check_identity(lhs, rhs, cfg.plan(cap=3), "swap-transport-ess-via-eess", ctx)

    def lie_closure(cfg, ctx):
        U = _unit(cfg)
        S = ess(U)
        T1 = adari(S, pushsym(_digest(cfg, 660, "p")))
        T2 = adari(S, pushsym(_digest(cfg, 661, "q")))
        return check_invariant(
            "e-sena", ari(T1, T2), cfg.plan(cap=3), U, "sena-invariants-closed-under-ari", ctx
        )

    def transported_generic(cfg, ctx):
        U = _unit(cfg)
        T = adari(ess(U), _digest(cfg, 662, "a"))
        return check_invariant("e-sena", T, cfg.plan(cap=3), U, "transported-generic-sena", ctx)

    return Suite(
        name="push-sena",
        anchor="Theorem 1.2",
        description="The adjoint transports carry push-invariants onto the senary subspace.",
        items=(
            Item("transport-ess-lands-in-sena-invariants", transport_ess),
            Item("transport-eess-lands-in-sena-invariants", transport_eess),
            Item("transport-ess-roundtrip-push", roundtrip_ess),
            Item("transport-eess-roundtrip-push", roundtrip_eess),
            Item("swap-transport-ess-via-oess", swap_transport_corrected),
            Item("swap-transport-eess-via-oss", swap_transport_verbatim),
            Item("swap-transport-ess-via-eess (control)", swap_transport_displayed, expect="fail"),
            Item("sena-invariants-closed-under-ari", lie_closure),
            Item("transported-generic-sena (control)", transported_generic, expect="fail"),
        ),
    )


def _suite_lemmas_6() -> Suite:
    def irat_mantar(cfg, ctx):
        X = _digest(cfg, 671, "x")
        A = _digest(cfg, 672, "a")
        return check_identity(
            irat(mantar(X), mantar(A)),
            mantar(irat(push_inv(X), A)),
            cfg.plan(),
            "irat-mantar-exchange",
            ctx,
        )

    def axit_mantar(cfg, ctx):
        U = _unit(cfg)
        osm = mould_os(U)
        A, B = _digest(cfg, 673, "a"), _digest(cfg, 674, "b")
        return check_identity(
            axit(A, B, osm),
            mu(osm, axit(A, B, mantar(osm)), osm),
            cfg.plan(),
            "axit-mantar-sandwich",
            ctx,
        )

    def garit_anti(cfg, ctx):
        Y = _group(cfg, 675, "y")
        A = _digest(cfg, 676, "a")
        return check_identity(
            anti(garit(anti(Y), anti(A))), garit(invmu(Y), A), cfg.plan(), "garit-anti-conjugation", ctx
        )

    def garit_pari(cfg, ctx):
        Y = _group(cfg, 677, "y")
        A = _digest(cfg, 678, "a")
        return check_identity(
            pari(garit(pari(Y), pari(A))), garit(Y, A), cfg.plan(), "garit-pari-conjugation", ctx
        )

    def garit_mantar(cfg, ctx):
        U = _unit(cfg)
        osm = mould_os(U)
        A = _digest(cfg, 679, "a")
        return check_identity(
            garit(osm, mantar(A)), mantar(garit(osm, A)), cfg.plan(), "garit-mantar-commutes", ctx
        )

    def garit_mantar_generic(cfg, ctx):
        Y = _group(cfg, 680, "y")
        A = _digest(cfg, 681, "a")
        return check_identity(
            garit(Y, mantar(A)), mantar(garit(Y, A)), cfg.plan(cap=3), "garit-mantar-generic", ctx
        )

    def garit_pil_1(cfg, ctx):
        U = _unit(cfg)
        S = oss(U)
        return check_identity(
            garit(S, invgari(S)), invmu(S), cfg.plan(cap=3), "garit-oss-of-inverse", ctx
        )

    def garit_pil_2(cfg, ctx):
        U = _unit(cfg)
        S = oss(U)
        return check_identity(
            garit(S, mantar(invgari(S))),
            SMul(Fraction(-1), S),
            cfg.plan(cap=3),
            "garit-oss-of-mantar-inverse",
            ctx,
        )

    def corollary_first(cfg, ctx):
        U = _unit(cfg)
        A = _digest(cfg, 682, "a")
        lhs = ganit_oz_inv(U, swap(adari(eess(U), A)))
        rhs = fragari(preira(oss(U), swap(A)), oss(U))
        return check_identity(lhs, rhs, cfg.plan(cap=3), "swap-transport-fragari-form", ctx)

    def komiyamanote(cfg, ctx):
        U = _unit(cfg)
        S = eess(U)
        B = _digest(cfg, 683, "b")
        X = adari_inv(S, B)
        lhs = swamu(S, X - push_inv(X))
        rhs = gari(B - e_push_inv(U, B), S)
        return check_identity(lhs, rhs, cfg.plan(cap=3), "push-defect-transport", ctx)

    def swap_fragari_exchange(cfg, ctx):
        U = _unit(cfg)
        oz = mould_oz(U)
        A = one() + _digest(cfg, 684, "a")
        plan = cfg.plan(cap=3)
        reports = []
        for label, B in (("oess", oess(U)), ("oss", oss(U))):
            reports.append(
                check_identity(
                    swap(fragari(swap(A), swap(B))),
                    ganit(oz, fragari(A, B)),
                    plan,
                    f"swap-fragari-exchange-{label}",
                    ctx,
                )
            )
        return _merged("swap-fragari-exchange", reports)

    def garit_os_corrected(cfg, ctx):
        P = _polar()
        osm, ozm = mould_os(P), mould_oz(P)
        A = _digest(cfg, 684, "a")
        return check_identity(
            ganit(osm, gamit(pari(ozm), A)),
            garit(invmu(osm), A),
            cfg.plan(),
            "garit-os-composite [polar]",
            ctx,
        )

    def garit_os_symmetral(cfg, ctx):
        P = _polar()
        S = _profile(cfg, "symmetral", 685)
        return check_symmetral(
            garit(invmu(mould_os(P)), S), cfg.plan(), "garit-os-preserves-symmetrality [polar]", ctx
        )

    def garit_os_displayed(cfg, ctx):
        P = _polar()
        osm, ozm = mould_os(P), mould_oz(P)
        A = _digest(cfg, 686, "a")
        return check_identity(
            gamit(pari(ozm), A), gamit_inv(osm, A), cfg.plan(cap=3), "gamit-pari-oz-vs-gamit-inverse-os", ctx
        )

    return Suite(
        name="lemmas-6",
        anchor="Sections 2 & 6",
        description="Auxiliary operator lemmas: mantar transport, garit conjugations, dimorphy bridge.",
        items=(
            Item("irat-mantar-exchange", irat_mantar),
            Item("axit-mantar-sandwich", axit_mantar),
            Item("garit-anti-conjugation", garit_anti),
            Item("garit-pari-conjugation", garit_pari),
            Item("garit-mantar-commutes", garit_mantar),
            Item("garit-mantar-generic (control)", garit_mantar_generic, expect="fail"),
            Item("garit-oss-of-inverse", garit_pil_1),
            Item("garit-oss-of-mantar-inverse", garit_pil_2),
            Item("swap-transport-fragari-form", corollary_first),
            Item("push-defect-transport", komiyamanote),
            Item("swap-fragari-exchange", swap_fragari_exchange),
            Item("garit-os-composite [polar]", garit_os_corrected),
            Item("garit-os-preserves-symmetrality [polar]", garit_os_symmetral),
            Item(
                "gamit-pari-oz-vs-gamit-inverse-os (control)",
                garit_os_displayed,
                expect="fail",
            ),
        ),
    )


def _suite_negelon() -> Suite:
    def spot_small(cfg, ctx):
        return _value_report(
            "vanishing-spot-values",
            [
                (EMPTY, negelon_f(2, 0, 0, 1), Fraction(0)),
                (EMPTY, negelon_f(12, 3, 4, 4), Fraction(0)),
            ],
        )

    def base_value(cfg, ctx):
        return _value_report(
            "boundary-value-r2", [(EMPTY, negelon_f(2, 0, 0, 0), Fraction(1, 2))]
        )

    def scan_full(cfg, ctx):
        return negelon_scan(12)

    def scan_minimal(cfg, ctx):
        return negelon_scan(2)

    def aux(cfg, ctx):
        return aux_identities(12)

    def mu_factor_3(cfg, ctx):
        return mu_factor_check(cfg.plan(), N=3, name="mu-factor-cube", ctx=ctx)

    def mu_factor_1(cfg, ctx):
        return mu_factor_check(cfg.plan(cap=3), N=1, name="mu-factor-identity", ctx=ctx)

    def h0_scan(cfg, ctx):
        return negelon_scan(6, h_min=0)

    return Suite(
        name="negelon",
        anchor="Appendix A (Lemma negelon)",
        description="The vanishing rational sums F(r,k,l,h) and auxiliary binomial identities.",
        items=(
            Item("vanishing-spot-values", spot_small),
            Item("boundary-value-r2", base_value),
            Item("full-scan-r12", scan_full),
            Item("minimal-scan-r2", scan_minimal),
            Item("binomial-auxiliaries", aux),
            Item("mu-factor-cube", mu_factor_3),
            Item("mu-factor-identity", mu_factor_1),
            Item("h0-scan (control)", h0_scan, expect="fail"),
        ),
    )


SUITES: dict[str, Suite] = {
    s.name: s
    for s in (
        _suite_unit_axioms(),
        _suite_algebra_core(),
        _suite_swamu(),
        _suite_symmetry(),
        _suite_mould_constants(),
        _suite_dilator(),
        _suite_fundamental(),
        _suite_senary(),
        _suite_push_sena(),
        _suite_lemmas_6(),
        _suite_negelon(),
    )
}

ALL_SUITE = "all"


def suite_names(include_all: bool = True) -> list[str]:
    names = list(SUITES)
    if include_all:
        names.append(ALL_SUITE)
    return names


def list_suites() -> list[dict]:
    """Registry listing: name, anchor, description, item count."""
    rows = [
        {
            "suite": s.name,
            "anchor": s.anchor,
            "description": s.description,
            "identities": len(s.items),
        }
        for s in SUITES.values()
    ]
    rows.append(
        {
            "suite": ALL_SUITE,
            "anchor": "all of the above",
            "description": "Every registered suite, in registry order.",
            "identities": sum(len(s.items) for s in SUITES.values()),
        }
    )
    return rows


# ---------------------------------------------------------------------------
# Execution
# ---------------------------------------------------------------------------


def run_item(suite_name: str, index: int, cfg: Config) -> ItemResult:
    """Run one item with its own EvalContext, so its memo ends with it."""
    item = SUITES[suite_name].items[index]
    started = time.perf_counter()
    report = item.run(cfg, EvalContext(retry_cap=cfg.retry_cap))
    return ItemResult(
        name=item.name,
        expect=item.expect,
        report=report,
        seconds=time.perf_counter() - started,
    )


def _run_item_job(args: tuple[str, int, Config]) -> tuple[str, int, ItemResult]:
    suite_name, index, cfg = args
    return suite_name, index, run_item(suite_name, index, cfg)


def _resolve_names(names) -> list[str]:
    if isinstance(names, str):
        names = [names]
    resolved: list[str] = []
    for name in names:
        if name == ALL_SUITE:
            for s in SUITES:
                if s not in resolved:
                    resolved.append(s)
            continue
        if name not in SUITES:
            raise KeyError(
                f"unknown suite {name!r}; registered: {', '.join(suite_names())}"
            )
        if name not in resolved:
            resolved.append(name)
    return resolved


def run_suites(names, cfg: Config = Config()) -> RunReport:
    """Run the named suites (or 'all') and assemble a deterministic report.

    Verdicts and serialized values are independent of the worker count:
    items are dealt to processes but reassembled in registry order.
    """
    selected = _resolve_names(names)
    jobs = cfg.resolved_jobs()
    tasks = [(s, i, cfg) for s in selected for i in range(len(SUITES[s].items))]
    results: dict[tuple[str, int], ItemResult] = {}
    if jobs <= 1 or len(tasks) <= 1:
        for task in tasks:
            s, i, res = _run_item_job(task)
            results[(s, i)] = res
    else:
        with ProcessPoolExecutor(max_workers=min(jobs, len(tasks))) as pool:
            for s, i, res in pool.map(_run_item_job, tasks):
                results[(s, i)] = res
    suite_reports = [
        SuiteReport(
            suite=s,
            anchor=SUITES[s].anchor,
            config=cfg,
            results=[results[(s, i)] for i in range(len(SUITES[s].items))],
        )
        for s in selected
    ]
    return RunReport(config=cfg, suites=suite_reports)


def run_suite(name: str, cfg: Config = Config()):
    """Run one registered suite ('all' returns the combined RunReport)."""
    if name == ALL_SUITE:
        return run_suites([ALL_SUITE], cfg)
    if name not in SUITES:
        raise KeyError(f"unknown suite {name!r}; registered: {', '.join(suite_names())}")
    return run_suites([name], cfg).suites[0]
