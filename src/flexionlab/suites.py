"""Named verification suites: the registry behind ``flexionlab verify``.

Each suite bundles exact-rational identity checks (plus negative controls
that must *fail*) for one slice of the flexion-algebra surface.  Every item
is a pure function of the run configuration, so reports are deterministic
and safe to compute in parallel worker processes.

Each ``_suite_*`` function declares its items in registry order, and
``@items.run(item, expect)`` is the one way to add one.  It wraps a
``(cfg, ctx, name) -> Report`` runner, where ``name`` is the report identity:
the item name without a trailing ``" (control)"``.

Every sampled item is a row: ``@items.identity(name, cap, expect)`` on a
function of ``cfg`` that returns a value, or a dict ``{check name: value}``
whose reports are merged under the item name.  A value is an ``(lhs, rhs)``
pair for ``check_identity`` or a checker, called as
``check(plan=cfg.plan(cap), name=..., ctx=...)``, such as
``partial(check_alternal, A)``; a single checker's report is kept as it is,
note included.  A negative control's row is named ``"<name> (control)"``.
The items left as runners cannot be rows: the unit-axioms items report
exact booleans and spot values (``conjugate-swaps-letters`` mixes in a
boolean), the negelon scans and spot values sample no words, and
``ganit-os-of-O (bipolar control)`` reports under an identity of its own.

Conventions used by the items:

* ``[polar]`` in an item name means the item pins the polar unit regardless
  of the configured one, because the identity holds only when the conjugate
  letter function depends on ``v`` alone.
* ``expect="fail"`` marks a negative control: the suite passes only if the
  check fails (a generic mould really does violate the property).
"""

from __future__ import annotations

import os
import time
from dataclasses import asdict, dataclass, field
from fractions import Fraction
from functools import partial
from typing import Callable, Optional, Union

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
    tripartite_sides,
)
from .engine import (
    DigestMould,
    EvalContext,
    Mould,
    PointRecord,
    Report,
    SamplePlan,
    anti,
    check_identity,
    der,
    gantar,
    invmu,
    leng_r,
    mantar,
    mu,
    neg,
    one,
    pari,
    push,
    push_inv,
    sample_points,
    sum_of_products,
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
    check_o_alternal,
    check_push_order,
    check_symmetral,
    gen_bimould,
    o_alternal_routes_agree,
    pushsym,
)
from .words import EMPTY, flr, fll, ful, fur, shuffles, word

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
        """``jobs``, or for 0 the number of CPUs this process may run on."""
        if self.jobs > 0:
            return self.jobs
        if hasattr(os, "sched_getaffinity"):  # not on macOS or Windows
            return len(os.sched_getaffinity(0))
        return os.cpu_count() or 1

    def to_json(self) -> dict:
        return asdict(self)


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


def _value_report(name: str, rows, note: str = "") -> Report:
    """Exact spot checks; rows are (word, lhs_value, rhs_value) triples."""
    points = [PointRecord(name, len(w), w, lhs, rhs) for (w, lhs, rhs) in rows]
    return Report(identity=name, points=points, note=note)


def _bool_report(name: str, ok: bool, note: str = "") -> Report:
    return _value_report(name, [(EMPTY, Fraction(1), Fraction(int(ok)))], note)


def _merged(name: str, reports, note: str = "") -> Report:
    points = []
    for rep in reports:
        points.extend(rep.points)
    return Report(identity=name, points=points, note=note)


def _fk_terms(ctx: EvalContext, A: Mould, B: Mould, a, b) -> list:
    """The products of one half of the four-part expansion: for each cut
    a = p.q.r, A at each shuffle of (p.ful(q, r), b) times B(flr(q, r)), and
    minus A at each shuffle of (fur(p, q).r, b) times B(fll(p, q))."""
    at, neg = ctx.at, ctx.negs
    terms = []
    n = len(a)
    for i in range(n + 1):
        for j in range(i, n + 1):
            p, q, r = a[:i], a[i:j], a[j:]
            if q and r:
                values = [at(A, s) for s in shuffles(p + ful(q, r), b)]
                other = at(B, flr(q, r))
                terms += [(value, other) for value in values]
            if p and q:
                values = [at(A, s) for s in shuffles(fur(p, q) + r, b)]
                other = at(B, fll(p, q))
                terms += [(neg, value, other) for value in values]
    return terms


def _fk_expansion_check(
    A: Mould, B: Mould, plan: SamplePlan, name: str, ctx: EvalContext
) -> Report:
    """arit(B)(A) summed over shuffles of (a, b) equals the four-part
    flexion expansion, for alternal B and nonempty a, b."""
    F = arit(B, A)
    shapes = (
        ((total, la), (la, total - la))
        for total in range(2, plan.max_length + 1)
        for la in range(1, total)
    )

    def evaluate(a, b):
        lhs = sum_of_products([(ctx.at(F, s),) for s in shuffles(a, b)], ctx.lanes)
        rhs = _fk_terms(ctx, A, B, a, b) + _fk_terms(ctx, A, B, b, a)
        return lhs, sum_of_products(rhs, ctx.lanes)

    return sample_points(ctx, plan, name, shapes, evaluate)


# ---------------------------------------------------------------------------
# Suite registry types
# ---------------------------------------------------------------------------

Runner = Callable[[Config, EvalContext], Report]
# a row value: an (lhs, rhs) pair, or a checker run as check(plan=, name=, ctx=)
Check = Union[tuple[Mould, Mould], Callable[..., Report]]


@dataclass(frozen=True)
class Item:
    name: str
    run: Runner
    expect: str = "pass"  # "fail" marks a negative control


class _Items(list):
    """A suite's items in definition order, added by decorating functions."""

    def run(self, item: str, expect: str = "pass"):
        """Add the decorated ``(cfg, ctx, name) -> Report`` runner as ``item``;
        ``name`` is ``item`` without a trailing ``" (control)"``."""
        name = item.removesuffix(" (control)")

        def add(run: Callable[[Config, EvalContext, str], Report]):
            self.append(Item(item, lambda cfg, ctx: run(cfg, ctx, name), expect))
            return run

        return add

    def identity(self, name: str, cap: Optional[int] = None, expect: str = "pass"):
        """Add a row: the decorated function builds from ``cfg`` one value, or
        a dict of named values whose reports are merged under ``name``.  A
        value is an ``(lhs, rhs)`` pair for ``check_identity`` or a checker,
        and each runs at ``cfg.plan(cap=cap)``."""

        def add(build: Callable[[Config], Union[Check, dict[str, Check]]]):
            def run(cfg: Config, ctx: EvalContext, name: str) -> Report:
                plan = cfg.plan(cap=cap)

                def check(value: Check, key: str) -> Report:
                    if isinstance(value, tuple):
                        value = partial(check_identity, *value)
                    return value(plan=plan, name=key, ctx=ctx)

                value = build(cfg)
                if not isinstance(value, dict):
                    return check(value, name)
                return _merged(name, [check(v, key) for key, v in value.items()])

            self.run(name if expect == "pass" else f"{name} (control)", expect)(run)
            return build

        return add


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
    # the report's status, read once: it walks every point
    observed: str = field(init=False)

    def __post_init__(self):
        self.observed = self.report.status

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
    items = _Items()

    @items.run("tripartite-polar")
    def tripartite_polar(cfg, ctx, name):
        return _bool_report(name, check_tripartite(_polar(), cfg.seed, ctx))

    @items.run("tripartite-polar-conjugate")
    def tripartite_conj(cfg, ctx, name):
        return _bool_report(name, check_tripartite(get_unit("polar-conjugate"), cfg.seed, ctx))

    @items.run("tripartite-bipolar")
    def tripartite_bipolar(cfg, ctx, name):
        return _bool_report(
            name,
            check_tripartite(_bipolar(), cfg.seed, ctx),
            note="self-conjugate unit mixing u and v; valid unit, excluded from v-only closed forms",
        )

    @items.run("tripartite-spot-values")
    def tripartite_spots(cfg, ctx, name):
        w_polar = word([(2, 7), (3, 11)])
        w_conj = word([(5, 1), (7, 3)])
        rows = [
            (w_polar, Fraction(1, 6), Fraction(1, 15) + Fraction(1, 10)),
            (w_conj, Fraction(1, 3), Fraction(1, 2) - Fraction(1, 6)),
        ]
        P, C = _polar(), get_unit("polar-conjugate")
        checked = []
        for (w, want_lhs, want_rhs), U in zip(rows, (P, C)):
            lhs, rhs = tripartite_sides(U, *w)
            checked.append((w, lhs, rhs))
            # pin the arithmetic itself, not just lhs == rhs
            checked.append((w, lhs, want_lhs))
            checked.append((w, rhs, want_rhs))
        return _value_report(name, checked)

    @items.run("conjugate-swaps-letters")
    def conjugate_swaps_letters(cfg, ctx, name):
        U = _unit(cfg)
        C = U.conjugate()
        plan = cfg.plan(cap=1)
        return _merged(
            name,
            [
                check_identity(mould_E(C), mould_O(U), plan, "conjugate-E", ctx),
                check_identity(mould_O(C), mould_E(U), plan, "conjugate-O", ctx),
                _bool_report("conjugate-involution", C.conjugate() is U),
            ],
        )

    @items.run("tripartite-inv-square (control)", expect="fail")
    def tripartite_inv_square(cfg, ctx, name):
        return _bool_report(name, check_tripartite(_inv_square(), cfg.seed, ctx))

    return Suite(
        name="unit-axioms",
        anchor="Section 2",
        description="Flexion-unit axioms: tripartite relation, conjugation, exact spot values.",
        items=tuple(items),
    )


def _suite_algebra_core() -> Suite:
    items = _Items()

    @items.identity("mu-associative")
    def mu_associative(cfg):
        A, B, C = _digest(cfg, 11, "a"), _digest(cfg, 12, "b"), _group(cfg, 13, "c")
        return mu(A, mu(B, C)), mu(mu(A, B), C)

    @items.identity("mu-unit")
    def mu_unit(cfg):
        A = _digest(cfg, 14, "a")
        return {"mu-unit-left": (mu(one(), A), A), "mu-unit-right": (mu(A, one()), A)}

    @items.identity("anti-mu-reversal")
    def anti_mu_reversal(cfg):
        A, B = _digest(cfg, 15, "a"), _group(cfg, 16, "b")
        return anti(mu(A, B)), mu(anti(B), anti(A))

    @items.identity("invmu-roundtrip")
    def invmu_roundtrip(cfg):
        S = _group(cfg, 17, "s")
        return {"invmu-right": (mu(S, invmu(S)), one()), "invmu-left": (mu(invmu(S), S), one())}

    @items.identity("arit-mu-derivation")
    def arit_derivation(cfg):
        X = _digest(cfg, 18, "x")
        A, B = _digest(cfg, 19, "a"), _group(cfg, 20, "b")
        return arit(X, mu(A, B)), mu(arit(X, A), B) + mu(A, arit(X, B))

    @items.identity("axit-mu-derivation")
    def axit_derivation(cfg):
        X, Y = _digest(cfg, 21, "x"), _digest(cfg, 22, "y")
        A, B = _digest(cfg, 23, "a"), _group(cfg, 24, "b")
        return axit(X, Y, mu(A, B)), mu(axit(X, Y, A), B) + mu(A, axit(X, Y, B))

    @items.identity("ari-antisymmetry")
    def ari_antisymmetry(cfg):
        A = _digest(cfg, 25, "a")
        return ari(A, A), zero()

    @items.identity("ari-vanishes-at-length-1", cap=1)
    def ari_length1(cfg):
        A, B = _digest(cfg, 26, "a"), _digest(cfg, 27, "b")
        return ari(A, B), zero()

    @items.identity("ari-jacobi", cap=3)
    def ari_jacobi(cfg):
        A, B, C = _digest(cfg, 28, "a"), _digest(cfg, 29, "b"), _digest(cfg, 30, "c")
        total = ari(A, ari(B, C)) + ari(B, ari(C, A)) + ari(C, ari(A, B))
        return total, zero()

    @items.identity("ari-is-preari-antisymmetrized")
    def ari_preari(cfg):
        A, B = _digest(cfg, 31, "a"), _digest(cfg, 32, "b")
        return ari(A, B), preari(A, B) - preari(B, A)

    @items.identity("gaxit-fixes-unit-mould")
    def gaxit_identity(cfg):
        S1, S2 = _group(cfg, 33, "s"), _group(cfg, 34, "t")
        return gaxit(S1, S2, one()), one()

    @items.identity("gamit-linear-part", cap=3)
    def gamit_linear(cfg):
        X = _digest(cfg, 35, "x")
        A = _digest(cfg, 36, "a")
        return gamit(one() + X, A) - A, amit(X, A)

    @items.identity("ganit-linear-part", cap=3)
    def ganit_linear(cfg):
        Y = _digest(cfg, 37, "y")
        A = _digest(cfg, 38, "a")
        return ganit(one() + Y, A) - A, anit(Y, A)

    @items.identity("gaxit-separates-gamit-first", cap=3)
    def gaxit_compose_left(cfg):
        X, Y = _group(cfg, 39, "x"), _group(cfg, 40, "y")
        A = _digest(cfg, 41, "a")
        return gaxit(X, Y, A), gamit(X, ganit(gamit_inv(X, Y), A))

    @items.identity("gaxit-separates-ganit-first", cap=3)
    def gaxit_compose_right(cfg):
        X, Y = _group(cfg, 42, "x"), _group(cfg, 43, "y")
        A = _digest(cfg, 44, "a")
        return gaxit(X, Y, A), ganit(Y, gamit(ganit_inv(Y, X), A))

    @items.identity("gamit-mu-homomorphism")
    def gamit_mu_hom(cfg):
        X = _group(cfg, 45, "x")
        A, B = _digest(cfg, 46, "a"), _group(cfg, 47, "b")
        return gamit(X, mu(A, B)), mu(gamit(X, A), gamit(X, B))

    @items.identity("ganit-mu-homomorphism")
    def ganit_mu_hom(cfg):
        Y = _group(cfg, 48, "y")
        A, B = _digest(cfg, 49, "a"), _group(cfg, 50, "b")
        return ganit(Y, mu(A, B)), mu(ganit(Y, A), ganit(Y, B))

    @items.identity("gari-unit")
    def gari_unit(cfg):
        S = _group(cfg, 51, "s")
        return {"gari-unit-right": (gari(S, one()), S), "gari-unit-left": (gari(one(), S), S)}

    @items.identity("gari-inverse")
    def gari_inverse(cfg):
        S = _group(cfg, 52, "s")
        return {
            "gari-inverse-right": (gari(S, invgari(S)), one()),
            "gari-inverse-left": (gari(invgari(S), S), one()),
        }

    @items.identity("gari-associative", cap=3)
    def gari_assoc(cfg):
        A, B, C = _group(cfg, 53, "a"), _group(cfg, 54, "b"), _group(cfg, 55, "c")
        return gari(gari(A, B), C), gari(A, gari(B, C))

    @items.identity("gari-length-1-additive", cap=1)
    def gari_length1(cfg):
        A, B = _group(cfg, 56, "a"), _group(cfg, 57, "b")
        return leng_r(gari(A, B), 1), leng_r(A, 1) + leng_r(B, 1)

    @items.identity("expari-of-zero")
    def expari_zero(cfg):
        return expari(zero()), one()

    @items.identity("logari-of-unit")
    def logari_one(cfg):
        return logari(one()), zero()

    @items.identity("expari-logari-roundtrip")
    def exp_log_roundtrip(cfg):
        A = _digest(cfg, 58, "a")
        S = _group(cfg, 59, "s")
        return {"log-exp": (logari(expari(A)), A), "exp-log": (expari(logari(S)), S)}

    @items.identity("adari-of-unit")
    def adari_identity(cfg):
        A = _digest(cfg, 60, "a")
        return adari(one(), A), A

    @items.identity("adari-closed-vs-series")
    def adari_vs_series(cfg):
        M = _group(cfg, 61, "m")
        A = _digest(cfg, 62, "a")
        return adari(M, A), adari_series(M, A)

    @items.identity("adari-preserves-length-1", cap=1)
    def adari_length1(cfg):
        M = _group(cfg, 63, "m")
        A = _digest(cfg, 64, "a")
        return leng_r(adari(M, A), 1), leng_r(A, 1)

    @items.identity("adari-inverse-roundtrip", cap=3)
    def adari_roundtrip(cfg):
        M = _group(cfg, 65, "m")
        A = _digest(cfg, 66, "a")
        return adari_inv(M, adari(M, A)), A

    @items.identity("fragari-undoes-gari", cap=3)
    def fragari_roundtrip(cfg):
        A, B = _group(cfg, 67, "a"), _group(cfg, 68, "b")
        return fragari(gari(A, B), B), A

    @items.identity("mu-commutative", expect="fail")
    def mu_commutative(cfg):
        A, B = _digest(cfg, 69, "a"), _digest(cfg, 70, "b")
        return mu(A, B), mu(B, A)

    @items.identity("der-expari-naive-ode", cap=3, expect="fail")
    def der_expari(cfg):
        A = _digest(cfg, 71, "a")
        S = expari(A)
        return der(S), preari(S, A)

    return Suite(
        name="algebra-core",
        anchor="Section 2",
        description="mu/ari/gari algebra: derivations, group laws, exp/log, adjoint action.",
        items=tuple(items),
    )


def _suite_swamu() -> Suite:
    items = _Items()

    @items.identity("swamu-is-swapped-mu")
    def via_swap(cfg):
        A, B = _digest(cfg, 101, "a"), _group(cfg, 102, "b")
        return swamu(A, B), swap(mu(swap(A), swap(B)))

    @items.identity("answamu-is-anti-swamu")
    def answamu_via_anti(cfg):
        A, B = _digest(cfg, 103, "a"), _group(cfg, 104, "b")
        return answamu(A, B), anti(swamu(anti(A), anti(B)))

    @items.identity("answamu-is-antiswapped-mu")
    def answamu_via_antiswap(cfg):
        A, B = _digest(cfg, 105, "a"), _group(cfg, 106, "b")
        return answamu(A, B), anti(swap(mu(swap(anti(A)), swap(anti(B)))))

    @items.identity("swamu-slides-right-mu-factor")
    def law1(cfg):
        A = _digest(cfg, 107, "a")
        B, C = _group(cfg, 108, "b"), _group(cfg, 109, "c")
        return swamu(mu(A, B), C), mu(swamu(A, C), B)

    @items.identity("answamu-slides-left-mu-factor")
    def law2(cfg):
        B = _digest(cfg, 110, "b")
        A, C = _group(cfg, 111, "a"), _group(cfg, 112, "c")
        return answamu(mu(A, B), C), mu(A, answamu(B, C))

    @items.identity("swamu-answamu-commute")
    def law3(cfg):
        A = _digest(cfg, 113, "a")
        B, C = _group(cfg, 114, "b"), _group(cfg, 115, "c")
        return swamu(answamu(A, B), C), answamu(swamu(A, C), B)

    @items.identity("swamu-associative")
    def associative(cfg):
        A, B, C = _digest(cfg, 116, "a"), _group(cfg, 117, "b"), _group(cfg, 118, "c")
        return swamu(swamu(A, B), C), swamu(A, swamu(B, C))

    @items.identity("push-of-swamu")
    def push_lemma(cfg):
        A, B = _digest(cfg, 119, "a"), _digest(cfg, 120, "b")
        return push(swamu(A, B)), answamu(push(B), push(A))

    @items.identity("swamu-agrees-with-mu-at-length-0", cap=0)
    def empty_word(cfg):
        A, B = _group(cfg, 121, "a"), _group(cfg, 122, "b")
        return swamu(A, B), mu(A, B)

    @items.identity("rush-tail-reversal [polar]")
    def rush_r4_reversal(cfg):
        P = _polar()
        X = _digest(cfg, 123, "x")
        return rush_r4(P, X), rush_r4_alt(P, X)

    @items.identity("preari-es-expansion")
    def preari_es_expansion(cfg):
        U = _unit(cfg)
        es = mould_es(U)
        B = _digest(cfg, 124, "b")
        return preari(es, B), swamu(es, mu(es, B) - answamu(es - one(), B))

    @items.identity("swamu-commutative", expect="fail")
    def commutative(cfg):
        A, B = _digest(cfg, 125, "a"), _digest(cfg, 126, "b")
        return swamu(A, B), swamu(B, A)

    return Suite(
        name="swamu",
        anchor="Section 5 (Prop. swamu_answamu)",
        description="Swap/anti-transported convolutions: cut formulas, sliding laws, push lemma.",
        items=tuple(items),
    )


def _suite_symmetry() -> Suite:
    items = _Items()

    @items.identity("alternal-profile")
    def alternal_profile(cfg):
        return partial(check_alternal, _profile(cfg, "alternal", 201))

    @items.identity("symmetral-profile")
    def symmetral_profile(cfg):
        return partial(check_symmetral, _profile(cfg, "symmetral", 202))

    @items.identity("bialternal-profile")
    def al_al_profile(cfg):
        A = _profile(cfg, "al_al_seed", 203)
        return {
            "bialternal-direct": partial(check_alternal, A),
            "bialternal-swapped": partial(check_alternal, swap(A)),
        }

    @items.identity("al-ol-profile")
    def al_ol_profile(cfg):
        U = _unit(cfg)
        A = _profile(cfg, "al_ol", 204, unit=U)
        return {
            "al-ol-direct": partial(check_alternal, A),
            "al-ol-swapped": partial(check_o_alternal, U, swap(A), both_routes=True),
        }

    @items.identity("even-length-1-profile", cap=2)
    def even_length1(cfg):
        A = _profile(cfg, "even_length1", 205)
        return {"even-under-negation": (neg(A), A), "supported-at-length-1": (leng_r(A, 1), A)}

    @items.identity("length-1-is-alternal", cap=2)
    def length1_alternal(cfg):
        return partial(check_alternal, leng_r(_digest(cfg, 206, "a"), 1))

    @items.identity("pushsym-is-push-invariant", cap=3)
    def pushsym_invariant(cfg):
        A = pushsym(_digest(cfg, 207, "a"))
        return push(A), A

    @items.identity("pushsym-idempotent", cap=3)
    def pushsym_idempotent(cfg):
        A = _digest(cfg, 208, "a")
        return pushsym(pushsym(A)), pushsym(A)

    @items.identity("pushsym-averages-push-orbit", cap=1)
    def pushsym_length1(cfg):
        A = _digest(cfg, 209, "a")
        avg = Fraction(1, 2) * (A + push(A))
        return pushsym(A), avg

    @items.identity("push-order")
    def push_order(cfg):
        return partial(check_push_order, _digest(cfg, 210, "a"))

    @items.identity("alternal-is-mantar-invariant")
    def alternal_mantar(cfg):
        A = _profile(cfg, "alternal", 211)
        return mantar(A), A

    @items.identity("anti-mantar-is-minus-pari")
    def mantar_vs_pari(cfg):
        A = _digest(cfg, 212, "a")
        return anti(mantar(A)), -pari(A)

    @items.identity("ari-preserves-bialternality", cap=3)
    def ari_preserves_bialternal(cfg):
        A = _profile(cfg, "al_al_seed", 213)
        B = _profile(cfg, "al_al_seed", 214)
        C = ari(A, B)
        return {
            "bracket-direct": partial(check_alternal, C),
            "bracket-swapped": partial(check_alternal, swap(C)),
        }

    @items.identity("bialternal-neg-and-push-invariant")
    def bialternal_neg_push(cfg):
        A = _profile(cfg, "al_al_seed", 215)
        return {"bialternal-neg": (neg(A), A), "bialternal-push": (push(A), A)}

    @items.identity("o-alternality-routes-agree", cap=3)
    def routes_agree(cfg):
        return partial(o_alternal_routes_agree, _unit(cfg), _digest(cfg, 216, "a"))

    @items.identity("generic-alternal", expect="fail")
    def generic_not_alternal(cfg):
        return partial(check_alternal, _digest(cfg, 217, "a"))

    @items.identity("generic-push-invariant", expect="fail")
    def generic_not_push(cfg):
        A = _digest(cfg, 218, "a")
        return push(A), A

    @items.identity("alternal-symmetral", expect="fail")
    def alternal_not_symmetral(cfg):
        return partial(check_symmetral, _profile(cfg, "alternal", 219))

    return Suite(
        name="symmetry",
        anchor="Section 3",
        description="Alternality, symmetrality, push-invariance: generators, checks, transports.",
        items=tuple(items),
    )


def _suite_mould_constants() -> Suite:
    items = _Items()

    @items.identity("oz-matches-closed-form")
    def oz_vs_closed(cfg):
        U = _unit(cfg)
        return mould_oz(U), oz_closed(U)

    @items.identity("es-matches-closed-form")
    def es_vs_closed(cfg):
        U = _unit(cfg)
        return mould_es(U), es_closed(U)

    @items.identity("pari-oz-inverts-one-plus-O")
    def pari_oz(cfg):
        U = _unit(cfg)
        return pari(mould_oz(U)), invmu(one() + mould_O(U))

    @items.identity("swap-ez-is-anti-os [polar]")
    def swap_ez(cfg):
        P = _polar()
        return swap(mould_ez(P)), anti(mould_os(P))

    @items.identity("ez-length-1-is-E", cap=1)
    def ez_length1(cfg):
        U = _unit(cfg)
        return leng_r(mould_ez(U), 1), mould_E(U)

    @items.identity("invmu-es-is-push-es")
    def invmu_es(cfg):
        U = _unit(cfg)
        es = mould_es(U)
        return invmu(es), push(es)

    @items.identity("os-gantar-invariant")
    def os_gantar(cfg):
        osm = mould_os(_unit(cfg))
        return gantar(osm), osm

    @items.identity("mantar-os-is-minus-invmu-os")
    def mantar_os(cfg):
        U = _unit(cfg)
        osm = mould_os(U)
        return mantar(osm), -invmu(osm)

    @items.identity("ro-component-1-is-O", cap=2)
    def ro1(cfg):
        U = _unit(cfg)
        return ro_component(U, 1), mould_O(U)

    @items.identity("To-length-1-is-half-O", cap=1)
    def to_length1(cfg):
        U = _unit(cfg)
        return leng_r(To_series(U), 1), Fraction(1, 2) * mould_O(U)

    @items.identity("To-is-O-alternal")
    def to_o_alternal(cfg):
        U = _unit(cfg)
        return partial(check_o_alternal, U, To_series(U), both_routes=True)

    @items.identity("To-is-O-alternal (conjugate unit)")
    def to_o_alternal_conjugate(cfg):
        C = get_unit("polar-conjugate")
        return partial(check_o_alternal, C, To_series(C))

    @items.identity("ganit-os-of-O [polar]")
    def eq_ganit_os(cfg):
        P = _polar()
        osm = mould_os(P)
        return ganit(osm, mould_O(P)), osm - one()

    @items.identity("ganit-os-of-pari-oz [polar]")
    def ganit_os_pari_oz(cfg):
        P = _polar()
        osm = mould_os(P)
        return ganit(osm, pari(mould_oz(P))), invmu(osm)

    @items.identity("ganit-inverse-oz-of-oz [polar]")
    def ganit_inv_oz_oz(cfg):
        P = _polar()
        ozm = mould_oz(P)
        return ganit_inv(ozm, ozm), anti(mould_os(P))

    @items.identity("gamit-inverse-oz-of-oz [polar]")
    def gamit_inv_oz_oz(cfg):
        P = _polar()
        ozm = mould_oz(P)
        return gamit_inv(ozm, ozm), mould_os(P)

    @items.identity("girat-oz-is-gaxit-oz-oz [polar]")
    def girat_vs_gaxit(cfg):
        P = _polar()
        ozm = mould_oz(P)
        A = _digest(cfg, 301, "a")
        return girat(ozm, A), gaxit(ozm, ozm, A)

    @items.identity("girat-inverse-of-oz [polar]")
    def girat_inv_oz(cfg):
        P = _polar()
        ozm = mould_oz(P)
        return gaxit_inv(ozm, ozm, ozm), one() + mould_O(P)

    @items.identity("ganit-oz-inverse-solver-vs-closed [polar]")
    def solver_vs_closed(cfg):
        P = _polar()
        A = _digest(cfg, 302, "a")
        return ganit_oz_inv(P, A), ganit_oz_inv_closed(P, A)

    @items.identity("ganit-oz-inverse-via-gaxit [polar]", cap=3)
    def cor311_ganit_route(cfg):
        P = _polar()
        ozm, osm = mould_oz(P), mould_os(P)
        A = _digest(cfg, 303, "a")
        return ganit_oz_inv(P, A), gamit(anti(osm), gaxit_inv(ozm, ozm, A))

    @items.identity("gamit-oz-inverse-via-gaxit [polar]", cap=3)
    def cor311_gamit_route(cfg):
        P = _polar()
        ozm, osm = mould_oz(P), mould_os(P)
        A = _digest(cfg, 304, "a")
        return gamit_inv(ozm, A), ganit(osm, gaxit_inv(ozm, ozm, A))

    # a runner, not a row: its identity is not named after the item
    @items.run("ganit-os-of-O (bipolar control)", expect="fail")
    def bipolar_breaks_closed(cfg, ctx, name):
        B = _bipolar()
        osm = mould_os(B)
        return check_identity(
            ganit(osm, mould_O(B)), osm - one(), cfg.plan(cap=2), "ganit-os-of-O (bipolar unit)", ctx
        )

    @items.identity("oz-gantar-invariant", expect="fail")
    def gantar_oz(cfg):
        ozm = mould_oz(_unit(cfg))
        return gantar(ozm), ozm

    return Suite(
        name="mould-constants",
        anchor="Section 2 & Appendix A (Thm. sro_dimorphy)",
        description="Distinguished unit moulds oz/ez/os/es, ro/To series, exact inter-relations.",
        items=tuple(items),
    )


def _suite_dilator() -> Suite:
    items = _Items()

    @items.identity("dilator-length-1-is-half-O", cap=1)
    def d_length1(cfg):
        U = _unit(cfg)
        return leng_r(dilator_D(U), 1), Fraction(1, 2) * mould_O(U)

    @items.identity("dilator-alternal")
    def d_alternal(cfg):
        return partial(check_alternal, dilator_D(_unit(cfg)))

    @items.identity("flow-satisfies-dilation-ode")
    def flow_ode(cfg):
        D = _profile(cfg, "alternal", 401)
        S = solve_dilator_ode(D)
        return der(S), preari(S, D)

    @items.identity("secondary-pair-normalized", cap=0)
    def pair_empty(cfg):
        U = _unit(cfg)
        return {"ess-empty-value": (ess(U), one()), "oess-empty-value": (oess(U), one())}

    @items.identity("ess-symmetral")
    def ess_symmetral(cfg):
        return partial(check_symmetral, ess(_unit(cfg)))

    @items.identity("oess-symmetral")
    def oess_symmetral(cfg):
        return partial(check_symmetral, oess(_unit(cfg)))

    @items.identity("eess-symmetral")
    def eess_symmetral(cfg):
        return partial(check_symmetral, eess(_unit(cfg)))

    @items.identity("oss-symmetral")
    def oss_symmetral(cfg):
        return partial(check_symmetral, oss(_unit(cfg)))

    @items.identity("alternal-dilator-gives-symmetral-flow")
    def alternal_to_symmetral(cfg):
        return {
            f"flow-of-alternal-{j}": partial(
                check_symmetral, solve_dilator_ode(_profile(cfg, "alternal", 402 + j))
            )
            for j in range(3)
        }

    @items.identity("symmetral-flow-gives-alternal-dilator")
    def symmetral_to_alternal(cfg):
        return {
            f"dilator-of-symmetral-{j}": partial(
                check_alternal, dilator_of(_profile(cfg, "symmetral", 405 + j))
            )
            for j in range(3)
        }

    @items.identity("dilator-of-flow-roundtrip", cap=3)
    def roundtrip_d(cfg):
        D = _profile(cfg, "alternal", 408)
        return dilator_of(solve_dilator_ode(D)), D

    @items.identity("flow-of-dilator-roundtrip", cap=3)
    def roundtrip_s(cfg):
        S = _profile(cfg, "symmetral", 409)
        return solve_dilator_ode(dilator_of(S)), S

    @items.identity("arit-shuffle-expansion")
    def fk_expansion(cfg):
        A = _digest(cfg, 701, tag="fk-subject")
        B = _profile(cfg, "alternal", 702)
        return partial(_fk_expansion_check, A, B)

    @items.identity("negated-flow-fragari-gives-es", cap=3)
    def neg_flow_fragari(cfg):
        U = _unit(cfg)
        return fragari(neg(ess(U)), ess(U)), mould_es(U)

    @items.identity("generic-flow-symmetral", expect="fail")
    def generic_flow(cfg):
        return partial(check_symmetral, solve_dilator_ode(_digest(cfg, 410, "d")))

    return Suite(
        name="dilator",
        anchor="Appendix A",
        description="Canonical dilator, its flow ODE, and bisymmetrality of the secondary pair.",
        items=tuple(items),
    )


def _suite_fundamental() -> Suite:
    items = _Items()

    @items.identity("sena-push-swamu-identity")
    def main_identity(cfg):
        U = _unit(cfg)
        es = mould_es(U)
        pairs = {}
        for j in range(3):
            B = _digest(cfg, 501 + j, tag=f"b{j}")
            pairs[f"universal-identity-{j}"] = B - e_sena(U, B), swamu(es, B - e_push(U, B))
        return pairs

    @items.identity("rush-rephrasing")
    def rephrase_collapse(cfg):
        U = _unit(cfg)
        O = mould_O(U)
        B = _digest(cfg, 504, "b")
        lhs = o_rush(U, mu(O, B) + mu(one() - O, swap(e_sena(U, swap(B)))))
        rhs = mu(B, one() - O)
        return lhs, rhs

    @items.identity("rush-is-swapped-push-inverse")
    def rephrase_rest(cfg):
        U = _unit(cfg)
        O = mould_O(U)
        C = _digest(cfg, 505, "c")
        lhs = mu(swap(e_push_inv(U, swap(C))), one() - O)
        return lhs, o_rush(U, C)

    @items.identity("swapped-sena-expression")
    def sena_swap_expression(cfg):
        U = _unit(cfg)
        O, ozm = mould_O(U), mould_oz(U)
        B = _digest(cfg, 506, "b")
        B_prime = B - mu(B, O) + swamu(O, B)
        lhs = swap(e_sena(U, swap(B)))
        rhs = swamu(push_inv(mu(ozm, B_prime)), ozm)
        return lhs, rhs

    @items.identity("sena-negates-length-1", cap=1)
    def sena_length1(cfg):
        U = _unit(cfg)
        B = _digest(cfg, 507, "b")
        return leng_r(e_sena(U, B), 1), leng_r(neg(B), 1)

    @items.identity("rush-blocks-collapse")
    def rush_blocks(cfg):
        U = _unit(cfg)
        M = _digest(cfg, 508, "m")
        arg = mu(mould_O(U), M)
        combo = -rush_r2(U, arg) + rush_r3(U, arg) - rush_r4(U, arg)
        return combo, zero()

    @items.identity("rush-annihilates-zero", cap=2)
    def rush_zero(cfg):
        U = _unit(cfg)
        return o_rush(U, zero()), zero()

    @items.identity("sena-push-with-oz-constant", cap=3, expect="fail")
    def wrong_constant(cfg):
        U = _unit(cfg)
        B = _digest(cfg, 509, "b")
        return B - e_sena(U, B), swamu(mould_oz(U), B - e_push(U, B))

    return Suite(
        name="fundamental",
        anchor="Theorem 357 (Section 5)",
        description="The universal identity (id - E-sena)(B) = swamu(es, (id - E-push)(B)) and rephrasings.",
        items=tuple(items),
    )


def _suite_senary() -> Suite:
    items = _Items()

    @items.identity("o-mantar-fixes-To")
    def o_mantar_fixes_to(cfg):
        U = _unit(cfg)
        To = To_series(U)
        return o_mantar(U, To), To

    @items.identity("o-mantar-involution", cap=3)
    def o_mantar_involution(cfg):
        U = _unit(cfg)
        A = _digest(cfg, 601, "a")
        return o_mantar(U, o_mantar(U, A)), A

    @items.identity("o-mantar-gaxit-route", cap=3)
    def o_mantar_gaxit_route(cfg):
        U = _unit(cfg)
        A = _digest(cfg, 602, "a")
        return o_mantar(U, A), o_mantar_gaxit(U, A)

    @items.identity("negpush-fixes-al-ol", cap=3)
    def negpush_fixes_al_ol(cfg):
        U = _unit(cfg)
        A = _profile(cfg, "al_ol", 603, unit=U)
        return e_negpush(U, A), A

    @items.identity("push-twist-fixes-al-ol", cap=3)
    def push_fixes_al_ol(cfg):
        U = _unit(cfg)
        A = _profile(cfg, "al_ol", 604, unit=U)
        return e_push(U, A), A

    @items.identity("negpush-roundtrip")
    def negpush_roundtrip(cfg):
        U = _unit(cfg)
        A = _digest(cfg, 605, "a")
        return e_negpush_inv(U, e_negpush(U, A)), A

    @items.identity("neg-twist-conjugates-ess", cap=3)
    def neg_conj_ess(cfg):
        U = _unit(cfg)
        S = ess(U)
        B = _digest(cfg, 606, "b")
        return e_neg(U, B), adari(S, neg(adari_inv(S, B)))

    @items.identity("neg-twist-conjugates-eess", cap=3)
    def neg_conj_eess(cfg):
        U = _unit(cfg)
        S = eess(U)
        B = _digest(cfg, 607, "b")
        return e_neg(U, B), adari(S, neg(adari_inv(S, B)))

    @items.identity("neg-twist-roundtrip")
    def neg_roundtrip(cfg):
        U = _unit(cfg)
        B = _digest(cfg, 608, "b")
        return e_neg_inv(U, e_neg(U, B)), B

    @items.identity("push-twist-roundtrip", cap=3)
    def push_roundtrip(cfg):
        U = _unit(cfg)
        B = _digest(cfg, 609, "b")
        return e_push_inv(U, e_push(U, B)), B

    @items.identity("push-twist-inverse-explicit", cap=3)
    def push_inv_explicit(cfg):
        U = _unit(cfg)
        C = _digest(cfg, 610, "c")
        return e_push_inv(U, C), e_push_inv_explicit(U, C)

    @items.identity("push-twist-via-swap-twist", cap=3)
    def push_composition(cfg):
        U = _unit(cfg)
        B = _digest(cfg, 611, "b")
        return e_push(U, B), neg(mantar(e_swap(U, mantar(swap(B)))))

    @items.identity("swap-twist-roundtrip", cap=3)
    def swap_roundtrip(cfg):
        U = _unit(cfg)
        B = _digest(cfg, 612, "b")
        return e_swap_inv(U, e_swap(U, B)), B

    @items.identity("swap-twist-inverse-form-2", cap=3)
    def swap_inv_2(cfg):
        U = _unit(cfg)
        B = _digest(cfg, 613, "b")
        return e_swap_inv(U, B), e_swap_inv_2(U, B)

    @items.identity("swap-twist-inverse-form-3", cap=3)
    def swap_inv_3(cfg):
        U = _unit(cfg)
        B = _digest(cfg, 614, "b")
        return e_swap_inv(U, B), e_swap_inv_3(U, B)

    @items.identity("ter-fixes-length-1", cap=1)
    def ter_length1(cfg):
        U = _unit(cfg)
        B = _digest(cfg, 615, "b")
        return leng_r(e_ter(U, B), 1), leng_r(B, 1)

    @items.identity("ter-roundtrip")
    def ter_roundtrip(cfg):
        U = _unit(cfg)
        B = _digest(cfg, 616, "b")
        return e_ter_inv(U, e_ter(U, B)), B

    @items.identity("ter-inverse-triple-sum")
    def ter_inv_triple(cfg):
        U = _unit(cfg)
        B = _digest(cfg, 617, "b")
        return e_ter_inv(U, B), e_ter_inv_triple(U, B)

    @items.identity("ter-explicit-form")
    def ter_explicit(cfg):
        U = _unit(cfg)
        B = _digest(cfg, 618, "b")
        return e_ter(U, B), e_ter_explicit(U, B)

    @items.identity("sena-explicit-form")
    def sena_explicit(cfg):
        U = _unit(cfg)
        B = _digest(cfg, 619, "b")
        return e_sena(U, B), e_sena_explicit(U, B)

    @items.identity("senary-relation-on-transported-bialternal")
    def senary_transported(cfg):
        U = _unit(cfg)
        A = _profile(cfg, "al_al_seed", 620)
        T = adari(ess(U), A)
        return senary_defect(U, T), zero()

    @items.identity("senary-relation-on-al-ol")
    def senary_al_ol(cfg):
        U = _unit(cfg)
        A = _profile(cfg, "al_ol", 621, unit=U)
        return senary_defect(U, A), zero()

    @items.identity("mantar-involution")
    def mantar_involution(cfg):
        A = _digest(cfg, 622, "a")
        return mantar(mantar(A)), A

    @items.identity("senary-relation-generic", cap=3, expect="fail")
    def senary_generic(cfg):
        U = _unit(cfg)
        A = _digest(cfg, 623, "a")
        return senary_defect(U, A), zero()

    @items.identity("push-twist-fixes-generic", cap=3, expect="fail")
    def push_generic(cfg):
        U = _unit(cfg)
        A = _digest(cfg, 624, "a")
        return e_push(U, A), A

    return Suite(
        name="senary",
        anchor="Theorem 1.1",
        description="The senary relation and the six subsymmetry operators with their inverses.",
        items=tuple(items),
    )


def _suite_push_sena() -> Suite:
    items = _Items()

    def _transported(cfg, S, salt, tag, label):
        # e_sena(T) = T for T = adari(S(U), pushsym(digest)) at two digests
        U = _unit(cfg)
        pairs = {}
        for j in range(2):
            T = adari(S(U), pushsym(_digest(cfg, salt + j, tag=f"{tag}{j}")))
            pairs[f"transported-{label}-{j}"] = e_sena(U, T), T
        return pairs

    @items.identity("transport-ess-lands-in-sena-invariants")
    def transport_ess(cfg):
        return _transported(cfg, ess, 651, "p", "ess")

    @items.identity("transport-eess-lands-in-sena-invariants")
    def transport_eess(cfg):
        return _transported(cfg, eess, 653, "q", "eess")

    @items.identity("transport-ess-roundtrip-push")
    def roundtrip_ess(cfg):
        U = _unit(cfg)
        S = ess(U)
        A = pushsym(_digest(cfg, 655, "p"))
        back = adari(invgari(S), adari(S, A))
        return push(back), back

    @items.identity("transport-eess-roundtrip-push")
    def roundtrip_eess(cfg):
        U = _unit(cfg)
        S = eess(U)
        A = pushsym(_digest(cfg, 656, "q"))
        back = adari(invgari(S), adari(S, A))
        return push(back), back

    @items.identity("swap-transport-ess-via-oess", cap=3)
    def swap_transport_corrected(cfg):
        U = _unit(cfg)
        A = pushsym(_digest(cfg, 657, "p"))
        lhs = swap(adari(ess(U), A))
        rhs = ganit(mould_oz(U), adari(oess(U), swap(A)))
        return lhs, rhs

    @items.identity("swap-transport-eess-via-oss", cap=3)
    def swap_transport_verbatim(cfg):
        U = _unit(cfg)
        A = pushsym(_digest(cfg, 658, "q"))
        lhs = swap(adari(eess(U), A))
        rhs = ganit(mould_oz(U), adari(oss(U), swap(A)))
        return lhs, rhs

    @items.identity("swap-transport-ess-via-eess", cap=3, expect="fail")
    def swap_transport_displayed(cfg):
        U = _unit(cfg)
        A = pushsym(_digest(cfg, 659, "p"))
        lhs = swap(adari(ess(U), A))
        rhs = ganit(mould_oz(U), adari(eess(U), swap(A)))
        return lhs, rhs

    @items.identity("sena-invariants-closed-under-ari", cap=3)
    def lie_closure(cfg):
        U = _unit(cfg)
        S = ess(U)
        T1 = adari(S, pushsym(_digest(cfg, 660, "p")))
        T2 = adari(S, pushsym(_digest(cfg, 661, "q")))
        C = ari(T1, T2)
        return e_sena(U, C), C

    @items.identity("transported-generic-sena", cap=3, expect="fail")
    def transported_generic(cfg):
        U = _unit(cfg)
        T = adari(ess(U), _digest(cfg, 662, "a"))
        return e_sena(U, T), T

    return Suite(
        name="push-sena",
        anchor="Theorem 1.2",
        description="The adjoint transports carry push-invariants onto the senary subspace.",
        items=tuple(items),
    )


def _suite_lemmas_6() -> Suite:
    items = _Items()

    @items.identity("irat-mantar-exchange")
    def irat_mantar(cfg):
        X = _digest(cfg, 671, "x")
        A = _digest(cfg, 672, "a")
        return irat(mantar(X), mantar(A)), mantar(irat(push_inv(X), A))

    @items.identity("axit-mantar-sandwich")
    def axit_mantar(cfg):
        U = _unit(cfg)
        osm = mould_os(U)
        A, B = _digest(cfg, 673, "a"), _digest(cfg, 674, "b")
        return axit(A, B, osm), mu(osm, axit(A, B, mantar(osm)), osm)

    @items.identity("garit-anti-conjugation")
    def garit_anti(cfg):
        Y = _group(cfg, 675, "y")
        A = _digest(cfg, 676, "a")
        return anti(garit(anti(Y), anti(A))), garit(invmu(Y), A)

    @items.identity("garit-pari-conjugation")
    def garit_pari(cfg):
        Y = _group(cfg, 677, "y")
        A = _digest(cfg, 678, "a")
        return pari(garit(pari(Y), pari(A))), garit(Y, A)

    @items.identity("garit-mantar-commutes")
    def garit_mantar(cfg):
        U = _unit(cfg)
        osm = mould_os(U)
        A = _digest(cfg, 679, "a")
        return garit(osm, mantar(A)), mantar(garit(osm, A))

    @items.identity("garit-mantar-generic", cap=3, expect="fail")
    def garit_mantar_generic(cfg):
        Y = _group(cfg, 680, "y")
        A = _digest(cfg, 681, "a")
        return garit(Y, mantar(A)), mantar(garit(Y, A))

    @items.identity("garit-oss-of-inverse", cap=3)
    def garit_pil_1(cfg):
        U = _unit(cfg)
        S = oss(U)
        return garit(S, invgari(S)), invmu(S)

    @items.identity("garit-oss-of-mantar-inverse", cap=3)
    def garit_pil_2(cfg):
        U = _unit(cfg)
        S = oss(U)
        return garit(S, mantar(invgari(S))), -S

    @items.identity("swap-transport-fragari-form", cap=3)
    def corollary_first(cfg):
        U = _unit(cfg)
        A = _digest(cfg, 682, "a")
        lhs = ganit_oz_inv(U, swap(adari(eess(U), A)))
        rhs = fragari(preira(oss(U), swap(A)), oss(U))
        return lhs, rhs

    @items.identity("push-defect-transport", cap=3)
    def komiyamanote(cfg):
        U = _unit(cfg)
        S = eess(U)
        B = _digest(cfg, 683, "b")
        X = adari_inv(S, B)
        lhs = swamu(S, X - push_inv(X))
        rhs = gari(B - e_push_inv(U, B), S)
        return lhs, rhs

    @items.identity("swap-fragari-exchange", cap=3)
    def swap_fragari_exchange(cfg):
        U = _unit(cfg)
        oz = mould_oz(U)
        A = one() + _digest(cfg, 684, "a")
        return {
            f"swap-fragari-exchange-{label}": (
                swap(fragari(swap(A), swap(B))),
                ganit(oz, fragari(A, B)),
            )
            for label, B in (("oess", oess(U)), ("oss", oss(U)))
        }

    @items.identity("garit-os-composite [polar]")
    def garit_os_corrected(cfg):
        P = _polar()
        osm, ozm = mould_os(P), mould_oz(P)
        A = _digest(cfg, 684, "a")
        return ganit(osm, gamit(pari(ozm), A)), garit(invmu(osm), A)

    @items.identity("garit-os-preserves-symmetrality [polar]")
    def garit_os_symmetral(cfg):
        S = _profile(cfg, "symmetral", 685)
        return partial(check_symmetral, garit(invmu(mould_os(_polar())), S))

    @items.identity("gamit-pari-oz-vs-gamit-inverse-os", cap=3, expect="fail")
    def garit_os_displayed(cfg):
        P = _polar()
        osm, ozm = mould_os(P), mould_oz(P)
        A = _digest(cfg, 686, "a")
        return gamit(pari(ozm), A), gamit_inv(osm, A)

    return Suite(
        name="lemmas-6",
        anchor="Sections 2 & 6",
        description="Auxiliary operator lemmas: mantar transport, garit conjugations, dimorphy bridge.",
        items=tuple(items),
    )


def _suite_negelon() -> Suite:
    items = _Items()

    @items.run("vanishing-spot-values")
    def spot_small(cfg, ctx, name):
        return _value_report(
            name,
            [
                (EMPTY, negelon_f(2, 0, 0, 1), Fraction(0)),
                (EMPTY, negelon_f(12, 3, 4, 4), Fraction(0)),
            ],
        )

    @items.run("boundary-value-r2")
    def base_value(cfg, ctx, name):
        return _value_report(name, [(EMPTY, negelon_f(2, 0, 0, 0), Fraction(1, 2))])

    @items.run("full-scan-r12")
    def scan_full(cfg, ctx, name):
        return negelon_scan(12)

    @items.run("minimal-scan-r2")
    def scan_minimal(cfg, ctx, name):
        return negelon_scan(2)

    @items.run("binomial-auxiliaries")
    def aux(cfg, ctx, name):
        return aux_identities(12)

    @items.identity("mu-factor-cube")
    def mu_factor_3(cfg):
        return partial(mu_factor_check, N=3)

    @items.identity("mu-factor-identity", cap=3)
    def mu_factor_1(cfg):
        return partial(mu_factor_check, N=1)

    @items.run("h0-scan (control)", expect="fail")
    def h0_scan(cfg, ctx, name):
        return negelon_scan(6, h_min=0)

    return Suite(
        name="negelon",
        anchor="Appendix A (Lemma negelon)",
        description="The vanishing rational sums F(r,k,l,h) and auxiliary binomial identities.",
        items=tuple(items),
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
    items are dealt to processes, and ``map`` gives their results back in
    registry order.
    """
    selected = _resolve_names(names)
    jobs = cfg.resolved_jobs()
    tasks = [(s, i, cfg) for s in selected for i in range(len(SUITES[s].items))]
    if jobs <= 1 or len(tasks) <= 1:
        results = [run_item(*task) for task in tasks]
    else:
        from concurrent.futures import ProcessPoolExecutor  # loads multiprocessing

        with ProcessPoolExecutor(max_workers=min(jobs, len(tasks))) as pool:
            results = list(pool.map(run_item, *zip(*tasks)))
    in_order = iter(results)
    reports = [
        SuiteReport(s, SUITES[s].anchor, cfg, [next(in_order) for _ in SUITES[s].items]) for s in selected
    ]
    return RunReport(config=cfg, suites=reports)

