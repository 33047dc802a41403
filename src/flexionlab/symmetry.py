"""Seeded structured bimoulds and exact symmetry checkers.

``gen_bimould(Profile(kind, seed))`` builds a bimould with a prescribed
structure (even and concentrated in length 1, alternal, symmetral,
bialternal, or al/ol for a unit) from nothing but a seed, so every suite run
can replay the exact same objects; ``pushsym``, the ``Lin`` average of the
push iterates, makes any lie-class bimould push-invariant.  An invariance
``op(A) = A`` needs no checker of its own: it is ``check_identity(op(A), A)``
with one object ``A`` on both sides.

The shuffle and push-order checkers are built on ``engine.sample_points``,
like ``engine.check_identity``: exact rational comparison at seeded random
words, with division-by-zero points resampled up to the retry cap and
recorded as skipped, with the error, when exhausted.  They take the mould
first and ``plan``, ``name`` and ``ctx`` after it, so a suite row uses one
as its value bound to its mould, e.g. ``partial(check_alternal, A)``.

Alternality and symmetrality are shuffle-sum conditions: for every splitting
of a word into two nonempty halves ``a`` and ``b``,

    sum over s in shuffles(a, b) of M(s)   equals   0          (alternal)
    sum over s in shuffles(a, b) of M(s)   equals   M(a)M(b)   (symmetral)

O-alternality of ``A`` means ``ganit(oz)^(-1)(A)`` is alternal; an equivalent
route via ``gamit(oz)^(-1)(A)`` is available for cross-checking.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from typing import Callable, Optional

from .canonical import FlexionUnit, ess, ganit_oz_inv, mould_oz
from .engine import (
    LIE,
    DigestMould,
    EvalContext,
    Lin,
    Mould,
    PointRecord,
    Report,
    SamplePlan,
    iterates,
    leng_r,
    neg,
    push,
    sample_points,
    sum_of_products,
)
from .flexion import adari, ari, expari, gamit_inv
from .words import shuffles

__all__ = [
    "PROFILE_KINDS",
    "Profile",
    "pushsym",
    "gen_bimould",
    "check_alternal",
    "check_symmetral",
    "check_o_alternal",
    "o_alternal_routes_agree",
    "check_push_order",
]


# ---------------------------------------------------------------------------
# Push symmetrization
# ---------------------------------------------------------------------------


def pushsym(A: Mould) -> Mould:
    """Average of the r+1 push-iterates of a lie-class bimould at length r.

    Since push has order r+1 on length-r words, the average is exactly
    push-invariant, and it fixes every bimould that is already push-invariant.
    It is the ``Lin`` node with the terms (1/(r+1), push^k(A)) for k = 0..r,
    each iterate built once, when a word of its length first needs it.
    """
    if A.empty_class != LIE:
        raise ValueError("pushsym expects a lie-class bimould")
    power = iterates(A, push)
    return Lin("pushsym", lambda r: [(Fraction(1, r + 1), power(k)) for k in range(r + 1)])


# ---------------------------------------------------------------------------
# Structured generators
# ---------------------------------------------------------------------------

PROFILE_KINDS = ("even_length1", "alternal", "symmetral", "al_al_seed", "al_ol")


@dataclass(frozen=True)
class Profile:
    """Recipe for a seeded structured bimould."""

    kind: str
    seed: int = 0
    depth: int = 3

    def __post_init__(self):
        if self.kind not in PROFILE_KINDS:
            raise ValueError(f"unknown profile kind {self.kind!r}; known: {PROFILE_KINDS}")
        if self.depth < 0:
            raise ValueError("need depth >= 0")


def _length1_gen(seed: int, tag: str) -> Mould:
    return leng_r(DigestMould(seed, tag=tag), 1)


def _even_length1_gen(seed: int, tag: str) -> Mould:
    D = DigestMould(seed, tag=tag)
    return leng_r(D + neg(D), 1)


def _iterated_ari(profile: Profile, gen: Callable[[int, str], Mould], prefix: str) -> Mould:
    # g0 + ari(g0,g1) + ari(ari(g0,g1),g2) + ...  Length-1 bimoulds are
    # alternal for free (shuffle sums land in length >= 2), and ari preserves
    # alternality, so the total is alternal with support up to depth + 1.
    acc = total = gen(profile.seed, f"{prefix}-0")
    for i in range(1, profile.depth + 1):
        acc = ari(acc, gen(profile.seed, f"{prefix}-{i}"))
        total = total + acc
    return total


def gen_bimould(profile: Profile, unit: Optional[FlexionUnit] = None) -> Mould:
    """The seeded bimould of ``profile``; kind ``al_ol`` needs ``unit``."""
    kind = profile.kind
    if kind == "even_length1":
        return _even_length1_gen(profile.seed, "even-1")
    if kind == "alternal":
        return _iterated_ari(profile, _length1_gen, "alternal")
    if kind == "symmetral":
        return expari(_iterated_ari(profile, _length1_gen, "symmetral"))
    if kind == "al_al_seed":
        return _iterated_ari(profile, _even_length1_gen, "al-al")
    if unit is None:
        raise ValueError("profile 'al_ol' needs a flexion unit")
    return adari(ess(unit), _iterated_ari(profile, _even_length1_gen, "al-ol"))


# ---------------------------------------------------------------------------
# Shuffle-sum checkers
# ---------------------------------------------------------------------------


def _check_shuffle(
    A: Mould,
    plan: SamplePlan,
    name: str,
    ctx: Optional[EvalContext],
    symmetral: bool,
) -> Report:
    ctx = ctx if ctx is not None else EvalContext()
    shapes = (
        ((p, total - p), (p, total - p))
        for total in range(2, plan.max_length + 1)
        for p in range(1, total // 2 + 1)
    )

    def evaluate(a, b):
        n = ctx.lanes
        lhs = sum_of_products([(ctx.at(A, s),) for s in shuffles(a, b)], n)
        rhs = sum_of_products([(ctx.at(A, a), ctx.at(A, b))] if symmetral else [], n)
        return lhs, rhs

    return sample_points(ctx, plan, name, shapes, evaluate)


def check_alternal(
    A: Mould,
    plan: SamplePlan,
    name: str = "alternal",
    ctx: Optional[EvalContext] = None,
) -> Report:
    """Shuffle sums vanish for every split into two nonempty halves."""
    return _check_shuffle(A, plan, name, ctx, symmetral=False)


def check_symmetral(
    A: Mould,
    plan: SamplePlan,
    name: str = "symmetral",
    ctx: Optional[EvalContext] = None,
) -> Report:
    """Shuffle sums factor as M(a)M(b) for every split into nonempty halves."""
    return _check_shuffle(A, plan, name, ctx, symmetral=True)


def check_o_alternal(
    unit: FlexionUnit,
    A: Mould,
    plan: SamplePlan,
    name: str = "o-alternal",
    ctx: Optional[EvalContext] = None,
    both_routes: bool = False,
) -> Report:
    """O-alternality: ganit(oz)^(-1)(A) is alternal.

    With ``both_routes`` the equivalent gamit-route condition
    (gamit(oz)^(-1)(A) alternal) is checked as well and the point lists are
    merged, so a disagreement between the routes fails the report.
    """
    report = check_alternal(ganit_oz_inv(unit, A), plan, name=name, ctx=ctx)
    if both_routes:
        gamit_route = check_alternal(
            gamit_inv(mould_oz(unit), A), plan, name=name + "#gamit", ctx=ctx
        )
        report = Report(
            identity=name,
            points=report.points + gamit_route.points,
            note="ganit- and gamit-route points merged",
        )
    return report


def o_alternal_routes_agree(
    unit: FlexionUnit,
    A: Mould,
    plan: SamplePlan,
    name: str = "o-alternal-routes",
    ctx: Optional[EvalContext] = None,
) -> Report:
    """Single-point report: both O-alternality routes reach the same verdict.

    This holds whether or not A is O-alternal, so it stays meaningful on
    bimoulds that fail the symmetry itself.  A route with no point checked
    nothing, and then neither is the agreement: the report has no point.
    """
    ganit_route = check_alternal(ganit_oz_inv(unit, A), plan, name=name + "#ganit", ctx=ctx)
    gamit_route = check_alternal(gamit_inv(mould_oz(unit), A), plan, name=name + "#gamit", ctx=ctx)
    verdicts = (ganit_route.status, gamit_route.status)
    point = PointRecord(
        identity=name,
        length=0,
        word=(),
        lhs=Fraction(1 if verdicts[0] == "pass" else 0),
        rhs=Fraction(1 if verdicts[1] == "pass" else 0),
    )
    return Report(
        identity=name,
        points=[point] if ganit_route.points and gamit_route.points else [],
        note=f"ganit-route={verdicts[0]}, gamit-route={verdicts[1]}",
    )


def check_push_order(
    A: Mould,
    plan: SamplePlan,
    name: str = "push-order",
    ctx: Optional[EvalContext] = None,
) -> Report:
    """push^(r+1) restores every bimould on length-r words."""
    ctx = ctx if ctx is not None else EvalContext()
    power = iterates(A, push)
    shapes = (((r,), (r,)) for r in range(plan.max_length + 1))
    return sample_points(
        ctx, plan, name, shapes, lambda w: (ctx.at(power(len(w) + 1), w), ctx.at(A, w))
    )
