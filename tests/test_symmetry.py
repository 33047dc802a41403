"""Tests for symmetry profiles, shuffle checkers, and invariance harnesses."""

from __future__ import annotations

from fractions import Fraction

import pytest

from conftest import plan, words_of_length
from flexionlab.engine import (
    DigestMould,
    check_identity,
    leng_r,
    mantar,
    neg,
    push,
    swap,
)
from flexionlab.flexion import adari, ari, ganit, invgari
from flexionlab.canonical import ess, get_unit, mould_oz, oess
from flexionlab.senary import e_sena
from flexionlab.symmetry import (
    PROFILE_KINDS,
    Profile,
    check_alternal,
    check_o_alternal,
    check_push_order,
    check_symmetral,
    gen_bimould,
    o_alternal_routes_agree,
    pushsym,
)
from flexionlab.words import word

POLAR = get_unit("polar")


def digest(seed: int) -> DigestMould:
    return DigestMould(seed, tag="symmetry-tests")


# ---------------------------------------------------------------------------
# Profile generation
# ---------------------------------------------------------------------------


def test_profile_kinds_registry():
    assert PROFILE_KINDS == ("even_length1", "alternal", "symmetral", "al_al_seed", "al_ol")


def test_profile_defaults():
    p = Profile(kind="alternal")
    assert (p.seed, p.depth) == (0, 3)


def test_gen_bimould_is_deterministic(ctx, ev):
    a = gen_bimould(Profile(kind="alternal", seed=5))
    b = gen_bimould(Profile(kind="alternal", seed=5))
    for r in (1, 2, 3):
        for w in words_of_length(r, 4):
            assert ev(a, w) == ev(b, w)


def test_gen_bimould_seed_changes_values(ctx, ev):
    a = gen_bimould(Profile(kind="alternal", seed=5))
    b = gen_bimould(Profile(kind="alternal", seed=6))
    ws = [w for r in (1, 2) for w in words_of_length(r, 4)]
    assert any(ev(a, w) != ev(b, w) for w in ws)


def test_gen_bimould_unknown_kind_rejected():
    with pytest.raises(ValueError):
        gen_bimould(Profile(kind="mystery"))


def test_al_ol_profile_needs_unit():
    with pytest.raises(ValueError):
        gen_bimould(Profile(kind="al_ol", seed=1))


def test_even_length1_profile(ctx, ev):
    A = gen_bimould(Profile(kind="even_length1", seed=2))
    p = plan(L=3, N=3)
    assert check_identity(neg(A), A, p, "even", ctx).status == "pass"
    assert check_identity(leng_r(A, 1), A, p, "concentrated", ctx).status == "pass"
    w = word([(Fraction(3), Fraction(-2))])
    w_neg = word([(Fraction(-3), Fraction(2))])
    assert ev(A, w) == ev(A, w_neg)
    for w2 in words_of_length(2, 3):
        assert ev(A, w2) == 0


# ---------------------------------------------------------------------------
# Shuffle-based checkers against the profiles built to satisfy them
# ---------------------------------------------------------------------------


def test_alternal_profile_checks_alternal(ctx):
    A = gen_bimould(Profile(kind="alternal", seed=3))
    assert check_alternal(A, plan(), "alternal", ctx).status == "pass"


def test_symmetral_profile_checks_symmetral(ctx):
    S = gen_bimould(Profile(kind="symmetral", seed=4))
    assert check_symmetral(S, plan(), "symmetral", ctx).status == "pass"


def test_push_invariant_profile(ctx):
    A = pushsym(digest(5))
    assert check_identity(push(A), A, plan(L=3, N=3)).status == "pass"


def test_bialternal_profile_both_components(ctx):
    A = gen_bimould(Profile(kind="al_al_seed", seed=6))
    p = plan(L=3, N=3)
    assert check_alternal(A, p, "direct", ctx).status == "pass"
    assert check_alternal(swap(A), p, "swapped", ctx).status == "pass"


def test_bialternal_is_neg_and_push_invariant(ctx):
    A = gen_bimould(Profile(kind="al_al_seed", seed=7))
    p = plan(L=3, N=3)
    assert check_identity(neg(A), A, p, "neg", ctx).status == "pass"
    assert check_identity(push(A), A, p, "push", ctx).status == "pass"


def test_al_ol_profile_is_twisted_dimorphic(ctx):
    A = gen_bimould(Profile(kind="al_ol", seed=8), unit=POLAR)
    p = plan(L=3, N=3)
    assert check_alternal(A, p, "direct", ctx).status == "pass"
    rep = check_o_alternal(POLAR, swap(A), p, "swapped", ctx, both_routes=True)
    assert rep.status == "pass"


def test_length_1_moulds_are_trivially_alternal(ctx):
    A = gen_bimould(Profile(kind="even_length1", seed=9))
    assert check_alternal(A, plan(L=2, N=3), "length-1", ctx).status == "pass"


@pytest.mark.parametrize("L", [0, 1])
def test_shuffle_check_below_length_2_has_no_points_and_is_unchecked(L, ctx):
    # every split into two nonempty halves needs a word of length >= 2, so
    # nothing is checked below it, and a report that checked nothing is
    # neither a pass nor a fail
    A = gen_bimould(Profile(kind="alternal", seed=3))
    rep = check_alternal(A, plan(L=L), "alternal", ctx)
    assert rep.points == []
    assert rep.status == "unchecked"


def test_ari_preserves_bialternality(ctx):
    A = gen_bimould(Profile(kind="al_al_seed", seed=10))
    B = gen_bimould(Profile(kind="al_al_seed", seed=11))
    C = ari(A, B)
    p = plan(L=3, N=2)
    assert check_alternal(C, p, "bracket", ctx).status == "pass"
    assert check_alternal(swap(C), p, "bracket-swapped", ctx).status == "pass"


def test_alternal_is_mantar_invariant(ctx):
    A = gen_bimould(Profile(kind="alternal", seed=12))
    assert check_identity(mantar(A), A, plan(), "mantar", ctx).status == "pass"


# ---------------------------------------------------------------------------
# pushsym averaging
# ---------------------------------------------------------------------------


def test_pushsym_is_push_invariant(ctx):
    A = pushsym(digest(13))
    assert check_identity(push(A), A, plan(L=3, N=3), "push", ctx).status == "pass"


def test_pushsym_idempotent(ctx):
    A = digest(14)
    rep = check_identity(pushsym(pushsym(A)), pushsym(A), plan(L=3, N=3), "idem", ctx)
    assert rep.status == "pass"


def test_pushsym_length_1_average(ctx, ev):
    A = digest(15)
    P = pushsym(A)
    for w in words_of_length(1, 5):
        x = w[0]
        w_neg = word([(-x.u, -x.v)])
        assert ev(P, w) == (ev(A, w) + ev(A, w_neg)) / 2


def test_pushsym_empty_word_unchanged(ctx, ev):
    from flexionlab.words import EMPTY

    A = digest(16)
    assert ev(pushsym(A), EMPTY) == ev(A, EMPTY)


def test_push_order_harness(ctx):
    assert check_push_order(digest(17), plan(), "order", ctx).status == "pass"


def test_o_alternality_routes_agree_on_generic(ctx):
    rep = o_alternal_routes_agree(POLAR, digest(20), plan(L=3, N=3), "routes", ctx)
    assert rep.status == "pass"


# ---------------------------------------------------------------------------
# Transport into the sena-invariant family
# ---------------------------------------------------------------------------


def test_transport_of_push_invariants_is_sena_invariant(ctx):
    S = ess(POLAR)
    A = pushsym(digest(21))
    T = adari(S, A)
    rep = check_identity(e_sena(POLAR, T), T, plan(), "transported", ctx)
    assert rep.status == "pass"


def test_transport_roundtrip_restores_push_invariance(ctx):
    S = ess(POLAR)
    A = pushsym(digest(22))
    back = adari(invgari(S), adari(S, A))
    rep = check_identity(push(back), back, plan(), "roundtrip-push", ctx)
    assert rep.status == "pass"


def test_transport_of_generic_is_not_sena_invariant(ctx):
    T = adari(ess(POLAR), digest(23))
    rep = check_identity(e_sena(POLAR, T), T, plan(L=3, N=3), "generic", ctx)
    assert rep.status == "fail"


def test_swap_of_transport_crosses_to_conjugate_flow(ctx):
    A = pushsym(digest(24))
    lhs = swap(adari(ess(POLAR), A))
    rhs = ganit(mould_oz(POLAR), adari(oess(POLAR), swap(A)))
    assert check_identity(lhs, rhs, plan(L=3, N=3), "swap-transport", ctx).status == "pass"


# ---------------------------------------------------------------------------
# Negative controls: a generic mould satisfies none of the symmetries
# ---------------------------------------------------------------------------


def test_generic_fails_every_symmetry(ctx):
    A = digest(25)
    p = plan()
    assert check_alternal(A, p, "alternal", ctx).status == "fail"
    assert check_symmetral(A, p, "symmetral", ctx).status == "fail"
    assert check_o_alternal(POLAR, A, p, "o-alternal", ctx).status == "fail"
    assert check_identity(push(A), A, p, "push", ctx).status == "fail"


def test_alternal_is_not_symmetral(ctx):
    A = gen_bimould(Profile(kind="alternal", seed=26))
    assert check_symmetral(A, plan(), "control", ctx).status == "fail"
