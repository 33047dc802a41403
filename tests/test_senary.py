"""Tests for the senary relation and the six subsymmetry operators."""

from __future__ import annotations

from fractions import Fraction

import pytest

from conftest import plan, words_of_length
from flexionlab.engine import (
    DigestMould,
    check_identity,
    leng_r,
    mantar,
    mu,
    neg,
    one,
    push,
    swap,
    zero,
)
from flexionlab.flexion import adari, swamu
from flexionlab.canonical import (
    To_series,
    ess,
    get_unit,
    mould_O,
    mould_es,
    mould_oz,
)
from flexionlab.senary import (
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
from flexionlab.symmetry import Profile, gen_bimould
from flexionlab.words import word

POLAR = get_unit("polar")


def digest(seed: int) -> DigestMould:
    return DigestMould(seed, tag="senary-tests")


def run(lhs, rhs, ctx, cap=4, n=3, name="check"):
    return check_identity(lhs, rhs, plan(L=cap, N=n), name, ctx)


# ---------------------------------------------------------------------------
# The ter correction
# ---------------------------------------------------------------------------


def test_ter_fixes_length_1(ctx, ev):
    B = digest(1)
    T = e_ter(POLAR, B)
    for w in words_of_length(1, 6):
        assert ev(T, w) == ev(B, w)


def test_ter_matches_explicit_form(ctx):
    B = digest(2)
    rep = run(e_ter(POLAR, B), e_ter_explicit(POLAR, B), ctx)
    assert rep.status == "pass"


def test_ter_roundtrips_both_orders(ctx):
    B = digest(3)
    assert run(e_ter_inv(POLAR, e_ter(POLAR, B)), B, ctx).status == "pass"
    assert run(e_ter(POLAR, e_ter_inv(POLAR, B)), B, ctx).status == "pass"


def test_ter_inverse_agrees_with_triple_sum(ctx):
    B = digest(4)
    rep = run(e_ter_inv(POLAR, B), e_ter_inv_triple(POLAR, B), ctx)
    assert rep.status == "pass"


def test_transported_operators_require_lie_argument():
    for op in (e_sena, e_push, e_swap, senary_defect):
        with pytest.raises(ValueError):
            op(POLAR, one())


# ---------------------------------------------------------------------------
# The sena operator
# ---------------------------------------------------------------------------


def test_sena_matches_explicit_form(ctx):
    B = digest(5)
    rep = run(e_sena(POLAR, B), e_sena_explicit(POLAR, B), ctx)
    assert rep.status == "pass"


def test_sena_negates_the_single_letter(ctx, ev):
    # At length 1 the ter correction is the identity but push negates the
    # letter, so sena acts there as B([x]) -> B([-x]).
    B = digest(6)
    S = e_sena(POLAR, B)
    for w in words_of_length(1, 6):
        x = w[0]
        assert ev(S, w) == ev(B, word([(-x.u, -x.v)]))
    rep = run(leng_r(e_sena(POLAR, B), 1), leng_r(neg(B), 1), ctx, cap=1)
    assert rep.status == "pass"


def test_sena_length_1_concrete_value(ctx, ev):
    B = digest(7)
    w = word([(Fraction(2), Fraction(3))])
    w_neg = word([(Fraction(-2), Fraction(-3))])
    got = ev(e_sena(POLAR, B), w)
    assert got == ev(B, w_neg)
    assert got != ev(B, w)  # digest values at distinct words differ


# ---------------------------------------------------------------------------
# The senary defect and the moulds that satisfy the relation
# ---------------------------------------------------------------------------


def test_defect_is_ter_push_mantar_combination(ctx):
    B = digest(8)
    explicit = e_ter(POLAR, B) - push(mantar(e_ter(POLAR, mantar(B))))
    rep = run(senary_defect(POLAR, B), explicit, ctx)
    assert rep.status == "pass"


def test_defect_zero_iff_sena_invariant_transported(ctx):
    # A bialternal seed transported by adari(ess) satisfies the senary
    # relation: the defect vanishes and sena fixes the mould.
    A = gen_bimould(Profile(kind="al_al_seed", seed=9, depth=3))
    T = adari(ess(POLAR), A)
    assert run(senary_defect(POLAR, T), zero(), ctx).status == "pass"
    assert run(e_sena(POLAR, T), T, ctx).status == "pass"


def test_defect_nonzero_and_sena_moves_generic(ctx):
    B = digest(10)
    rep_defect = run(senary_defect(POLAR, B), zero(), ctx, cap=3)
    rep_sena = run(e_sena(POLAR, B), B, ctx, cap=3)
    assert rep_defect.status == "fail"
    assert rep_sena.status == "fail"
    # both notions of failure point at the same obstruction: a mould is
    # sena-invariant exactly when its defect vanishes
    assert rep_defect.counterexample is not None
    assert rep_sena.counterexample is not None


# ---------------------------------------------------------------------------
# The universal identity and its rush rephrasings
# ---------------------------------------------------------------------------


def test_universal_identity_on_generic_moulds(ctx):
    es = mould_es(POLAR)
    for seed in (11, 12, 13):
        B = digest(seed)
        rep = run(
            B - e_sena(POLAR, B),
            swamu(es, B - e_push(POLAR, B)),
            ctx,
            name=f"universal-{seed}",
        )
        assert rep.status == "pass", rep.counterexample


def test_universal_identity_wrong_constant_fails(ctx):
    # swamu against oz instead of es breaks the identity: the constant
    # mould is not interchangeable.
    B = digest(14)
    rep = run(
        B - e_sena(POLAR, B),
        swamu(mould_oz(POLAR), B - e_push(POLAR, B)),
        ctx,
        cap=3,
    )
    assert rep.status == "fail"


def test_rush_rephrasing_collapses(ctx):
    O = mould_O(POLAR)
    B = digest(15)
    lhs = o_rush(POLAR, mu(O, B) + mu(one() - O, swap(e_sena(POLAR, swap(B)))))
    rhs = mu(B, one() - O)
    assert run(lhs, rhs, ctx).status == "pass"


def test_rush_is_swapped_push_inverse(ctx):
    O = mould_O(POLAR)
    C = digest(16)
    lhs = mu(swap(e_push_inv(POLAR, swap(C))), one() - O)
    assert run(lhs, o_rush(POLAR, C), ctx).status == "pass"


def test_swapped_sena_expression(ctx):
    O, oz = mould_O(POLAR), mould_oz(POLAR)
    B = digest(17)
    B_prime = B - mu(B, O) + swamu(O, B)
    lhs = swap(e_sena(POLAR, swap(B)))
    rhs = swamu(push(mu(oz, B_prime)), oz)
    # the swapped sena uses push_inv; the push route must therefore fail
    assert run(lhs, rhs, ctx, cap=3).status == "fail"
    from flexionlab.engine import push_inv

    rhs_good = swamu(push_inv(mu(oz, B_prime)), oz)
    assert run(lhs, rhs_good, ctx).status == "pass"


def test_rush_annihilates_zero(ctx):
    assert run(o_rush(POLAR, zero()), zero(), ctx, cap=2).status == "pass"


def test_rush_blocks_collapse_on_mu_O_range(ctx):
    M = digest(18)
    arg = mu(mould_O(POLAR), M)
    combo = -rush_r2(POLAR, arg) + rush_r3(POLAR, arg) - rush_r4(POLAR, arg)
    assert run(combo, zero(), ctx).status == "pass"


def test_rush_r4_reversal_form(ctx):
    X = digest(19)
    rep = run(rush_r4(POLAR, X), rush_r4_alt(POLAR, X), ctx)
    assert rep.status == "pass"


def test_rush_pieces_sum_to_rush(ctx):
    X = digest(20)
    recombined = (
        push(X) - rush_r2(POLAR, X) + rush_r3(POLAR, X) - rush_r4(POLAR, X)
    )
    assert run(o_rush(POLAR, X), recombined, ctx).status == "pass"


# ---------------------------------------------------------------------------
# Twisted reversal o_mantar
# ---------------------------------------------------------------------------


def test_o_mantar_is_involutive(ctx):
    A = digest(21)
    rep = run(o_mantar(POLAR, o_mantar(POLAR, A)), A, ctx, cap=3)
    assert rep.status == "pass"


def test_o_mantar_gaxit_route_agrees(ctx):
    A = digest(22)
    rep = run(o_mantar(POLAR, A), o_mantar_gaxit(POLAR, A), ctx, cap=3)
    assert rep.status == "pass"


def test_o_mantar_fixes_To_series(ctx):
    T = To_series(POLAR)
    rep = run(o_mantar(POLAR, T), T, ctx)
    assert rep.status == "pass"


def test_o_mantar_rejects_group_argument():
    with pytest.raises(ValueError):
        o_mantar(POLAR, one())


# ---------------------------------------------------------------------------
# The negation / push / swap twists
# ---------------------------------------------------------------------------


def test_negpush_roundtrip(ctx):
    A = digest(23)
    rep = run(e_negpush_inv(POLAR, e_negpush(POLAR, A)), A, ctx, cap=3)
    assert rep.status == "pass"


def test_neg_twist_roundtrip(ctx):
    B = digest(24)
    rep = run(e_neg_inv(POLAR, e_neg(POLAR, B)), B, ctx)
    assert rep.status == "pass"


def test_push_twist_roundtrip(ctx):
    B = digest(25)
    rep = run(e_push_inv(POLAR, e_push(POLAR, B)), B, ctx, cap=3)
    assert rep.status == "pass"


def test_push_twist_inverse_explicit_form(ctx):
    C = digest(26)
    rep = run(e_push_inv(POLAR, C), e_push_inv_explicit(POLAR, C), ctx, cap=3)
    assert rep.status == "pass"


def test_push_twist_via_swap_twist(ctx):
    B = digest(27)
    rep = run(
        e_push(POLAR, B),
        neg(mantar(e_swap(POLAR, mantar(swap(B))))),
        ctx,
        cap=3,
    )
    assert rep.status == "pass"


def test_swap_twist_roundtrip(ctx):
    B = digest(28)
    rep = run(e_swap_inv(POLAR, e_swap(POLAR, B)), B, ctx, cap=3)
    assert rep.status == "pass"


def test_swap_twist_inverse_forms_agree(ctx):
    B = digest(29)
    assert run(e_swap_inv(POLAR, B), e_swap_inv_2(POLAR, B), ctx, cap=3).status == "pass"
    assert run(e_swap_inv(POLAR, B), e_swap_inv_3(POLAR, B), ctx, cap=3).status == "pass"


def test_twists_work_for_conjugate_unit(ctx):
    # The operator algebra is unit-generic; spot-check the conjugate unit.
    U = get_unit("polar-conjugate")
    B = digest(30)
    assert run(e_ter_inv(U, e_ter(U, B)), B, ctx, cap=3).status == "pass"
    assert run(e_sena(U, B), e_sena_explicit(U, B), ctx, cap=3).status == "pass"
    es = mould_es(U)
    rep = run(B - e_sena(U, B), swamu(es, B - e_push(U, B)), ctx, cap=3)
    assert rep.status == "pass"
