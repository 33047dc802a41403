"""Tests for flexion units and the canonical bimould family."""

from __future__ import annotations

from fractions import Fraction

import pytest

from conftest import plan, words_of_length
from flexionlab.canonical import (
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
    register_unit,
    ro_component,
    solve_dilator_ode,
)
from flexionlab.engine import (
    DigestMould,
    EvalContext,
    anti,
    check_identity,
    der,
    gantar,
    invmu,
    neg,
    one,
    pari,
    push,
    swap,
)
from flexionlab.flexion import (
    adari,
    adari_inv,
    dilator_of,
    fragari,
    ganit,
    preari,
)
from flexionlab.senary import e_neg
from flexionlab.symmetry import (
    Profile,
    check_alternal,
    check_o_alternal,
    check_symmetral,
    gen_bimould,
    o_alternal_routes_agree,
)
from flexionlab.words import EMPTY, DivByZero, bl, word

POLAR = get_unit("polar")
CONJ = get_unit("polar-conjugate")


# -- units ---------------------------------------------------------------------

def test_recip():
    assert recip(Fraction(2, 3)) == Fraction(3, 2)
    with pytest.raises(DivByZero):
        recip(Fraction(0))


def test_polar_unit_letter_functions():
    x = bl(2, 3)
    assert POLAR.E(x) == Fraction(1, 2)
    assert POLAR.O(x) == Fraction(1, 3)
    assert CONJ.E(x) == Fraction(1, 3)
    assert CONJ.O(x) == Fraction(1, 2)


def test_polar_tripartite_spot():
    # E(u1;v1)E(u2;v2) = E(u1+u2;v1)E(u2;v2-v1) + E(u1+u2;v2)E(u1;v1-v2)
    # polar E depends only on u: 1/6 = 1/15 + 1/10 at (u1,u2) = (2,3)
    E = POLAR.E
    lhs = E(bl(2, 7)) * E(bl(3, 9))
    rhs = E(bl(5, 7)) * E(bl(3, 2)) + E(bl(5, 9)) * E(bl(2, -2))
    assert lhs == rhs == Fraction(1, 6)
    assert E(bl(5, 7)) * E(bl(3, 2)) == Fraction(1, 15)
    assert E(bl(5, 9)) * E(bl(2, -2)) == Fraction(1, 10)


def test_conjugate_polar_tripartite_spot():
    # the conjugate unit depends only on v: 1/3 = 1/2 - 1/6 at (v1,v2) = (1,3)
    E = CONJ.E
    lhs = E(bl(4, 1)) * E(bl(6, 3))
    first = E(bl(10, 1)) * E(bl(6, 2))
    second = E(bl(10, 3)) * E(bl(4, -2))
    assert lhs == first + second == Fraction(1, 3)
    assert first == Fraction(1, 2)
    assert second == Fraction(-1, 6)


def test_check_tripartite_accepts_builtin_units():
    assert check_tripartite(POLAR)
    assert check_tripartite(CONJ)


def test_check_tripartite_rejects_non_unit():
    bad = FlexionUnit("linear", lambda x: x.u, lambda x: x.v)
    assert not check_tripartite(bad)


def test_check_tripartite_is_one_walk_on_the_callers_context():
    # the two sides are two leaves, evaluated at the 20 samples as the lanes
    # of one walk
    ctx = EvalContext()
    assert check_tripartite(POLAR, ctx=ctx)
    assert ctx.stats["evals"] == 2


def _always_singular(x):
    raise DivByZero("singular letter")


def test_check_tripartite_skips_a_unit_singular_everywhere():
    # every sample is drawn at attempts 0, 1 and 2 and poisons its lane each
    # time; a check with no regular sample fails, and the unit is refused
    bad = FlexionUnit("singular", _always_singular, _always_singular)
    ctx = EvalContext(retry_cap=2)
    assert not check_tripartite(bad, ctx=ctx)
    assert ctx.stats["div_by_zero"] == 20 * 3
    with pytest.raises(ValueError, match="fails the tripartite relation"):
        register_unit(bad)
    with pytest.raises(KeyError):
        get_unit("singular")


def test_conjugate_is_an_involution():
    assert POLAR.conjugate() is CONJ
    assert CONJ.conjugate() is POLAR


def test_get_unit_unknown_name():
    with pytest.raises(KeyError):
        get_unit("no-such-unit")


# -- oz / ez --------------------------------------------------------------------

def test_oz_is_the_product_of_letter_values(ev):
    oz = mould_oz(POLAR)
    assert ev(oz, EMPTY) == 1
    for r in range(1, 5):
        for w in words_of_length(r, 3, seed=r + 70):
            prod = Fraction(1)
            for x in w:
                prod *= POLAR.O(x)
            assert ev(oz, w) == prod


def test_oz_closed_form_agrees(ctx):
    rep = check_identity(mould_oz(POLAR), oz_closed(POLAR), plan(), "oz-closed", ctx)
    assert rep.status == "pass"


def test_pari_oz_is_invmu_of_one_plus_O(ctx):
    oz = mould_oz(POLAR)
    O = mould_O(POLAR)
    rep = check_identity(pari(oz), invmu(one() + O), plan(), "pari-oz", ctx)
    assert rep.status == "pass"


def test_ez_length_1_is_E(ev):
    ez = mould_ez(POLAR)
    E = mould_E(POLAR)
    for w in words_of_length(1, 4, seed=75):
        assert ev(ez, w) == ev(E, w)


def test_swap_ez_is_anti_os(ctx):
    # reversal symmetry pairing the two one-sided product moulds (polar unit)
    rep = check_identity(swap(mould_ez(POLAR)), anti(mould_os(POLAR)), plan(), "swap-ez", ctx)
    assert rep.status == "pass"


# -- es / os ----------------------------------------------------------------------

def test_polar_es_spot_values(ev):
    es = mould_es(POLAR)
    assert ev(es, word([(2, 3)])) == Fraction(1, 2)
    for w in words_of_length(2, 4, seed=76):
        u1, u2 = w[0].u, w[1].u
        if u1 + u2 == 0:
            continue
        assert ev(es, w) == 1 / (u1 * (u1 + u2))


def test_es_is_swap_of_oz_and_back(ctx):
    es = mould_es(POLAR)
    oz = mould_oz(POLAR)
    assert check_identity(swap(oz), es, plan(), "swap-oz", ctx).status == "pass"
    assert check_identity(swap(es), oz, plan(), "swap-es", ctx).status == "pass"


def test_es_closed_form_agrees(ctx):
    rep = check_identity(mould_es(POLAR), es_closed(POLAR), plan(), "es-closed", ctx)
    assert rep.status == "pass"


def test_os_product_formula_length_2(ev):
    os = mould_os(POLAR)
    for w in words_of_length(2, 4, seed=77):
        (u1, v1), (u2, v2) = w
        if v1 == 0 or v2 - v1 == 0:
            continue
        assert ev(os, w) == POLAR.O(bl(u1, v1)) * POLAR.O(bl(u1 + u2, v2 - v1))


def test_invmu_es_is_push_es(ctx):
    es = mould_es(POLAR)
    rep = check_identity(invmu(es), push(es), plan(), "invmu-es", ctx)
    assert rep.status == "pass"


def test_os_is_gantar_invariant(ctx):
    os = mould_os(POLAR)
    rep = check_identity(gantar(os), os, plan(), "gantar-os", ctx)
    assert rep.status == "pass"


def test_es_is_symmetral(ctx):
    rep = check_symmetral(mould_es(POLAR), plan(), "es-symmetral", ctx)
    assert rep.status == "pass"


# -- redistributed dilator series ------------------------------------------------------

def test_ro_component_1_is_O(ev):
    ro1 = ro_component(POLAR, 1)
    O = mould_O(POLAR)
    for w in words_of_length(1, 4, seed=78):
        assert ev(ro1, w) == ev(O, w)
    assert ev(ro1, EMPTY) == 0


def test_To_series_length_1_is_half_O(ev):
    To = To_series(POLAR)
    for w in words_of_length(1, 4, seed=79):
        assert ev(To, w) == POLAR.O(w[0]) / 2


def test_To_series_is_O_alternal_both_routes(ctx):
    To = To_series(POLAR)
    rep = check_o_alternal(POLAR, To, plan(L=3, N=2), "To-o-alternal", ctx, both_routes=True)
    assert rep.status == "pass"
    rep = o_alternal_routes_agree(POLAR, To, plan(L=3, N=2), "To-routes", ctx)
    assert rep.status == "pass"


# -- dilator and its flow ----------------------------------------------------------------

def test_dilator_inverts_the_oz_action(ctx):
    D = dilator_D(POLAR)
    oz = mould_oz(POLAR)
    rep = check_identity(ganit(oz, D), To_series(POLAR), plan(L=3, N=2), "dilator-def", ctx)
    assert rep.status == "pass"


def test_ganit_oz_inverse_solver_matches_closed_form(ctx):
    A = DigestMould(80, tag="canonical-tests")
    lhs = ganit_oz_inv(POLAR, A)
    rhs = ganit_oz_inv_closed(POLAR, A)
    assert check_identity(lhs, rhs, plan(L=3, N=2), "oz-inv-routes", ctx).status == "pass"


def test_ganit_oz_inverse_roundtrip_both_units(ctx):
    for U in (POLAR, CONJ):
        A = DigestMould(81, tag=U.name)
        oz = mould_oz(U)
        rep = check_identity(ganit(oz, ganit_oz_inv(U, A)), A, plan(L=3, N=2), "oz-inv", ctx)
        assert rep.status == "pass"


def test_dilator_length_1_is_half_O(ev):
    D = dilator_D(POLAR)
    for w in words_of_length(1, 4, seed=82):
        assert ev(D, w) == POLAR.O(w[0]) / 2


def test_flow_length_1_equals_dilator(ev):
    D = gen_bimould(Profile("alternal", seed=83, depth=3))
    S = solve_dilator_ode(D)
    for w in words_of_length(1, 4, seed=83):
        assert ev(S, w) == ev(D, w)


def test_flow_satisfies_its_ode(ctx):
    D = gen_bimould(Profile("alternal", seed=84, depth=3))
    S = solve_dilator_ode(D)
    rep = check_identity(der(S), preari(S, D), plan(L=4, N=2), "flow-ode", ctx)
    assert rep.status == "pass"


def test_alternal_dilator_gives_symmetral_flow(ctx):
    D = gen_bimould(Profile("alternal", seed=85, depth=3))
    S = solve_dilator_ode(D)
    assert check_symmetral(S, plan(L=3, N=2), "flow-sym", ctx).status == "pass"


def test_dilator_extraction_roundtrip(ctx):
    D = gen_bimould(Profile("alternal", seed=86, depth=3))
    rep = check_identity(dilator_of(solve_dilator_ode(D)), D, plan(L=3, N=2), "flow-round", ctx)
    assert rep.status == "pass"


def test_extracted_dilator_of_symmetral_is_alternal(ctx):
    S = gen_bimould(Profile("symmetral", seed=87, depth=3))
    D = dilator_of(S)
    assert check_alternal(D, plan(L=3, N=2), "extracted-alt", ctx).status == "pass"


# -- secondary pair ------------------------------------------------------------------------

def test_secondary_pair_normalization(ev):
    for M in (ess(POLAR), oess(POLAR), eess(POLAR), oss(POLAR)):
        assert ev(M, EMPTY) == 1


def test_secondary_pair_structure():
    # one cached mould per unit, shared with the conjugate unit's mirror pair
    assert oess(POLAR) is oess(POLAR) and ess(POLAR) is ess(POLAR)
    assert oess(CONJ) is eess(POLAR)
    assert ess(CONJ) is oss(POLAR)


def test_plain_is_swap_of_dotted(ctx):
    assert check_identity(swap(oess(POLAR)), ess(POLAR), plan(L=3, N=2), "swap-oess", ctx).status == "pass"
    assert check_identity(swap(eess(POLAR)), oss(POLAR), plan(L=3, N=2), "swap-eess", ctx).status == "pass"


def test_secondary_pair_is_bisymmetral(ctx):
    assert check_symmetral(ess(POLAR), plan(L=3, N=2), "ess-sym", ctx).status == "pass"
    assert check_symmetral(oess(POLAR), plan(L=3, N=2), "oess-sym", ctx).status == "pass"


def test_fragari_of_negated_ess_gives_es(ctx):
    lhs = fragari(neg(ess(POLAR)), ess(POLAR))
    rep = check_identity(lhs, mould_es(POLAR), plan(L=3, N=2), "neg-ess", ctx)
    assert rep.status == "pass"


def test_neg_twist_is_conjugation_by_both_secondary_moulds(ctx):
    B = DigestMould(88, tag="canonical-tests")
    lhs = e_neg(POLAR, B)
    for S in (ess(POLAR), eess(POLAR)):
        rhs = adari(S, neg(adari_inv(S, B)))
        rep = check_identity(lhs, rhs, plan(L=3, N=2), "neg-conj", ctx)
        assert rep.status == "pass"


def test_crash_specialized_swap_transport(ctx):
    A = one() + DigestMould(89, tag="canonical-tests")
    oz = mould_oz(POLAR)
    for B in (oess(POLAR), oss(POLAR)):
        lhs = swap(fragari(swap(A), swap(B)))
        rhs = ganit(oz, fragari(A, B))
        rep = check_identity(lhs, rhs, plan(L=3, N=2), "crash-transport", ctx)
        assert rep.status == "pass"
