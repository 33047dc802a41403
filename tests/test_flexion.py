"""Tests for flexion derivations and group operations."""

from __future__ import annotations

import math
from fractions import Fraction

import pytest

from conftest import plan, words_of_length
from oracles import (
    amit_value,
    anit_value,
    answamu_value,
    flow_value,
    gaxit_terms,
    gaxit_value,
    invmu_value,
    mu_proper_value,
    ro_value,
    swamu_value,
    ter_inv_triple_value,
    ter_value,
)
from flexionlab.engine import (
    GROUP,
    LIE,
    DigestMould,
    EvalContext,
    FuncMould,
    Mu,
    anti,
    check_identity,
    der,
    invmu,
    mantar,
    mu,
    one,
    pari,
    push,
    push_inv,
    swap,
    zero,
)
from flexionlab.flexion import (
    _GAXIT_PLANS,
    adari,
    adari_inv,
    adari_series,
    amit,
    anit,
    answamu,
    ari,
    arit,
    axit,
    expari,
    fragari,
    gamit,
    gamit_inv,
    ganit,
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
from flexionlab.canonical import (
    FlexionUnit,
    ess,
    get_unit,
    mould_O,
    mould_es,
    mould_os,
    mould_oz,
    oss,
    ro_component,
    solve_dilator_ode,
)
from flexionlab.senary import e_ter, e_ter_inv_triple
from flexionlab.words import EMPTY, DivByZero, flr, ful, fur, fll, shuffles, word

POLAR = get_unit("polar")


def digest(seed):
    return DigestMould(seed, tag="flexion-tests")


def group(seed):
    return one() + digest(seed)


# -- amit / anit / arit --------------------------------------------------------

def test_amit_vanishes_up_to_length_1(ev):
    X, A = digest(1), group(2)
    out = amit(X, A)
    assert ev(out, EMPTY) == 0
    for w in words_of_length(1, 3, seed=1):
        assert ev(out, w) == 0


def test_amit_length_2_single_factorization(ev):
    X, A = digest(3), group(4)
    for w in words_of_length(2, 5, seed=2):
        b, c = (w[0],), (w[1],)
        assert ev(amit(X, A), w) == ev(A, ful(b, c)) * ev(X, flr(b, c))


def test_anit_length_2_single_factorization(ev):
    X, A = digest(5), group(6)
    for w in words_of_length(2, 5, seed=3):
        a, b = (w[0],), (w[1],)
        assert ev(anit(X, A), w) == ev(A, fur(a, b)) * ev(X, fll(a, b))


def test_arit_vanishes_up_to_length_1(ev):
    X, A = digest(7), digest(8)
    out = arit(X, A)
    assert ev(out, EMPTY) == 0
    for w in words_of_length(1, 3, seed=4):
        assert ev(out, w) == 0


def test_arit_is_amit_minus_anit(ctx):
    X, A = digest(9), group(10)
    rep = check_identity(arit(X, A), amit(X, A) - anit(X, A), plan(), "arit-split", ctx)
    assert rep.status == "pass"


def test_axit_is_a_mu_derivation(ctx):
    X, Y = digest(11), digest(12)
    A, B = group(13), group(14)
    lhs = axit(X, Y, mu(A, B))
    rhs = mu(axit(X, Y, A), B) + mu(A, axit(X, Y, B))
    assert check_identity(lhs, rhs, plan(), "axit-derivation", ctx).status == "pass"


def test_irat_mantar_exchange(ctx):
    X, A = digest(15), digest(16)
    lhs = irat(mantar(X), mantar(A))
    rhs = mantar(irat(push_inv(X), A))
    assert check_identity(lhs, rhs, plan(), "irat-mantar", ctx).status == "pass"


def test_preari_es_flexion_product_identity(ctx):
    es = mould_es(POLAR)
    B = digest(17)
    lhs = preari(es, B)
    rhs = swamu(es, mu(es, B) - answamu(es - one(), B))
    assert check_identity(lhs, rhs, plan(), "preari-es", ctx).status == "pass"


# -- ari ------------------------------------------------------------------------

def test_ari_antisymmetric(ctx):
    A, B = digest(18), digest(19)
    assert check_identity(ari(A, A), zero(), plan(), "ari-self", ctx).status == "pass"
    assert check_identity(ari(A, B), -ari(B, A), plan(), "ari-antisym", ctx).status == "pass"


def test_ari_vanishes_at_length_1(ev):
    A, B = digest(20), digest(21)
    for w in words_of_length(1, 4, seed=5):
        assert ev(ari(A, B), w) == 0


def test_ari_jacobi(ctx):
    A, B, C = digest(22), digest(23), digest(24)
    total = ari(A, ari(B, C)) + ari(B, ari(C, A)) + ari(C, ari(A, B))
    rep = check_identity(total, zero(), plan(L=4, N=2), "jacobi", ctx)
    assert rep.status == "pass"


def test_ari_preari_classes():
    A, B = digest(25), digest(26)
    assert ari(A, B).empty_class == LIE
    assert preari(A, B).empty_class == LIE
    assert gari(group(27), group(28)).empty_class == GROUP


# -- gaxit family ------------------------------------------------------------------

def test_gaxit_fixes_the_unit_mould(ctx):
    X, Y = group(29), group(30)
    assert check_identity(gaxit(X, Y, one()), one(), plan(L=3), "gaxit-unit", ctx).status == "pass"


def test_ganit_os_of_O_is_os_minus_1(ctx):
    os = mould_os(POLAR)
    O = mould_O(POLAR)
    rep = check_identity(ganit(os, O), os - one(), plan(), "ganit-os-O", ctx)
    assert rep.status == "pass"


def test_gamit_linearization_matches_amit(ev):
    X, A = digest(31), group(32)
    for r in range(4):
        for w in words_of_length(r, 2, seed=6 + r):
            base = ev(A, w)
            g1 = ev(gamit(one() + X, A), w)
            g2 = ev(gamit(one() + 2 * X, A), w)
            linear = g1 - base
            assert g2 - base == 2 * linear  # degree <= 1 in the scaling, r <= 3
            assert linear == ev(amit(X, A), w)


def test_ganit_linearization_matches_anit(ev):
    Y, A = digest(33), group(34)
    for r in range(4):
        for w in words_of_length(r, 2, seed=16 + r):
            base = ev(A, w)
            g1 = ev(ganit(one() + Y, A), w)
            g2 = ev(ganit(one() + 2 * Y, A), w)
            linear = g1 - base
            assert g2 - base == 2 * linear
            assert linear == ev(anit(Y, A), w)


def test_gaxit_separation(ctx):
    X, Y = group(35), group(36)
    A = digest(37)
    lhs = gaxit(X, Y, A)
    rhs = gamit(X, ganit(gamit_inv(X, Y), A))
    assert check_identity(lhs, rhs, plan(L=3, N=2), "gaxit-separation", ctx).status == "pass"


def test_gaxit_matches_the_brute_force_oracle(ev):
    X, Y, A = group(84), group(85), digest(86)
    G, B = gaxit(X, Y, A), gaxit_inv(X, Y, A)
    for r in range(7):
        for w in words_of_length(r, 2 if r < 6 else 1, seed=40 + r):
            assert ev(G, w) == gaxit_value(ev, A, X, Y, w)
            # the inverse is the identity term solved for B
            assert ev(B, w) == ev(A, w) - gaxit_value(ev, B, X, Y, w, skip_identity=True)


def test_gaxit_undoes_gaxit_inv(ctx):
    X, Y, A = group(87), group(88), digest(89)
    rep = check_identity(gaxit(X, Y, gaxit_inv(X, Y, A)), A, plan(L=6, N=1), "gaxit-inv", ctx)
    assert rep.status == "pass"
    assert {p.length for p in rep.points} == set(range(7))


def test_gaxit_plan_has_a_fibonacci_number_of_terms():
    fib = [0, 1]
    while len(fib) < 13:
        fib.append(fib[-1] + fib[-2])
    for r in range(1, 7):
        w = words_of_length(r, 1, seed=r)[0]
        assert len(_GAXIT_PLANS[False](r)[-1]) == len(gaxit_terms(w)) == fib[2 * r]
        # gaxit_inv: A at w, then every term but the identity
        assert len(_GAXIT_PLANS[True](r)[-1]) - 1 == len(gaxit_terms(w, True)) == fib[2 * r] - 1


class _Recorder:
    """A stand-in one-lane context that records each factor lookup and returns 1/1."""

    lanes = 1
    negs = (-1, 1)

    def __init__(self):
        self.calls = []

    def at(self, mould, w):
        self.calls.append((mould, w))
        return (1, 1)


@pytest.mark.parametrize("inverse", [False, True])
def test_gaxit_evaluates_each_distinct_factor_once_in_first_use_order(inverse):
    A, X, Y = digest(90), group(91), group(92)
    node = gaxit_inv(X, Y, A) if inverse else gaxit(X, Y, A)
    moulds = {"T": node if inverse else A, "X": X, "Y": Y}
    for r in range(6):
        w = words_of_length(r, 1, seed=50 + r)[0]
        terms = gaxit_terms(w, inverse)
        expected = [(A, w)] if inverse else []  # gaxit_inv reads A at w first
        for term in terms:
            for role, u in term:
                if (moulds[role], u) not in expected:
                    expected.append((moulds[role], u))
        ctx = _Recorder()
        assert node._eval(ctx, w) == ((1 - len(terms) if inverse else len(terms)), 1)
        assert ctx.calls == expected


def test_gamit_ganit_inverses_roundtrip(ctx):
    X = group(38)
    A = digest(39)
    assert check_identity(gamit(X, gamit_inv(X, A)), A, plan(L=3), "gamit-round", ctx).status == "pass"
    assert check_identity(ganit_roundtrip(X, A), A, plan(L=3), "ganit-round", ctx).status == "pass"


def ganit_roundtrip(X, A):
    from flexionlab.flexion import ganit_inv

    return ganit(X, ganit_inv(X, A))


# -- garit / gari / invgari / fragari ---------------------------------------------

def test_gari_length_1_is_sum(ev):
    A, B = group(40), group(41)
    for w in words_of_length(1, 4, seed=7):
        assert ev(gari(A, B), w) == ev(A, w) + ev(B, w)


def test_gari_invgari_roundtrip(ctx):
    A = group(42)
    assert check_identity(gari(A, invgari(A)), one(), plan(), "gari-inv", ctx).status == "pass"
    assert check_identity(gari(invgari(A), A), one(), plan(), "inv-gari", ctx).status == "pass"


def test_invgari_requires_group_class():
    with pytest.raises(ValueError):
        invgari(digest(43))


def test_fragari_undoes_gari(ctx):
    A, B = group(44), group(45)
    rep = check_identity(fragari(gari(A, B), B), A, plan(L=3, N=2), "fragari", ctx)
    assert rep.status == "pass"


def test_garit_os_composite_action(ctx):
    # the invmu(os)-twisted action factors through the two one-sided actions;
    # the left factor uses pari(oz), not the naive inverse of gamit(os)
    os = mould_os(POLAR)
    oz = mould_oz(POLAR)
    A = digest(46)
    lhs = garit(invmu(os), A)
    rhs = ganit(os, gamit(pari(oz), A))
    assert check_identity(lhs, rhs, plan(L=3, N=2), "garit-os", ctx).status == "pass"
    naive = ganit(os, gamit_inv(os, A))
    assert check_identity(lhs, naive, plan(L=3, N=2), "garit-os-naive", ctx).status == "fail"


def test_garit_preserves_symmetrality_of_es(ctx):
    from flexionlab.symmetry import check_symmetral

    os = mould_os(POLAR)
    es = mould_es(POLAR)
    rep = check_symmetral(garit(invmu(os), es), plan(L=3, N=2), "garit-sym", ctx)
    assert rep.status == "pass"


def test_garit_commutes_with_mantar_for_os(ctx):
    os = mould_os(POLAR)
    A = digest(47)
    lhs = garit(os, mantar(A))
    rhs = mantar(garit(os, A))
    assert check_identity(lhs, rhs, plan(L=3, N=2), "garit-mantar", ctx).status == "pass"


def test_garit_oss_inverse_pair(ctx):
    S = oss(POLAR)
    lhs1 = garit(S, invgari(S))
    assert check_identity(lhs1, invmu(S), plan(L=3, N=2), "garit-pil-1", ctx).status == "pass"
    lhs2 = garit(S, mantar(invgari(S)))
    assert check_identity(lhs2, -S, plan(L=3, N=2), "garit-pil-2", ctx).status == "pass"


def test_ganit_oz_inverse_closed_form(ctx):
    oz = mould_oz(POLAR)
    os = mould_os(POLAR)
    A = digest(48)
    rep = check_identity(ganit(oz, ganit(pari(os), A)), A, plan(L=3, N=2), "invgani", ctx)
    assert rep.status == "pass"


# -- expari / logari -----------------------------------------------------------------

def test_expari_logari_units(ctx):
    assert check_identity(expari(zero()), one(), plan(L=3), "exp-0", ctx).status == "pass"
    assert check_identity(logari(one()), zero(), plan(L=3), "log-1", ctx).status == "pass"


def test_expari_logari_roundtrips(ctx):
    A = digest(49)
    G = group(50)
    assert check_identity(logari(expari(A)), A, plan(), "log-exp", ctx).status == "pass"
    assert check_identity(expari(logari(G)), G, plan(), "exp-log", ctx).status == "pass"


def test_expari_expansion_identity(ctx):
    # right preari-translation of the exponential equals the shifted series
    # sum_{n>=1} P_n/(n-1)!  (P_1 = A, P_{n+1} = preari(P_n, A))
    A = digest(51)
    P = A
    total = A
    for n in range(2, 6):
        P = preari(P, A)
        total = total + Fraction(1, math.factorial(n - 1)) * P
    rep = check_identity(preari(expari(A), A), total, plan(), "exp-expansion", ctx)
    assert rep.status == "pass"


def test_der_expari_is_not_right_translation(ctx):
    # the grading derivation of expari(A) does NOT satisfy the naive flow
    # equation with dilator A; the honest dilator differs from length 2 on
    A = digest(52)
    rep = check_identity(der(expari(A)), preari(expari(A), A), plan(), "naive-ode", ctx)
    assert rep.status == "fail"
    assert rep.counterexample.length == 2


def test_gantar_fixes_exponentials_of_alternals(ctx):
    from flexionlab.engine import gantar
    from flexionlab.symmetry import Profile, gen_bimould

    alt = gen_bimould(Profile("alternal", seed=53, depth=3))
    S = expari(alt)
    assert check_identity(gantar(S), S, plan(), "gantar-fixed", ctx).status == "pass"


# -- adari ----------------------------------------------------------------------------

def test_adari_of_unit_is_identity(ctx):
    A = digest(54)
    assert check_identity(adari(one(), A), A, plan(), "adari-1", ctx).status == "pass"


def test_adari_preserves_length_1_for_ess(ev):
    A = digest(55)
    E = ess(POLAR)
    out = adari(E, A)
    for w in words_of_length(1, 4, seed=8):
        assert ev(out, w) == ev(A, w)


def test_adari_matches_nested_bracket_series(ctx):
    M, A = group(56), digest(57)
    rep = check_identity(adari(M, A), adari_series(M, A), plan(L=4, N=2), "adari-series", ctx)
    assert rep.status == "pass"


def test_adari_inverse_roundtrip(ctx):
    M, A = group(58), digest(59)
    rep = check_identity(adari_inv(M, adari(M, A)), A, plan(L=3, N=2), "adari-round", ctx)
    assert rep.status == "pass"


def test_adari_composition_law(ctx):
    M, N, A = group(60), group(61), digest(62)
    lhs = adari(gari(M, N), A)
    rhs = adari(M, adari(N, A))
    assert check_identity(lhs, rhs, plan(L=3, N=2), "adari-comp", ctx).status == "pass"


def test_adari_is_ari_homomorphism(ctx):
    M, A, B = group(63), digest(64), digest(65)
    lhs = adari(M, ari(A, B))
    rhs = ari(adari(M, A), adari(M, B))
    assert check_identity(lhs, rhs, plan(L=3, N=2), "adari-hom", ctx).status == "pass"


# -- swamu / answamu ---------------------------------------------------------------------

def test_swamu_empty_and_length_1(ev):
    A, B = group(66), group(67)
    assert ev(swamu(A, B), EMPTY) == ev(A, EMPTY) * ev(B, EMPTY)
    for w in words_of_length(1, 3, seed=9):
        expected = ev(A, EMPTY) * ev(B, w) + ev(A, w) * ev(B, EMPTY)
        assert ev(swamu(A, B), w) == expected


def test_swamu_length_2_three_cuts(ev):
    A, B = group(68), group(69)
    for w in words_of_length(2, 5, seed=10):
        (u1, v1), (u2, v2) = w
        middle = ev(A, word([(u1 + u2, v2)])) * ev(B, word([(u1, v1 - v2)]))
        expected = ev(A, EMPTY) * ev(B, w) + middle + ev(A, w) * ev(B, EMPTY)
        assert ev(swamu(A, B), w) == expected


def test_swamu_conjugation_oracle(ctx):
    A, B = digest(70), group(71)
    rep = check_identity(swamu(A, B), swap(mu(swap(A), swap(B))), plan(), "swamu-conj", ctx)
    assert rep.status == "pass"


def test_answamu_conjugation_oracle(ctx):
    def T(x):
        return anti(swap(anti(x)))

    A, B = digest(72), group(73)
    rep = check_identity(answamu(A, B), T(mu(T(B), T(A))), plan(), "answamu-conj", ctx)
    assert rep.status == "pass"


def test_push_exchanges_swamu_and_answamu(ctx):
    A, B = digest(74), digest(75)
    lhs = push(swamu(A, B))
    rhs = answamu(push(B), push(A))
    assert check_identity(lhs, rhs, plan(), "push-swamu", ctx).status == "pass"


def test_pari_distributes_over_flexion_products(ctx):
    A, B = digest(76), digest(77)
    G = group(78)
    pairs = [
        (pari(swamu(A, B)), swamu(pari(A), pari(B))),
        (pari(answamu(A, B)), answamu(pari(A), pari(B))),
        (pari(preari(A, B)), preari(pari(A), pari(B))),
    ]
    for i, (lhs, rhs) in enumerate(pairs):
        assert check_identity(lhs, rhs, plan(), f"pari-dist-{i}", ctx).status == "pass"


# -- swap conjugates ------------------------------------------------------------------------

def test_preira_is_swap_conjugate_of_preari(ctx):
    A, B = digest(79), digest(80)
    lhs = swap(preira(swap(A), swap(B)))
    assert check_identity(lhs, preari(A, B), plan(), "preira", ctx).status == "pass"


def test_girat_oz_coincides_with_double_gaxit(ctx):
    oz = mould_oz(POLAR)
    A = digest(81)
    rep = check_identity(girat(oz, A), gaxit(oz, oz, A), plan(L=3, N=2), "girat-oz", ctx)
    assert rep.status == "pass"


def test_girat_oz_sends_1_plus_O_to_oz(ctx):
    oz = mould_oz(POLAR)
    O = mould_O(POLAR)
    rep = check_identity(girat(oz, one() + O), oz, plan(), "girat-O", ctx)
    assert rep.status == "pass"


# -- shuffle expansion of arit ----------------------------------------------------------------

def _fk_right_side(ev, A, B, a, b):
    def half(a, b):
        total = Fraction(0)
        for i in range(len(a) + 1):
            for j in range(i, len(a) + 1):
                p, q, r = a[:i], a[i:j], a[j:]
                if q and r:
                    for s in shuffles(p + ful(q, r), b):
                        total += ev(A, s) * ev(B, flr(q, r))
                if p and q:
                    for s in shuffles(fur(p, q) + r, b):
                        total -= ev(A, s) * ev(B, fll(p, q))
        return total

    return half(a, b) + half(b, a)


def test_arit_shuffle_expansion(ev, ctx):
    from flexionlab.symmetry import Profile, gen_bimould

    B = gen_bimould(Profile("alternal", seed=82, depth=3))
    A = group(83)
    out = arit(B, A)
    checked = 0
    for ra in (1, 2):
        for rb in (1, 2):
            for wa in words_of_length(ra, 2, seed=20 + ra):
                for wb in words_of_length(rb, 2, seed=30 + rb):
                    lhs = sum((ev(out, s) for s in shuffles(wa, wb)), Fraction(0))
                    assert lhs == _fk_right_side(ev, A, B, wa, wb)
                    checked += 1
    assert checked == 16


def _singular_off_empty(name, empty_class=GROUP, shortest=1):
    """Mould of the given class, singular at every word of ``shortest`` or
    more letters and 1 at the shorter nonempty words."""

    def fn(*w):
        if len(w) >= shortest:
            raise DivByZero(f"{name} is singular")
        return Fraction(1 if w or empty_class == GROUP else 0)

    return FuncMould(name, fn, empty_class)


def _singular_letter(x):
    raise DivByZero("E is singular")


# a unit whose letter functions are singular everywhere (not registered: it
# fails the tripartite relation)
SINGULAR = FlexionUnit("singular", _singular_letter, _singular_letter)


@pytest.mark.parametrize(
    "build, detail",
    [
        # cut 0 evaluates left at the empty word, then right at the whole word
        (lambda left, right: Mu(left, right), "right is singular [at right <- mu]"),
        # the term keeping the first letter only meets left at the empty word
        # (its first flexion) before right at the second letter
        (
            lambda left, right: gaxit(left, right, DigestMould(93)),
            "right is singular [at right <- gaxit]",
        ),
        # the same term meets the inner word (A) before its right flexion
        (
            lambda left, right: gaxit(one(), right, _singular_off_empty("arg", LIE)),
            "arg is singular [at arg <- gaxit]",
        ),
        # amit reads A at a . ful(b, c) before X at flr(b, c)
        (lambda left, right: amit(left, right), "right is singular [at right <- amit]"),
        # anit reads A at fur(a, b) . c before X at fll(a, b)
        (lambda left, right: anit(left, right), "right is singular [at right <- anit]"),
        # cut 0 of swamu reads A at ful((), w) = w first
        (lambda left, right: swamu(left, right), "left is singular [at left <- swamu]"),
        # cut 0 of answamu reads A at fur((), w) = () and then B at w
        (lambda left, right: answamu(left, right), "right is singular [at right <- answamu]"),
        # B is read at fur(a, b) = () until a is nonempty, at cut (w1, (), w2)
        (
            lambda left, right: e_ter_inv_triple(POLAR, left),
            "left is singular [at left <- e_ter_inv_triple]",
        ),
        # e_ter reads B at w, then the e_ter_last cut sum reads B at w minus
        # its last letter before E at that letter
        (
            lambda left, right: e_ter(SINGULAR, DigestMould(93)),
            "E is singular [at E[singular] <- e_ter_last <- e_ter]",
        ),
        # the flow reads arit(D, S) first, which reads D at one letter only;
        # then its flow_mu cut sum reads S at () and D at the whole word
        (
            lambda left, right: solve_dilator_ode(_singular_off_empty("right", LIE, shortest=2)),
            "right is singular [at right <- flow_mu <- dilator_flow]",
        ),
        # the first cut reads A at the first letter before invmu at the rest
        (lambda left, right: invmu(left), "left is singular [at left <- invmu]"),
        # the proper products start at a nonempty left block
        (lambda left, right: Mu(left, right, proper=1), "left is singular [at left <- mu']"),
        (lambda left, right: Mu(left, right, proper=2), "left is singular [at left <- mu'']"),
    ],
    ids=[
        "mu",
        "gaxit",
        "gaxit-inner-first",
        "amit",
        "anit",
        "swamu",
        "answamu",
        "e_ter_inv_triple",
        "e_ter",
        "flow",
        "invmu",
        "mu-proper-1",
        "mu-proper-2",
    ],
)
def test_a_skip_names_the_first_singular_factor_in_evaluation_order(build, detail):
    M = build(_singular_off_empty("left"), _singular_off_empty("right"))
    rep = check_identity(M, one(), plan(L=2, N=2), "two-singular", EvalContext(retry_cap=1))
    skipped = [p for p in rep.points if p.status == "skipped"]
    assert {p.length for p in skipped} >= {2}
    assert all(p.detail == detail for p in skipped)


OFF_LATTICE_4 = word([("1/11", "2/13"), ("-3/13", "5/11"), ("7", "-1/2"), ("5/17", "-2/3")])
FLOW_D = digest(113)  # the flow needs a lie-class dilator


@pytest.mark.parametrize(
    "build, oracle",
    [
        (lambda A, B: Mu(A, B), lambda ev, A, B, w: mu_proper_value(ev, A, B, w, 0)),
        (lambda A, B: Mu(A, B, proper=1), lambda ev, A, B, w: mu_proper_value(ev, A, B, w, 1)),
        (lambda A, B: Mu(A, B, proper=2), lambda ev, A, B, w: mu_proper_value(ev, A, B, w, 2)),
        (swamu, swamu_value),
        (answamu, answamu_value),
        (amit, amit_value),
        (anit, anit_value),
        (lambda A, B: invmu(A), lambda ev, A, B, w: invmu_value(ev, A, w)),
        (
            lambda A, B: e_ter_inv_triple(POLAR, A),
            lambda ev, A, B, w: ter_inv_triple_value(ev, A, mould_es(POLAR), w),
        ),
        (lambda A, B: e_ter(POLAR, A), lambda ev, A, B, w: ter_value(ev, A, POLAR.E, w)),
        (lambda A, B: ro_component(POLAR, 4), lambda ev, A, B, w: ro_value(POLAR.O, w)),
        (lambda A, B: solve_dilator_ode(FLOW_D), lambda ev, A, B, w: flow_value(ev, FLOW_D, w)),
    ],
    ids=[
        "mu",
        "mu-proper-1",
        "mu-proper-2",
        "swamu",
        "answamu",
        "amit",
        "anit",
        "invmu",
        "e_ter_inv_triple",
        "e_ter",
        "ro-4",
        "flow",
    ],
)
def test_cut_sums_match_their_brute_force_oracles(ev, build, oracle):
    # group-class operands are nonzero at the empty word, so the cuts with
    # an empty block count; the word has denominators off the base lattice
    A, B = group(111), group(112)
    value = ev(build(A, B), OFF_LATTICE_4)
    assert value != 0
    assert value == oracle(ev, A, B, OFF_LATTICE_4)
