"""Tests for the mould engine: evaluation, unary operators, mu/invmu, checker."""

from __future__ import annotations

import gc
import itertools
import weakref
from fractions import Fraction
from math import gcd

import pytest
from hypothesis import example, given, strategies as st

from conftest import plan, words_of_length
from oracles import mu2_value, mu3_value, push_image_r1, swap_image
from flexionlab.engine import (
    FREE,
    GROUP,
    LIE,
    Cuts,
    DigestMould,
    EvalContext,
    FuncMould,
    Lin,
    Mould,
    Mu,
    Report,
    SamplePlan,
    Scalar,
    _a,
    _b,
    _c,
    anti,
    check_identity,
    constant_lanes,
    cut_plan,
    der,
    derived_rng,
    gantar,
    invmu,
    leng_r,
    lu,
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
from flexionlab.flexion import answamu, ari, gamit, gamit_inv, ganit, ganit_inv, gari, gaxit, gaxit_inv, swamu
from flexionlab.words import (
    BASE,
    EMPTY,
    Biletter,
    DivByZero,
    bl,
    coprime_fraction,
    fll,
    flr,
    ful,
    negate,
    reverse,
    sample_word,
    swap_pullback,
    to_lattice,
    word,
)

W1 = word([("2", "3")])
W2 = word([("1", "2"), ("3", "4")])
W3 = word([("1/2", "-3"), ("5", "1/4"), ("-2", "7")])


# -- primitives ---------------------------------------------------------------

def test_unit_mould_values(ev):
    assert ev(one(), EMPTY) == 1
    assert ev(one(), W1) == 0
    assert ev(zero(), EMPTY) == 0
    assert ev(zero(), W2) == 0


def test_scalar_classes():
    assert one().empty_class == GROUP
    assert zero().empty_class == LIE
    assert Scalar(Fraction(2, 3)).empty_class == FREE


def test_letter_mould_concentrated_at_length_1(ev):
    L = FuncMould("u-part", lambda x: x.u, LIE, 1)
    assert ev(L, W1) == 2
    assert ev(L, EMPTY) == 0
    assert ev(L, W2) == 0
    assert L.empty_class == LIE


def test_a_leaf_calls_its_function_only_where_it_can_be_nonzero(ev):
    # a lie-class leaf is 0 at the empty word and a leaf of a set length is
    # 0 at every other length, neither calling its function there
    calls = []

    def fn(*letters):
        calls.append(letters)
        return Fraction(len(letters) + 1)

    lie, free = FuncMould("lie", fn, LIE), FuncMould("free", fn, FREE)
    assert ev(lie, EMPTY) == 0 and calls == []
    assert ev(free, EMPTY) == 1 and calls == [()]
    assert ev(lie, W2) == 3 and calls[-1] == W2
    calls.clear()
    letter = FuncMould("letter", fn, LIE, 1)
    assert [ev(letter, w) for w in (EMPTY, W1, W2, W3)] == [0, 2, 0, 0]
    assert calls == [W1]
    calls.clear()
    pinned = FuncMould("pinned", fn, FREE, 2)
    assert [ev(pinned, w) for w in (EMPTY, W1, W2, W3)] == [0, 0, 3, 0]
    assert calls == [W2]


def test_digest_mould_deterministic_and_lie(ev):
    A = DigestMould(7, tag="t")
    B = DigestMould(7, tag="t")
    C = DigestMould(8, tag="t")
    assert ev(A, W2) == ev(B, W2)
    assert ev(A, EMPTY) == 0
    # different seeds disagree somewhere on a small word set
    ws = words_of_length(2, 6, seed=3)
    assert any(ev(A, w) != ev(C, w) for w in ws)


def _walk_values(ctx, A, *words):
    """``A`` at each of ``words``, as ``Fraction``s, all in one one-lane walk
    of ``ctx``: the words are the parts of that lane's sample."""
    values, _ = ctx.walk(lambda *ws: [ctx.at(A, w) for w in ws], [words])
    return [coprime_fraction(*value) for value in values]


def test_memoized_evaluation_is_stable():
    ctx = EvalContext()
    A = DigestMould(3)
    first, second = _walk_values(ctx, A, W3, W3)
    assert first == second == EvalContext().eval(A, W3)
    assert _counts(ctx) == (1, 1)


def _counts(ctx):
    return ctx.stats["evals"], ctx.stats["memo_hits"]


def _keys(ctx):
    """The memo entries as ``(uid, u1, v1, ...)`` tuples: the node of each
    table, then each of its words read back from the context's word table."""
    words = {wid: flat for flat, wid in ctx.word_ids.items()}
    return [(uid, *words[wid]) for uid, table in ctx.memo.items() for wid in table]


def _entries(memo) -> int:
    """The number of (node, word) values in ``memo``, over all node tables."""
    return sum(map(len, memo.values()))


def test_memo_is_a_table_per_node_keyed_by_lattice_word_ids():
    ctx = EvalContext()
    A = DigestMould(4)
    direct = (Biletter(Fraction(5, 2), Fraction(3)), Biletter(Fraction(1, 2), Fraction(-7, 3)))
    reduced = (Biletter(Fraction(10, 4), Fraction(6, 2)), Biletter(Fraction(2, 4), Fraction(14, -6)))
    value, again = _walk_values(ctx, A, direct, reduced)
    assert again == value
    assert _counts(ctx) == (1, 1)
    # every coordinate times the base lattice scale 2520 = lcm(1..10)
    assert ctx.scale == BASE == 2520
    assert ctx.word_ids == {(6300, 7560, 1260, -5880): 0}
    assert ctx.memo == {A.uid: {0: (value.numerator, value.denominator)}}
    assert _keys(ctx) == [(A.uid, 6300, 7560, 1260, -5880)]


def test_flexed_word_shares_the_entry_of_the_direct_word():
    ctx = EvalContext()
    A = DigestMould(5)
    flexed = ful(word([("1/3", "2")]), word([("1/6", "5"), ("4", "-1")]))
    direct = word([("1/2", "5"), ("4", "-1")])
    assert flexed is not direct
    _walk_values(ctx, A, direct, flexed)
    assert _counts(ctx) == (1, 1)
    assert _keys(ctx) == [(A.uid, 1260, 12600, 10080, -2520)]
    assert len(ctx.word_ids) == 1


def test_memo_separates_sign_swap_and_reciprocal():
    ctx = EvalContext()
    A = DigestMould(6)
    variants = [
        word([("1/2", "3")]),
        word([("-1/2", "3")]),  # sign
        word([("3", "1/2")]),  # u and v swapped
        word([("2", "3")]),  # numerator and denominator swapped
        word([("1/2", "1/3")]),
    ]
    _walk_values(ctx, A, *variants)
    assert _counts(ctx) == (len(variants), 0)
    assert list(ctx.memo) == [A.uid]
    assert set(_keys(ctx)) == {
        (A.uid, 1260, 7560),
        (A.uid, -1260, 7560),
        (A.uid, 7560, 1260),
        (A.uid, 5040, 7560),
        (A.uid, 1260, 840),
    }


@pytest.mark.parametrize("letter", [Biletter(1, 2), Biletter(Fraction(1), 2.0)])
def test_non_fraction_coordinates_raise_instead_of_taking_an_entry(letter):
    ctx = EvalContext()
    A = DigestMould(9)
    ctx.eval(A, (bl(1, 2),))
    with pytest.raises(TypeError, match="Fractions"):
        ctx.eval(A, (letter,))
    assert _counts(ctx) == (1, 0)
    assert _entries(ctx.memo) == 1


def _coords(*w):
    """A word function that reads every coordinate (an independent oracle)."""
    return sum(((i + 1) * x.u - x.u * x.v for i, x in enumerate(w)), Fraction(1))


OFF_LATTICE = word([("1/11", "2/13"), ("-3/13", "5/11"), ("7", "-1/2")])


def test_off_lattice_word_gives_the_oracle_values(ctx, ev):
    A, B = DigestMould(91), DigestMould(92)
    F = FuncMould("coords", _coords, FREE)
    assert ev(Mu(A, B), OFF_LATTICE) == mu2_value(ev, A, B, OFF_LATTICE)
    assert ev(swap(F), OFF_LATTICE) == _coords(*swap_image(OFF_LATTICE))
    assert ev(neg(F), OFF_LATTICE) == _coords(*negate(OFF_LATTICE))
    assert ev(FuncMould("v", lambda x: x.v, LIE, 1), OFF_LATTICE[:1]) == Fraction(2, 13)
    assert ctx.scale == 2520 * 11 * 13
    seen = []
    value = ctx.apply(lambda *letters: seen.append(letters) or _coords(*letters), *to_lattice(OFF_LATTICE, ctx.scale))
    assert seen == [OFF_LATTICE]
    assert value == (_coords(*OFF_LATTICE).numerator, _coords(*OFF_LATTICE).denominator)


def test_div_by_zero_trail_keeps_fraction_words(ctx):
    def singular(*w):
        raise DivByZero("always singular")

    w = word([("1/2", "3"), ("1/11", "-1")])
    with pytest.raises(DivByZero) as exc:
        ctx.eval(Mu(one(), FuncMould("always-singular", singular, LIE)), w)
    assert exc.value.trail == [("always-singular", w), ("mu", w)]


def test_two_lattices_in_one_context_give_the_oracle_values():
    ctx = EvalContext()
    S = swap(FuncMould("coords", _coords, FREE))
    on = word([("1/2", "3"), ("5", "-1/4")])
    value = ctx.eval(S, on)
    assert value == _coords(*swap_image(on))
    assert ctx.scale == BASE and _counts(ctx) == (2, 0)
    # one walk runs on the lcm lattice of all its words: a base-lattice word
    # lies on the larger lattice too
    off = _coords(*swap_image(OFF_LATTICE))
    assert _walk_values(ctx, S, on, OFF_LATTICE, on) == [value, off, value]
    assert ctx.scale == 2520 * 11 * 13 and _entries(ctx.memo) == 4
    assert _counts(ctx) == (6, 1)


def test_every_walk_starts_from_fresh_state():
    ctx = EvalContext()
    A = DigestMould(8)
    on = word([("1/2", "3"), ("5", "-1/4")])
    # two walks in a row share no entry: the second evaluates the word again
    assert _walk_values(ctx, A, on) == _walk_values(ctx, A, on)
    assert _counts(ctx) == (2, 0)
    # each walk picks its own scale from its own words
    ctx.eval(A, OFF_LATTICE)
    assert ctx.scale == 2520 * 11 * 13
    ctx.eval(A, on)
    assert ctx.scale == BASE
    # after an item its context holds the entries of its last walk only
    G = Mu(A, DigestMould(9))
    walks = []

    def evaluate(w):
        evals = ctx.stats["evals"]
        value = ctx.at(G, w)
        walks.append((ctx.memo, ctx.stats["evals"] - evals))
        return value, value

    shapes = (((r,), (r,)) for r in range(3))
    sample_points(ctx, SamplePlan(max_length=2, samples_per_length=3, seed=5), "fresh", shapes, evaluate)
    assert len({id(memo) for memo, _ in walks}) == len(walks) == 3
    memo, evals = walks[-1]
    assert ctx.memo is memo and ctx.lanes == 3
    assert _entries(memo) == evals > 0


SHARED = ("zeros", "ones", "negs")  # the order of constant_lanes


def _flat(*lanes) -> tuple:
    """The value whose lanes are the rationals ``lanes``."""
    return tuple(x for f in lanes for x in (f.numerator, f.denominator))


def _is_value(v, lanes: int) -> bool:
    """``v`` is a value of ``lanes`` lanes: a flat tuple of (numerator,
    denominator) ints, each pair in lowest terms with a positive denominator."""
    return (
        type(v) is tuple
        and len(v) == 2 * lanes
        and all(type(x) is int for x in v)
        and all(d > 0 and gcd(n, d) == 1 for n, d in zip(v[::2], v[1::2]))
    )


def _factor(f, lanes: int) -> tuple:
    """A drawn factor as a value of ``lanes`` lanes: a name is that shared
    constant, and a ``Fraction`` f is f in lane 0, f + 1 in lane 1."""
    if isinstance(f, str):
        return constant_lanes(lanes)[SHARED.index(f)]
    return _flat(*(f + k for k in range(lanes)))


@given(
    st.lists(
        st.lists(st.fractions(max_denominator=30) | st.sampled_from(SHARED), max_size=4),
        max_size=6,
    ),
    st.sampled_from([1, -1]),
)
@example([], 1)
@example([[]], -1)
@example([[Fraction(0), Fraction(3, 7)], [Fraction(2, 5)]], 1)
@example([[Fraction(1, 6), Fraction(-4, 9)], [Fraction(1, 10)], [Fraction(7, 4)]], -1)
@example([["ones", Fraction(2, 3)], ["zeros", Fraction(1, 5)], ["negs", "negs"]], 1)
@example([["ones", "zeros"]], -1)
def test_sum_of_products_equals_the_fraction_sum(terms, sign):
    expected = []
    for k in (0, 1):
        total = Fraction(0)
        for factors in terms:
            product = Fraction(1)
            for f in factors:
                product *= Fraction(*_factor(f, 2)[2 * k : 2 * k + 2])
            total += product
        expected.append(sign * total)
    for lanes in (1, 2):
        zeros, ones, negs = constant_lanes(lanes)
        signs = [] if sign == 1 else [negs]  # a negated term carries a negs factor
        values = [signs + [_factor(f, lanes) for f in factors] for factors in terms]
        got = sum_of_products(values, lanes)
        assert _is_value(got, lanes)
        assert got == _flat(*expected[:lanes])
        rest = [f for f in values[0] if f is not ones] if len(values) == 1 else []
        if len(rest) == 1:
            assert got is rest[0]  # a lone factor passes through
        elif not any(expected[:lanes]):
            assert got is zeros


def test_an_all_zero_sum_is_the_shared_zeros():
    zeros, ones, negs = constant_lanes(3)
    a = _flat(Fraction(1, 2), Fraction(-3), Fraction(7, 5))
    assert sum_of_products([(a,), (negs, a)], 3) is zeros
    assert sum_of_products([(negs, a, zeros), (negs, ones, zeros)], 3) is zeros
    assert sum_of_products([], 3) is zeros
    # a lane that sums to 0 holds 0/1
    b = _flat(Fraction(-1, 2), Fraction(3), Fraction(0))
    assert sum_of_products([(a,), (b,)], 3) == (0, 1, 0, 1, 7, 5)


def test_a_lone_unit_coefficient_term_is_its_factor(ctx):
    zeros, ones, negs = constant_lanes(2)
    a = _flat(Fraction(1, 3), Fraction(-2))
    assert sum_of_products([(a,)], 2) is a
    assert sum_of_products([(ones, a)], 2) is a
    assert sum_of_products([(a, ones, ones)], 2) is a
    assert sum_of_products([(negs, ones, a)], 2) == _flat(Fraction(-1, 3), Fraction(2))
    assert sum_of_products([(negs, a)], 2) == _flat(Fraction(-1, 3), Fraction(2))
    # a constant is the shared value of its lane count, so a Lin node with
    # one unit term holds its child's value object
    assert ctx.const(1) is ctx.const(Fraction(2, 2)) is ctx.ones
    assert ctx.const(0) is ctx.zeros and ctx.const(-1) is ctx.negs
    assert ctx.const(Fraction(-2, 4)) is ctx.const(Fraction(-1, 2)) == (-1, 2)
    D = DigestMould(9)
    w = to_lattice(W2, BASE)
    assert ctx.at(leng_r(D, 2), w) is ctx.at(D, w)
    assert ctx.at(leng_r(D, 3), w) is constant_lanes(1)[0]


# one length-1 word per lane of the poisoning walks below
LANE_WORDS = [word([("1/2", "3")]), word([("2", "-1/3")]), word([("-5/4", "7")])]


def _singular_at(*bad: Biletter) -> FuncMould:
    """A lie-class leaf that divides by zero exactly at the words whose
    first letter is in ``bad``."""

    def fn(*w):
        if w and w[0] in bad:
            raise DivByZero("singular lane")
        return sum((x.u * (i + 2) for i, x in enumerate(w)), Fraction(0))

    return FuncMould("singular-lane", fn, LIE)


def _walk(G, words):
    """One walk of ``G`` with a lane per word: its value, its poisoned lanes
    with their errors, and the context's div_by_zero count."""
    ctx = EvalContext()
    (value, _), poisoned = ctx.walk(lambda w: (ctx.at(G, w), ctx.zeros), [[w] for w in words])
    assert ctx.poisoned is poisoned  # the walk's record stays until the next walk
    return value, poisoned, ctx.stats["div_by_zero"]


def test_a_poisoned_lane_survives_the_shared_constants():
    # the singular leaf passes through a lone unit term, a shared negs
    # coefficient, a zero coefficient and the zero factor D(empty) of a cut;
    # in each its lane is poisoned and the other lane reads the one-lane value
    w0, w1 = LANE_WORDS[:2]
    S, D = _singular_at(w1[0]), DigestMould(5)
    for G in (leng_r(S, 1), -S, S * 0, Mu(D, S)):
        value, poisoned, div_by_zero = _walk(G, [w0, w1])
        assert poisoned.keys() == {1} and div_by_zero == 1
        assert value[:2] == _flat(EvalContext().eval(G, w0))
    # apply puts 0 in the lane it poisons
    assert _walk(S, [w0, w1])[0][2:] == (0, 1)


def test_a_lane_walk_holds_one_all_zero_value():
    # ari of a digest and a one-letter leaf is 0 at many words of a walk (the
    # digest at the empty word, the one-letter leaf off length 1, the products
    # and sums of those); each of them must be the one shared value, not a
    # tuple of its own
    F = ari(DigestMould(1), FuncMould("u+v", lambda x: x.u + x.v, LIE, 1))
    ctx = EvalContext()
    samples = [[sample_word(derived_rng(0, "zeros", i), 3)] for i in range(4)]
    held = {}

    def evaluate(w):
        value = ctx.at(F, w)
        zeros = [v for table in ctx.memo.values() for v in table.values() if v == (0, 1) * 4]
        held.update(entries=len(zeros), objects=len({id(v) for v in zeros}))
        return value, value

    ctx.walk(evaluate, samples)
    assert held["entries"] > 5
    assert held["objects"] == 1


def test_the_empty_word_check_skips_poisoned_lanes():
    # a group-class leaf that divides by zero everywhere poisons every lane
    # of the walk at the empty word too, where 0 stands in for its value 1:
    # the class check must let those lanes through to be resampled
    def singular(*w):
        raise DivByZero("always singular")

    S = FuncMould("always-singular", singular, GROUP)
    p = SamplePlan(max_length=1, samples_per_length=3, seed=4)
    rep = check_identity(Mu(S, DigestMould(7)), zero(), p, "group-singular", EvalContext(retry_cap=1))
    assert [pt.status for pt in rep.points] == ["skipped"] * 4
    assert all("always singular" in pt.detail for pt in rep.points)


def test_sum_of_products_consumes_every_factor_in_order():
    seen = []

    def factor(name, value):
        seen.append(name)
        return (value, 1)

    terms = ((factor(f"a{i}", i), factor(f"b{i}", 1)) for i in range(3))
    assert sum_of_products(terms) == (3, 1)
    assert seen == ["a0", "b0", "a1", "b1", "a2", "b2"]


def test_a_leaf_that_divides_by_zero_poisons_its_lane_only():
    w0, w1, w2 = LANE_WORDS
    S, T = _singular_at(w1[0]), _singular_at(w2[0])
    # each singular value is multiplied by the other leaf at the empty word,
    # 0; the lane is poisoned all the same
    G = Mu(S, T) + Mu(T, S)
    value, poisoned, div_by_zero = _walk(G, [w0, w1, w2])
    assert poisoned.keys() == {1, 2} and div_by_zero == 2  # one per poisoned lane
    assert value[:2] == _flat(EvalContext().eval(G, w0))
    # two leaves that poison the same lane count one singular sample
    _, poisoned, div_by_zero = _walk(S + _singular_at(w1[0]), [w0, w1])
    assert poisoned.keys() == {1} and div_by_zero == 1
    # eval raises the error its one-lane walk recorded, with the trail of
    # the singular frames, and counts one singular sample however many
    # frames the error passes
    ctx = EvalContext()
    with pytest.raises(DivByZero) as exc:
        ctx.eval(G, w1)
    assert [name for name, _ in exc.value.trail] == ["singular-lane", "mu", "add"]
    assert ctx.stats["div_by_zero"] == 1
    assert sum_of_products([], 3) == (0, 1) * 3
    with pytest.raises(IndexError):
        sum_of_products([((Fraction(1),), (Fraction(2),))])  # a tuple of Fractions is not a value


def _singular_on_thirds(*w):
    # singular wherever a letter's u has a numerator divisible by 3, so the
    # transforms above it meet the pole at other words in other frames
    if any(x.u.numerator % 3 == 0 for x in w):
        raise DivByZero("u numerator divisible by 3")
    return sum((x.v * (i + 1) for i, x in enumerate(w)), Fraction(0))


def test_a_poisoned_lane_keeps_the_error_its_word_raises_alone():
    # each poisoned lane of a 3-lane walk keeps its first error, whose text
    # and trail, names and Fraction words, are those of ctx.eval of that
    # lane's word alone
    S = FuncMould("thirds-singular", _singular_on_thirds, LIE)
    G = pari(Mu(DigestMould(9), swap(S)) + der(anti(S)))
    words = [sample_word(derived_rng(2, "trails", i), 3) for i in range(3)]
    ctx = EvalContext()
    _, poisoned = ctx.walk(lambda w: (ctx.at(G, w), ctx.zeros), [[w] for w in words])
    assert 0 < len(poisoned) < 3
    for lane, w in enumerate(words):
        alone = EvalContext()
        if lane not in poisoned:
            alone.eval(G, w)
            continue
        with pytest.raises(DivByZero) as exc:
            alone.eval(G, w)
        kept = poisoned[lane]
        assert str(kept) == str(exc.value)
        assert kept.trail == exc.value.trail
        assert kept.trail[0][0] == "thirds-singular" and kept.trail[-1] == ("pari", w)
        assert all(isinstance(c, Fraction) for _, tw in kept.trail for x in tw for c in x)
        assert len({tw for _, tw in kept.trail}) > 1


def _reachable(root) -> list:
    """Every object reachable from ``root`` through ``gc.get_referents``."""
    seen, stack = {}, [root]
    while stack:
        obj = stack.pop()
        if id(obj) not in seen:
            seen[id(obj)] = obj
            stack.extend(gc.get_referents(obj))
    return list(seen.values())


def test_a_lane_walk_memo_holds_node_tables_of_word_ids_and_flat_int_values():
    # the memo of a walk of 3 lanes: one table per node, keyed by its int
    # uid, holding one entry per word under the word's int id, one flat tuple
    # of (numerator, denominator) ints per value, nothing that is a Fraction,
    # and one word-table entry per distinct packed word it visits
    visited = set()

    class Recording(EvalContext):
        def at(self, A, w):
            visited.add(sum(w, ()))
            return super().at(A, w)

    F = ari(DigestMould(1), FuncMould("u+v", lambda x: x.u + x.v, LIE, 1))
    G = F + Fraction(2, 3) * Mu(DigestMould(2), one() + DigestMould(3))
    ctx = Recording()
    samples = [[sample_word(derived_rng(0, "memo", i), 3)] for i in range(3)]
    held = {}

    def evaluate(w):
        value = ctx.at(G, w)
        held.update(memo={uid: dict(table) for uid, table in ctx.memo.items()}, word_ids=dict(ctx.word_ids))
        return value, value

    ctx.walk(evaluate, samples)
    memo, word_ids = held["memo"], held["word_ids"]
    assert _entries(memo) > 20
    assert all(type(uid) is int for uid in memo)
    assert all(type(wid) is int for table in memo.values() for wid in table)
    assert all(_is_value(value, 3) for table in memo.values() for value in table.values())
    assert not any(isinstance(x, Fraction) for x in _reachable(memo))
    assert set(word_ids) == visited
    assert all(type(x) is int for flat in word_ids for x in flat)
    assert sorted(word_ids.values()) == list(range(len(word_ids)))
    assert set().union(*memo.values()) == set(word_ids.values())


def test_node_tables_key_their_entries_by_the_word_tables_id_objects():
    # a memo entry costs one dict slot: its key is the id object that
    # word_ids already holds, not an equal int of its own.  Ints from -5 to
    # 256 are shared objects, so the walk must intern more words than that
    # for the identity check to see a copied key.
    F = gari(one() + DigestMould(1), one() + DigestMould(2))
    ctx = EvalContext()
    samples = [[sample_word(derived_rng(0, "ids", i), 6)] for i in range(3)]
    held = {}

    def evaluate(w):
        value = ctx.at(F, w)
        held.update(tables=list(ctx.memo.values()), ids={wid: wid for wid in ctx.word_ids.values()})
        return value, value

    ctx.walk(evaluate, samples)
    tables, ids = held["tables"], held["ids"]
    assert max(map(max, filter(None, tables))) > 256
    for table in tables:
        assert table.keys() <= ids.keys()
        assert all(wid is ids[wid] for wid in table)


def test_arithmetic_sugar(ev):
    A = DigestMould(1)
    B = DigestMould(2)
    w = W2
    assert ev(A + B, w) == ev(A, w) + ev(B, w)
    assert ev(A - B, w) == ev(A, w) - ev(B, w)
    assert ev(Fraction(2, 3) * A, w) == Fraction(2, 3) * ev(A, w)
    assert ev(-A, w) == -ev(A, w)
    assert ev(A + 1, EMPTY) == 1


# -- unary operators ----------------------------------------------------------

def test_unary_coordinate_actions(ev):
    A = DigestMould(5)
    assert ev(anti(A), W3) == ev(A, reverse(W3))
    assert ev(neg(A), W3) == ev(A, negate(W3))
    assert ev(swap(A), W3) == ev(A, swap_pullback(W3))
    assert ev(pari(A), W3) == -ev(A, W3)
    assert ev(pari(A), W2) == ev(A, W2)
    assert ev(der(A), W3) == 3 * ev(A, W3)
    assert ev(leng_r(A, 2), W2) == ev(A, W2)
    assert ev(leng_r(A, 2), W3) == 0


def test_push_at_length_1_negates_the_letter(ev):
    A = DigestMould(6)
    for w in words_of_length(1, 5, seed=1):
        assert ev(push(A), w) == ev(A, (push_image_r1(w[0]),))


def test_mantar_at_length_2_is_negated_reversal(ev):
    A = DigestMould(6)
    assert ev(mantar(A), W2) == -ev(A, reverse(W2))
    assert ev(mantar(A), W1) == ev(A, W1)


def test_anti_mantar_chain_is_minus_pari(ev):
    A = DigestMould(16)
    for w in (W1, W2, W3):
        assert ev(anti(mantar(A)), w) == ev(-pari(A), w)


def test_involutions(ctx):
    A = DigestMould(9)
    for op in (anti, neg, swap, pari, mantar):
        rep = check_identity(op(op(A)), A, plan(L=4, N=3), "involution", ctx)
        assert rep.status == "pass"


def test_push_order_is_length_plus_one(ev):
    A = DigestMould(10)
    for r in range(1, 5):
        for w in words_of_length(r, 2, seed=r):
            rotated = A
            for _ in range(r + 1):
                rotated = push(rotated)
            assert ev(rotated, w) == ev(A, w)


def test_push_inverse_roundtrip_up_to_length_5(ctx):
    A = DigestMould(11)
    rep = check_identity(push(push_inv(A)), A, plan(L=5, N=3), "push-inverse", ctx)
    assert rep.status == "pass"
    rep = check_identity(push_inv(push(A)), A, plan(L=5, N=3), "inverse-push", ctx)
    assert rep.status == "pass"


def test_der_of_length_projection(ctx):
    A = DigestMould(12)
    rep = check_identity(der(leng_r(A, 3)), 3 * leng_r(A, 3), plan(), "der-leng", ctx)
    assert rep.status == "pass"


def test_gantar_requires_group_class():
    with pytest.raises(ValueError):
        gantar(DigestMould(1))


# -- mu / invmu -----------------------------------------------------------------

def test_mu_small_expansions(ev):
    A = one() + DigestMould(21)
    B = one() + DigestMould(22)
    assert ev(mu(A, B), EMPTY) == ev(A, EMPTY) * ev(B, EMPTY)
    assert ev(mu(A, B), W1) == ev(A, EMPTY) * ev(B, W1) + ev(A, W1) * ev(B, EMPTY)


def test_mu_matches_two_block_oracle(ev):
    A = DigestMould(23)
    B = one() + DigestMould(24)
    for r in range(4):
        for w in words_of_length(r, 3, seed=r + 40):
            assert ev(mu(A, B), w) == mu2_value(ev, A, B, w)


def test_mu_associativity_against_triple_sum_oracle(ev):
    A = one() + DigestMould(25)
    B = DigestMould(26)
    C = one() + DigestMould(27)
    count = 0
    for r in range(5):
        for w in words_of_length(r, 5 if r else 1, seed=r + 50):
            expected = mu3_value(ev, A, B, C, w)
            assert ev(mu(mu(A, B), C), w) == expected
            assert ev(mu(A, mu(B, C)), w) == expected
            assert ev(mu(A, B, C), w) == expected
            count += 1
    assert count >= 20


def test_mu_unit_neutral(ctx):
    A = DigestMould(28)
    assert check_identity(mu(one(), A), A, plan(), "left-unit", ctx).status == "pass"
    assert check_identity(mu(A, one()), A, plan(), "right-unit", ctx).status == "pass"


def test_mu_not_commutative_first_at_length_2(ctx):
    A, B = DigestMould(29), DigestMould(30)
    rep = check_identity(mu(A, B), mu(B, A), plan(), "mu-comm", ctx)
    assert rep.status == "fail"
    cex = rep.counterexample
    # length 0 and 1 agree for any two moulds (the two-block sum is symmetric
    # there), so the first possible disagreement is at length 2
    assert cex.length == 2


def test_invmu_of_unit(ctx):
    assert check_identity(invmu(one()), one(), plan(L=3), "invmu-1", ctx).status == "pass"


def test_invmu_length_2_closed_form(ev):
    A = one() + DigestMould(31)
    for w in words_of_length(2, 5, seed=61):
        x, y = (w[0],), (w[1],)
        assert ev(invmu(A), w) == ev(A, x) * ev(A, y) - ev(A, w)


def test_mu_invmu_roundtrip(ctx):
    A = one() + DigestMould(32)
    rep = check_identity(mu(A, invmu(A)), one(), plan(), "invmu-right", ctx)
    assert rep.status == "pass"
    rep = check_identity(mu(invmu(A), A), one(), plan(), "invmu-left", ctx)
    assert rep.status == "pass"


def test_pari_distributes_over_mu_and_invmu(ctx):
    A, B = DigestMould(33), DigestMould(34)
    G = one() + DigestMould(35)
    assert check_identity(pari(mu(A, B)), mu(pari(A), pari(B)), plan(), "pari-mu", ctx).status == "pass"
    assert check_identity(pari(invmu(G)), invmu(pari(G)), plan(), "pari-invmu", ctx).status == "pass"


def test_class_propagation():
    A, B = DigestMould(36), DigestMould(37)
    G = one() + A
    assert G.empty_class == GROUP
    assert mu(G, one() + B).empty_class == GROUP
    assert lu(A, B).empty_class == LIE
    assert invmu(G).empty_class == GROUP
    assert (A + B).empty_class == LIE
    assert (G + one()).empty_class == FREE


# The empty-word class each linear constructor had as a hand-written rule,
# over operand classes in LIE, GROUP, FREE order ("LGF" = lie, group, free).
_CLASS = {"L": LIE, "G": GROUP, "F": FREE}
_OPERANDS = {
    LIE: DigestMould(60),
    GROUP: one() + DigestMould(61),
    FREE: FuncMould("free", lambda *w: Fraction(2), FREE),
}
UNARY_CLASSES = {
    "smul[0]": (lambda A: 0 * A, "LLL"),
    "smul[1]": (lambda A: 1 * A, "LGF"),
    "smul[-1]": (lambda A: -A, "LFF"),
    "pari": (pari, "LGF"),
    "der": (der, "LLL"),
    "leng_0": (lambda A: leng_r(A, 0), "LGF"),
    "leng_2": (lambda A: leng_r(A, 2), "LLL"),
}
# rows: left operand L, G, F; columns: right operand L, G, F
BINARY_CLASSES = {
    "add": (lambda A, B: A + B, ("LGF", "GFF", "FFF")),
    "sub": (lambda A, B: A - B, ("LFF", "GLF", "FFF")),
}


@pytest.mark.parametrize("name", sorted(UNARY_CLASSES))
def test_unary_linear_nodes_keep_their_empty_class(name):
    build, classes = UNARY_CLASSES[name]
    for operand, want in zip((LIE, GROUP, FREE), classes):
        node = build(_OPERANDS[operand])
        assert isinstance(node, Lin) and node.name == name
        assert node.empty_class == _CLASS[want], (name, operand)
        EvalContext().eval(node, EMPTY)  # the runtime class check agrees


@pytest.mark.parametrize("name", sorted(BINARY_CLASSES))
def test_binary_linear_nodes_keep_their_empty_class(name):
    build, rows = BINARY_CLASSES[name]
    for left, row in zip((LIE, GROUP, FREE), rows):
        for right, want in zip((LIE, GROUP, FREE), row):
            node = build(_OPERANDS[left], _OPERANDS[right])
            assert isinstance(node, Lin) and node.name == name
            assert node.empty_class == _CLASS[want], (name, left, right)
            EvalContext().eval(node, EMPTY)


# The empty-word classes that products and one-operand nodes derive from
# their terms at length 0: a row per left operand class L, G, F for the
# products, one class per operand class for the rest.
_G = _OPERANDS[GROUP]
PRODUCT_CLASSES = {
    "mu": (Mu, ("LLL", "LGF", "LFF")),
    "mu'": (lambda A, B: Mu(A, B, 1), ("LLL", "LLL", "LLL")),
    "mu''": (lambda A, B: Mu(A, B, 2), ("LLL", "LLL", "LLL")),
    "swamu": (swamu, ("LLL", "LGF", "LFF")),
    "answamu": (answamu, ("LLL", "LGF", "LFF")),
}
OPERAND_CLASSES = {
    "anti": (anti, "anti", "LGF"),
    "mantar": (mantar, "mantar", "LFF"),
    "gaxit": (lambda A: gaxit(_G, _G, A), "gaxit", "LGF"),
    "gamit": (lambda A: gamit(_G, A), "gaxit", "LGF"),
    "ganit": (lambda A: ganit(_G, A), "gaxit", "LGF"),
    "gaxit_inv": (lambda A: gaxit_inv(_G, _G, A), "gaxit_inv", "LGF"),
    "gamit_inv": (lambda A: gamit_inv(_G, A), "gaxit_inv", "LGF"),
    "ganit_inv": (lambda A: ganit_inv(_G, A), "gaxit_inv", "LGF"),
}


@pytest.mark.parametrize("name", sorted(PRODUCT_CLASSES))
def test_binary_products_derive_their_empty_class(name):
    build, rows = PRODUCT_CLASSES[name]
    for left, row in zip((LIE, GROUP, FREE), rows):
        for right, want in zip((LIE, GROUP, FREE), row):
            node = build(_OPERANDS[left], _OPERANDS[right])
            assert isinstance(node, Cuts) and node.name == name
            assert node.empty_class == _CLASS[want], (name, left, right)
            EvalContext().eval(node, EMPTY)


@pytest.mark.parametrize("label", sorted(OPERAND_CLASSES))
def test_nodes_over_one_operand_derive_their_empty_class(label):
    build, name, classes = OPERAND_CLASSES[label]
    for operand, want in zip((LIE, GROUP, FREE), classes):
        node = build(_OPERANDS[operand])
        assert node.name == name
        assert node.empty_class == _CLASS[want], (label, operand)
        EvalContext().eval(node, EMPTY)


def test_a_plan_that_reads_its_node_at_the_empty_word_is_refused():
    # invmu reads itself at shorter words only, so its length-0 term is the
    # empty product; a node read at the empty word has no class to derive
    with pytest.raises(ValueError, match="reads itself at the empty word"):
        Cuts("self-mu", cut_plan("**", ((1, _a), (0, _b))), (DigestMould(63),))
    assert Cuts("invmu", cut_plan("+*", ((1, _a), (0, _b)), True), (_G,)).empty_class == GROUP


def test_div_by_zero_trail_names_every_linear_node(ctx):
    def singular(*w):
        raise DivByZero("always singular")

    A, B = DigestMould(62), FuncMould("always-singular", singular, LIE)
    with pytest.raises(DivByZero) as exc:
        ctx.eval(pari(der(A + B)), W2)
    assert exc.value.trail == [(name, W2) for name in ("always-singular", "add", "der", "pari")]
    assert str(exc.value) == "always singular [at always-singular <- add <- der <- pari]"


def test_lu_antisymmetric(ctx):
    A, B = DigestMould(38), DigestMould(39)
    rep = check_identity(lu(A, B), -lu(B, A), plan(), "lu-antisym", ctx)
    assert rep.status == "pass"


# -- identity checker ------------------------------------------------------------

def test_check_identity_pass_point_count(ctx):
    A = DigestMould(41)
    p = SamplePlan(max_length=3, samples_per_length=4, seed=5)
    rep = check_identity(A, A, p, "self", ctx)
    assert rep.status == "pass"
    # one point at length 0, N points per positive length
    assert len(rep.points) == 1 + 3 * 4
    assert all(pt.status == "pass" for pt in rep.points)


def test_check_identity_fail_reports_counterexample(ctx):
    A, B = DigestMould(42), DigestMould(43)
    rep = check_identity(A, B, plan(), "diff", ctx)
    assert rep.status == "fail"
    cex = rep.counterexample
    assert cex is not None
    assert cex.lhs != cex.rhs
    assert cex.status == "fail"


def test_check_identity_length_0_only(ctx):
    A, B = DigestMould(44), DigestMould(45)  # lie: agree at the empty word
    rep = check_identity(A, B, SamplePlan(max_length=0, samples_per_length=2, seed=1), "empty", ctx)
    assert rep.status == "pass"
    assert len(rep.points) == 1


def test_check_identity_skip_semantics_and_detail(ctx):
    def singular(*w):
        raise DivByZero("always singular")

    S = FuncMould("always-singular", singular, LIE)
    rep = check_identity(S, zero(), SamplePlan(max_length=1, samples_per_length=2, seed=2), "sing", ctx)
    # every length-1 point exhausts its retries: skipped points, failing report
    assert rep.status == "fail"
    skipped = [pt for pt in rep.points if pt.status == "skipped"]
    assert skipped and all("always singular" in pt.detail for pt in skipped)
    assert all(pt.lhs is None and pt.rhs is None for pt in skipped)


def test_report_json_shape(ctx):
    A = DigestMould(46)
    rep = check_identity(A, A, plan(L=2, N=2), "shape", ctx)
    data = rep.to_json()
    assert data["identity"] == "shape"
    assert data["status"] == "pass"
    for pt in data["points"]:
        assert set(pt) >= {"identity", "length", "word", "lhs", "rhs", "status"}
        assert "detail" not in pt and "split" not in pt


def test_report_all_skipped_length_fails():
    # a report whose length-2 points are all skipped must fail overall
    pts = [
        dict(identity="x", length=0, word=EMPTY, lhs=Fraction(0), rhs=Fraction(0)),
        dict(identity="x", length=2, word=W2, lhs=None, rhs=None),
    ]
    from flexionlab.engine import PointRecord

    rep = Report("x", [PointRecord(**p) for p in pts])
    assert [p.status for p in rep.points] == ["pass", "skipped"]
    assert rep.status == "fail"


def test_check_identity_resamples_on_div_by_zero(ctx):
    # singular exactly at the first length-1 word it meets: the checker must
    # retry that point with a fresh word and end up passing
    first_bad: dict = {"word": None}

    def sometimes(*w):
        if len(w) == 1 and first_bad["word"] in (None, w):
            first_bad["word"] = w
            raise DivByZero("unlucky draw")
        return Fraction(0)

    S = FuncMould("first-draw-singular", sometimes, LIE)
    rep = check_identity(S, zero(), SamplePlan(max_length=1, samples_per_length=2, seed=3), "retry", ctx)
    assert rep.status == "pass"
    passed_words = [pt.word for pt in rep.points if pt.length == 1]
    assert first_bad["word"] is not None
    assert first_bad["word"] not in passed_words


def test_eval_context_rejects_negative_retry_cap():
    with pytest.raises(ValueError):
        EvalContext(retry_cap=-1)
    assert EvalContext(retry_cap=0).retry_cap == 0


# -- the sampler ----------------------------------------------------------------

def test_sample_points_shapes_words_and_split(ctx):
    p = SamplePlan(max_length=0, samples_per_length=2, seed=7)
    shapes = [(("pair", 2, 1), (2, 1)), (("empty",), (0,)), (("one",), (3,))]
    seen = []  # per sample, its parts as Fraction words

    def letters(part):
        """The ``Fraction`` letters of each lane of the packed word ``part``."""
        got = []
        ctx.apply(lambda *letters: got.append(letters) or 0, *part)
        return got

    def evaluate(*parts):
        # one call per shape: the parts are packed words, one lane per sample
        seen.extend(zip(*map(letters, parts)))
        return ctx.zeros, ctx.zeros

    rep = sample_points(ctx, p, "shapes", shapes, evaluate)
    # a shape of total length 0 gets one sample, every other shape N
    assert [pt.length for pt in rep.points] == [3, 3, 0, 3, 3]
    assert all(pt.status == "pass" for pt in rep.points)
    for i, pt in enumerate(rep.points[:2]):
        rng = derived_rng(7, "shapes", "pair", 2, 1, i, 0)
        a, b = sample_word(rng, 2), sample_word(rng, 1)
        assert seen[i] == (a, b)
        assert pt.word == a + b and pt.split == 2
    assert seen[2] == (EMPTY,)
    assert rep.points[2].word == EMPTY and rep.points[2].split is None
    for i, pt in enumerate(rep.points[3:]):
        w = sample_word(derived_rng(7, "shapes", "one", i, 0), 3)
        assert seen[3 + i] == (w,)
        assert pt.word == w and pt.split is None


def test_sampler_frees_its_context_without_the_cyclic_collector():
    # a skipped point must not leave the context in a reference cycle (for
    # instance through a kept exception's traceback), or each item's memo
    # outlives its item until the cyclic collector happens to run
    class Tracked(EvalContext):
        pass

    def singular(*w):
        raise DivByZero("always singular")

    # free, so that it is called, and skipped, at the empty word too
    S = FuncMould("always-singular", singular, FREE)
    p = SamplePlan(max_length=1, samples_per_length=2, seed=5)
    ctx = Tracked(retry_cap=1)
    ref = weakref.ref(ctx)
    gc.disable()
    try:
        rep = check_identity(S, zero(), p, "free", ctx)
        del ctx
        assert ref() is None
        # nor must the error that eval raises
        ctx = Tracked()
        ref = weakref.ref(ctx)
        with pytest.raises(DivByZero):
            ctx.eval(S, W1)
        del ctx
        assert ref() is None
    finally:
        gc.enable()
    assert [pt.status for pt in rep.points] == ["skipped"] * 3

def test_a_sample_singular_at_its_first_draw_costs_one_more_walk():
    # every round of attempts is one walk over the samples still pending: a
    # sample singular at attempt 0 only is drawn again in the second walk,
    # and counts one singular sample
    class Counting(EvalContext):
        walks = 0

        def walk(self, *args):
            self.walks += 1
            return super().walk(*args)

    p = SamplePlan(max_length=0, samples_per_length=3, seed=6)
    shapes = [(("two",), (2,))]
    bad = sample_word(derived_rng(6, "walks", "two", 1, 0), 2)

    def fn(*w):
        if w == bad:
            raise DivByZero("first draw of sample 1")
        return Fraction(0)

    S = FuncMould("first-draw-singular", fn, LIE)
    for singular, walks in ((False, 1), (True, 2)):
        ctx = Counting()
        G = S if singular else DigestMould(4)
        rep = sample_points(ctx, p, "walks", shapes, lambda w: (ctx.at(G, w), ctx.at(G, w)))
        assert [pt.status for pt in rep.points] == ["pass"] * 3
        assert ctx.walks == walks and ctx.stats["div_by_zero"] == int(singular)
    assert rep.points[1].word == sample_word(derived_rng(6, "walks", "two", 1, 1), 2)


@pytest.mark.parametrize("w", [W1, W2, W3])
def test_proper_mu_drops_its_end_terms(ev, w):
    A, B = one() + DigestMould(81), one() + DigestMould(82)
    full = ev(Mu(A, B), w)
    first = ev(A, EMPTY) * ev(B, w)  # the cut with an empty left block
    last = ev(A, w) * ev(B, EMPTY)  # the cut with an empty right block
    assert first != 0 and last != 0
    assert ev(Mu(A, B, proper=1), w) == full - first
    assert ev(Mu(A, B, proper=2), w) == full - first - last
    assert ev(Mu(A, B, proper=1), EMPTY) == ev(Mu(A, B, proper=2), EMPTY) == 0
    assert [Mu(A, B, k).name for k in (0, 1, 2)] == ["mu", "mu'", "mu''"]


def test_cut_plans_list_the_block_lengths_of_every_spec_in_order():
    # every spec of two or three blocks at r <= 5, each cut's blocks read
    # back through the plan's getters, against the block lengths enumerated
    # by brute force in lexicographic order
    fits = {"*": lambda n: True, "+": lambda n: n >= 1, "1": lambda n: n == 1}
    for k in (2, 3):
        blocks = tuple(enumerate((_a, _b, _c)[:k], 1))  # block i in role i + 1
        for spec in map("".join, itertools.product("*+1", repeat=k)):
            for r in range(6):
                w = tuple(range(r))
                letters, words, terms = cut_plan(spec, blocks)(r)
                assert letters == ()  # blocks as they are derive no letter
                factors = [[words[i] for i in term(range(len(words) + 1))] for term in terms]
                assert all([role for role, _ in cut] == list(range(1, k + 1)) for cut in factors)
                cuts = [tuple(get(w) for _, get in cut) for cut in factors]
                assert all(sum(cut, ()) == w for cut in cuts)
                got = [tuple(map(len, cut)) for cut in cuts]
                want = [
                    lengths
                    for lengths in itertools.product(range(r + 1), repeat=k)
                    if sum(lengths) == r and all(fits[c](n) for c, n in zip(spec, lengths))
                ]
                assert got == want, (spec, r)
    for spec in ("*", "*2", "", "+-"):
        with pytest.raises(ValueError, match="cut spec"):
            cut_plan(spec, ())


def test_a_plan_compiles_only_assemblies_with_letter_recipes():
    # a derived letter is (U[hi] - U[lo], V[k] - V[s]): the u-sum of one run
    # and the difference of two v's; u-sums of two runs that are not
    # adjacent, or v's of two different shifts, have no such recipe
    def ful_across_m(blocks):  # the u-sum of p moved past the letter m
        return ful(blocks[0], blocks[2])

    def fll_of_flr(blocks):  # two shifts in a row
        return fll(blocks[0], flr(blocks[1], blocks[2]))

    with pytest.raises(ValueError, match="not adjacent"):
        cut_plan("+1+", ((1, ful_across_m),))(3)
    with pytest.raises(ValueError, match="different shifts"):
        cut_plan("+++", ((1, fll_of_flr),))(3)
    # the flexions of adjacent blocks give one recipe per distinct letter
    letters, words, terms = cut_plan("**", ((1, lambda b: ful(b[0], b[1])), (2, lambda b: flr(b[0], b[1]))))(2)
    assert letters == ((0, 2, 1, 2), (0, 1, 0, 1))  # ful and flr of the cut at 1
    assert len(words) == 6 and len(terms) == 3


def test_the_node_classes_are_the_four_of_one_op_vocabulary():
    import flexionlab.suites  # noqa: F401  (imports every module that builds nodes)

    found, stack = set(), [Mould]
    while stack:
        for cls in stack.pop().__subclasses__():
            if cls.__module__.startswith("flexionlab"):
                found.add(cls.__name__)
            stack.append(cls)
    assert found == {"FuncMould", "Lin", "Transform", "Cuts"}
