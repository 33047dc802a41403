"""Tests for exact words: letters, flexions, transforms, shuffles, sampling."""

from __future__ import annotations

import json
import math
import random
from fractions import Fraction

import pytest
from hypothesis import given, settings, strategies as st

from oracles import pascal_binom, shuffle_rec, swap_image
from flexionlab.words import (
    BASE,
    EMPTY,
    Biletter,
    Bounds,
    DivByZero,
    binom,
    bl,
    coprime_fraction,
    fll,
    flr,
    ful,
    fur,
    lane_width,
    lattice_scale,
    negate,
    pack,
    rat,
    rat_str,
    reverse,
    sample_word,
    shuffles,
    swap_pullback,
    to_lattice,
    unpack,
    usum,
    word,
    word_to_json,
)

# -- strategies --------------------------------------------------------------

rationals = st.fractions(
    min_value=Fraction(-8), max_value=Fraction(8), max_denominator=6
)
letters = st.builds(Biletter, rationals, rationals)
words = st.lists(letters, max_size=4).map(tuple)


# -- rationals and constructors ----------------------------------------------

def test_rat_parses_strings_and_ints():
    assert rat("3/2") == Fraction(3, 2)
    assert rat("-7") == Fraction(-7)
    assert rat(5) == Fraction(5)
    assert rat(2, 3) == Fraction(2, 3)


def test_rat_str_lowest_terms():
    assert rat_str(Fraction(4, 6)) == "2/3"
    assert rat_str(Fraction(-3)) == "-3"


@given(st.integers(-(10**30), 10**30), st.integers(1, 10**30))
def test_coprime_fraction_equals_the_fraction_of_its_pair(n, d):
    g = math.gcd(n, d)
    n, d = n // g, d // g  # a coprime pair with d > 0
    x = coprime_fraction(n, d)
    assert type(x) is Fraction
    assert x == Fraction(n, d) and (x.numerator, x.denominator) == (n, d)
    assert hash(x) == hash(Fraction(n, d)) and str(x) == str(Fraction(n, d))
    assert x + Fraction(1, 3) == Fraction(n, d) + Fraction(1, 3)


def test_word_and_bl_build_tuples():
    w = word([("1", "2"), ("3/2", "-1/4")])
    assert w == (bl(1, 2), bl("3/2", "-1/4"))
    assert EMPTY == ()
    assert usum(w) == Fraction(5, 2)


# -- flexions -----------------------------------------------------------------

def test_ful_moves_left_usum_into_first_letter():
    a = word([(1, 2)])
    b = word([(3, 4), (5, 6)])
    assert ful(a, b) == word([(4, 4), (5, 6)])


def test_flr_subtracts_first_right_v_everywhere():
    a = word([(1, 2), (3, 4)])
    b = word([(5, 6)])
    assert flr(a, b) == word([(1, -4), (3, -2)])


def test_flexion_boundary_conventions():
    a = word([(1, 2)])
    b = word([(3, 4)])
    assert ful(a, EMPTY) == EMPTY
    assert flr(a, EMPTY) == a
    assert ful(EMPTY, b) == b
    assert flr(EMPTY, b) == EMPTY
    assert fur(EMPTY, b) == EMPTY
    assert fur(a, EMPTY) == a
    assert fll(EMPTY, b) == b
    assert fll(a, EMPTY) == EMPTY


def test_fur_moves_right_usum_into_last_letter():
    a = word([(1, 2), (3, 4)])
    b = word([(5, 6)])
    assert fur(a, b) == word([(1, 2), (8, 4)])


def test_fll_subtracts_last_left_v_everywhere():
    a = word([(1, 2)])
    b = word([(3, 4), (5, 6)])
    assert fll(a, b) == word([(3, 2), (5, 4)])


@given(a=words, b=words)
@settings(max_examples=60, deadline=None)
def test_flexion_length_laws(a, b):
    if b:
        assert len(ful(a, b)) == len(b)
        assert len(fll(a, b)) == len(b)
    if a:
        assert len(flr(a, b)) == len(a)
        assert len(fur(a, b)) == len(a)


@given(a=words, b=words)
@settings(max_examples=60, deadline=None)
def test_flexion_uv_conservation(a, b):
    # ful/fur change exactly one u and no v; fll/flr change only v's.
    if b:
        out = ful(a, b)
        assert [x.v for x in out] == [x.v for x in b]
        assert [x.u for x in out[1:]] == [x.u for x in b[1:]]
        assert out[0].u == usum(a) + b[0].u
    if a:
        out = flr(a, b)
        assert [x.u for x in out] == [x.u for x in a]
        shift = b[0].v if b else Fraction(0)
        assert [x.v for x in out] == [x.v - shift for x in a]


@given(a=words, b=words)
@settings(max_examples=60, deadline=None)
def test_reversal_duality(a, b):
    assert reverse(fll(a, b)) == flr(reverse(b), reverse(a))


# -- word transforms -----------------------------------------------------------

def test_negate_flips_all_entries():
    assert negate(word([(1, 2), (3, 4)])) == word([(-1, -2), (-3, -4)])


def test_swap_pullback_length_1_exchanges_coordinates():
    assert swap_pullback(word([("2/3", "5")])) == word([("5", "2/3")])


def test_swap_pullback_matches_displayed_formula():
    w = word([(1, 2), (3, 4), (5, 6)])
    assert swap_pullback(w) == swap_image(w)


@given(w=words)
@settings(max_examples=60, deadline=None)
def test_swap_pullback_involution(w):
    assert swap_pullback(swap_pullback(w)) == w


@given(w=words)
@settings(max_examples=40, deadline=None)
def test_reverse_and_negate_are_involutions(w):
    assert reverse(reverse(w)) == w
    assert negate(negate(w)) == w


# -- the integer lattice --------------------------------------------------------

def _is_lattice(w):
    return all(type(c) is int for x in w for c in x)


@given(a=words, b=words)
@settings(max_examples=60, deadline=None)
def test_flexions_on_lattice_ints_equal_the_scaled_fraction_result(a, b):
    la, lb = to_lattice(a, BASE), to_lattice(b, BASE)
    assert _is_lattice(la) and _is_lattice(lb)
    for f in (ful, fur, fll, flr):
        out = f(la, lb)
        assert _is_lattice(out)
        assert out == to_lattice(f(a, b), BASE)


@given(w=words)
@settings(max_examples=60, deadline=None)
def test_transforms_on_lattice_ints_equal_the_scaled_fraction_result(w):
    lw = to_lattice(w, BASE)
    for f in (swap_pullback, negate, reverse):
        out = f(lw)
        assert _is_lattice(out)
        assert out == to_lattice(f(w), BASE)


# any denominator up to 30, so the scale often grows past BASE
wide_rationals = st.fractions(min_value=-50, max_value=50, max_denominator=30)
wide_words = st.lists(st.builds(Biletter, wide_rationals, wide_rationals), max_size=4).map(tuple)


@given(w=wide_words)
@settings(max_examples=60, deadline=None)
def test_lattice_roundtrip_gives_the_same_word(w):
    scale = lattice_scale(w)
    assert scale % BASE == 0
    assert all(scale % c.denominator == 0 for x in w for c in x)
    lattice = to_lattice(w, scale)
    assert all(type(c) is int for x in lattice for c in x)
    assert tuple(Biletter(Fraction(u, scale), Fraction(v, scale)) for u, v in lattice) == w


# -- packed lanes ----------------------------------------------------------------


def _lanes_of(packed, lanes, width):
    """The lattice word of each lane of a packed word."""
    cols = [(unpack(x.u, lanes, width), unpack(x.v, lanes, width)) for x in packed]
    return [tuple(Biletter(us[i], vs[i]) for us, vs in cols) for i in range(lanes)]


@st.composite
def lane_ints(draw):
    """(lanes, length, width, lattice ints per lane) with every int within
    the lane bound, its extremes included; the width is the one
    ``lane_width`` gives words of that length whose largest lattice
    coordinate is a drawn M."""
    lanes = draw(st.integers(1, 4))
    length = draw(st.integers(0, 4))
    M = draw(st.integers(0, Bounds().max_num * BASE))
    width = lane_width([(Biletter(M, -M),) * length])
    if length:
        # room for every coordinate derived from a word of that length
        assert 1 << (width - 2) > 2 * max(length, 2) * M
    bound = (1 << (width - 2)) - 1
    coord = st.integers(-bound, bound)
    ints = draw(st.lists(st.lists(st.tuples(coord, coord), min_size=length, max_size=length),
                         min_size=lanes, max_size=lanes))
    return lanes, length, width, ints


@given(lane_ints())
@settings(max_examples=80, deadline=None)
def test_packing_round_trips_up_to_the_lane_bound(case):
    lanes, length, width, ints = case
    lane_words = [tuple(Biletter(u, v) for u, v in w) for w in ints]
    packed = pack(lane_words, width)
    assert len(packed) == length
    assert _lanes_of(packed, lanes, width) == lane_words


@given(lane_ints(), st.data())
@settings(max_examples=60, deadline=None)
def test_a_coordinate_past_the_lane_bound_raises(case, data):
    lanes, length, width, ints = case
    # past the bound, and short of the sign bit, where a lane would carry
    limit = 1 << (width - 2)
    past = data.draw(st.sampled_from([limit, -limit, 2 * limit - 1, 1 - 2 * limit]))
    lane = data.draw(st.integers(0, lanes - 1))
    # on packing: one coordinate of one lane past the bound
    if length:
        i = data.draw(st.integers(0, length - 1))
        ints[lane][i] = (past, ints[lane][i][1])
        lane_words = [tuple(Biletter(u, v) for u, v in w) for w in ints]
        with pytest.raises(OverflowError):
            pack(lane_words, width)
    # on unpacking: a packed int whose lane holds a value past the bound
    coords = [0] * lanes
    coords[lane] = past
    with pytest.raises(OverflowError):
        unpack(sum(x << (width * i) for i, x in enumerate(coords)), lanes, width)


SAMPLE_BOUNDS = [Bounds(), Bounds(1, 1), Bounds(1, 10), Bounds(30, 1), Bounds(7, 3)]


@given(
    st.integers(1, 4), st.integers(0, 3), st.integers(0, 3), st.sampled_from(SAMPLE_BOUNDS), st.integers(0, 2**32)
)
@settings(max_examples=80, deadline=None)
def test_flexions_and_swap_of_packed_words_unpack_to_each_lane(lanes, la, lb, bounds, seed):
    # the scale and the width come from the lanes' words, as in a walk
    rng = random.Random(seed)
    a = [sample_word(rng, la, bounds) for _ in range(lanes)]
    b = [sample_word(rng, lb, bounds) for _ in range(lanes)]
    full = [x + y for x, y in zip(a, b)]
    scale = BASE
    for w in full:
        scale = lattice_scale(w, scale)
    width = lane_width([to_lattice(w, scale) for w in full])
    pa = pack([to_lattice(w, scale) for w in a], width)
    pb = pack([to_lattice(w, scale) for w in b], width)
    for f in (ful, fur, fll, flr):
        got = _lanes_of(f(pa, pb), lanes, width)
        assert got == [to_lattice(f(x, y), scale) for x, y in zip(a, b)]
    got = _lanes_of(swap_pullback(pa + pb), lanes, width)
    assert got == [to_lattice(swap_pullback(x + y), scale) for x, y in zip(a, b)]


def test_lattice_scale_is_base_on_sampled_words_and_rejects_ints():
    assert BASE == 2520
    rng = random.Random(4)
    assert all(lattice_scale(sample_word(rng, 4)) == BASE for _ in range(50))
    assert lattice_scale(word([("1/11", "2/13")])) == BASE * 11 * 13
    assert lattice_scale(word([("1/11", 2)]), scale=BASE * 11) == BASE * 11
    with pytest.raises(TypeError, match="Fractions"):
        lattice_scale((Biletter(1, 2),))


# -- shuffles -------------------------------------------------------------------

def test_shuffles_of_single_letters():
    x, y = bl(1, 2), bl(3, 4)
    out = shuffles((x,), (y,))
    assert sorted(out) == sorted([(x, y), (y, x)])


def test_shuffles_count_2_2():
    a = word([(1, 1), (2, 2)])
    b = word([(3, 3), (4, 4)])
    assert len(shuffles(a, b)) == 6


def test_shuffles_empty_left():
    b = word([(1, 2), (3, 4)])
    assert shuffles(EMPTY, b) == [b]


@given(a=st.lists(letters, max_size=3).map(tuple), b=st.lists(letters, max_size=3).map(tuple))
@settings(max_examples=40, deadline=None)
def test_shuffles_match_recursive_oracle(a, b):
    assert sorted(shuffles(a, b)) == sorted(shuffle_rec(a, b))
    assert len(shuffles(a, b)) == pascal_binom(len(a) + len(b), len(a))
    assert sorted(shuffles(a, b)) == sorted(shuffles(b, a))


# -- binomials -------------------------------------------------------------------

def test_binom_values():
    assert binom(5, 2) == 10
    assert binom(3, 5) == 0
    assert binom(5, -1) == 0
    assert binom(30, 15) == 155117520


def test_binom_matches_pascal_oracle():
    for n in range(13):
        for k in range(-1, n + 2):
            assert binom(n, k) == pascal_binom(n, k)


# -- sampling --------------------------------------------------------------------

def test_sample_word_zero_length():
    assert sample_word(random.Random(1), 0) == EMPTY


def test_sample_word_deterministic():
    got = [sample_word(random.Random(42), 3) for _ in range(3)]
    assert got[0] == got[1] == got[2]


def test_sample_word_respects_bounds_and_nonzero():
    bounds = Bounds(max_num=7, max_den=4)
    rng = random.Random(9)
    for _ in range(50):
        w = sample_word(rng, 2, bounds)
        for x in w:
            for q in (x.u, x.v):
                assert q != 0
                assert abs(q.numerator) <= 7 * 4  # p/q with |p| <= 7, q <= 4
                assert 1 <= q.denominator <= 4


def test_resampling_yields_fresh_words():
    # downstream retry logic depends on consecutive draws differing
    rng = random.Random(0)
    draws = [sample_word(rng, 2) for _ in range(100)]
    fresh = sum(1 for a, b in zip(draws, draws[1:]) if a != b)
    assert fresh >= 95


# -- serialization ------------------------------------------------------------------

def test_word_json_roundtrip_explicit():
    w = word([("1/2", "-3"), ("5", "7/9")])
    data = word_to_json(w)
    assert data == [["1/2", "-3"], ["5", "7/9"]]
    assert word(json.loads(json.dumps(data))) == w


@given(w=words)
@settings(max_examples=40, deadline=None)
def test_word_json_roundtrip(w):
    # 'p' or 'p/q' strings in lowest terms, which ``word`` reads back
    data = word_to_json(w)
    assert all(c == rat_str(Fraction(c)) for pair in data for c in pair)
    assert word(data) == w


# -- errors -------------------------------------------------------------------------

def test_div_by_zero_trail_renders_path():
    err = DivByZero("pole at letter 1")
    err.trail.append(("oz", word([(1, 2)])))
    err.trail.append(("check", EMPTY))
    text = str(err)
    assert "pole at letter 1" in text
    assert "oz" in text and "check" in text
