"""Exact rational scalars, bi-letter words, flexions and word transforms.

Scalars are `fractions.Fraction` (exact, lowest terms, positive denominator).
A word is a tuple of bi-letters (u; v); the empty word is ().  The four
flexions ful/fur/fll/flr modify one neighbor of a factorization w = a·b and
are the building blocks of every flexion operator downstream.

The flexions and word transforms only add, subtract and negate coordinates,
so they work alike on ``Fraction`` coordinates and on lattice words, whose
coordinates are the ints x*D for a scale D that every denominator divides.
``to_lattice`` converts a word to the lattice, ``lattice_scale`` finds D,
and ``BASE`` = lcm(1..10) = 2520 is the scale of every sampled word.

Being linear, they also work on *packed* words, which carry the lattice words
of n lanes at once: each coordinate is the int sum of x_i * 2^(K*i) over the
lanes i, for the lane width K that ``lane_width`` derives from the lattice
words.  ``pack`` builds such a word from the lattice words of the lanes and
``unpack`` reads one packed coordinate back into its n lattice ints.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction
from typing import Iterable, Iterator, NamedTuple, Sequence, Union

Rat = Fraction

RatLike = Union[Rat, int, str]


class DivByZero(ZeroDivisionError):
    """Division by an exactly-zero rational during mould evaluation.

    Carries a trail of (node name, word) frames identifying the offending
    sub-expression, innermost first: the engine's walk keeps the first error
    of each singular lane and extends its trail by the walk's path, each
    frame with that lane's ``Fraction`` word.  Its text is the ``detail`` of
    every skipped point, so it is part of the report bytes.
    """

    def __init__(self, message: str):
        super().__init__(message)
        self.trail: list[tuple[str, "Word"]] = []

    def __str__(self) -> str:
        base = super().__str__()
        if self.trail:
            path = " <- ".join(name for name, _ in self.trail)
            return f"{base} [at {path}]"
        return base


def rat(x: RatLike, den: int | None = None) -> Rat:
    """Coerce ints, 'p/q' strings or Fractions to an exact rational."""
    if den is not None:
        return Fraction(x, den)
    return Fraction(x)


def coprime_fraction(n: int, d: int) -> Rat:
    """The ``Fraction`` n/d of ints n and d > 0 that are already coprime,
    built without the gcd and type checks of ``Fraction(n, d)``."""
    out = object.__new__(Fraction)
    out._numerator, out._denominator = n, d
    return out


def rat_str(x: Rat) -> str:
    """Serialize a rational as 'p' or 'p/q' in lowest terms."""
    if x.denominator == 1:
        return str(x.numerator)
    return f"{x.numerator}/{x.denominator}"


class Biletter(NamedTuple):
    u: Rat
    v: Rat


Word = tuple  # tuple[Biletter, ...]

EMPTY: Word = ()


def bl(u: RatLike, v: RatLike) -> Biletter:
    return Biletter(Fraction(u), Fraction(v))


def word(pairs: Iterable[tuple[RatLike, RatLike]]) -> Word:
    """Build a word from (u, v) pairs."""
    return tuple(bl(u, v) for u, v in pairs)


def usum(w: Word) -> Rat:
    return sum(x.u for x in w)


def word_to_json(w: Word) -> list[list[str]]:
    return [[rat_str(x.u), rat_str(x.v)] for x in w]


# ---------------------------------------------------------------------------
# Flexions
# ---------------------------------------------------------------------------
#
# For a factorization w = a·b the flexion marks one factor and lets the
# other act on it:
#   ful(a, b): b with its first u increased by the u-sum of a
#   fur(a, b): a with its last u increased by the u-sum of b
#   fll(a, b): b with every v decreased by the last v of a
#   flr(a, b): a with every v decreased by the first v of b
# An empty neighbor acts as the identity; an empty subject stays empty.


def ful(a: Word, b: Word) -> Word:
    if not a or not b:
        return b
    first = b[0]
    return (Biletter(usum(a) + first.u, first.v),) + b[1:]


def fur(a: Word, b: Word) -> Word:
    if not b or not a:
        return a
    last = a[-1]
    return a[:-1] + (Biletter(last.u + usum(b), last.v),)


def fll(a: Word, b: Word) -> Word:
    if not a or not b:
        return b
    shift = a[-1].v
    return tuple(Biletter(x.u, x.v - shift) for x in b)


def flr(a: Word, b: Word) -> Word:
    if not b or not a:
        return a
    shift = b[0].v
    return tuple(Biletter(x.u, x.v - shift) for x in a)


# ---------------------------------------------------------------------------
# Word transforms
# ---------------------------------------------------------------------------


def reverse(w: Word) -> Word:
    return w[::-1]


def negate(w: Word) -> Word:
    return tuple(Biletter(-x.u, -x.v) for x in w)


def swap_pullback(w: Word) -> Word:
    """The involutive change of variables behind the swap operator.

    sigma(w) = ((v_r; u1+...+u_r), (v_{r-1}-v_r; u1+...+u_{r-1}), ...,
    (v1-v2; u1)); a mould is swapped by precomposing with sigma.
    """
    r = len(w)
    if r == 0:
        return EMPTY
    prefix = [0]
    for x in w:
        prefix.append(prefix[-1] + x.u)
    out = []
    for i in range(r, 0, -1):
        v_next = w[i].v if i < r else 0
        out.append(Biletter(w[i - 1].v - v_next, prefix[i]))
    return tuple(out)


# ---------------------------------------------------------------------------
# Shuffles
# ---------------------------------------------------------------------------


def shuffles(a: Word, b: Word) -> list[Word]:
    """All interleavings of a and b, with multiplicity (C(la+lb, la) words)."""

    def gen(x: Word, y: Word) -> Iterator[Word]:
        if not x:
            yield y
            return
        if not y:
            yield x
            return
        for tail in gen(x[1:], y):
            yield (x[0],) + tail
        for tail in gen(x, y[1:]):
            yield (y[0],) + tail

    return list(gen(a, b))


# ---------------------------------------------------------------------------
# Sampling and binomials
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class Bounds:
    """Magnitude limits for random letters: p/q with p in [-P,P]\\{0}, q in [1,Q]."""

    max_num: int = 30
    max_den: int = 10


def sample_rat(rng, bounds: Bounds = Bounds()) -> Rat:
    p = 0
    while p == 0:
        p = rng.randint(-bounds.max_num, bounds.max_num)
    q = rng.randint(1, bounds.max_den)
    return Fraction(p, q)


def sample_word(rng, r: int, bounds: Bounds = Bounds()) -> Word:
    """r independent bi-letters with nonzero rational entries; deterministic per seed."""
    return tuple(Biletter(sample_rat(rng, bounds), sample_rat(rng, bounds)) for _ in range(r))


def binom(n: int, k: int) -> int:
    """Exact binomial coefficient; 0 outside the triangle (k<0, k>n or n<0)."""
    if k < 0 or n < 0 or k > n:
        return 0
    return math.comb(n, k)


# ---------------------------------------------------------------------------
# Integer lattice
# ---------------------------------------------------------------------------


BASE = math.lcm(*range(1, Bounds().max_den + 1))  # 2520


def lattice_scale(w: Word, scale: int = BASE) -> int:
    """The lcm of ``scale`` and every coordinate denominator of ``w``.

    Coordinates must be ``Fraction``s; anything else raises ``TypeError``.
    """
    try:
        return math.lcm(scale, *[c._denominator for x in w for c in x])
    except AttributeError:
        raise TypeError(f"word coordinates must be Fractions: {w!r}") from None


def to_lattice(w: Word, scale: int) -> Word:
    """The word of ints x*scale; ``scale`` must be a multiple of every denominator."""
    return tuple(
        Biletter(u._numerator * (scale // u._denominator), v._numerator * (scale // v._denominator))
        for u, v in w
    )


# ---------------------------------------------------------------------------
# Packed lanes
# ---------------------------------------------------------------------------
#
# Every coordinate the engine derives from a checked word w of length r is,
# up to sign, a difference of two prefix sums of w's u's or of two of w's
# v's (0 among them): the flexions move u-sums and v-shifts between
# neighbours, ``reverse`` and ``negate`` keep that form, and
# ``swap_pullback`` exchanges the two kinds.  The checkers evaluate words
# whose u's are sums of distinct sampled u's and whose v's are sampled v's or
# differences of two, so a derived coordinate is at most r*M or 4*M in size,
# with M the largest lattice coordinate of the checked words.  ``lane_width``
# leaves room for 2*max(r, 2)*M, with a guard bit and a sign bit above it, so
# lanes never carry into each other.


def lane_width(lane_words: Sequence[Word]) -> int:
    """Bits per lane K for packing the lattice words ``lane_words``, one
    checked word per lane, all of one length r: with M their largest
    coordinate, a packed coordinate holds lane ints x with |x| < 2^(K-2),
    and 2^(K-2) > 2*max(r, 2)*M."""
    largest = max((abs(c) for w in lane_words for x in w for c in x), default=0)
    return (2 * max(len(lane_words[0]), 2) * largest).bit_length() + 2


def pack(lane_words: Sequence[Word], width: int) -> Word:
    """The packed word of the lattice words ``lane_words``, lane i at bit
    ``width * i``; all lanes have one length, and a coordinate x with
    |x| >= 2^(width-2) raises ``OverflowError``.  One lane is its own
    packed word."""
    limit = 1 << (width - 2)
    for x in lane_words:
        for c in x:
            if not -limit < c[0] < limit or not -limit < c[1] < limit:
                raise OverflowError(f"lattice coordinate past the lane bound 2^{width - 2}: {x!r}")
    if len(lane_words) == 1:
        return lane_words[0]

    def coord(xs):
        return sum(x << (width * i) for i, x in enumerate(xs))

    return tuple(Biletter(coord(us), coord(vs)) for us, vs in (zip(*col) for col in zip(*lane_words)))


def unpack(x: int, lanes: int, width: int) -> list[int]:
    """The ``lanes`` lattice ints of the packed coordinate ``x``.

    A lane x with 2^(width-2) <= |x| < 2^(width-1), past the bound of
    ``lane_width`` but short of its sign bit, raises ``OverflowError``; a
    lane past the sign bit would have carried into the next lane, which the
    bound on derived coordinates rules out.
    """
    limit = 1 << (width - 2)
    mask = (1 << width) - 1
    sign = 1 << (width - 1)
    out = []
    for _ in range(lanes):
        c = x & mask
        if c & sign:
            c -= 1 << width
        if not -limit < c < limit:
            raise OverflowError(f"packed coordinate past the lane bound 2^{width - 2}")
        out.append(c)
        x = (x - c) >> width
    if x:
        raise OverflowError("packed coordinate past the lane bound of its last lane")
    return out
