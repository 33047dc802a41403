"""Bimould expression graphs with exact memoized evaluation.

A mould is an immutable node in an expression DAG; evaluating (node, word)
through an EvalContext yields an exact rational.  Every node carries an
empty-word class: group (value 1 at the empty word), lie (value 0) or free.

Words run through the engine on an integer lattice.  ``ctx.eval(A, w)``
takes a word of ``Fraction`` coordinates and converts it once: coordinate x
becomes the int x*D, with D the context's scale, ``words.BASE`` = 2520 for
every sampled word.  Nodes recurse through ``ctx.at(A, w)`` on lattice words,
whose flexions and transforms are int additions, and the memo key is the
flat tuple ``(uid, u1, v1, u2, v2, ...)`` of lattice ints.  Leaves that read
coordinates convert letters back with ``ctx.letter``.  Values stay exact
``Fraction``s; ``sum_of_products`` forms the sums of products behind mu and
the flexion operators on raw numerators and denominators and reduces once.

``Lin`` is the one linear node: its value at w is the sum of c B(w) over the
(coefficient, child) pairs its term function gives for len(w), and its
empty-word class is derived from those terms at length 0.  ``+``, ``-``,
scalar ``*``, ``pari``, ``der`` and ``leng_r`` build one, and so do the
truncated series of the other modules; ``iterates`` builds the lazy
sequences of nodes (powers, push iterates) that such a series runs over.

``anti``, ``neg`` and ``swap`` are one ``Transform`` node that evaluates its
operand at ``reverse(w)``, ``negate(w)`` or ``swap_pullback(w)``; ``push``,
``push_inv`` and ``gantar`` are composed from them.

``Cuts`` is the one node that sums products over the factorizations of w:
mu, swamu/answamu, amit/anit, the triple-split e_ter inverse and ``Invmu``.
``Mu(A, B, proper)`` builds the two-block product; ``proper`` 1 drops the
cut with an empty left block and 2 drops both end cuts, so a solver's
self-referential recursion never reaches the full word.

``sample_points`` is the one sampling loop behind every randomized checker:
it draws seeded random words per shape, compares two exact values, and
resamples on division by zero up to the context's retry cap.
``check_identity`` compares two graphs on it.
"""

from __future__ import annotations

import functools
import hashlib
import itertools
import random
from dataclasses import dataclass, field
from fractions import Fraction
from math import gcd
from operator import itemgetter
from typing import Callable, Iterable, Optional, Sequence

from .words import (
    BASE,
    Biletter,
    Bounds,
    DivByZero,
    Rat,
    Word,
    EMPTY,
    from_lattice,
    lattice_scale,
    negate,
    rat_str,
    reverse,
    sample_word,
    swap_pullback,
    to_lattice,
    word_to_json,
)

GROUP = "group"
LIE = "lie"
FREE = "free"

_uid_counter = itertools.count(1)


def _lift(x) -> "Mould":
    if isinstance(x, Mould):
        return x
    if isinstance(x, (int, Fraction)):
        return Scalar(Fraction(x))
    raise TypeError(f"cannot use {x!r} as a mould")


class Mould:
    """Base node.  Subclasses implement _eval(ctx, w) and set empty_class."""

    __slots__ = ("uid", "name", "empty_class")

    def __init__(self, name: str, empty_class: str):
        self.uid = next(_uid_counter)
        self.name = name
        self.empty_class = empty_class

    def _eval(self, ctx: "EvalContext", w: Word) -> Rat:
        raise NotImplementedError

    # -- arithmetic sugar: + and - are pointwise, scalars act by scaling ----

    def __add__(self, other):
        return _combo("add", (_ONE, self), (_ONE, _lift(other)))

    def __radd__(self, other):
        return _combo("add", (_ONE, _lift(other)), (_ONE, self))

    def __sub__(self, other):
        return _combo("sub", (_ONE, self), (_NEG, _lift(other)))

    def __rsub__(self, other):
        return _combo("sub", (_ONE, _lift(other)), (_NEG, self))

    def __neg__(self):
        return self * -1

    def __mul__(self, other):
        if isinstance(other, (int, Fraction)):
            c = Fraction(other)
            return _combo(f"smul[{rat_str(c)}]", (c, self))
        return NotImplemented

    __rmul__ = __mul__

    def __repr__(self):
        return f"<{self.name}#{self.uid}:{self.empty_class}>"


class EvalContext:
    """Memo table plus counters; build one per checked item.

    ``eval(A, w)`` is the public entry: ``w`` holds ``Fraction`` coordinates
    (anything else raises ``TypeError``), and it is converted once to the
    context's integer lattice, each coordinate x becoming the int x*scale.
    ``scale`` starts at ``words.BASE`` (2520), a multiple of every sampled
    denominator; a word with another denominator raises it to the lcm, and
    then the memo is cleared, since equal ints on two lattices are different
    rationals.  Nodes recurse through ``at(A, w)`` on lattice words, and
    leaves that read coordinates get ``Fraction`` letters back from
    ``letter``, which caches each int's ``Fraction``.

    ``memo`` maps ``(uid, u1, v1, u2, v2, ...)``, the node's uid followed by
    the lattice ints of the word, to the node's value there.  Two words share
    an entry exactly when their coordinates are equal rationals.  The memo
    lives as long as the context, so a context per item frees it when the
    item ends.
    """

    def __init__(self, retry_cap: int = 8):
        if retry_cap < 0:
            raise ValueError(f"need retry_cap >= 0, got {retry_cap}")
        self.memo: dict[tuple[int, ...], Rat] = {}
        self.retry_cap = retry_cap
        self.stats = {"evals": 0, "memo_hits": 0, "div_by_zero": 0}
        self.scale = BASE
        self._fractions: dict[int, Rat] = {}

    def eval(self, A: Mould, w: Word) -> Rat:
        scale = lattice_scale(w, self.scale)
        if scale != self.scale:
            self.scale = scale
            self.memo.clear()
            self._fractions.clear()
        return self.at(A, to_lattice(w, scale))

    def letter(self, x: Biletter) -> Biletter:
        """The ``Fraction`` letter of the lattice letter ``x``."""
        fractions = self._fractions
        u = fractions.get(x.u)
        if u is None:
            u = fractions[x.u] = Fraction(x.u, self.scale)
        v = fractions.get(x.v)
        if v is None:
            v = fractions[x.v] = Fraction(x.v, self.scale)
        return Biletter(u, v)

    def at(self, A: Mould, w: Word) -> Rat:
        """The value of ``A`` at the lattice word ``w``, memoized."""
        key = sum(w, (A.uid,))
        hit = self.memo.get(key)
        if hit is not None:
            self.stats["memo_hits"] += 1
            return hit
        self.stats["evals"] += 1
        try:
            val = A._eval(self, w)
        except DivByZero as exc:
            self.stats["div_by_zero"] += 1
            exc.trail.append((A.name, from_lattice(w, self.scale)))
            raise
        if not w:
            if A.empty_class == GROUP and val != 1:
                raise RuntimeError(f"group mould {A.name} evaluated to {val} at the empty word")
            if A.empty_class == LIE and val != 0:
                raise RuntimeError(f"lie mould {A.name} evaluated to {val} at the empty word")
        self.memo[key] = val
        return val


def sum_of_products(terms: Iterable[Iterable[Rat]], sign: int = 1) -> Rat:
    """``sign`` times the sum over ``terms`` of the product of each term's factors.

    The factors are ``Fraction``s; the sum runs on their raw numerators and
    denominators.  Each product stays an unreduced n/d, the running total
    keeps the lcm of the denominators so far, and only the result is reduced
    to lowest terms.  Every factor of every term is consumed in order, so a
    caller that evaluates factors lazily in ``terms`` meets the same first
    ``DivByZero`` as a plain ``Fraction`` loop.
    """
    num, den = 0, 1
    for factors in terms:
        n = d = 1
        for f in factors:
            n *= f._numerator
            d *= f._denominator
        if not n:
            continue
        if d == den:
            num += n
        else:
            g = gcd(den, d)
            num = num * (d // g) + n * (den // g)
            den = den // g * d
    return Fraction(sign * num, den)


# ---------------------------------------------------------------------------
# Primitives
# ---------------------------------------------------------------------------


class Scalar(Mould):
    """c at the empty word, 0 elsewhere (the unit mould for c=1)."""

    __slots__ = ("c",)

    def __init__(self, c):
        c = Fraction(c)
        cls = LIE if c == 0 else (GROUP if c == 1 else FREE)
        super().__init__(f"scalar[{rat_str(c)}]", cls)
        self.c = c

    def _eval(self, ctx, w):
        return self.c if not w else Fraction(0)


def one() -> Mould:
    return Scalar(1)


def zero() -> Mould:
    return Scalar(0)


class LetterMould(Mould):
    """Length-1 concentrated mould given by a function of a single bi-letter."""

    __slots__ = ("fn",)

    def __init__(self, name: str, fn: Callable[[Biletter], Rat]):
        super().__init__(name, LIE)
        self.fn = fn

    def _eval(self, ctx, w):
        if len(w) != 1:
            return Fraction(0)
        return self.fn(ctx.letter(w[0]))


class FuncMould(Mould):
    """General mould defined by an explicit word function."""

    __slots__ = ("fn",)

    def __init__(self, name: str, fn: Callable[[Word], Rat], empty_class: str):
        super().__init__(name, empty_class)
        self.fn = fn

    def _eval(self, ctx, w):
        return self.fn(tuple(map(ctx.letter, w)))


class DigestMould(Mould):
    """Deterministic pseudorandom lie-class mould: a seeded digest of the word.

    Values are bounded rationals depending on the exact word, stable across
    processes (blake2b, not Python's salted hash).
    """

    __slots__ = ("seed",)

    def __init__(self, seed: int, tag: str = ""):
        super().__init__(f"generic[{seed}{',' + tag if tag else ''}]", LIE)
        self.seed = (seed, tag)

    def _eval(self, ctx, w):
        if not w:
            return Fraction(0)
        h = hashlib.blake2b(digest_size=16)
        h.update(repr(self.seed).encode())
        for x in map(ctx.letter, w):
            h.update(f"{x.u.numerator}/{x.u.denominator};{x.v.numerator}/{x.v.denominator}|".encode())
        d = int.from_bytes(h.digest(), "big")
        num = d % 41 - 20
        den = (d >> 16) % 7 + 1
        return Fraction(num, den)


# ---------------------------------------------------------------------------
# Linear nodes
# ---------------------------------------------------------------------------

_ONE = Fraction(1)
_NEG = Fraction(-1)
Terms = Sequence[tuple[Rat, Optional[Mould]]]


class Lin(Mould):
    """A linear node: the sum of c B(w) over the pairs (c, B) of ``terms(len(w))``.

    The coefficients are ``Fraction``s, and a pair ``(c, None)`` is the
    constant c.  Sums, differences, scalar multiples, ``pari``, ``der``,
    ``leng_r`` and the truncated series (expari, logari, adari_series, the
    dilator extraction, the To series, pushsym) are all ``Lin`` nodes.  The
    children are evaluated in term order, so the first ``DivByZero`` and its
    trail are those of a term-by-term sum, and the products are added with
    one ``sum_of_products``.

    The empty-word class is derived from ``terms(0)``: a FREE child with a
    nonzero coefficient makes the node FREE; otherwise s, the sum of the
    coefficients of the GROUP children and the constants, gives LIE for
    s = 0, GROUP for s = 1 and FREE for any other s.  ``terms(0)`` is called
    when the node is built, so it must not need the node itself.

    A node that reads its operand at another word than w (``Transform``,
    ``Mantar``, the products) is not a ``Lin``: its terms are not a list of
    children at w.
    """

    __slots__ = ("terms",)

    def __init__(self, name: str, terms: Callable[[int], Terms]):
        super().__init__(name, _lin_class(terms(0)))
        self.terms = terms

    def _eval(self, ctx, w):
        at = ctx.at
        terms = self.terms(len(w))
        return sum_of_products([(c,) if B is None else (c, at(B, w)) for c, B in terms])


def _lin_class(terms: Terms) -> str:
    s = 0
    for c, B in terms:
        cls = GROUP if B is None else B.empty_class
        if cls == FREE and c:
            return FREE
        if cls == GROUP:
            s += c
    return LIE if s == 0 else GROUP if s == 1 else FREE


def _combo(name: str, *terms: tuple[Rat, Mould]) -> Mould:
    """The ``Lin`` with the same ``terms`` at every length."""
    return Lin(name, lambda r: terms)


def iterates(first: Mould, step: Callable[[Mould], Mould]) -> Callable[[int], Mould]:
    """``n -> step^n(first)``; each iterate is built once, on first use."""
    seq = [first]

    def nth(n: int) -> Mould:
        while len(seq) <= n:
            seq.append(step(seq[-1]))
        return seq[n]

    return nth


# ---------------------------------------------------------------------------
# Unary operators
# ---------------------------------------------------------------------------


class Transform(Mould):
    """``A`` evaluated at ``f(w)`` for a word transform ``f``: anti, neg, swap."""

    __slots__ = ("A", "f")

    def __init__(self, name: str, f: Callable[[Word], Word], A: Mould):
        super().__init__(name, A.empty_class)
        self.A = A
        self.f = f

    def _eval(self, ctx, w):
        return ctx.at(self.A, self.f(w))


class Mantar(Mould):
    """mantar(A)(w) = (-1)^(len(w)-1) A(reverse(w)), i.e. -pari o anti."""

    __slots__ = ("A",)

    def __init__(self, A: Mould):
        cls = LIE if A.empty_class == LIE else FREE
        super().__init__("mantar", cls)
        self.A = A

    def _eval(self, ctx, w):
        s = 1 if len(w) % 2 else -1
        return s * ctx.at(self.A, reverse(w))


def anti(A: Mould) -> Mould:
    return Transform("anti", reverse, A)


def pari(A: Mould) -> Mould:
    """(-1)^len(w) A(w)."""
    even, odd = ((_ONE, A),), ((_NEG, A),)
    return Lin("pari", lambda r: odd if r % 2 else even)


def neg(A: Mould) -> Mould:
    return Transform("neg", negate, A)


def swap(A: Mould) -> Mould:
    return Transform("swap", swap_pullback, A)


def der(A: Mould) -> Mould:
    """len(w) A(w); A is still evaluated at the empty word, with weight 0."""
    return Lin("der", lambda n: ((Fraction(n), A),))


def leng_r(A: Mould, r: int) -> Mould:
    """A on the words of length ``r``, 0 elsewhere."""
    terms = ((_ONE, A),)
    return Lin(f"leng_{r}", lambda n: terms if n == r else ())


def mantar(A: Mould) -> Mould:
    return Mantar(A)


def push(A: Mould) -> Mould:
    """push := neg o anti o swap o anti o swap (the defining conjugation)."""
    return neg(anti(swap(anti(swap(A)))))


def push_inv(A: Mould) -> Mould:
    return swap(anti(swap(anti(neg(A)))))


def gantar(A: Mould) -> Mould:
    """gantar := anti o pari o invmu; defined on group-class moulds."""
    return anti(pari(invmu(A)))


# ---------------------------------------------------------------------------
# Sums over the factorizations of w
# ---------------------------------------------------------------------------


@functools.cache
def _cut_plan(r: int, nonempty: tuple[bool, ...]) -> tuple[itemgetter, ...]:
    """The factorizations of a length-``r`` word into blocks, block i nonempty
    where ``nonempty[i]`` is set, in lexicographic order of the cut positions;
    each is an ``itemgetter`` of slices that returns the tuple of its blocks."""
    plan = []
    for cuts in itertools.combinations_with_replacement(range(r + 1), len(nonempty) - 1):
        bounds = (0, *cuts, r)
        if all(lo < hi or not keep for lo, hi, keep in zip(bounds, bounds[1:], nonempty)):
            plan.append(itemgetter(*map(slice, bounds, bounds[1:])))
    return tuple(plan)


class Cuts(Mould):
    """A sum over the factorizations of w into blocks of products of children.

    The value at w is ``sign`` times the sum, over the cuts of w into
    ``len(nonempty)`` >= 2 blocks, block i nonempty where ``nonempty[i]`` is
    set, of the product over the ``(B, assemble)`` pairs of ``factors`` of
    ``B(assemble(blocks))``, with ``blocks`` the tuple of the cut's blocks.
    ``itemgetter(i)`` reads block i as it is; the flexion products assemble
    their words with one-argument functions of the blocks.  The cuts run in
    lexicographic order and each cut's factors in ``factors`` order, so the
    first ``DivByZero`` and its trail are those of a term-by-term sum.
    """

    __slots__ = ("nonempty", "factors")
    sign = 1

    def __init__(self, name: str, empty_class: str, nonempty: tuple[bool, ...], factors):
        super().__init__(name, empty_class)
        self.nonempty = nonempty
        self.factors = factors

    def _eval(self, ctx, w):
        at = ctx.at
        factors = self.factors
        values = [
            at(B, assemble(blocks))
            for cut in _cut_plan(len(w), self.nonempty)
            for blocks in (cut(w),)
            for B, assemble in factors
        ]
        terms = zip(*[iter(values)] * len(factors))  # one tuple of factors per cut
        return sum_of_products(terms, self.sign)


_first, _second = itemgetter(0), itemgetter(1)


def Mu(A: Mould, B: Mould, proper: int = 0) -> Mould:
    """mu(A,B)(w) = sum over two-block factorizations w = a.b of A(a)B(b).

    ``proper=1`` keeps only the cuts with ``a`` nonempty and ``proper=2``
    only those with both parts nonempty; both are lie-class and internal to
    solvers.  ``Mu(A, B, 2)`` equals ``Mu(A, B)`` when both operands vanish
    on the empty word, but never evaluates either operand at the full word,
    which keeps self-referential length recursions well founded.
    """
    name = ("mu", "mu'", "mu''")[proper]
    nonempty = ((False, False), (True, False), (True, True))[proper]
    cls = LIE if proper else product_class(A, B)
    return Cuts(name, cls, nonempty, ((A, _first), (B, _second)))


def product_class(A: Mould, B: Mould) -> str:
    """The empty-word class of a product of A and B at the empty word."""
    ca, cb = A.empty_class, B.empty_class
    if LIE in (ca, cb):
        return LIE
    return GROUP if ca == cb == GROUP else FREE


def mu(*ms) -> Mould:
    """Associative mu product of one or more moulds."""
    ms = [_lift(m) for m in ms]
    out = ms[0]
    for m in ms[1:]:
        out = Mu(out, m)
    return out


def lu(A: Mould, B: Mould) -> Mould:
    return Mu(A, B) - Mu(B, A)


class Invmu(Cuts):
    """mu-inverse: X(empty)=1, X(w) = -sum_{w=ab, a nonempty} A(a) X(b)."""

    __slots__ = ()
    sign = -1

    def __init__(self, A: Mould, name: str = "invmu"):
        if A.empty_class != GROUP:
            raise ValueError(f"{name} needs a group-class mould, got {A.empty_class} ({A.name})")
        super().__init__(name, GROUP, (True, False), ((A, _first), (self, _second)))

    def _eval(self, ctx, w):
        return Cuts._eval(self, ctx, w) if w else _ONE


def invmu(A: Mould) -> Mould:
    return Invmu(A)


# ---------------------------------------------------------------------------
# Identity checking
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class SamplePlan:
    max_length: int = 4
    samples_per_length: int = 4
    seed: int = 0
    bounds: Bounds = Bounds()

    def __post_init__(self):
        if self.max_length < 0 or self.samples_per_length < 1:
            raise ValueError("need max_length >= 0 and samples_per_length >= 1")


def derived_rng(*parts) -> random.Random:
    """Deterministic child RNG from a tuple of seeds/labels (process stable)."""
    h = hashlib.blake2b(":".join(str(p) for p in parts).encode(), digest_size=8)
    return random.Random(int.from_bytes(h.digest(), "big"))


@dataclass
class PointRecord:
    identity: str
    length: int
    word: Word
    lhs: Optional[Rat]  # None on a skipped point, and rhs with it
    rhs: Optional[Rat]
    split: Optional[int] = None  # prefix length, for paired-word checks
    detail: Optional[str] = None  # e.g. the division-by-zero path on a skip

    @property
    def status(self) -> str:
        if self.lhs is None:
            return "skipped"
        return "pass" if self.lhs == self.rhs else "fail"

    def to_json(self) -> dict:
        rec = {
            "identity": self.identity,
            "length": self.length,
            "word": word_to_json(self.word),
            "lhs": None if self.lhs is None else rat_str(self.lhs),
            "rhs": None if self.rhs is None else rat_str(self.rhs),
            "status": self.status,
        }
        if self.split is not None:
            rec["split"] = self.split
        if self.detail is not None:
            rec["detail"] = self.detail
        return rec


@dataclass
class Report:
    identity: str
    points: list[PointRecord] = field(default_factory=list)
    note: str = ""

    @property
    def counterexample(self) -> Optional[PointRecord]:
        for p in self.points:
            if p.status == "fail":
                return p
        return None

    @property
    def status(self) -> str:
        """``pass``, ``fail``, or ``unchecked`` for a report with no point,
        which equals neither expectation: it checked nothing."""
        if not self.points:
            return "unchecked"
        if any(p.status == "fail" for p in self.points):
            return "fail"
        # a length whose every point was skipped never exercised the
        # identity there: the check fails
        checked = {p.length for p in self.points if p.status == "pass"}
        if any(p.length not in checked for p in self.points):
            return "fail"
        return "pass"

    def to_json(self) -> dict:
        out = {
            "identity": self.identity,
            "status": self.status,
            "points": [p.to_json() for p in self.points],
        }
        if self.note:
            out["note"] = self.note
        return out


def sample_points(
    ctx: EvalContext,
    plan: SamplePlan,
    name: str,
    shapes: Iterable[tuple[tuple, tuple[int, ...]]],
    evaluate: Callable[..., tuple[Rat, Rat]],
) -> Report:
    """Compare ``evaluate(*parts)`` exactly at seeded random points per shape.

    Each shape is ``(label, part_lengths)``.  A point samples its parts in
    order from ``derived_rng(plan.seed, name, *label, i, attempt)``; its word
    is their concatenation, and a two-part shape records the first part's
    length as ``split``.  A shape of total length 0 gets one sample, any
    other ``plan.samples_per_length``.  Division by zero resamples up to the
    context's retry cap; a point that keeps hitting singular words is
    recorded as skipped, with its last word and the error as ``detail``.
    """
    report = Report(identity=name)
    for label, lengths in shapes:
        length = sum(lengths)
        split = lengths[0] if len(lengths) == 2 else None
        for i in range(plan.samples_per_length if length else 1):
            for attempt in range(ctx.retry_cap + 1):
                rng = derived_rng(plan.seed, name, *label, i, attempt)
                parts = [sample_word(rng, n, plan.bounds) for n in lengths]
                w = sum(parts, EMPTY)
                try:
                    lhs, rhs = evaluate(*parts)
                except DivByZero as exc:
                    # keep the text, not the exception: its traceback holds
                    # this frame, and the cycle would keep ctx's memo alive
                    # past the item until the cyclic collector runs
                    detail = str(exc)
                    continue
                rec = PointRecord(name, length, w, lhs, rhs, split=split)
                break
            else:
                rec = PointRecord(name, length, w, None, None, split=split, detail=detail)
            report.points.append(rec)
    return report


def check_identity(
    lhs: Mould,
    rhs: Mould,
    plan: SamplePlan,
    name: str = "identity",
    ctx: Optional[EvalContext] = None,
) -> Report:
    """Compare two moulds exactly at N seeded random words per length 0..L.

    Division by zero at a sample point triggers resampling (up to the
    context's retry cap); a point that keeps hitting singular words is
    recorded as skipped.
    """
    ctx = ctx if ctx is not None else EvalContext()
    shapes = (((r,), (r,)) for r in range(plan.max_length + 1))
    return sample_points(ctx, plan, name, shapes, lambda w: (ctx.eval(lhs, w), ctx.eval(rhs, w)))
