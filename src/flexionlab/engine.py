"""Bimould expression graphs with exact memoized evaluation.

A mould is an immutable node in an expression DAG; evaluating (node, word)
through an EvalContext yields an exact rational.  Every node carries an
empty-word class: group (value 1 at the empty word), lie (value 0) or free.
A leaf declares its class; every other node derives it from its terms at
length 0 by one rule, ``_sum_class``.

Words run through the engine on an integer lattice.  A walk takes words of
``Fraction`` coordinates and converts them once: coordinate x becomes the
int x*D, with D the walk's scale, the lcm of ``words.BASE`` = 2520 and the
denominators of its words, so 2520 for every sampled word.  Nodes recurse
through ``ctx.at(A, w)`` on lattice words, whose flexions and transforms are
int additions.  ``ctx.eval(A, w)`` is a walk of one lane.

One walk of the DAG evaluates a node at the words of n *lanes* at once.
Every coordinate is a packed int: the sum of x_i * 2^(K*i) over the lattice
ints x_i of the lanes (``words.pack``), with the lane width K derived from
the walk's own words, their length and their largest lattice coordinate
(``words.lane_width``).  Packing is linear, so the flexions and word
transforms run unchanged on packed words, and two packed words are equal
exactly when every lane is.  Every value is a flat tuple of 2n ints ``(n0,
d0, n1, d1, ...)``, lane i being the rational n_i/d_i in lowest terms with
d_i > 0.  ``sum_of_products`` is the one arithmetic kernel, lane by lane on
those ints, and leaves call their functions through ``ctx.apply``, once per
lane on the lane's ``Fraction`` letters, whose ``Fraction`` results it
flattens.  ``Fraction``s appear only at the boundary: the letters a leaf
reads, the result of ``ctx.eval`` and the two sides of each point
``sample_points`` records.

One rule holds for every lane count: a leaf that divides by zero poisons
its lane, reads 0 there, and the walk keeps the lane's first ``DivByZero``
in ``ctx.poisoned``, a dict from lane to error.  ``at`` pushes and pops a
(node, word) frame per evaluation, and the error's trail is that path,
innermost first, each word the lane's ``Fraction`` word.  The (node, word)
visits of a walk do not depend on values, so a lane's error, trail and all,
is the one its one-lane walk records.  One lane is the plain scalar engine,
and there is no other evaluator.

Every walk starts from fresh state, and nothing of it outlives the next
walk: the memo, the word table, the path, the poisoned lanes, the scale,
the lane width and the lane count belong to the walk.  Each walk interns
its words: ``ctx.word_ids`` maps each distinct packed word, as the flat
tuple ``(u1, v1, u2, v2, ...)`` of its ints, to a small int id, and the memo
holds one table per node, from word id to the node's value there.  A
table's keys are the id objects of the word table, so a memo entry costs
one dict slot and no key object.  Each lane count has one shared all-0,
all-1 and all-(-1) value (``constant_lanes``, held as ``ctx.zeros``,
``ctx.ones`` and ``ctx.negs``), and ``ctx.const(c)`` gives the shared value
of any constant c.  The kernel returns the shared zeros for a sum that is 0
in every lane, skips a factor that is the shared ones and returns the
lone remaining factor of a one-term sum itself; a negated term carries a
``ctx.negs`` factor.

``FuncMould`` is the one leaf: a function of the word's letters, called
through ``ctx.apply``.  A lie-class leaf is 0 at the empty word and a leaf
of a set ``length`` is 0 at every other length, neither calling its
function there.  The unit letters, the seeded digests (``DigestMould``) and
the closed forms of ``canonical`` are leaves.

``Lin`` is the one linear node: its value at w is the sum of c B(w) over the
(coefficient, child) pairs its term function gives for len(w), built once
per length.  A constant is a term with no child, and ``Scalar(c)`` is the
``Lin`` with the one term c at length 0.  ``+``, ``-``, scalar ``*``,
``pari``, ``der`` and ``leng_r`` build one, and so do e_ter, the dilator
flow and the truncated series of the other modules; ``iterates`` builds
the lazy sequences of nodes (powers, push iterates) that such a series
runs over.

``anti``, ``neg``, ``swap`` and ``mantar`` are one ``Transform`` node that
evaluates its operand at ``reverse(w)``, ``negate(w)`` or
``swap_pullback(w)``, mantar with the parity sign (-1)^(len(w)-1); ``push``,
``push_inv`` and ``gantar`` are composed from them.

``Cuts`` is the one node that sums products of children at words derived
from w: the cut sums of ``cut_plan`` (mu, invmu, swamu/answamu, amit/anit,
the e_ter terms and inverse, ro, the flow's product) and the gaxit family
of ``flexion``.  Its plan, compiled once per word length by running the
word assemblies on a symbolic word (``compile_plan``), lists each derived
letter, distinct factor and term once.  Every plan is a module constant,
built once at import, so the nodes of one kind share its compiled lengths.
``Mu(A, B, proper)`` builds the two-block product; ``proper`` 1 drops the
cut with an empty left block and 2 drops both end cuts, so a solver's
self-referential recursion never reaches the full word.

The node classes are ``FuncMould``, ``Lin``, ``Transform`` and ``Cuts``;
every operator of the other modules is a graph of them.

``sample_points`` is the one sampling loop behind every randomized checker:
it draws seeded random words per shape and compares two exact values per
sample.  Each attempt is one walk over the samples of the shape still
pending; a poisoned sample is drawn again at the next attempt, up to the
context's retry cap.  ``check_identity`` compares two graphs on it, and
``canonical.check_tripartite`` the two sides of the tripartite relation,
two leaves of length 2, on two-letter words.
"""

from __future__ import annotations

import functools
import itertools
import random
from dataclasses import dataclass, field
from fractions import Fraction
from math import gcd
from operator import itemgetter
from typing import Callable, Iterable, NamedTuple, Optional, Sequence

# ``hashlib`` loads OpenSSL's libcrypto at import (about 3 MiB of RSS) to
# offer its hashes; the one hash used here, blake2b, is CPython's built-in
# ``_blake2`` module, which ``hashlib.blake2b`` is on CPython 3.6 to 3.13
# (tests/test_cli.py asserts the identity, so digests cannot move).
from _blake2 import blake2b

from .words import (
    BASE,
    Biletter,
    DivByZero,
    Rat,
    Word,
    EMPTY,
    coprime_fraction,
    lane_width,
    lattice_scale,
    negate,
    pack,
    rat_str,
    reverse,
    sample_word,
    swap_pullback,
    to_lattice,
    unpack,
    word_to_json,
)

GROUP = "group"
LIE = "lie"
FREE = "free"

_uid_counter = itertools.count(1)

Lanes = tuple  # tuple[int, ...]: a value, (numerator, denominator) per lane


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

    def _eval(self, ctx: "EvalContext", w: Word) -> Lanes:
        raise NotImplementedError

    # -- arithmetic sugar: + and - are pointwise, scalars act by scaling ----

    def __add__(self, other):
        return _combo("add", (1, self), (1, _lift(other)))

    def __sub__(self, other):
        return _combo("sub", (1, self), (-1, _lift(other)))

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
    """Memo tables plus counters; build one per checked item.

    Every value is a flat tuple of 2 * ``lanes`` ints ``(n0, d0, n1, d1,
    ...)``, lane i being n_i/d_i in lowest terms with d_i > 0, and every word
    coordinate is a packed int (``words.pack``) that holds the lattice ints
    of all lanes, so one walk of the DAG evaluates a node at the words of
    every lane.  Flexions and transforms are linear, so they act on packed
    words lane by lane, and two packed words are equal exactly when they are
    equal in every lane.  With one lane a packed int is the lattice int
    itself, and the context is the plain scalar engine.

    ``walk`` evaluates a function of graphs at the ``Fraction`` words of n
    lanes at once (other coordinates raise ``TypeError``), and ``eval(A,
    w)`` is its public one-lane entry, whose value comes back as a
    ``Fraction``, and which raises the error its walk recorded, taking it
    out of ``poisoned``.  A walk
    converts its words once to its integer lattice, each coordinate x
    becoming the int x*scale, with ``scale`` the lcm of ``words.BASE``
    (2520, a multiple of every sampled denominator) and the denominators of
    the walk's words.  Nodes recurse through ``at(A, w)``, add their
    products with ``sum_of_products``, call their leaf and letter functions
    through ``apply`` and take constants from ``const``.

    ``word_ids`` gives each distinct packed word, as the flat tuple
    ``(u1, v1, u2, v2, ...)`` of its ints, a small int id.  ``memo`` maps a
    node's ``uid`` to that node's table, a dict from word id to the node's
    value at that word; the table's keys are the very id objects that
    ``word_ids`` holds, so an entry costs one dict slot.  ``len(memo)``
    counts node tables, not entries.  A node's table is made on its first
    visit, before its value.  Every walk starts from an empty memo, word
    table, path, poisoned record and letter cache of its own, since equal
    ints of two walks can name different words; they stay on the context
    until the next walk replaces them, so after an item the context holds
    its last walk's entries only.

    ``poisoned`` maps each lane of the current walk in which a leaf divided
    by zero to its first ``DivByZero``, whose trail ``apply`` builds from
    the path of (node, word) frames that ``at`` keeps, and whose traceback
    it clears, since its frames hold the context.  ``apply`` puts 0 in such
    a lane, and ``at`` skips it in its empty-word class check.  ``zeros``,
    ``ones`` and ``negs`` are the shared all-0, all-1 and all-(-1) values of
    the current lane count (``constant_lanes``); a node returns them for a
    constant value, and ``sum_of_products`` knows them by identity, so a
    constant costs the memo no object of its own.

    ``stats`` counts ``evals`` (one per node and word a walk evaluates, for
    all its lanes at once), ``memo_hits`` and ``div_by_zero``: one per lane
    a walk poisons, that is one per singular sample and attempt.
    """

    def __init__(self, retry_cap: int = 8):
        if retry_cap < 0:
            raise ValueError(f"need retry_cap >= 0, got {retry_cap}")
        self.retry_cap = retry_cap
        self.stats = {"evals": 0, "memo_hits": 0, "div_by_zero": 0}
        self._reset(1, BASE, 0)

    def _reset(self, lanes: int, scale: int, width: int) -> None:
        """Fresh per-walk state for ``lanes`` lanes on the lattice of
        ``scale``, ``width`` bits per lane of a packed coordinate."""
        self.memo: dict[int, dict[int, Lanes]] = {}
        self.word_ids: dict[tuple[int, ...], int] = {}
        self.poisoned: dict[int, DivByZero] = {}
        self._path: list[tuple[Mould, Word]] = []
        self._letters: dict[Biletter, tuple[Biletter, ...]] = {}
        self.scale, self.lanes, self._width = scale, lanes, width
        self.zeros, self.ones, self.negs = constant_lanes(lanes)

    def eval(self, A: Mould, w: Word) -> Rat:
        value, poisoned = self.walk(lambda x: self.at(A, x), [[w]])
        if poisoned:
            raise poisoned.pop(0)  # the traceback it gains holds this context
        return coprime_fraction(*value)

    def walk(
        self, evaluate: Callable[..., tuple[Lanes, Lanes]], samples: Sequence[Sequence[Word]]
    ) -> tuple[tuple[Lanes, Lanes], dict[int, DivByZero]]:
        """``evaluate(*parts)`` over the lanes of one walk, lane i at the
        ``Fraction`` words ``samples[i]``, and the walk's poisoned lanes,
        each with its first error; the parts of every lane have the same
        lengths.  ``evaluate`` reads graphs through ``at`` and returns a
        pair of values.  The walk starts from fresh state on the lcm lattice
        of its samples, with the lane width their lengths and coordinates
        need, and leaves that state on the context until the next walk."""
        scale = BASE
        for parts in samples:
            scale = lattice_scale(sum(parts, EMPTY), scale)
        lattice = [[to_lattice(part, scale) for part in parts] for parts in samples]
        self._reset(len(samples), scale, lane_width([sum(parts, EMPTY) for parts in lattice]))
        out = evaluate(*[pack(lane_parts, self._width) for lane_parts in zip(*lattice)])
        self.stats["div_by_zero"] += len(self.poisoned)
        return out, self.poisoned

    def const(self, c: Rat) -> Lanes:
        """The shared value that is the int or ``Fraction`` ``c`` in every
        lane; ``const(1)`` is ``ones``."""
        return lane_constant(c.numerator, c.denominator, self.lanes)

    def apply(self, fn: Callable[..., Rat], *letters: Biletter) -> Lanes:
        """``fn`` called once per lane on that lane's ``Fraction`` letters,
        its ``Fraction`` results flattened into one value.

        A lane where ``fn`` raises ``DivByZero`` reads 0 and is poisoned,
        and the other lanes go on.  The lane's first error is kept in
        ``poisoned``, its trail extended by the frames of the current path,
        innermost first, each with that lane's ``Fraction`` word.
        """
        cache = self._letters
        lanes = []
        for x in letters:
            got = cache.get(x)
            if got is None:
                got = cache[x] = self._unpack(x)
            lanes.append(got)
        out = []
        for lane, args in enumerate(zip(*lanes) if letters else itertools.repeat((), self.lanes)):
            try:
                x = fn(*args)
            except DivByZero as exc:
                if lane not in self.poisoned:
                    exc.__traceback__ = None  # its frames hold this context
                    exc.trail += [(A.name, tuple(self._unpack(c)[lane] for c in w)) for A, w in reversed(self._path)]
                    self.poisoned[lane] = exc
                out += (0, 1)
                continue
            out += (x.numerator, x.denominator)
        return tuple(out)

    def _unpack(self, x: Biletter) -> tuple[Biletter, ...]:
        """The ``Fraction`` letter of each lane of the packed letter ``x``."""
        scale = self.scale
        if self.lanes == 1:
            return (Biletter(Fraction(x.u, scale), Fraction(x.v, scale)),)
        us = unpack(x.u, self.lanes, self._width)
        vs = unpack(x.v, self.lanes, self._width)
        return tuple(Biletter(Fraction(u, scale), Fraction(v, scale)) for u, v in zip(us, vs))

    def at(self, A: Mould, w: Word) -> Lanes:
        """The value of ``A`` at the packed word ``w``, memoized."""
        flat = sum(w, ())
        wid = self.word_ids.get(flat)
        if wid is None:
            wid = self.word_ids[flat] = len(self.word_ids)
        table = self.memo.get(A.uid)
        if table is None:
            table = self.memo[A.uid] = {}
        else:
            hit = table.get(wid)
            if hit is not None:
                self.stats["memo_hits"] += 1
                return hit
        self.stats["evals"] += 1
        path = self._path
        path.append((A, w))
        val = A._eval(self, w)
        path.pop()
        if not w and A.empty_class != FREE:
            want = (1, 1) if A.empty_class == GROUP else (0, 1)
            for lane in range(self.lanes):
                got = val[2 * lane : 2 * lane + 2]
                if got != want and lane not in self.poisoned:
                    raise RuntimeError(f"{A.empty_class} mould {A.name} evaluated to {Fraction(*got)} at the empty word")
        table[wid] = val
        return val


@functools.cache
def lane_constant(num: int, den: int, lanes: int) -> Lanes:
    """The shared value of ``lanes`` lanes that is num/den in every lane."""
    return (num, den) * lanes


@functools.cache
def constant_lanes(lanes: int) -> tuple[Lanes, Lanes, Lanes]:
    """The shared all-0, all-1 and all-(-1) values of ``lanes`` lanes."""
    return lane_constant(0, 1, lanes), lane_constant(1, 1, lanes), lane_constant(-1, 1, lanes)


def sum_of_products(terms: Iterable[Iterable[Lanes]], lanes: int = 1) -> Lanes:
    """The sum over ``terms`` of the product of each term's factors, lane by
    lane.

    Each factor is a flat tuple of ``lanes`` (numerator, denominator) int
    pairs in lowest terms with positive denominators, and the result is one
    too.  The sum of each lane multiplies and adds ints only: each product
    stays an unreduced n/d, the running total keeps the lcm of the
    denominators so far, and only the result is reduced to lowest terms.
    Every factor of every term is consumed in order, so a caller that
    evaluates factors lazily in ``terms`` meets the same first ``DivByZero``
    as a term-by-term sum.

    The result allocates only what it must.  A factor that is the shared
    ones of ``constant_lanes`` is skipped; one term with one factor left
    returns that factor itself, and one with none left the shared ones; a
    sum that is 0 in every lane is the shared zeros.
    """
    zeros, ones, _ = constant_lanes(lanes)
    terms = [tuple(factors) for factors in terms]  # each lane reads them again
    if len(terms) == 1:
        rest = [f for f in terms[0] if f is not ones]
        if len(rest) < 2:
            return rest[0] if rest else ones
    out = []
    zero = True
    for i in range(0, 2 * lanes, 2):
        j = i + 1
        num, den = 0, 1
        for factors in terms:
            n = d = 1
            for f in factors:
                if f is not ones:
                    n *= f[i]
                    d *= f[j]
            if not n:
                continue
            if d == den:
                num += n
            else:
                g = gcd(den, d)
                num = num * (d // g) + n * (den // g)
                den = den // g * d
        if num:
            g = gcd(num, den)
            out += (num // g, den // g)
            zero = False
        else:
            out += (0, 1)
    return zeros if zero else tuple(out)


# ---------------------------------------------------------------------------
# Primitives
# ---------------------------------------------------------------------------


def Scalar(c) -> Mould:
    """c at the empty word, 0 elsewhere (the unit mould for c=1): a ``Lin``
    whose one term, at length 0, is the constant c."""
    c = Fraction(c)
    return Lin(f"scalar[{rat_str(c)}]", lambda r: () if r else ((c, None),))


def one() -> Mould:
    return Scalar(1)


def zero() -> Mould:
    return Scalar(0)


class FuncMould(Mould):
    """The one leaf: ``fn`` of a word's letters, called through ``ctx.apply``.

    ``fn`` takes the ``Fraction`` letters as positional arguments.  The leaf
    is 0 without calling ``fn`` at the empty word when it is lie-class, and
    at every length other than ``length`` when that is set: the unit
    letters E and O are lie-class leaves of length 1.
    """

    __slots__ = ("fn", "length")

    def __init__(self, name: str, fn: Callable[..., Rat], empty_class: str, length: Optional[int] = None):
        super().__init__(name, empty_class)
        self.fn, self.length = fn, length

    def _eval(self, ctx, w):
        if (not w and self.empty_class == LIE) or (self.length is not None and len(w) != self.length):
            return ctx.zeros
        return ctx.apply(self.fn, *w)


def DigestMould(seed: int, tag: str = "") -> Mould:
    """Deterministic pseudorandom lie-class leaf: a seeded digest of the word.

    Values are bounded rationals depending on the exact word, stable across
    processes (blake2b, not Python's salted hash).
    """
    name = f"generic[{seed}{',' + tag if tag else ''}]"
    return FuncMould(name, functools.partial(_digest, repr((seed, tag)).encode()), LIE)


def _digest(seed: bytes, *letters: Biletter) -> Rat:
    h = blake2b(digest_size=16)
    h.update(seed)
    for x in letters:
        h.update(f"{x.u.numerator}/{x.u.denominator};{x.v.numerator}/{x.v.denominator}|".encode())
    d = int.from_bytes(h.digest(), "big")
    num = d % 41 - 20
    den = (d >> 16) % 7 + 1
    return Fraction(num, den)


# ---------------------------------------------------------------------------
# Linear nodes
# ---------------------------------------------------------------------------

Terms = Sequence[tuple[Rat, Optional[Mould]]]


class Lin(Mould):
    """A linear node: the sum of c B(w) over the pairs (c, B) of ``terms(len(w))``.

    The coefficients are ints or ``Fraction``s, and a pair ``(c, None)`` is
    the constant c.  The terms of each length are built once, on first use,
    and kept (``terms_at``), so ``terms`` must give the same pairs whenever
    it is called with the same length.  A coefficient reaches the kernel as
    the shared ``ctx.const(c)``, so a coefficient 1 adds no factor and a
    lone unit term passes its child's value through.  Sums,
    differences, scalar multiples, ``pari``, ``der``, ``leng_r``, e_ter, the
    dilator flow, the ro weight len(q)+1 and the truncated series (expari,
    logari, adari_series, the dilator extraction, the To series, pushsym)
    are all ``Lin`` nodes.  The children are
    evaluated in term order, so the first ``DivByZero`` and its trail are
    those of a term-by-term sum, and the products are added with one
    ``sum_of_products``.

    The empty-word class is ``_sum_class`` of ``terms(0)``, which is called
    when the node is built, so it must not need the node itself.

    A node that reads its operand at another word than w (``Transform``,
    the products) is not a ``Lin``: its terms are not a list of
    children at w.
    """

    __slots__ = ("terms", "_by_length")

    def __init__(self, name: str, terms: Callable[[int], Terms]):
        self.terms = terms
        self._by_length: dict[int, Terms] = {}
        classes = ((c, () if B is None else (B.empty_class,)) for c, B in self.terms_at(0))
        super().__init__(name, _sum_class(classes))

    def terms_at(self, r: int) -> Terms:
        """The (coefficient, child) pairs of length ``r``, built once."""
        got = self._by_length.get(r)
        if got is None:
            got = self._by_length[r] = tuple(self.terms(r))
        return got

    def _eval(self, ctx, w):
        at, const = ctx.at, ctx.const
        products = [(const(c),) if B is None else (const(c), at(B, w)) for c, B in self.terms_at(len(w))]
        return sum_of_products(products, ctx.lanes)


def _sum_class(terms: Iterable[tuple[Rat, Sequence[str]]]) -> str:
    """The empty-word class of a sum of the (coefficient, factor classes)
    terms at the empty word: a term with coefficient 0 or a lie-class factor
    is skipped, one with a free factor makes the sum free, and otherwise the
    coefficient sum s gives LIE for 0, GROUP for 1 and FREE for any other s."""
    s = 0
    for c, classes in terms:
        if not c or LIE in classes:
            continue
        if FREE in classes:
            return FREE
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
    """``A`` evaluated at ``f(w)`` for a word transform ``f``: anti, neg, swap.

    With ``parity`` set the value is also multiplied by (-1)^(len(w)-1), so
    -A at the empty word: mantar is the signed reversal.
    """

    __slots__ = ("A", "f", "parity")

    def __init__(self, name: str, f: Callable[[Word], Word], A: Mould, parity: bool = False):
        super().__init__(name, _sum_class(((-1 if parity else 1, (A.empty_class,)),)))
        self.A = A
        self.f = f
        self.parity = parity

    def _eval(self, ctx, w):
        val = ctx.at(self.A, self.f(w))
        if self.parity and not len(w) % 2:
            return sum_of_products(((ctx.negs, val),), ctx.lanes)
        return val


def anti(A: Mould) -> Mould:
    return Transform("anti", reverse, A)


def pari(A: Mould) -> Mould:
    """(-1)^len(w) A(w)."""
    even, odd = ((1, A),), ((-1, A),)
    return Lin("pari", lambda r: odd if r % 2 else even)


def neg(A: Mould) -> Mould:
    return Transform("neg", negate, A)


def swap(A: Mould) -> Mould:
    return Transform("swap", swap_pullback, A)


def der(A: Mould) -> Mould:
    """len(w) A(w); A is still evaluated at the empty word, with weight 0."""
    return Lin("der", lambda n: ((n, A),))


def leng_r(A: Mould, r: int) -> Mould:
    """A on the words of length ``r``, 0 elsewhere."""
    terms = ((1, A),)
    return Lin(f"leng_{r}", lambda n: terms if n == r else ())


def mantar(A: Mould) -> Mould:
    """mantar(A)(w) = (-1)^(len(w)-1) A(reverse(w)), i.e. -pari o anti."""
    return Transform("mantar", reverse, A, parity=True)


def push(A: Mould) -> Mould:
    """push := neg o anti o swap o anti o swap (the defining conjugation)."""
    return neg(anti(swap(anti(swap(A)))))


def push_inv(A: Mould) -> Mould:
    return swap(anti(swap(anti(neg(A)))))


def gantar(A: Mould) -> Mould:
    """gantar := anti o pari o invmu; defined on group-class moulds."""
    return anti(pari(invmu(A)))


# ---------------------------------------------------------------------------
# Sums of products
# ---------------------------------------------------------------------------


class _URun(NamedTuple):
    """U[hi] - U[lo], the u-sum of the letters lo..hi-1 of a compiled word."""

    lo: int
    hi: int

    def __add__(self, other):
        if other == 0:  # the start of ``sum``
            return self
        if self.hi != other.lo and other.hi != self.lo:
            raise ValueError(f"u-runs {tuple(self)} and {tuple(other)} are not adjacent")
        return _URun(min(self.lo, other.lo), max(self.hi, other.hi))

    __radd__ = __add__


class _VDiff(NamedTuple):
    """V[k] - V[s], a v of a compiled word, with V[r] = 0 at length r."""

    k: int
    s: int

    def __sub__(self, other):
        if self.s != other.s:
            raise ValueError(f"v-differences {tuple(self)} and {tuple(other)} have different shifts")
        return _VDiff(self.k, other.k)


def _getter(indices: tuple[int, ...]) -> itemgetter:
    """``itemgetter(*indices)``, but a slice for fewer than two, so that it always gives a sequence."""
    if len(indices) > 1:
        return itemgetter(*indices)
    return itemgetter(slice(indices[0], indices[0] + 1) if indices else slice(0))


def compile_plan(terms: Callable[[Word], Iterable]) -> Callable[[int], tuple]:
    """The plan function of a sum of products: ``plan(r)`` compiles, once
    per r, the ``(negated, factors)`` terms that ``terms(word)`` yields for
    a symbolic word of length r, each factor a ``(role, word)`` pair.

    Letter k of the symbolic word is ``(_URun(k, k + 1), _VDiff(k, r))``, so
    the flexions give letters ``(U[hi] - U[lo], V[k] - V[s])``; any other
    coordinate raises ``ValueError``.  ``plan(r)`` is ``(letters, words,
    terms)``: the recipes ``(lo, hi, k, s)`` of the letters that are not
    w's own, numbered from r; each distinct ``(role, letter indices)`` once,
    in first use, as ``(role, getter)`` over the letter table; and per term
    a getter over the words' values, which ``ctx.negs`` follows.
    """

    @functools.cache
    def plan(r: int) -> tuple:
        word = tuple(Biletter(_URun(k, k + 1), _VDiff(k, r)) for k in range(r))
        letters = {x: k for k, x in enumerate(word)}  # letter -> index in the table
        words: dict = {}  # (role, letter indices) -> index of its value
        raw = []
        for negated, factors in terms(word):
            keys = [(role, tuple(letters.setdefault(x, len(letters)) for x in u)) for role, u in factors]
            raw.append((tuple(words.setdefault(key, len(words)) for key in keys), negated))
        recipes = tuple((*x.u, *x.v) for x in itertools.islice(letters, r, None))
        getters = tuple(_getter((*ids, len(words)) if negated else ids) for ids, negated in raw)
        return recipes, tuple((role, _getter(ids)) for role, ids in words), getters

    return plan


def cut_plan(spec: str, factors: tuple[tuple[int, Callable[[tuple], Word]], ...], inverse: bool = False):
    """The plan function of a sum over the cuts of w into blocks.

    ``spec`` has one character per block, at least two: ``*`` any word,
    ``+`` a nonempty word, ``1`` one letter.  Each cut into blocks of those
    kinds, in lexicographic order, is a term whose factor ``(role,
    assemble)`` reads its role at ``assemble(blocks)``.  With ``inverse``
    the value is 1 at the empty word minus the sum: invmu solving mu(A, X) =
    1 for itself.  Each call is a new plan, so each is a module constant:
    mu, swamu and answamu are ``**``, proper mu ``+*`` and ``++``, invmu
    ``+*``, amit ``*++``, anit ``++*``, the flow's product ``*+``, the e_ter
    terms ``*1``, ro ``*1*`` (w = p m q) and the e_ter inverse ``***``.
    """
    if len(spec) < 2 or set(spec) - set("*+1"):
        raise ValueError(f"a cut spec is two or more of '*+1', got {spec!r}")

    def terms(word):
        r = len(word)
        if inverse and not r:
            yield False, ()  # the empty product
        for cuts in itertools.combinations_with_replacement(range(r + 1), len(spec) - 1):
            bounds = (0, *cuts, r)
            blocks = tuple(word[lo:hi] for lo, hi in zip(bounds, bounds[1:]))
            if all({"*": True, "+": len(b) > 0, "1": len(b) == 1}[kind] for kind, b in zip(spec, blocks)):
                yield inverse, [(role, assemble(blocks)) for role, assemble in factors]

    return compile_plan(terms)


class Cuts(Mould):
    """The one node that sums products: its value at w is the sum of the
    terms of ``plan(len(w))`` (``compile_plan``), role 0 being the node
    itself and role i >= 1 ``children[i - 1]``; the cut sums of
    ``cut_plan`` and the gaxit family of ``flexion``.  Each distinct factor
    is evaluated once, in first use, the order of a term-by-term sum, so
    the first ``DivByZero`` and its trail are that sum's; the products are
    added with one ``sum_of_products``.  The empty-word class is
    ``_sum_class`` of the terms of ``plan(0)``, a negated one with
    coefficient -1; a plan that reads the node itself there raises
    ``ValueError``, and one that reads no factor there (invmu) needs no
    children yet.
    """

    __slots__ = ("plan", "children")

    def __init__(self, name: str, plan: Callable[[int], tuple], children: tuple):
        _, words, terms = plan(0)
        if any(role == 0 for role, _ in words):
            raise ValueError(f"{name} reads itself at the empty word, so it has no empty-word class")
        classes = [*(children[role - 1].empty_class for role, _ in words), _NEGATED]  # as ``_eval``'s values
        factors = [term(classes) for term in terms]
        super().__init__(name, _sum_class((-1 if _NEGATED in f else 1, f) for f in factors))
        self.plan, self.children = plan, children

    def _eval(self, ctx, w):
        letters, words, terms = self.plan(len(w))
        if letters:  # over the prefix u-sums U and the v's V of w, V[r] = 0
            U, V = [0, *itertools.accumulate(x.u for x in w)], [*(x.v for x in w), 0]
            w = (*w, *[Biletter(U[hi] - U[lo], V[k] - V[s]) for lo, hi, k, s in letters])
        at, moulds = ctx.at, (self, *self.children)
        values = [at(moulds[role], get(w)) for role, get in words]
        values.append(ctx.negs)
        return sum_of_products([term(values) for term in terms], ctx.lanes)


_NEGATED = "negated"  # the class of the ctx.negs factor of a negated term, in Cuts
_a, _b, _c = map(itemgetter, range(3))  # the blocks of a cut w = abc, as they are
_MU_PLANS = tuple(cut_plan(spec, ((1, _a), (2, _b))) for spec in ("**", "+*", "++"))  # by ``proper``


def Mu(A: Mould, B: Mould, proper: int = 0) -> Mould:
    """mu(A,B)(w) = sum over two-block factorizations w = a.b of A(a)B(b).

    ``proper=1`` keeps only the cuts with ``a`` nonempty and ``proper=2``
    only those with both parts nonempty; both are lie-class and internal to
    solvers.  ``Mu(A, B, 2)`` equals ``Mu(A, B)`` when both operands vanish
    on the empty word, but never evaluates either operand at the full word,
    which keeps self-referential length recursions well founded.
    """
    return Cuts(("mu", "mu'", "mu''")[proper], _MU_PLANS[proper], (A, B))


def mu(*ms) -> Mould:
    """Associative mu product of one or more moulds."""
    ms = [_lift(m) for m in ms]
    out = ms[0]
    for m in ms[1:]:
        out = Mu(out, m)
    return out


def lu(A: Mould, B: Mould) -> Mould:
    return Mu(A, B) - Mu(B, A)


_invmu_plan = cut_plan("+*", ((1, _a), (0, _b)), True)


def invmu(A: Mould) -> Mould:
    """mu-inverse: X(empty)=1, X(w) = -sum_{w=ab, a nonempty} A(a) X(b)."""
    if A.empty_class != GROUP:
        raise ValueError(f"invmu needs a group-class mould, got {A.empty_class} ({A.name})")
    return Cuts("invmu", _invmu_plan, (A,))


# ---------------------------------------------------------------------------
# Identity checking
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class SamplePlan:
    max_length: int = 4
    samples_per_length: int = 4
    seed: int = 0

    def __post_init__(self):
        if self.max_length < 0 or self.samples_per_length < 1:
            raise ValueError("need max_length >= 0 and samples_per_length >= 1")


def derived_rng(*parts) -> random.Random:
    """Deterministic child RNG from a tuple of seeds/labels (process stable)."""
    h = blake2b(":".join(str(p) for p in parts).encode(), digest_size=8)
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
    evaluate: Callable[..., tuple[Lanes, Lanes]],
) -> Report:
    """Compare ``evaluate(*parts)`` exactly at seeded random points per shape.

    Each shape is ``(label, part_lengths)``.  A point samples its parts in
    order from ``derived_rng(plan.seed, name, *label, i, attempt)``; its word
    is their concatenation, and a two-part shape records the first part's
    length as ``split``.  A shape of total length 0 gets one sample, any
    other ``plan.samples_per_length``.  ``evaluate`` takes packed words,
    reads graphs through ``ctx.at`` and returns the two sides as values;
    the point records lane i of each as a ``Fraction``.

    Each attempt is one ``ctx.walk``, whose lanes are the samples of the
    shape still pending at that attempt: all of them at attempt 0, then
    those the previous walk poisoned (a division by zero), drawn again.  A
    sample still poisoned after attempt ``ctx.retry_cap`` is recorded as
    skipped, with its last word and the text of its last error as
    ``detail``.  Every walk starts from fresh state, so a point reads the
    same whatever the number of lanes and whatever walks came before it;
    with one sample per shape every walk is the one-lane engine.
    """
    report = Report(identity=name)
    for label, lengths in shapes:
        length = sum(lengths)
        split = lengths[0] if len(lengths) == 2 else None

        def draw(i, attempt):
            rng = derived_rng(plan.seed, name, *label, i, attempt)
            return [sample_word(rng, n) for n in lengths]

        points: list[PointRecord] = [None] * (plan.samples_per_length if length else 1)
        pending = range(len(points))
        for attempt in range(ctx.retry_cap + 1):
            drawn = [draw(i, attempt) for i in pending]
            sides, poisoned = ctx.walk(evaluate, drawn)
            for lane, (i, parts) in enumerate(zip(pending, drawn)):
                error = poisoned.get(lane)
                got = _lane(sides, lane) if error is None else (None, None)
                detail = None if error is None else str(error)
                points[i] = PointRecord(name, length, sum(parts, EMPTY), *got, split=split, detail=detail)
            pending = [pending[lane] for lane in sorted(poisoned)]
            if not pending:
                break
        report.points += points
    return report


def _lane(sides: tuple[Lanes, Lanes], i: int) -> list[Rat]:
    """Lane ``i`` of each of two values, as ``Fraction``s."""
    return [coprime_fraction(side[2 * i], side[2 * i + 1]) for side in sides]


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
    return sample_points(ctx, plan, name, shapes, lambda w: (ctx.at(lhs, w), ctx.at(rhs, w)))
