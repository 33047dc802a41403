"""Flexion derivations and group operations on bimoulds.

Derivation level: amit/anit/axit/arit/irat and the preari/ari brackets.
Group level: the gaxit family (gamit/ganit/garit specializations), gari with
its inverse and quotient, the exponential/logarithm pair expari/logari, the
inner action adari, the twisted products swamu/answamu (one node, told
apart by its flexion pair), and the swap conjugates gira/preira/girat.

Solvable inverses (invgari, logari, gaxit_inv, dilator extraction) are
length recursions: at word length r the unknown enters linearly with unit
coefficient through terms that only consume values at shorter lengths, so a
memoized recursive node computes them exactly.  Where the unknown is a
factor of a mu product, ``Mu(..., proper=1)`` (left block nonempty) or
``proper=2`` (both blocks nonempty) leaves out the terms that would need it
at the full word.
"""

from __future__ import annotations

import itertools
from fractions import Fraction
from math import factorial

from .engine import (
    FREE,
    GROUP,
    LIE,
    Add,
    Mould,
    Mu,
    Sub,
    invmu,
    lu,
    one,
    push,
    sum_of_products,
    swap,
)
from .words import Word, fll, flr, ful, fur


# ---------------------------------------------------------------------------
# Derivations amit / anit and their combinations
# ---------------------------------------------------------------------------


class Amit(Mould):
    """amit(X,A)(w) = sum_{w=abc, b,c nonempty} A(a . ful(b,c)) X(flr(b,c))."""

    __slots__ = ("X", "A")

    def __init__(self, X: Mould, A: Mould):
        super().__init__("amit", LIE)
        self.X = X
        self.A = A

    def _eval(self, ctx, w):
        A, X, r = self.A, self.X, len(w)
        # a = w[:i]; b = w[i:j] and c = w[j:] nonempty
        cuts = ((w[:i], w[i:j], w[j:]) for i in range(r) for j in range(i + 1, r))
        return sum_of_products((ctx.at(A, a + ful(b, c)), ctx.at(X, flr(b, c))) for a, b, c in cuts)


class Anit(Mould):
    """anit(X,A)(w) = sum_{w=abc, a,b nonempty} A(fur(a,b) . c) X(fll(a,b))."""

    __slots__ = ("X", "A")

    def __init__(self, X: Mould, A: Mould):
        super().__init__("anit", LIE)
        self.X = X
        self.A = A

    def _eval(self, ctx, w):
        A, X, r = self.A, self.X, len(w)
        # a = w[:i] and b = w[i:j] nonempty; c = w[j:]
        cuts = ((w[:i], w[i:j], w[j:]) for i in range(1, r) for j in range(i + 1, r + 1))
        return sum_of_products((ctx.at(A, fur(a, b) + c), ctx.at(X, fll(a, b))) for a, b, c in cuts)


def amit(X: Mould, A: Mould) -> Mould:
    return Amit(X, A)


def anit(X: Mould, A: Mould) -> Mould:
    return Anit(X, A)


def axit(X: Mould, Y: Mould, A: Mould) -> Mould:
    return Add(Amit(X, A), Anit(Y, A))


def arit(X: Mould, A: Mould) -> Mould:
    return Sub(Amit(X, A), Anit(X, A))


def irat(X: Mould, A: Mould) -> Mould:
    return axit(X, -push(X), A)


def preari(A: Mould, B: Mould) -> Mould:
    return Add(arit(B, A), Mu(A, B))


def ari(A: Mould, B: Mould) -> Mould:
    if A.empty_class != LIE or B.empty_class != LIE:
        raise ValueError("ari expects lie-class operands")
    return Add(Sub(arit(B, A), arit(A, B)), lu(A, B))


# ---------------------------------------------------------------------------
# The gaxit family
# ---------------------------------------------------------------------------


def _gaxit_decompositions(w: Word, skip_identity: bool = False):
    """Yield (blocks, a_list, c_list) for every gaxit term at a nonempty word.

    Kept positions form a nonempty subset; its maximal runs are the blocks.
    The gap before the first block is a1, the gap after the last is cs, and
    each interior gap is split every way into c_i . a_{i+1}.
    """
    r = len(w)
    full = (1 << r) - 1
    for mask in range(1, full + 1):
        if skip_identity and mask == full:
            continue
        runs = []
        i = 0
        while i < r:
            if mask >> i & 1:
                j = i
                while j < r and mask >> j & 1:
                    j += 1
                runs.append((i, j))
                i = j
            else:
                i += 1
        s = len(runs)
        blocks = [w[i:j] for i, j in runs]
        lead = w[: runs[0][0]]
        trail = w[runs[-1][1]:]
        gaps = [w[runs[t][1]: runs[t + 1][0]] for t in range(s - 1)]
        for cuts in itertools.product(*[range(len(g) + 1) for g in gaps]):
            a_list = [lead] + [g[c:] for g, c in zip(gaps, cuts)]
            c_list = [g[:c] for g, c in zip(gaps, cuts)] + [trail]
            yield blocks, a_list, c_list


def _gaxit_terms(ctx, T: Mould, X: Mould, Y: Mould, w: Word, skip_identity: bool = False):
    """Yield the factors of every gaxit term at a nonempty word, in order:
    T at the inner word, X at each left flexion, Y at each right flexion."""
    for blocks, a_list, c_list in _gaxit_decompositions(w, skip_identity):
        inner = ()
        for a, b, c in zip(a_list, blocks, c_list):
            inner += ful(a, fur(b, c))
        yield (
            ctx.at(T, inner),
            *[ctx.at(X, flr(a, b)) for a, b in zip(a_list, blocks)],
            *[ctx.at(Y, fll(b, c)) for b, c in zip(blocks, c_list)],
        )


class Gaxit(Mould):
    """gaxit(X,Y)(A): block/gap sum with X acting from the left gaps and Y
    from the right gaps; the blocks absorb their gaps' u-sums."""

    __slots__ = ("X", "Y", "A")

    def __init__(self, X: Mould, Y: Mould, A: Mould):
        for m, side in ((X, "X"), (Y, "Y")):
            if m.empty_class != GROUP:
                raise ValueError(f"gaxit needs group-class {side}, got {m.empty_class} ({m.name})")
        super().__init__("gaxit", A.empty_class)
        self.X = X
        self.Y = Y
        self.A = A

    def _eval(self, ctx, w):
        if not w:
            return ctx.at(self.A, w)
        return sum_of_products(_gaxit_terms(ctx, self.A, self.X, self.Y, w))


class GaxitInv(Mould):
    """Solves gaxit(X,Y)(B) = A for B by length recursion.

    Every non-identity term evaluates B at strictly shorter words, and the
    identity term (all positions kept, no gaps) has unit coefficient for
    group-class X, Y.
    """

    __slots__ = ("X", "Y", "A")

    def __init__(self, X: Mould, Y: Mould, A: Mould):
        for m, side in ((X, "X"), (Y, "Y")):
            if m.empty_class != GROUP:
                raise ValueError(f"gaxit_inv needs group-class {side}, got {m.empty_class} ({m.name})")
        super().__init__("gaxit_inv", A.empty_class)
        self.X = X
        self.Y = Y
        self.A = A

    def _eval(self, ctx, w):
        total = ctx.at(self.A, w)
        if not w:
            return total
        terms = _gaxit_terms(ctx, self, self.X, self.Y, w, skip_identity=True)
        return total - sum_of_products(terms)


def gaxit(X: Mould, Y: Mould, A: Mould) -> Mould:
    return Gaxit(X, Y, A)


def gamit(X: Mould, A: Mould) -> Mould:
    return Gaxit(X, one(), A)


def ganit(Y: Mould, A: Mould) -> Mould:
    return Gaxit(one(), Y, A)


def gaxit_inv(X: Mould, Y: Mould, A: Mould) -> Mould:
    return GaxitInv(X, Y, A)


def gamit_inv(X: Mould, A: Mould) -> Mould:
    return GaxitInv(X, one(), A)


def ganit_inv(Y: Mould, A: Mould) -> Mould:
    return GaxitInv(one(), Y, A)


# ---------------------------------------------------------------------------
# gari and friends
# ---------------------------------------------------------------------------


def garit(S: Mould, A: Mould) -> Mould:
    return Gaxit(S, invmu(S), A)


def gari(A: Mould, B: Mould) -> Mould:
    return Mu(garit(B, A), B)


class Invgari(Mould):
    """gari-inverse: the unique group-class X with gari(A, X) = 1.

    gari(A,X) = mu(garit(X)(A), X) = 1 means X = invmu(garit(X)(A)); the
    right side consumes X only at strictly shorter words, so the invmu
    recursion through a self-referential garit graph terminates.
    """

    __slots__ = ("A", "inner")

    def __init__(self, A: Mould):
        if A.empty_class != GROUP:
            raise ValueError(f"invgari needs a group-class mould, got {A.empty_class} ({A.name})")
        super().__init__("invgari", GROUP)
        self.A = A
        self.inner = garit(self, A)

    def _eval(self, ctx, w):
        if not w:
            return Fraction(1)
        inner = self.inner
        cuts = range(1, len(w) + 1)
        return sum_of_products(((ctx.at(inner, w[:i]), ctx.at(self, w[i:])) for i in cuts), -1)


def invgari(A: Mould) -> Mould:
    return Invgari(A)


def fragari(A: Mould, B: Mould) -> Mould:
    return gari(A, invgari(B))


# ---------------------------------------------------------------------------
# expari / logari / adari
# ---------------------------------------------------------------------------


class Expari(Mould):
    """expari(A) = 1 + sum_n P_n/n! with P_1 = A, P_{n+1} = preari(P_n, A);
    P_n vanishes below length n, so the sum truncates at each length."""

    __slots__ = ("A", "_powers")

    def __init__(self, A: Mould):
        if A.empty_class != LIE:
            raise ValueError(f"expari needs a lie-class mould, got {A.empty_class} ({A.name})")
        super().__init__("expari", GROUP)
        self.A = A
        self._powers = [None, A]

    def power(self, n: int) -> Mould:
        while len(self._powers) <= n:
            self._powers.append(preari(self._powers[-1], self.A))
        return self._powers[n]

    def _eval(self, ctx, w):
        r = len(w)
        if r == 0:
            return Fraction(1)
        total = Fraction(0)
        for n in range(1, r + 1):
            total += Fraction(1, factorial(n)) * ctx.at(self.power(n), w)
        return total


class Logari(Mould):
    """logari(M): the lie-class A with expari(A) = M, solved by length.

    The preari powers of the unknown are built with the proper two-block
    product: since the unknown vanishes on the empty word this equals the
    full mu term, and it keeps the recursion strictly length-decreasing.
    """

    __slots__ = ("M", "_powers")

    def __init__(self, M: Mould):
        if M.empty_class != GROUP:
            raise ValueError(f"logari needs a group-class mould, got {M.empty_class} ({M.name})")
        super().__init__("logari", LIE)
        self.M = M
        self._powers = [None, self]

    def _power(self, n: int) -> Mould:
        while len(self._powers) <= n:
            prev = self._powers[-1]
            self._powers.append(Add(arit(self, prev), Mu(prev, self, proper=2)))
        return self._powers[n]

    def _eval(self, ctx, w):
        r = len(w)
        if r == 0:
            return Fraction(0)
        total = ctx.at(self.M, w)
        for n in range(2, r + 1):
            total -= Fraction(1, factorial(n)) * ctx.at(self._power(n), w)
        return total


def expari(A: Mould) -> Mould:
    return Expari(A)


def logari(M: Mould) -> Mould:
    return Logari(M)


def adari(M: Mould, A: Mould) -> Mould:
    """Inner action of the group on its Lie algebra (closed gari form)."""
    return gari(preari(M, A), invgari(M))


class AdariSeries(Mould):
    """Independent oracle for adari: the nested-ari exponential series."""

    __slots__ = ("A", "_log", "_terms")

    def __init__(self, M: Mould, A: Mould):
        if A.empty_class != LIE:
            raise ValueError(f"adari_series needs a lie-class argument, got {A.empty_class}")
        super().__init__("adari_series", A.empty_class)
        self.A = A
        self._log = logari(M)
        self._terms = [A]

    def _term(self, n: int) -> Mould:
        while len(self._terms) <= n:
            self._terms.append(ari(self._log, self._terms[-1]))
        return self._terms[n]

    def _eval(self, ctx, w):
        r = len(w)
        total = Fraction(0)
        for n in range(r + 1):
            total += Fraction(1, factorial(n)) * ctx.at(self._term(n), w)
        return total


def adari_series(M: Mould, A: Mould) -> Mould:
    return AdariSeries(M, A)


def adari_inv(M: Mould, A: Mould) -> Mould:
    return adari(invgari(M), A)


# ---------------------------------------------------------------------------
# swamu / answamu and swap conjugates
# ---------------------------------------------------------------------------


class Swamu(Mould):
    """The flexion-twisted mu product for a flexion pair (fa, fb).

    swamu(A,B)(w) = sum_{w=ab} A(ful(a,b)) B(flr(a,b)) takes (ful, flr);
    answamu(A,B)(w) = sum_{w=ab} A(fur(a,b)) B(fll(a,b)) takes (fur, fll).
    """

    __slots__ = ("A", "B", "fa", "fb")

    def __init__(self, A: Mould, B: Mould, fa, fb):
        ca, cb = A.empty_class, B.empty_class
        cls = LIE if LIE in (ca, cb) else (GROUP if ca == cb == GROUP else FREE)
        super().__init__("swamu" if fa is ful else "answamu", cls)
        self.A = A
        self.B = B
        self.fa = fa
        self.fb = fb

    def _eval(self, ctx, w):
        A, B, fa, fb = self.A, self.B, self.fa, self.fb
        cuts = ((w[:i], w[i:]) for i in range(len(w) + 1))
        return sum_of_products((ctx.at(A, fa(a, b)), ctx.at(B, fb(a, b))) for a, b in cuts)


def swamu(A: Mould, B: Mould) -> Mould:
    return Swamu(A, B, ful, flr)


def answamu(A: Mould, B: Mould) -> Mould:
    return Swamu(A, B, fur, fll)


def gira(A: Mould, B: Mould) -> Mould:
    return swap(gari(swap(A), swap(B)))


def preira(A: Mould, B: Mould) -> Mould:
    return swap(preari(swap(A), swap(B)))


def girat(B: Mould, A: Mould) -> Mould:
    return Mu(gira(A, B), invmu(B))


# ---------------------------------------------------------------------------
# Dilator extraction (converse direction of the dilator ODE)
# ---------------------------------------------------------------------------


class DilatorOf(Mould):
    """The unique lie-class D with der(S) = preari(S, D) for group-class S.

    At length r: D(w) = r S(w) - arit(D)(S)(w) - sum_{w=pq, p nonempty}
    S(p) D(q), and the right side only needs D at shorter words.
    """

    __slots__ = ("S", "inner")

    def __init__(self, S: Mould):
        if S.empty_class != GROUP:
            raise ValueError(f"dilator extraction needs group-class S, got {S.empty_class}")
        super().__init__("dilator_of", LIE)
        self.S = S
        self.inner = Add(arit(self, S), Mu(S, self, proper=1))

    def _eval(self, ctx, w):
        if not w:
            return Fraction(0)
        return len(w) * ctx.at(self.S, w) - ctx.at(self.inner, w)


def dilator_of(S: Mould) -> Mould:
    return DilatorOf(S)
