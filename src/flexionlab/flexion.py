"""Flexion derivations and group operations on bimoulds.

Derivation level: amit/anit/axit/arit/irat and the preari/ari brackets.
Group level: the gaxit family (gamit/ganit/garit specializations), gari with
its inverse and quotient, the exponential/logarithm pair expari/logari, the
inner action adari, the twisted products swamu/answamu, and the swap
conjugates gira/preira/girat.

amit, anit, swamu and answamu are ``engine.Cuts`` nodes: sums over the
two- or three-block factorizations of w, whose factors read children at
words that one-argument functions assemble from a cut's blocks (``_ful_ab``
and the like).  invgari is the ``engine.Invmu`` of its own garit graph.

expari, logari, adari_series and the dilator extraction are ``engine.Lin``
series: at length r each is a weighted sum of at most r + 1 nodes at the
same word, whose powers or iterates ``engine.iterates`` builds on first use.

The gaxit sum at a word of length r depends on the word only through its
u prefix sums and v coordinates, so it is compiled once per length into
index tables (``_gaxit_plan``).  One ``Gaxit`` node is both gaxit and, with
``inverse`` set, gaxit_inv; it evaluates each distinct factor of a call
once, in first-use order (T, then X1..Xs, then Y1..Ys, term after term), so
a skip names the same first singular factor as a term-by-term sum, and adds
the products with one reduction.

Solvable inverses (invgari, logari, gaxit_inv, dilator extraction) are
length recursions: at word length r the unknown enters linearly with unit
coefficient through terms that only consume values at shorter lengths, so a
memoized recursive node computes them exactly.  Where the unknown is a
factor of a mu product, ``Mu(..., proper=1)`` (left block nonempty) or
``proper=2`` (both blocks nonempty) leaves out the terms that would need it
at the full word.
"""

from __future__ import annotations

import functools
import itertools
from fractions import Fraction
from math import factorial

from .engine import (
    GROUP,
    LIE,
    Cuts,
    Invmu,
    Lin,
    Mould,
    Mu,
    invmu,
    iterates,
    lu,
    one,
    product_class,
    push,
    sum_of_products,
    swap,
)
from .words import Biletter, Word, fll, flr, ful, fur


# ---------------------------------------------------------------------------
# Derivations amit / anit and their combinations
# ---------------------------------------------------------------------------


def _on_ab(flexion):
    """The word assembly flexion(a, b) of a cut's first two blocks a, b."""
    return lambda blocks: flexion(blocks[0], blocks[1])


_ful_ab, _flr_ab, _fur_ab, _fll_ab = map(_on_ab, (ful, flr, fur, fll))


def _a_ful_bc(blocks):
    return blocks[0] + ful(blocks[1], blocks[2])


def _flr_bc(blocks):
    return flr(blocks[1], blocks[2])


def _fur_ab_c(blocks):
    return fur(blocks[0], blocks[1]) + blocks[2]


def amit(X: Mould, A: Mould) -> Mould:
    """amit(X,A)(w) = sum_{w=abc, b,c nonempty} A(a . ful(b,c)) X(flr(b,c))."""
    return Cuts("amit", LIE, "*++", ((A, _a_ful_bc), (X, _flr_bc)))


def anit(X: Mould, A: Mould) -> Mould:
    """anit(X,A)(w) = sum_{w=abc, a,b nonempty} A(fur(a,b) . c) X(fll(a,b))."""
    return Cuts("anit", LIE, "++*", ((A, _fur_ab_c), (X, _fll_ab)))


def axit(X: Mould, Y: Mould, A: Mould) -> Mould:
    return amit(X, A) + anit(Y, A)


def arit(X: Mould, A: Mould) -> Mould:
    return amit(X, A) - anit(X, A)


def irat(X: Mould, A: Mould) -> Mould:
    return axit(X, -push(X), A)


def preari(A: Mould, B: Mould) -> Mould:
    return arit(B, A) + Mu(A, B)


def ari(A: Mould, B: Mould) -> Mould:
    if A.empty_class != LIE or B.empty_class != LIE:
        raise ValueError("ari expects lie-class operands")
    return arit(B, A) - arit(A, B) + lu(A, B)


# ---------------------------------------------------------------------------
# The gaxit family
# ---------------------------------------------------------------------------


@functools.cache
def _gaxit_plan(r: int, skip_identity: bool = False):
    """The gaxit sum at word length ``r``, compiled once: ``(letters, words, terms)``.

    Kept positions form a nonempty subset; its maximal runs are the blocks.
    The gap before the first block is a1, the gap after the last is cs, and
    each interior gap is split every way into c_i . a_{i+1}.  A term is
    T(inner) X(flr(a1, b1))...X(flr(as, bs)) Y(fll(b1, c1))...Y(fll(bs, cs)),
    where the inner word concatenates ful(a_i, fur(b_i, c_i)).  At r = 0 the
    one term is T at the empty word, the identity term.

    Letter i < r is the word's own letter i; ``letters`` lists the others,
    numbered from r, each ``(lo, hi, k, s)`` the letter
    ``(U[hi] - U[lo], V[k] - V[s])`` over the prefix u-sums U and the v
    coordinates V of the word, with ``V[r] = 0``.  So T's letters sum the u
    of their absorbed gaps, X's word is a_i shifted by its block's first v,
    and Y's word is c_i shifted by its block's last v.  ``words`` lists
    every distinct factor once as ``(role, letter indices)``, role 0, 1 or 2
    picking T, X or Y.  ``terms`` holds each term as a tuple of indices into
    ``words``, which are numbered in first use (T, then X1..Xs, then
    Y1..Ys, term after term), so evaluating ``words`` in order meets the
    first singular factor of the term-by-term sum.
    """
    if r == 0:
        return ((), (), ()) if skip_identity else ((), ((0, ()),), ((0,),))
    letters: dict = {}  # recipe -> letter index, from r up
    words: dict = {}  # (role, letter indices) -> word index, in first use
    terms = []

    def letter(lo, hi, k, s):
        if (lo, hi, s) == (k, k + 1, r):
            return k
        return letters.setdefault((lo, hi, k, s), r + len(letters))

    def use(role, indices):
        return words.setdefault((role, tuple(indices)), len(words))

    full = (1 << r) - 1
    for mask in range(1, full + 1):
        if skip_identity and mask == full:
            continue
        runs = []  # [p, q) per block
        for i in range(r):
            if mask >> i & 1:
                if runs and runs[-1][1] == i:
                    runs[-1][1] = i + 1
                else:
                    runs.append([i, i + 1])
        gaps = [range(q, p + 1) for (_, q), (p, _) in zip(runs, runs[1:])]
        for cuts in itertools.product(*gaps):
            starts = (0, *cuts)  # a_i spans starts[i]..p_i
            ends = (*cuts, r)  # c_i spans q_i..ends[i]
            inner = []
            for (p, q), lo, hi in zip(runs, starts, ends):
                inner += [letter(lo if k == p else k, hi if k == q - 1 else k + 1, k, r) for k in range(p, q)]
            xs = [[letter(j, j + 1, j, p) for j in range(lo, p)] for (p, _), lo in zip(runs, starts)]
            ys = [[letter(j, j + 1, j, q - 1) for j in range(q, hi)] for (_, q), hi in zip(runs, ends)]
            terms.append((use(0, inner), *[use(1, x) for x in xs], *[use(2, y) for y in ys]))
    return tuple(letters), tuple(words), tuple(terms)


def _gaxit_sum(ctx, T: Mould, X: Mould, Y: Mould, w: Word, skip_identity: bool = False):
    """The gaxit sum at the lattice word ``w``: each distinct letter and each
    distinct factor of the plan is built once, the factors are evaluated in
    plan order, and the products are summed with one reduction."""
    letters, words, terms = _gaxit_plan(len(w), skip_identity)
    U = [0]
    for x in w:
        U.append(U[-1] + x.u)
    V = [x.v for x in w]
    V.append(0)
    table = [*w, *[Biletter(U[hi] - U[lo], V[k] - V[s]) for lo, hi, k, s in letters]]
    moulds = (T, X, Y)
    values = [ctx.at(moulds[role], tuple([table[i] for i in indices])) for role, indices in words]
    return sum_of_products((map(values.__getitem__, term) for term in terms), 1, ctx.lanes)


class Gaxit(Mould):
    """gaxit(X,Y)(A): block/gap sum with X acting from the left gaps and Y
    from the right gaps; the blocks absorb their gaps' u-sums.

    With ``inverse`` set the node is gaxit_inv, which solves gaxit(X,Y)(B) = A
    for B by length recursion: every non-identity term evaluates B at
    strictly shorter words, and the identity term (all positions kept, no
    gaps) has unit coefficient for group-class X, Y.
    """

    __slots__ = ("X", "Y", "A", "inverse")

    def __init__(self, X: Mould, Y: Mould, A: Mould, inverse: bool = False):
        name = "gaxit_inv" if inverse else "gaxit"
        for m, side in ((X, "X"), (Y, "Y")):
            if m.empty_class != GROUP:
                raise ValueError(f"{name} needs group-class {side}, got {m.empty_class} ({m.name})")
        super().__init__(name, A.empty_class)
        self.X = X
        self.Y = Y
        self.A = A
        self.inverse = inverse

    def _eval(self, ctx, w):
        if self.inverse:
            value = ctx.at(self.A, w)
            rest = _gaxit_sum(ctx, self, self.X, self.Y, w, skip_identity=True)
            return sum_of_products(((value,), (ctx.negs, rest)), 1, ctx.lanes)
        return _gaxit_sum(ctx, self.A, self.X, self.Y, w)


def gaxit(X: Mould, Y: Mould, A: Mould) -> Mould:
    return Gaxit(X, Y, A)


def gamit(X: Mould, A: Mould) -> Mould:
    return Gaxit(X, one(), A)


def ganit(Y: Mould, A: Mould) -> Mould:
    return Gaxit(one(), Y, A)


def gaxit_inv(X: Mould, Y: Mould, A: Mould) -> Mould:
    return Gaxit(X, Y, A, inverse=True)


def gamit_inv(X: Mould, A: Mould) -> Mould:
    return Gaxit(X, one(), A, inverse=True)


def ganit_inv(Y: Mould, A: Mould) -> Mould:
    return Gaxit(one(), Y, A, inverse=True)


# ---------------------------------------------------------------------------
# gari and friends
# ---------------------------------------------------------------------------


def garit(S: Mould, A: Mould) -> Mould:
    return Gaxit(S, invmu(S), A)


def gari(A: Mould, B: Mould) -> Mould:
    return Mu(garit(B, A), B)


def invgari(A: Mould) -> Mould:
    """gari-inverse: the unique group-class X with gari(A, X) = 1.

    gari(A,X) = mu(garit(X)(A), X) = 1 means X = invmu(garit(X)(A)), so this
    is an ``Invmu`` whose operand is the self-referential garit graph; the
    operand consumes X only at strictly shorter words, so the recursion
    terminates.
    """
    node = Invmu(A, "invgari")
    (_, first), rest = node.factors  # the operand reads the first block
    node.factors = ((garit(node, A), first), rest)
    return node


def fragari(A: Mould, B: Mould) -> Mould:
    return gari(A, invgari(B))


# ---------------------------------------------------------------------------
# expari / logari / adari
# ---------------------------------------------------------------------------


def expari(A: Mould) -> Mould:
    """expari(A) = 1 + sum_n P_n/n! with P_1 = A, P_{n+1} = preari(P_n, A);
    P_n vanishes below length n, so at length r the ``Lin`` series stops at
    n = r."""
    if A.empty_class != LIE:
        raise ValueError(f"expari needs a lie-class mould, got {A.empty_class} ({A.name})")
    power = iterates(A, lambda P: preari(P, A))  # power(n - 1) is P_n

    def terms(r):
        if not r:
            return ((1, None),)  # the constant 1
        return [(Fraction(1, factorial(n)), power(n - 1)) for n in range(1, r + 1)]

    return Lin("expari", terms)


def logari(M: Mould) -> Mould:
    """logari(M): the lie-class A with expari(A) = M, solved by length as the
    ``Lin`` series A(w) = M(w) - sum_{n=2..r} P_n(w)/n!.

    The preari powers P_n of the unknown are built with the proper two-block
    product: since the unknown vanishes on the empty word this equals the
    full mu term, and it keeps the recursion strictly length-decreasing.
    """
    if M.empty_class != GROUP:
        raise ValueError(f"logari needs a group-class mould, got {M.empty_class} ({M.name})")

    def terms(r):
        if not r:
            return ()
        powers = [(Fraction(-1, factorial(n)), power(n - 1)) for n in range(2, r + 1)]
        return [(1, M), *powers]

    node = Lin("logari", terms)
    power = iterates(node, lambda P: arit(node, P) + Mu(P, node, proper=2))
    return node


def adari(M: Mould, A: Mould) -> Mould:
    """Inner action of the group on its Lie algebra (closed gari form)."""
    return gari(preari(M, A), invgari(M))


def adari_series(M: Mould, A: Mould) -> Mould:
    """Independent oracle for adari: the nested-ari exponential series, the
    ``Lin`` sum over n = 0..r of T_n/n! with T_0 = A, T_{n+1} = ari(logari(M), T_n)."""
    if A.empty_class != LIE:
        raise ValueError(f"adari_series needs a lie-class argument, got {A.empty_class}")
    log = logari(M)
    term = iterates(A, lambda T: ari(log, T))
    return Lin("adari_series", lambda r: [(Fraction(1, factorial(n)), term(n)) for n in range(r + 1)])


def adari_inv(M: Mould, A: Mould) -> Mould:
    return adari(invgari(M), A)


# ---------------------------------------------------------------------------
# swamu / answamu and swap conjugates
# ---------------------------------------------------------------------------


def swamu(A: Mould, B: Mould) -> Mould:
    """swamu(A,B)(w) = sum_{w=ab} A(ful(a,b)) B(flr(a,b))."""
    return Cuts("swamu", product_class(A, B), "**", ((A, _ful_ab), (B, _flr_ab)))


def answamu(A: Mould, B: Mould) -> Mould:
    """answamu(A,B)(w) = sum_{w=ab} A(fur(a,b)) B(fll(a,b))."""
    return Cuts("answamu", product_class(A, B), "**", ((A, _fur_ab), (B, _fll_ab)))


def gira(A: Mould, B: Mould) -> Mould:
    return swap(gari(swap(A), swap(B)))


def preira(A: Mould, B: Mould) -> Mould:
    return swap(preari(swap(A), swap(B)))


def girat(B: Mould, A: Mould) -> Mould:
    return Mu(gira(A, B), invmu(B))


# ---------------------------------------------------------------------------
# Dilator extraction (converse direction of the dilator ODE)
# ---------------------------------------------------------------------------


def dilator_of(S: Mould) -> Mould:
    """The unique lie-class D with der(S) = preari(S, D) for group-class S.

    At length r: D(w) = r S(w) - arit(D)(S)(w) - sum_{w=pq, p nonempty}
    S(p) D(q), and the right side only needs D at shorter words.
    """
    if S.empty_class != GROUP:
        raise ValueError(f"dilator extraction needs group-class S, got {S.empty_class}")
    node = Lin("dilator_of", lambda r: ((r, S), (-1, inner)) if r else ())
    inner = arit(node, S) + Mu(S, node, proper=1)
    return node
