"""Flexion derivations and group operations on bimoulds.

Derivation level: amit/anit/axit/arit/irat and the preari/ari brackets.
Group level: the gaxit family (gamit/ganit/garit specializations), gari with
its inverse and quotient, the exponential/logarithm pair expari/logari, the
inner action adari, the twisted products swamu/answamu, and the swap
conjugates gira/preira/girat.

amit, anit, swamu and answamu are ``engine.cut_plan`` sums over the two-
or three-block factorizations of w, whose factors read children at words
that the flexions of their definitions assemble from a cut's blocks.
invgari is the invmu plan over its own garit graph.  gaxit and gaxit_inv
are ``engine.Cuts`` nodes of the block/gap plan ``_gaxit_plan``.  Each
plan is a module constant, built once at import, and each node derives its
empty-word class from its plan.

expari, logari, adari_series and the dilator extraction are ``engine.Lin``
series: at length r each is a weighted sum of at most r + 1 nodes at the
same word, whose powers or iterates ``engine.iterates`` builds on first use.

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
    GROUP,
    LIE,
    Cuts,
    Lin,
    Mould,
    Mu,
    _invmu_plan,
    compile_plan,
    cut_plan,
    invmu,
    iterates,
    lu,
    one,
    push,
    swap,
)
from .words import fll, flr, ful, fur


# ---------------------------------------------------------------------------
# Derivations amit / anit and their combinations
# ---------------------------------------------------------------------------


_AMIT = cut_plan("*++", ((1, lambda b: b[0] + ful(b[1], b[2])), (2, lambda b: flr(b[1], b[2]))))
_ANIT = cut_plan("++*", ((1, lambda b: fur(b[0], b[1]) + b[2]), (2, lambda b: fll(b[0], b[1]))))


def amit(X: Mould, A: Mould) -> Mould:
    """amit(X,A)(w) = sum_{w=abc, b,c nonempty} A(a . ful(b,c)) X(flr(b,c))."""
    return Cuts("amit", _AMIT, (A, X))


def anit(X: Mould, A: Mould) -> Mould:
    """anit(X,A)(w) = sum_{w=abc, a,b nonempty} A(fur(a,b) . c) X(fll(a,b))."""
    return Cuts("anit", _ANIT, (A, X))


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


def _gaxit_plan(inverse: bool):
    """The plan of gaxit(X, Y)(A), roles A 1, X 2 and Y 3, or of gaxit_inv.

    Kept positions form a nonempty subset; its maximal runs are the blocks.
    The gap before the first block is a1, the gap after the last is cs, and
    each interior gap is split every way into c_i . a_{i+1}.  A term is
    T(inner) X(flr(a1, b1))...X(flr(as, bs)) Y(fll(b1, c1))...Y(fll(bs, cs)),
    the inner word the concatenated ful(a_i, fur(b_i, c_i)), and T is A; at
    length 0 the one term is T at the empty word.  gaxit_inv solves
    gaxit(X,Y)(B) = A by length recursion: B(w) is A(w) minus every term but
    the identity (all positions kept), with T the node itself.
    """
    T = 0 if inverse else 1

    def terms(word):
        r = len(word)
        full = (1 << r) - 1
        if inverse:
            yield False, [(1, word)]
        for mask in range(1, full + 1) if r else (0,):
            if inverse and mask == full:
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
                a = [word[lo:p] for (p, _), lo in zip(runs, (0, *cuts))]
                b = [word[p:q] for p, q in runs]
                c = [word[q:hi] for (_, q), hi in zip(runs, (*cuts, r))]
                inner = sum((ful(x, fur(y, z)) for x, y, z in zip(a, b, c)), ())
                xs, ys = [(2, flr(x, y)) for x, y in zip(a, b)], [(3, fll(y, z)) for y, z in zip(b, c)]
                yield inverse, [(T, inner), *xs, *ys]

    return compile_plan(terms)


_GAXIT_PLANS = (_gaxit_plan(False), _gaxit_plan(True))  # by ``inverse``


def _gaxit(X: Mould, Y: Mould, A: Mould, inverse: bool = False) -> Mould:
    """gaxit(X,Y)(A) or gaxit_inv: X acts from the left gaps and Y from the
    right gaps, and the blocks absorb their gaps' u-sums."""
    name = "gaxit_inv" if inverse else "gaxit"
    for m, side in ((X, "X"), (Y, "Y")):
        if m.empty_class != GROUP:
            raise ValueError(f"{name} needs group-class {side}, got {m.empty_class} ({m.name})")
    return Cuts(name, _GAXIT_PLANS[inverse], (A, X, Y))


def gaxit(X: Mould, Y: Mould, A: Mould) -> Mould:
    return _gaxit(X, Y, A)


def gamit(X: Mould, A: Mould) -> Mould:
    return _gaxit(X, one(), A)


def ganit(Y: Mould, A: Mould) -> Mould:
    return _gaxit(one(), Y, A)


def gaxit_inv(X: Mould, Y: Mould, A: Mould) -> Mould:
    return _gaxit(X, Y, A, inverse=True)


def gamit_inv(X: Mould, A: Mould) -> Mould:
    return _gaxit(X, one(), A, inverse=True)


def ganit_inv(Y: Mould, A: Mould) -> Mould:
    return _gaxit(one(), Y, A, inverse=True)


# ---------------------------------------------------------------------------
# gari and friends
# ---------------------------------------------------------------------------


def garit(S: Mould, A: Mould) -> Mould:
    return _gaxit(S, invmu(S), A)


def gari(A: Mould, B: Mould) -> Mould:
    return Mu(garit(B, A), B)


def invgari(A: Mould) -> Mould:
    """gari-inverse: the unique group-class X with gari(A, X) = 1.

    gari(A,X) = mu(garit(X)(A), X) = 1 means X = invmu(garit(X)(A)): the
    invmu plan over the self-referential garit graph, which reads X only at
    strictly shorter words, so the recursion terminates.
    """
    if A.empty_class != GROUP:
        raise ValueError(f"invgari needs a group-class mould, got {A.empty_class} ({A.name})")
    node = Cuts("invgari", _invmu_plan, ())
    node.children = (garit(node, A),)
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


_SWAMU = cut_plan("**", ((1, lambda b: ful(b[0], b[1])), (2, lambda b: flr(b[0], b[1]))))
_ANSWAMU = cut_plan("**", ((1, lambda b: fur(b[0], b[1])), (2, lambda b: fll(b[0], b[1]))))


def swamu(A: Mould, B: Mould) -> Mould:
    """swamu(A,B)(w) = sum_{w=ab} A(ful(a,b)) B(flr(a,b))."""
    return Cuts("swamu", _SWAMU, (A, B))


def answamu(A: Mould, B: Mould) -> Mould:
    """answamu(A,B)(w) = sum_{w=ab} A(fur(a,b)) B(fll(a,b))."""
    return Cuts("answamu", _ANSWAMU, (A, B))


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
