"""Independent oracles used to fix expected values in the test suite.

Everything here is deliberately written from the elementary definitions
(recursions, brute-force sums) without calling into the corresponding
flexionlab implementations, so tests compare two independent routes.
"""

from __future__ import annotations

from fractions import Fraction

from flexionlab.engine import derived_rng
from flexionlab.words import Biletter, DivByZero, Word, binom, fll, flr, ful, fur, sample_word


def pascal_binom(n: int, k: int) -> int:
    """Binomial coefficient from the Pascal recurrence (no math.comb)."""
    if k < 0 or k > n or n < 0:
        return 0
    row = [1]
    for _ in range(n):
        row = [1] + [row[i] + row[i + 1] for i in range(len(row) - 1)] + [1]
    return row[k]


def shuffle_rec(a: Word, b: Word) -> list[Word]:
    """All order-preserving interleavings, by the textbook recursion."""
    if not a:
        return [b]
    if not b:
        return [a]
    first = [(a[0],) + rest for rest in shuffle_rec(a[1:], b)]
    second = [(b[0],) + rest for rest in shuffle_rec(a, b[1:])]
    return first + second


def splits2(w: Word):
    """All ordered pairs (a, b) with w = a + b."""
    return [(w[:i], w[i:]) for i in range(len(w) + 1)]


def splits3(w: Word):
    """All ordered triples (a, b, c) with w = a + b + c."""
    out = []
    for i in range(len(w) + 1):
        for j in range(i, len(w) + 1):
            out.append((w[:i], w[i:j], w[j:]))
    return out


def mu2_value(ev, A, B, w: Word) -> Fraction:
    """mu(A, B)(w) as the direct two-block deconcatenation sum."""
    return sum((ev(A, a) * ev(B, b) for a, b in splits2(w)), Fraction(0))


def mu3_value(ev, A, B, C, w: Word) -> Fraction:
    """mu(A, B, C)(w) as the direct three-block deconcatenation sum."""
    return sum(
        (ev(A, a) * ev(B, b) * ev(C, c) for a, b, c in splits3(w)),
        Fraction(0),
    )


def mu_proper_value(ev, A, B, w: Word, proper: int) -> Fraction:
    """mu(A, B)(w) without the cut with an empty left block (``proper`` >= 1)
    and without the one with an empty right block (``proper`` = 2)."""
    return sum(
        (ev(A, a) * ev(B, b) for a, b in splits2(w) if (a or proper < 1) and (b or proper < 2)),
        Fraction(0),
    )


def swamu_value(ev, A, B, w: Word) -> Fraction:
    """swamu(A, B)(w) = sum over w = ab of A(ful(a, b)) B(flr(a, b))."""
    return sum((ev(A, ful(a, b)) * ev(B, flr(a, b)) for a, b in splits2(w)), Fraction(0))


def answamu_value(ev, A, B, w: Word) -> Fraction:
    """answamu(A, B)(w) = sum over w = ab of A(fur(a, b)) B(fll(a, b))."""
    return sum((ev(A, fur(a, b)) * ev(B, fll(a, b)) for a, b in splits2(w)), Fraction(0))


def amit_value(ev, X, A, w: Word) -> Fraction:
    """amit(X, A)(w) = sum over w = abc, b and c nonempty, of A(a ful(b, c)) X(flr(b, c))."""
    return sum(
        (ev(A, a + ful(b, c)) * ev(X, flr(b, c)) for a, b, c in splits3(w) if b and c),
        Fraction(0),
    )


def anit_value(ev, X, A, w: Word) -> Fraction:
    """anit(X, A)(w) = sum over w = abc, a and b nonempty, of A(fur(a, b) c) X(fll(a, b))."""
    return sum(
        (ev(A, fur(a, b) + c) * ev(X, fll(a, b)) for a, b, c in splits3(w) if a and b),
        Fraction(0),
    )


def invmu_value(ev, A, w: Word) -> Fraction:
    """invmu(A)(w) from X(empty) = 1 and X(w) = -sum over w = ab, a nonempty,
    of A(a) X(b), by plain recursion."""
    if not w:
        return Fraction(1)
    return -sum((ev(A, a) * invmu_value(ev, A, b) for a, b in splits2(w) if a), Fraction(0))


def ter_inv_triple_value(ev, B, es, w: Word) -> Fraction:
    """The sum over w = abc of B(fur(a, b)) invmu(es)(fll(a, b)) es(c)."""
    return sum(
        (ev(B, fur(a, b)) * invmu_value(ev, es, fll(a, b)) * ev(es, c) for a, b, c in splits3(w)),
        Fraction(0),
    )


def ter_value(ev, B, E, w: Word) -> Fraction:
    """e_ter(B)(w) = B(w) - B(w')E(x) + B(fur(w', x)) E(fll(w', x)) for
    w = w'x, with E the unit's letter function; B(w) at the empty word."""
    if not w:
        return ev(B, w)
    head, last = w[:-1], w[-1:]
    return ev(B, w) - ev(B, head) * E(last[0]) + ev(B, fur(head, last)) * E(fll(head, last)[0])


def ro_value(O, w: Word) -> Fraction:
    """ro_r(w), r = len(w): the sum over w = p m q, m one letter, of
    (len(q) + 1) oz(flr(p, m)) O(ful(p, fur(m, q))) oz(fll(m, q)), with O the
    unit's conjugate letter function and oz the product of O over a word."""

    def oz(u: Word) -> Fraction:
        total = Fraction(1)
        for x in u:
            total *= O(x)
        return total

    total = Fraction(0)
    for j in range(len(w)):
        p, m, q = w[:j], w[j : j + 1], w[j + 1 :]
        total += (len(q) + 1) * oz(flr(p, m)) * O(ful(p, fur(m, q))[0]) * oz(fll(m, q))
    return total


def flow_value(ev, D, w: Word) -> Fraction:
    """The dilator flow S(w) from S(empty) = 1 and r S(w) = arit(D)(S)(w) +
    sum over w = ab, b nonempty, of S(a) D(b), by plain recursion, with
    arit(D)(S)(w) the sum over w = abc of S(a ful(b, c)) D(flr(b, c)) for b,
    c nonempty minus S(fur(a, b) c) D(fll(a, b)) for a, b nonempty."""
    if not w:
        return Fraction(1)

    def S(u: Word) -> Fraction:
        return flow_value(ev, D, u)

    total = sum((S(a) * ev(D, b) for a, b in splits2(w) if b), Fraction(0))
    for a, b, c in splits3(w):
        if b and c:
            total += S(a + ful(b, c)) * ev(D, flr(b, c))
        if a and b:
            total -= S(fur(a, b) + c) * ev(D, fll(a, b))
    return total / len(w)


def gaxit_terms(w: Word, skip_identity: bool = False) -> list[list[tuple[str, Word]]]:
    """Every term of gaxit(X, Y)(T) at w as its factors, by brute force.

    A term keeps a nonempty set of positions; its maximal runs are the
    blocks b_1..b_s.  The gap before b_1 is a_1, the gap after b_s is c_s,
    and each interior gap is cut every way into c_i . a_{i+1}.  The factors
    are ("T", ful(a_1, fur(b_1, c_1)) ... ful(a_s, fur(b_s, c_s))), then
    ("X", flr(a_i, b_i)) and then ("Y", fll(b_i, c_i)) for i = 1..s.  At the
    empty word the one term is T there.  ``skip_identity`` drops the term
    that keeps every position.
    """
    r = len(w)
    if r == 0:
        return [] if skip_identity else [[("T", ())]]
    out = []
    for kept in range(1, 2**r):
        if skip_identity and kept == 2**r - 1:
            continue
        blocks: list[list[int]] = []
        for i in range(r):
            if kept >> i & 1:
                if blocks and blocks[-1][-1] == i - 1:
                    blocks[-1].append(i)
                else:
                    blocks.append([i])
        # one cut per interior gap: where c_i ends and a_{i+1} starts
        choices = [()]
        for left, right in zip(blocks, blocks[1:]):
            choices = [c + (cut,) for c in choices for cut in range(left[-1] + 1, right[0] + 1)]
        for splits in choices:
            starts = (0,) + splits
            ends = splits + (r,)
            a = [w[s:b[0]] for s, b in zip(starts, blocks)]
            c = [w[b[-1] + 1:e] for b, e in zip(blocks, ends)]
            b = [w[blk[0]:blk[-1] + 1] for blk in blocks]
            inner: Word = ()
            for ai, bi, ci in zip(a, b, c):
                inner += ful(ai, fur(bi, ci))
            out.append(
                [("T", inner)]
                + [("X", flr(ai, bi)) for ai, bi in zip(a, b)]
                + [("Y", fll(bi, ci)) for bi, ci in zip(b, c)]
            )
    return out


def gaxit_value(ev, T, X, Y, w: Word, skip_identity: bool = False) -> Fraction:
    """The sum of the products of the ``gaxit_terms`` factors at w."""
    moulds = {"T": T, "X": X, "Y": Y}
    total = Fraction(0)
    for term in gaxit_terms(w, skip_identity):
        product = Fraction(1)
        for role, u in term:
            product *= ev(moulds[role], u)
        total += product
    return total


def swap_image(w: Word) -> Word:
    """The swap change of variables, straight from its displayed formula:

    (u1;v1)...(ur;vr)  ->  (vr; u1+...+ur)(v_{r-1}-v_r; u1+...+u_{r-1})...(v1-v2; u1)
    """
    r = len(w)
    out = []
    for i in range(r, 0, -1):
        v_next = w[i].v if i < r else Fraction(0)
        out.append(Biletter(w[i - 1].v - v_next, sum((x.u for x in w[:i]), Fraction(0))))
    return tuple(out)


def push_image_r1(x: Biletter) -> Biletter:
    """push at length 1 acts on the letter by negation."""
    return Biletter(-x.u, -x.v)


def negelon_window_size(r_max: int) -> int:
    """#{(r,k,l,h): 2 <= r <= r_max, k,l >= 0, h >= 1, k+l+h <= r-1}
    counted by the hockey-stick identity: sum_r C(r+1,3) = C(r_max+2, 4)."""
    return pascal_binom(r_max + 2, 4)


def negelon_sum(r: int, k: int, l: int, h: int) -> Fraction:
    """The quadruple binomial sum, re-derived term by term.

    Accumulates every term as an exact fraction with Pascal-recurrence binomials
    and no zero-term short-circuits, so it shares no code path with the
    library's evaluation.
    """
    total = Fraction(0)
    for s in range(1, r + 1):
        for j in range(1, s + 1):
            weight = Fraction(s + 1 - j, s * (s + 1))
            for c in range(0, j):
                for d in range(0, s - j + 1):
                    sign = 1 if (c + d) % 2 == 0 else -1
                    total += (
                        weight
                        * sign
                        * pascal_binom(j - 1, c)
                        * pascal_binom(s - j, d)
                        * pascal_binom(c, k)
                        * pascal_binom(d + 1, l)
                        * pascal_binom(c + d + 1, h)
                    )
    return total


def negelon_binom_sum(r: int, k: int, l: int, h: int) -> Fraction:
    """The loop of ``negelon.negelon_f`` with every binomial a ``binom``
    call: the reference for the Pascal table that function reads."""
    total = Fraction(0)
    for s in range(1, r + 1):
        for j in range(1, s + 1):
            inner = 0
            for c in range(j):
                left = binom(j - 1, c) * binom(c, k)
                if left == 0:
                    continue
                for d in range(s - j + 1):
                    term = left * binom(s - j, d) * binom(d + 1, l) * binom(c + d + 1, h)
                    if term == 0:
                        continue
                    inner += -term if (c + d) % 2 else term
            if inner:
                total += Fraction((s + 1 - j) * inner, s * (s + 1))
    return total


def sampled_points(ctx, plan, name: str, shapes, evaluate) -> list[dict]:
    """The points a sampled checker should report, one sample and one
    attempt at a time.

    ``evaluate(*parts)`` takes the sampled ``Fraction`` words and returns
    the two sides, reading graphs through the public ``ctx.eval``.  Each
    shape ``(label, part_lengths)`` gets ``plan.samples_per_length`` samples
    (one at total length 0); sample i draws its parts at attempt k from
    ``derived_rng(plan.seed, name, *label, i, k)``, and a ``DivByZero``
    moves it to the next attempt, up to ``ctx.retry_cap`` retries.  Each
    point is a dict of word, split, lhs, rhs, detail and the number of
    attempts it took.
    """
    points = []
    for label, lengths in shapes:
        total = sum(lengths)
        for i in range(plan.samples_per_length if total else 1):
            lhs = rhs = detail = None
            for attempt in range(ctx.retry_cap + 1):
                rng = derived_rng(plan.seed, name, *label, i, attempt)
                parts = [sample_word(rng, n) for n in lengths]
                try:
                    lhs, rhs = evaluate(*parts)
                except DivByZero as exc:
                    detail = str(exc)
                    continue
                detail = None
                break
            points.append(
                {
                    "word": sum(parts, ()),
                    "split": lengths[0] if len(lengths) == 2 else None,
                    "lhs": lhs,
                    "rhs": rhs,
                    "detail": detail,
                    "attempts": attempt + 1,
                }
            )
    return points


def fk_expansion_sides(ev, A, B, F, a: Word, b: Word) -> tuple[Fraction, Fraction]:
    """Both sides of the four-part arit expansion at the split (a, b): the
    sum of F = arit(B)(A) over the shuffles of (a, b), and the sum over the
    cuts p.q.r of a, then of b, of A summed over the shuffles of
    (p ful(q, r), other half) times B(flr(q, r)), minus A summed over the
    shuffles of (fur(p, q) r, other half) times B(fll(p, q))."""
    lhs = sum((ev(F, s) for s in shuffle_rec(a, b)), Fraction(0))

    def half(x, y):
        total = Fraction(0)
        for p, q, r in splits3(x):
            if q and r:
                total += sum((ev(A, s) for s in shuffle_rec(p + ful(q, r), y)), Fraction(0)) * ev(B, flr(q, r))
            if p and q:
                total -= sum((ev(A, s) for s in shuffle_rec(fur(p, q) + r, y)), Fraction(0)) * ev(B, fll(p, q))
        return total

    return lhs, half(a, b) + half(b, a)
