"""Exact binomial-sum scans and the mu-power factorization check.

The centerpiece is a quadruple binomial sum F(r, k, l, h) that vanishes for
every admissible parameter tuple with h >= 1.  The sum is evaluated
literally, term by term, in exact rational arithmetic - deliberately without
any of the closed-form simplifications that make it vanish, so the scan is an
honest numerical confirmation rather than a restatement of the proof.

The auxiliary identities checked alongside are the binomial facts the
vanishing argument runs through: a Vandermonde-type convolution, a
telescoping (hockey-stick) sum, a weighted convolution, and the vanishing of
high-order finite differences of low-degree monomials.
"""

from __future__ import annotations

import functools
from fractions import Fraction
from typing import Optional

from .engine import (
    DigestMould,
    EvalContext,
    Mould,
    PointRecord,
    Report,
    SamplePlan,
    check_identity,
    mu,
    one,
)
from .words import EMPTY, binom

__all__ = [
    "negelon_f",
    "negelon_tuples",
    "negelon_scan",
    "aux_identities",
    "mu_factor_check",
]


@functools.cache
def _pascal(n: int) -> tuple[tuple[int, ...], ...]:
    """Rows 0..n of Pascal's triangle, each padded with zeros to n+1 entries."""
    rows = [(1,) + (0,) * n]
    for _ in range(n):
        prev = rows[-1]
        rows.append((1,) + tuple(prev[i - 1] + prev[i] for i in range(1, n + 1)))
    return tuple(rows)


def _column(rows: tuple[tuple[int, ...], ...], k: int) -> tuple[int, ...]:
    """C(m, k) for m = 0..len(rows)-1; zero outside the triangle."""
    if not 0 <= k < len(rows):
        return (0,) * len(rows)
    return tuple(row[k] for row in rows)


def negelon_f(r: int, k: int, l: int, h: int) -> Fraction:
    """The quadruple binomial sum F(r, k, l, h), evaluated literally.

    F = sum over 1 <= j <= s <= r of (s+1-j)/(s(s+1)) times
        sum over 0 <= c <= j-1, 0 <= d <= s-j of
        (-1)^(c+d) C(j-1,c) C(s-j,d) C(c,k) C(d+1,l) C(c+d+1,h).

    Every binomial is read from one Pascal table of rows 0..r (no argument
    exceeds r), the ones in k, l and h from its columns.
    """
    total = Fraction(0)
    rows = _pascal(r)
    ck, cl, ch = _column(rows, k), _column(rows, l), _column(rows, h)
    for s in range(1, r + 1):
        for j in range(1, s + 1):
            left_row, right_row = rows[j - 1], rows[s - j]
            inner = 0
            for c in range(j):
                left = left_row[c] * ck[c]
                if left == 0:
                    continue
                for d in range(s - j + 1):
                    term = left * right_row[d] * cl[d + 1] * ch[c + d + 1]
                    if term == 0:
                        continue
                    inner += -term if (c + d) % 2 else term
            if inner:
                total += Fraction((s + 1 - j) * inner, s * (s + 1))
    return total


def negelon_tuples(r_max: int, h_min: int = 1):
    """Admissible tuples (r, k, l, h): r >= 2, h >= h_min, k+l+h <= r-1."""
    for r in range(2, r_max + 1):
        for k in range(r):
            for l in range(r - k):
                for h in range(h_min, r - k - l):
                    yield r, k, l, h


def _point(identity: str, length: int, lhs, rhs) -> PointRecord:
    return PointRecord(identity, length, EMPTY, Fraction(lhs), Fraction(rhs))


def negelon_scan(r_max: int = 12, h_min: int = 1) -> Report:
    """Evaluate F at every admissible tuple and require exact zero."""
    name = f"negelon-scan(r_max={r_max},h_min={h_min})"
    report = Report(identity=name)
    for r, k, l, h in negelon_tuples(r_max, h_min):
        report.points.append(_point(f"F(r={r},k={k},l={l},h={h})", r, negelon_f(r, k, l, h), 0))
    return report


def aux_identities(n_max: int = 12) -> Report:
    """Exhaustive small-range checks of the auxiliary binomial identities.

    1. sum_{j=c+1}^{s-d} (s+1-j) C(j-1,c) C(s-j,d) = (d+1) C(s+1, c+d+2)
    2. sum_{s=m+1}^{r} C(s-1,m) = C(r, m+1)
    3. sum_{d=0}^{n} (d+1) C(d+1,l) C(n-d,k)
         = l C(n+2, k+l+1) + (l+1) C(n+2, k+l+2)
    4. sum_{n=1}^{N} (-1)^n C(N,n) n^d = 0  for 1 <= d < N
    """
    report = Report(identity=f"binomial-aux(n_max={n_max})")
    for s in range(1, n_max + 1):
        for c in range(s):
            for d in range(s - c):
                lhs = sum(
                    (s + 1 - j) * binom(j - 1, c) * binom(s - j, d)
                    for j in range(c + 1, s - d + 1)
                )
                rhs = (d + 1) * binom(s + 1, c + d + 2)
                report.points.append(_point(f"vandermonde(s={s},c={c},d={d})", s, lhs, rhs))
    for r in range(1, n_max + 1):
        for m in range(r):
            lhs = sum(binom(s - 1, m) for s in range(m + 1, r + 1))
            rhs = binom(r, m + 1)
            report.points.append(_point(f"telescope(r={r},m={m})", r, lhs, rhs))
    for n in range(n_max + 1):
        for k in range(n + 3):
            for l in range(n + 3):
                lhs = sum((d + 1) * binom(d + 1, l) * binom(n - d, k) for d in range(n + 1))
                rhs = l * binom(n + 2, k + l + 1) + (l + 1) * binom(n + 2, k + l + 2)
                report.points.append(_point(f"convolution(n={n},k={k},l={l})", n, lhs, rhs))
    for N in range(2, n_max + 1):
        for d in range(1, N):
            lhs = sum((-1) ** n * binom(N, n) * n**d for n in range(1, N + 1))
            report.points.append(_point(f"finite-difference(N={N},d={d})", N, lhs, 0))
    return report


def mu_factor_check(
    plan: SamplePlan,
    N: int = 3,
    name: Optional[str] = None,
    ctx: Optional[EvalContext] = None,
) -> Report:
    """mu^N(S) = sum_{i=0}^{L} C(N,i) mu^i(S - 1) on words of length <= L.

    S is a seeded group-like bimould; S - 1 vanishes on the empty word, so
    the i-th term only contributes at lengths >= i and the truncation at
    L = plan.max_length is exact for every sampled word.
    """
    if name is None:
        name = f"mu-factor(N={N})"
    S = one() + DigestMould(plan.seed, tag="mu-factor")
    lhs = mu(*[S] * N)
    proper = S - one()
    rhs = binom(N, 0) * one()
    for i in range(1, plan.max_length + 1):
        rhs = rhs + binom(N, i) * mu(*[proper] * i)
    return check_identity(lhs, rhs, plan, name=name, ctx=ctx)
