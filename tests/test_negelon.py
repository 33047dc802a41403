"""Tests for the vanishing binomial-sum scan and its auxiliary identities."""

from __future__ import annotations

from fractions import Fraction

from conftest import plan
from oracles import negelon_binom_sum, negelon_sum, negelon_window_size
from flexionlab.negelon import (
    aux_identities,
    mu_factor_check,
    negelon_f,
    negelon_scan,
    negelon_tuples,
)


def test_f_agrees_with_independent_summation():
    for r in range(1, 7):
        for k in range(3):
            for l in range(3):
                for h in range(3):
                    assert negelon_f(r, k, l, h) == negelon_sum(r, k, l, h)


def test_f_table_matches_binom_calls():
    for r, k, l, h in negelon_tuples(8, h_min=0):
        assert negelon_f(r, k, l, h) == negelon_binom_sum(r, k, l, h)
    # arguments past the table's edge read zero, as binom gives
    for args in [(3, -1, 0, 1), (3, 0, 4, 1), (4, 1, 1, 9), (0, 0, 0, 0), (1, 0, 2, 0)]:
        assert negelon_f(*args) == negelon_binom_sum(*args)


def test_f_vanishes_at_window_spots():
    assert negelon_f(2, 0, 0, 1) == 0
    assert negelon_f(5, 1, 1, 2) == 0
    assert negelon_f(12, 3, 4, 4) == 0  # extreme corner: k+l+h = r-1


def test_f_nonzero_outside_window():
    # h = 0 sits outside the vanishing window; the sum is genuinely nonzero
    assert negelon_f(2, 0, 0, 0) == Fraction(1, 2)
    assert negelon_f(3, 1, 0, 0) == Fraction(-1, 6)
    assert negelon_f(4, 0, 1, 0) == Fraction(1, 6)
    # ... and so is the case k+l+h = r (just past the inequality)
    assert negelon_f(2, 1, 0, 1) != 0 or negelon_f(3, 1, 1, 1) != 0


def test_tuple_window_enumeration():
    tuples = list(negelon_tuples(12))
    assert len(tuples) == negelon_window_size(12) == 1001
    assert list(negelon_tuples(2)) == [(2, 0, 0, 1)]
    assert all(
        r >= 2 and k >= 0 and l >= 0 and h >= 1 and k + l + h <= r - 1
        for r, k, l, h in tuples
    )
    assert len(set(tuples)) == len(tuples)


def test_scan_small_window():
    rep = negelon_scan(2)
    assert rep.status == "pass"
    assert len(rep.points) == 1
    assert rep.points[0].lhs == 0


def test_scan_full_window():
    rep = negelon_scan(12)
    assert rep.status == "pass"
    assert len(rep.points) == 1001
    assert all(pt.status == "pass" for pt in rep.points)


def test_scan_including_h0_fails():
    rep = negelon_scan(3, h_min=0)
    assert rep.status == "fail"
    assert any(pt.status == "fail" for pt in rep.points)


def test_aux_identities_hold():
    rep = aux_identities(12)
    assert rep.status == "pass"
    names = {pt.identity.split("(")[0] for pt in rep.points}
    assert names == {"vandermonde", "telescope", "convolution", "finite-difference"}


def test_mu_factor_expansion(ctx):
    rep = mu_factor_check(plan(L=4, N=3), N=3, ctx=ctx)
    assert rep.status == "pass"
    rep2 = mu_factor_check(plan(L=3, N=2), N=4, ctx=ctx)
    assert rep2.status == "pass"
