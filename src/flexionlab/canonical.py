"""Flexion units and the canonical bimoulds built from them.

A flexion unit is a one-letter function E satisfying the tripartite
relation, with conjugate O exchanging the roles of u and v.  From a unit we
build the named moulds oz/ez (geometric mu-inverses), os/es (closed
products), the redistributed weight components ro_r with their generating
series To, the dilator D, the dilator-flow solution S of der(S) =
preari(S, D), and finally the secondary pair: dotted = invgari(S) and
plain = swap(dotted).

No node class lives here.  The unit letters E and O, the closed forms of
oz, os and es and the two sides of the tripartite relation are
``engine.FuncMould`` leaves.  Every registered unit passes
``check_tripartite``, which compares those sides on
``engine.sample_points``, the sampler of every other identity.  The weight
components are one ``engine.Cuts`` sum over the marked letter of w = p.m.q
(``mould_ro``), and the flow is a self-referential ``engine.Lin`` over an
``arit`` term and a ``Cuts`` product, like the solvers of ``flexion``.  The
two plans, ``_RO`` and ``_FLOW_MU``, are module constants.

Everything is cached per unit, so a named mould is one node per process.
Memos belong to a walk, so the cache shares no values across identities;
it makes a walk that reaches a mould through several operators keep one
memo table for it, and builds the mould's term tables once.
"""

from __future__ import annotations

from fractions import Fraction
from typing import Callable

from .engine import (
    GROUP,
    LIE,
    Cuts,
    EvalContext,
    FuncMould,
    Lin,
    Mould,
    SamplePlan,
    cut_plan,
    invmu,
    leng_r,
    one,
    pari,
    sample_points,
    swap,
)
from .flexion import arit, ganit, ganit_inv, invgari
from .words import Biletter, DivByZero, Rat, coprime_fraction, fll, flr, ful, fur

UnitFn = Callable[[Biletter], Rat]


def recip(x: Rat) -> Rat:
    """Exact reciprocal of a ``Fraction``; zero raises the trailed division
    error.  The numerator and denominator of x in lowest terms are coprime,
    so the reciprocal is built from them as they are, with no gcd."""
    n, d = x.numerator, x.denominator
    if not n:
        raise DivByZero("reciprocal of exact zero")
    if n < 0:
        n, d = -n, -d
    return coprime_fraction(d, n)


class FlexionUnit:
    """A named flexion unit: letter functions E and its conjugate O."""

    def __init__(self, name: str, E: UnitFn, O: UnitFn):
        self.name = name
        self.E = E
        self.O = O
        self._conjugate: FlexionUnit | None = None
        self._moulds: dict[str, Mould] = {}

    def __repr__(self):
        return f"FlexionUnit({self.name!r})"

    def conjugate(self) -> "FlexionUnit":
        if self._conjugate is None:
            conj = FlexionUnit(f"{self.name}-conjugate", self.O, self.E)
            conj._conjugate = self
            self._conjugate = conj
        return self._conjugate

    def _cached(self, key: str, build: Callable[[], Mould]) -> Mould:
        m = self._moulds.get(key)
        if m is None:
            m = build()
            self._moulds[key] = m
        return m


def tripartite_sides(U: FlexionUnit, x1: Biletter, x2: Biletter) -> tuple[Rat, Rat]:
    """The two sides of the tripartite relation at the letters x1, x2:
    E(x1)E(x2) and E(u1+u2 ; v1)E(u2 ; v2-v1) + E(u1+u2 ; v2)E(u1 ; v1-v2)."""
    E, (u1, v1), (u2, v2) = U.E, x1, x2
    lhs = E(x1) * E(x2)
    rhs = E(Biletter(u1 + u2, v1)) * E(Biletter(u2, v2 - v1)) + E(Biletter(u1 + u2, v2)) * E(Biletter(u1, v1 - v2))
    return lhs, rhs


def check_tripartite(U: FlexionUnit, seed: int = 0, ctx: EvalContext | None = None) -> bool:
    """The tripartite relation (``tripartite_sides``) at 20 sampled words of
    two letters: its sides are two length-2 leaves that ``sample_points``
    compares as the identity ``tripartite[<unit>]``, resampling a singular
    word up to the retry cap of ``ctx`` (a fresh ``EvalContext`` if None).
    The check passes when no sample fails and at least one is regular."""
    ctx = ctx if ctx is not None else EvalContext()
    lhs = FuncMould(f"tripartite-lhs[{U.name}]", lambda x1, x2: tripartite_sides(U, x1, x2)[0], LIE, 2)
    rhs = FuncMould(f"tripartite-rhs[{U.name}]", lambda x1, x2: tripartite_sides(U, x1, x2)[1], LIE, 2)
    plan = SamplePlan(max_length=2, samples_per_length=20, seed=seed)
    shapes = (((2,), (2,)),)
    report = sample_points(ctx, plan, f"tripartite[{U.name}]", shapes, lambda w: (ctx.at(lhs, w), ctx.at(rhs, w)))
    return report.status == "pass"


_REGISTRY: dict[str, FlexionUnit] = {}


def register_unit(U: FlexionUnit) -> FlexionUnit:
    """Add a unit to the named registry after validating the tripartite relation."""
    if not check_tripartite(U):
        raise ValueError(f"unit {U.name} fails the tripartite relation")
    _REGISTRY[U.name] = U
    return U


def get_unit(name: str) -> FlexionUnit:
    try:
        return _REGISTRY[name]
    except KeyError:
        raise KeyError(f"unknown unit {name!r}; registered: {sorted(_REGISTRY)}") from None


_polar = FlexionUnit("polar", lambda x: recip(x.u), lambda x: recip(x.v))
register_unit(_polar)
register_unit(_polar.conjugate())


# ---------------------------------------------------------------------------
# Named moulds
# ---------------------------------------------------------------------------


def mould_E(U: FlexionUnit) -> Mould:
    """The unit as a length-1 mould (0 at every other length)."""
    return U._cached("E", lambda: FuncMould(f"E[{U.name}]", U.E, LIE, 1))


def mould_O(U: FlexionUnit) -> Mould:
    return U._cached("O", lambda: FuncMould(f"O[{U.name}]", U.O, LIE, 1))


def mould_oz(U: FlexionUnit) -> Mould:
    """oz := invmu(1 - O); equals the letterwise product of O over the word."""
    return U._cached("oz", lambda: invmu(one() - mould_O(U)))


def mould_ez(U: FlexionUnit) -> Mould:
    return U._cached("ez", lambda: invmu(one() - mould_E(U)))


def oz_closed(U: FlexionUnit) -> Mould:
    """Independent closed form of oz: the plain product of O over the letters."""

    def fn(*w: Biletter) -> Rat:
        total = Fraction(1)
        for x in w:
            total *= U.O(x)
        return total

    return U._cached("oz_closed", lambda: FuncMould(f"oz_closed[{U.name}]", fn, GROUP))


def mould_os(U: FlexionUnit) -> Mould:
    """os(w) = prod_i O(u1+...+ui ; v_i - v_{i-1}) with v_0 := 0."""

    def fn(*w: Biletter) -> Rat:
        total = Fraction(1)
        acc_u = Fraction(0)
        prev_v = Fraction(0)
        for x in w:
            acc_u += x.u
            total *= U.O(Biletter(acc_u, x.v - prev_v))
            prev_v = x.v
        return total

    return U._cached("os", lambda: FuncMould(f"os[{U.name}]", fn, GROUP))


def mould_es(U: FlexionUnit) -> Mould:
    """es := swap(oz)."""
    return U._cached("es", lambda: swap(mould_oz(U)))


def es_closed(U: FlexionUnit) -> Mould:
    """Derived closed form of es: prod_i E(u1+...+ui ; v_i - v_{i+1}), v_{r+1} := 0."""

    def fn(*w: Biletter) -> Rat:
        total = Fraction(1)
        acc_u = Fraction(0)
        r = len(w)
        for i, x in enumerate(w):
            acc_u += x.u
            next_v = w[i + 1].v if i + 1 < r else Fraction(0)
            total *= U.E(Biletter(acc_u, x.v - next_v))
        return total

    return U._cached("es_closed", lambda: FuncMould(f"es_closed[{U.name}]", fn, GROUP))


# ---------------------------------------------------------------------------
# Redistributed weights and the dilator
# ---------------------------------------------------------------------------


_RO = cut_plan("*1*", (
    (1, lambda b: b[2]), (2, lambda b: flr(b[0], b[1])),
    (3, lambda b: ful(b[0], fur(b[1], b[2]))), (2, lambda b: fll(b[1], b[2])),
))


def mould_ro(U: FlexionUnit) -> Mould:
    """The weight components ro_r of every length r as one ``Cuts`` sum:
    over the cuts w = p.m.q with m one letter, the products (len(q)+1)
    oz(flr(p, m)) O(ful(p, fur(m, q))) oz(fll(m, q)).  The weight
    len(q)+1 = r+1-j, j the position of m, is a constant ``Lin`` read at q."""

    def build():
        weight = Lin("ro_weight", lambda n: ((n + 1, None),))
        return Cuts(f"ro[{U.name}]", _RO, (weight, mould_oz(U), mould_O(U)))

    return U._cached("ro", build)


def ro_component(U: FlexionUnit, r: int) -> Mould:
    """ro_r: ``mould_ro`` on the words of length r."""
    if r < 1:
        raise ValueError("ro components start at length 1")
    return U._cached(f"ro[{r}]", lambda: leng_r(mould_ro(U), r))


def To_series(U: FlexionUnit) -> Mould:
    """Sum over r of ro_r / (r (r+1)): at length r the one ``Lin`` term ro."""

    def terms(r):
        return ((Fraction(1, r * (r + 1)), mould_ro(U)),) if r else ()

    return U._cached("To", lambda: Lin(f"To[{U.name}]", terms))


def ganit_oz_inv(U: FlexionUnit, A: Mould) -> Mould:
    """Inverse of ganit(oz) applied to A, solved length-by-length.

    The solver route is valid for every unit.  When the conjugate letter
    function depends on v alone (the polar unit), the inverse is also the
    conjugation ganit(pari(os)); see ganit_oz_inv_closed.
    """
    return ganit_inv(mould_oz(U), A)


def ganit_oz_inv_closed(U: FlexionUnit, A: Mould) -> Mould:
    """Closed-form inverse of ganit(oz): conjugation by pari(os).

    Only valid when O is a function of v alone (it fails for the
    conjugate polar unit, whose O depends on u); the identity suites
    cross-check it against the solver route under the polar unit.
    """
    return ganit(U._cached("ganit_oz_inv_arg", lambda: pari(mould_os(U))), A)


def dilator_D(U: FlexionUnit) -> Mould:
    """The dilator: ganit(oz)^{-1} applied to the To series."""
    return U._cached("D", lambda: ganit_oz_inv(U, To_series(U)))


_FLOW_MU = cut_plan("*+", ((1, lambda b: b[0]), (2, lambda b: b[1])))


def solve_dilator_ode(D: Mould) -> Mould:
    """The unique group-class S with S(empty)=1 and der(S) = preari(S, D).

    At length r the equation reads r S(w) = arit(D)(S)(w) + sum_{w=ab}
    S(a) D(b), so S is the ``Lin`` of those two terms over r; every S on
    the right is at a shorter word, since the a=w term carries D(empty)=0
    and the ``*+`` cuts leave it out.
    """
    if D.empty_class != LIE:
        raise ValueError(f"dilator flow needs a lie-class dilator, got {D.empty_class}")

    def terms(r):
        return ((Fraction(1, r), inner), (Fraction(1, r), product)) if r else ((1, None),)

    node = Lin("dilator_flow", terms)
    inner = arit(D, node)
    product = Cuts("flow_mu", _FLOW_MU, (node, D))
    return node


# ---------------------------------------------------------------------------
# Secondary pair
# ---------------------------------------------------------------------------


def oess(U: FlexionUnit) -> Mould:
    """The dotted secondary mould: invgari of the dilator flow (swap of ess)."""
    flow = U._cached("flow", lambda: solve_dilator_ode(dilator_D(U)))
    return U._cached("dotted", lambda: invgari(flow))


def ess(U: FlexionUnit) -> Mould:
    """The plain secondary mould: bisymmetral, drives the twisted transport."""
    return U._cached("plain", lambda: swap(oess(U)))


def eess(U: FlexionUnit) -> Mould:
    """Mirror dotted mould: the dilator chain applied to the conjugate unit."""
    return oess(U.conjugate())


def oss(U: FlexionUnit) -> Mould:
    """Mirror plain mould: swap of eess."""
    return ess(U.conjugate())
