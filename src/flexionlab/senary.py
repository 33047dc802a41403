"""Unit-twisted involutions and the ter/sena/rush operator family.

Every operator here takes a flexion unit and a bimould and returns a new
mould node built from the unit's canonical moulds (oz, os, es).  Operators
that admit several equivalent closed forms designate one form as the
implementation; the alternatives are exposed under an ``_explicit`` or
numbered suffix so the verification suites can assert their agreement
instead of trusting a single code path.

Conventions:
  - ``o_mantar`` is the oz-conjugated signed reversal; it fixes every
    twisted-alternal mould.
  - ``e_push = e_neg . e_negpush`` and the inverse composes the inverse
    factors in the opposite order (all building blocks are involutions or
    have exact closed inverses).
  - ``senary_defect(B) = e_ter(B) - (push . mantar . e_ter . mantar)(B)``
    vanishes exactly on the transported push-invariants.

No node class lives here: every operator is composed from the nodes of
``engine`` and ``flexion``.  e_ter is one ``engine.Lin`` over B and two
``engine.Cuts`` sums over the cuts w = w'x that split off the last letter,
and the triple-split e_ter inverse is a ``Cuts`` sum over w = abc; their
plans are module constants, built once at import.
"""

from __future__ import annotations

from .canonical import (
    FlexionUnit,
    ganit_oz_inv,
    mould_E,
    mould_O,
    mould_es,
    mould_oz,
)
from .engine import (
    LIE,
    Cuts,
    Lin,
    Mould,
    cut_plan,
    invmu,
    mantar,
    mu,
    neg,
    one,
    pari,
    push,
    push_inv,
    swap,
)
from .flexion import adari, answamu, ganit, gaxit, invgari, preari, swamu
from .words import fll, fur


def _require_lie(A: Mould, op: str) -> None:
    if A.empty_class != LIE:
        raise ValueError(f"{op} expects a lie-class argument, got {A.empty_class!r}")


# ---------------------------------------------------------------------------
# Twisted reversal and the negation/push transports
# ---------------------------------------------------------------------------


def o_mantar(U: FlexionUnit, A: Mould) -> Mould:
    """Signed reversal conjugated by ganit(oz); an involution fixing the
    twisted alternals."""
    _require_lie(A, "o_mantar")
    return ganit(mould_oz(U), mantar(ganit_oz_inv(U, A)))


def o_mantar_gaxit(U: FlexionUnit, A: Mould) -> Mould:
    """Equivalent route gaxit(oz, oz) . mantar (cross-check form)."""
    _require_lie(A, "o_mantar_gaxit")
    oz = mould_oz(U)
    return gaxit(oz, oz, mantar(A))


def e_negpush(U: FlexionUnit, A: Mould) -> Mould:
    """mantar . swap . o_mantar . swap; fixes the twisted-dimorphic moulds."""
    _require_lie(A, "e_negpush")
    return mantar(swap(o_mantar(U, swap(A))))


def e_negpush_inv(U: FlexionUnit, A: Mould) -> Mould:
    _require_lie(A, "e_negpush_inv")
    return swap(o_mantar(U, swap(mantar(A))))


def e_neg(U: FlexionUnit, A: Mould) -> Mould:
    """Negation transported by the secondary mould's flat shadow: neg . adari(es)."""
    _require_lie(A, "e_neg")
    return neg(adari(mould_es(U), A))


def e_neg_inv(U: FlexionUnit, A: Mould) -> Mould:
    _require_lie(A, "e_neg_inv")
    return adari(invgari(mould_es(U)), neg(A))


def e_push(U: FlexionUnit, A: Mould) -> Mould:
    """The unit-twisted push: e_neg . e_negpush."""
    _require_lie(A, "e_push")
    return e_neg(U, e_negpush(U, A))


def e_push_inv(U: FlexionUnit, C: Mould) -> Mould:
    """Compositional inverse e_negpush_inv . e_neg_inv (implementation form)."""
    _require_lie(C, "e_push_inv")
    return e_negpush_inv(U, e_neg_inv(U, C))


def e_push_inv_explicit(U: FlexionUnit, C: Mould) -> Mould:
    """Closed form of the inverse twisted push (cross-check form):

    swap(mu(mu(1-O, push(swap C)) + push(mu(O, swap C))
            - push(swamu(swap C, O)), oz)).
    """
    _require_lie(C, "e_push_inv_explicit")
    O = mould_O(U)
    S = swap(C)
    inner = mu(one() - O, push(S)) + push(mu(O, S)) - push(swamu(S, O))
    return swap(mu(inner, mould_oz(U)))


# ---------------------------------------------------------------------------
# Twisted swap
# ---------------------------------------------------------------------------


def e_swap(U: FlexionUnit, A: Mould) -> Mould:
    """adari(es) . swap . gaxit(oz, oz)."""
    _require_lie(A, "e_swap")
    oz = mould_oz(U)
    return adari(mould_es(U), swap(gaxit(oz, oz, A)))


def e_swap_inv(U: FlexionUnit, B: Mould) -> Mould:
    """First closed form of the inverse: mu(swap(preari(pari(es), B)), 1+O)."""
    _require_lie(B, "e_swap_inv")
    return mu(swap(preari(pari(mould_es(U)), B)), one() + mould_O(U))


def e_swap_inv_2(U: FlexionUnit, B: Mould) -> Mould:
    """Second closed form (cross-check):

    mu(pari(oz), swap(mu(1+pari(es), B) - answamu(pari(es), B)), 1+O).
    """
    _require_lie(B, "e_swap_inv_2")
    es = mould_es(U)
    return mu(
        pari(mould_oz(U)),
        swap(mu(one() + pari(es), B) - answamu(pari(es), B)),
        one() + mould_O(U),
    )


def e_swap_inv_3(U: FlexionUnit, B: Mould) -> Mould:
    """Third closed form (cross-check):

    mu(pari(oz), mu(swap B, 1+O) + swap(answamu(E, B) - mu(E, B))).
    """
    _require_lie(B, "e_swap_inv_3")
    E = mould_E(U)
    O = mould_O(U)
    return mu(pari(mould_oz(U)), mu(swap(B), one() + O) + swap(answamu(E, B) - mu(E, B)))


# ---------------------------------------------------------------------------
# The ter correction and its inverse
# ---------------------------------------------------------------------------


_E_TER_LAST = cut_plan("*1", ((1, lambda b: b[0]), (2, lambda b: b[1])))
_E_TER_FLEXED = cut_plan("*1", ((1, lambda b: fur(b[0], b[1])), (2, lambda b: fll(b[0], b[1]))))
_E_TER_INV_TRIPLE = cut_plan(
    "***", ((1, lambda b: fur(b[0], b[1])), (2, lambda b: fll(b[0], b[1])), (3, lambda b: b[2]))
)


def e_ter(U: FlexionUnit, B: Mould) -> Mould:
    """B corrected by two boundary terms involving the unit's letter function:

        e_ter(B)(w) = B(w) - B(w')E(x) + B(fur(w', x)) E(fll(w', x))

    where w = w'x splits off the last letter, one ``Lin`` over B and two
    ``*1`` cut sums; the empty word passes through and at length 1 the two
    corrections cancel for every B.
    """
    E = mould_E(U)
    last = Cuts("e_ter_last", _E_TER_LAST, (B, E))
    flexed = Cuts("e_ter_flexed", _E_TER_FLEXED, (B, E))
    terms = ((1, B), (-1, last), (1, flexed))
    return Lin("e_ter", lambda r: terms)


def e_ter_explicit(U: FlexionUnit, B: Mould) -> Mould:
    """Flexion-product form of e_ter (cross-check): mu(B, 1-E) + answamu(B, E)."""
    E = mould_E(U)
    return mu(B, one() - E) + answamu(B, E)


def e_ter_inv(U: FlexionUnit, B: Mould) -> Mould:
    """Inverse of e_ter: mu(answamu(B, invmu(es)), es)."""
    es = mould_es(U)
    return mu(answamu(B, invmu(es)), es)


def e_ter_inv_triple(U: FlexionUnit, B: Mould) -> Mould:
    """Triple-split expansion of the e_ter inverse (independent cross-check):

        B(fur(a, b)) . invmu(es)(fll(a, b)) . es(c)  summed over w = abc.
    """
    es = mould_es(U)
    return Cuts("e_ter_inv_triple", _E_TER_INV_TRIPLE, (B, invmu(es), es))


# ---------------------------------------------------------------------------
# The sena operator and the senary defect
# ---------------------------------------------------------------------------


def e_sena(U: FlexionUnit, B: Mould) -> Mould:
    """e_ter_inv . push . mantar . e_ter . mantar (implementation form)."""
    _require_lie(B, "e_sena")
    return e_ter_inv(U, push(mantar(e_ter(U, mantar(B)))))


def e_sena_explicit(U: FlexionUnit, B: Mould) -> Mould:
    """Closed form of e_sena (cross-check):

    mu((swap . push_inv)(mu(oz, swap(B + mu(E, B) - swamu(B, E)))), es).
    """
    _require_lie(B, "e_sena_explicit")
    E = mould_E(U)
    core = B + mu(E, B) - swamu(B, E)
    return mu(swap(push_inv(mu(mould_oz(U), swap(core)))), mould_es(U))


def senary_defect(U: FlexionUnit, B: Mould) -> Mould:
    """e_ter(B) - (push . mantar . e_ter . mantar)(B); zero exactly on the
    moulds satisfying the senary relation."""
    _require_lie(B, "senary_defect")
    return e_ter(U, B) - push(mantar(e_ter(U, mantar(B))))


# ---------------------------------------------------------------------------
# The rush operator and its pieces
# ---------------------------------------------------------------------------


def o_rush(U: FlexionUnit, X: Mould) -> Mould:
    """mu(1-O, push X) + push(mu(O, X)) - push(swamu(X, O))."""
    O = mould_O(U)
    return mu(one() - O, push(X)) + push(mu(O, X)) - push(swamu(X, O))


def rush_r2(U: FlexionUnit, X: Mould) -> Mould:
    """Piece R2 of o_rush: mu(O, push X)."""
    return mu(mould_O(U), push(X))


def rush_r3(U: FlexionUnit, X: Mould) -> Mould:
    """Piece R3 of o_rush: push(mu(O, X))."""
    return push(mu(mould_O(U), X))


def rush_r4(U: FlexionUnit, X: Mould) -> Mould:
    """Piece R4 of o_rush: push(swamu(X, O))."""
    return push(swamu(X, mould_O(U)))


def rush_r4_alt(U: FlexionUnit, X: Mould) -> Mould:
    """Reversal form of R4 (cross-check): -answamu(O, push X)."""
    return -answamu(mould_O(U), push(X))
