"""Divided-power inverse systems and Newton duality.

The dual module carries the contraction action: x^a sends y^[b] to y^[b-a],
with the term dropped whenever an exponent goes negative.  Coefficients are
multiplied through as given (no binomial factors), so everything here is
characteristic-free.  Annihilators of dual forms are read off
pieces.annihilator_pieces, the catalecticant kernels that colons of pure
powers use too.  A dual form stores its terms like a polynomial (the
sparse-form base of poly) but has no ring operations: R acts on it only by
contraction.  A Gorenstein ideal is Ann(F) for its Macaulay inverse F, so
directrix_form reads which pure powers x_i^m it holds off the exponents of
F, with no membership test.
"""

from __future__ import annotations

from .fields import QQ
from .ideals import GradedIdeal
from .monomials import mono_sub
from .pieces import annihilator_pieces, dual_vector, integer_terms, vector_to_poly
from .poly import MultiPoly, _SparseForm


class NotGorensteinError(ValueError):
    pass


class InverseForm(_SparseForm):
    """Homogeneous element of the divided-power dual module."""

    __slots__ = ()
    dual = True

    def __init__(self, n, terms=None, field=QQ):
        super().__init__(n, terms, field)
        if not self.is_homogeneous():
            raise ValueError("inverse forms must be homogeneous")


def contract(f: MultiPoly, F: InverseForm) -> InverseForm:
    """The module action of f on F: terms y^[b-a], negatives dropped."""
    if f.n != F.n:
        raise ValueError("ambient variable counts differ")
    if f.field != F.field:
        raise ValueError("coefficient fields differ")
    field = f.field
    terms = {}
    for alpha, a in f.terms.items():
        for beta, b in F.terms.items():
            e = mono_sub(alpha, beta)
            if e is not None:
                terms[e] = field.add(terms.get(e, field.zero), field.mul(a, b))
    return InverseForm(f.n, terms, field)


def annihilator(F: InverseForm) -> GradedIdeal:
    """The ideal of forms contracting F to zero.

    Its pieces are catalecticant kernels through deg(F) and all of R from
    deg(F) + 1 on (pieces.annihilator_pieces), so every minimal generator
    has degree at most deg F unless F is a divided power of one linear form
    (GradedIdeal.minimal_generators).
    """
    if F.is_zero():
        raise ValueError("annihilator of the zero dual form")
    pieces = annihilator_pieces(F.n, F.degree(), integer_terms(F), F.field)
    return GradedIdeal.from_pieces(F.n, pieces, F.field)


def macaulay_inverse(I: GradedIdeal) -> InverseForm:
    """The degree-s dual generator annihilated by I (s = socle degree).

    Unique up to a scalar for Gorenstein input; normalized so the first
    nonzero coefficient in the canonical dual order is 1.
    """
    report = I.socle_report()
    s = report.socle_degree
    n, field = I.n, I.field
    # F is annihilated by I exactly when every x^alpha * g of degree s
    # contracts it to zero, i.e. when its coefficient vector is orthogonal to
    # the piece I_s: one free column of that piece, the vector the Gorenstein
    # certificate (GradedIdeal._certify) reads
    piece = I.graded_piece(s)
    kernel_dim = piece.ambient_dim - piece.dim
    if kernel_dim != 1:
        raise NotGorensteinError(
            f"dual socle generator is not unique (kernel dimension "
            f"{kernel_dim} in degree {s})")
    vec = [field.of(v) for v in dual_vector(piece)]
    lead = next(v for v in vec if not field.is_zero(v))
    inv = field.inv(lead)
    vec = [field.mul(inv, v) for v in vec]
    return InverseForm.from_vector(n, s, vec, field)


def newton_dual(f: MultiPoly) -> MultiPoly:
    """Reflect every exponent vector through the componentwise maximum.

    An involution on forms without a monomial factor.
    """
    if f.is_zero():
        raise ValueError("Newton dual of zero")
    alpha = [max(e[i] for e in f.terms) for i in range(f.n)]
    terms = {}
    for e, c in f.terms.items():
        terms[tuple(a - x for a, x in zip(alpha, e))] = c
    return MultiPoly(f.n, terms, f.field)


def socle_newton_dual(f, m: int):
    """Reflect exponents through the fixed directrix (m-1, ..., m-1).

    Sends polynomials to dual forms and dual forms back to polynomials;
    applying it twice with the same m is the identity.  Every exponent must
    stay under m coordinatewise, i.e. no term may lie inside the pure-power
    ideal (x_1^m, ..., x_n^m).
    """
    if m < 1:
        raise ValueError("directrix exponent must be at least 1")
    if f.is_zero():
        raise ValueError("socle-like Newton dual of zero")
    nu = m - 1
    terms = {}
    for e, c in f.terms.items():
        if any(x > nu for x in e):
            raise ValueError(
                f"term with exponents {e} lies inside the pure-power ideal "
                f"(exponent {max(e)} >= m = {m})")
        terms[tuple(nu - x for x in e)] = c
    if isinstance(f, InverseForm):
        return MultiPoly(f.n, terms, f.field)
    return InverseForm(f.n, terms, f.field)


def directrix_form(I: GradedIdeal, m: int) -> MultiPoly:
    """The form f with (x_1^m, ..., x_n^m) : f = I, up to a scalar.

    Requires I Artinian Gorenstein with socle degree s, the pure powers
    x_i^m inside I, and n(m-1) >= s; the result has degree n(m-1) - s and
    no term inside the pure-power ideal.  It is recovered as the socle-like
    Newton dual of the Macaulay inverse generator F.  A Gorenstein I is
    Ann(F) (Macaulay duality), so x_i^m lies in I exactly when x_i^m
    contracts F to zero, when no term of F has exponent m or more in x_i:
    membership is read off F, with no piece of degree m.
    """
    n, field = I.n, I.field
    report = I.socle_report()
    if not report.is_gorenstein:
        raise NotGorensteinError("directrix forms require a Gorenstein ideal")
    s = report.socle_degree
    if n * (m - 1) < s:
        raise ValueError(
            f"n(m-1) = {n * (m - 1)} is below the socle degree {s}")
    F = macaulay_inverse(I)
    for i in range(n):
        if any(beta[i] >= m for beta in F.terms):
            raise ValueError(
                f"pure power x_{i + 1}^{m} does not lie in the ideal")
    f = socle_newton_dual(F, m)
    vec = f.to_vector()
    return vector_to_poly(n, f.homogeneous_degree(), vec, field)
