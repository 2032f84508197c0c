"""Divided-power inverse systems and Newton duality.

The dual module carries the contraction action: x^a sends y^[b] to y^[b-a],
with the term dropped whenever an exponent goes negative.  Coefficients are
multiplied through as given (no binomial factors), so everything here is
characteristic-free.  Annihilators of dual forms are assembled from
catalecticant kernels degree by degree.
"""

from __future__ import annotations

from .fields import QQ
from .ideals import (
    GradedIdeal,
    GradedPiece,
    full_piece,
    span_of_vectors,
    vector_to_poly,
)
from .linalg import ExactMatrix
from .monomials import (
    default_var_names,
    mono_sub,
    monomial_count,
    monomial_index,
    monomials_of_degree,
)
from .poly import MultiPoly


class NotGorensteinError(ValueError):
    pass


class InverseForm:
    """Homogeneous element of the divided-power dual module."""

    __slots__ = ("n", "field", "terms")

    def __init__(self, n, terms=None, field=QQ):
        self.n = n
        self.field = field
        clean = {}
        if terms:
            for exps, coeff in terms.items():
                if len(exps) != n or any(e < 0 for e in exps):
                    raise ValueError(f"bad dual exponent vector {exps}")
                if not field.is_zero(coeff):
                    clean[tuple(exps)] = coeff
        self.terms = clean
        degs = {sum(e) for e in self.terms}
        if len(degs) > 1:
            raise ValueError("inverse forms must be homogeneous")

    @classmethod
    def zero(cls, n, field=QQ):
        return cls(n, {}, field)

    def is_zero(self):
        return not self.terms

    def degree(self):
        if not self.terms:
            return -1
        return sum(next(iter(self.terms)))

    def to_vector(self, s=None):
        if s is None:
            s = self.degree()
        zero = self.field.zero
        return [self.terms.get(e, zero) for e in monomials_of_degree(self.n, s)]

    @classmethod
    def from_vector(cls, n, s, vec, field=QQ):
        basis = monomials_of_degree(n, s)
        return cls(n, {e: c for e, c in zip(basis, vec)}, field)

    def __add__(self, other):
        if self.n != other.n or self.field != other.field:
            raise ValueError("incompatible dual forms")
        field = self.field
        terms = dict(self.terms)
        for e, c in other.terms.items():
            acc = field.add(terms.get(e, field.zero), c)
            if field.is_zero(acc):
                terms.pop(e, None)
            else:
                terms[e] = acc
        return InverseForm(self.n, terms, field)

    def scale(self, scalar):
        c = self.field.of(scalar)
        field = self.field
        return InverseForm(self.n,
                           {e: field.mul(v, c) for e, v in self.terms.items()},
                           field)

    def __eq__(self, other):
        return (isinstance(other, InverseForm) and self.n == other.n
                and self.field == other.field and self.terms == other.terms)

    def __hash__(self):
        return hash((self.n, self.field, frozenset(self.terms.items())))

    def format(self, var_names=None) -> str:
        if var_names is None:
            var_names = default_var_names(self.n, dual=True)
        proxy = MultiPoly(self.n, dict(self.terms), self.field)
        return proxy.format(var_names)

    def __str__(self):
        return self.format()

    def __repr__(self):
        return f"InverseForm({self.format()!r})"


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
            if e is None:
                continue
            acc = field.add(terms.get(e, field.zero), field.mul(a, b))
            if field.is_zero(acc):
                terms.pop(e, None)
            else:
                terms[e] = acc
    return InverseForm(f.n, terms, field)


def _catalecticant_kernel(F: InverseForm, t) -> GradedPiece:
    """Kernel of contraction against F on R_t, i.e. Ann(F)_t for t <= deg F."""
    n, field = F.n, F.field
    s = F.degree()
    target = monomials_of_degree(n, s - t)
    tgt_idx = monomial_index(n, s - t)
    rows = [[field.zero] * monomial_count(n, t) for _ in target]
    for col, alpha in enumerate(monomials_of_degree(n, t)):
        for beta, b in F.terms.items():
            e = mono_sub(alpha, beta)
            if e is not None:
                rows[tgt_idx[e]][col] = b
    matrix = ExactMatrix(field, rows, cols=monomial_count(n, t))
    return span_of_vectors(n, t, matrix.kernel_basis(), field)


def annihilator(F: InverseForm, t_max=None) -> GradedIdeal:
    """The ideal of forms contracting F to zero.

    Its pieces are catalecticant kernels through deg(F) and all of R from
    deg(F) + 1 on, so every minimal generator has degree at most deg(F) + 1.
    A t_max below that is rejected; a larger one changes nothing.
    """
    if F.is_zero():
        raise ValueError("annihilator of the zero dual form")
    n, field = F.n, F.field
    s = F.degree()
    if t_max is not None and t_max < s + 1:
        raise ValueError(f"t_max must be at least deg(F) + 1 = {s + 1}")
    pieces = [_catalecticant_kernel(F, t) for t in range(s + 1)]
    return GradedIdeal.from_pieces(n, pieces + [full_piece(n, s + 1, field)], field)


def macaulay_inverse(I: GradedIdeal) -> InverseForm:
    """The degree-s dual generator annihilated by I (s = socle degree).

    Unique up to a scalar for Gorenstein input; normalized so the first
    nonzero coefficient in the canonical dual order is 1.
    """
    report = I.socle_report()
    s = report.socle_degree
    n, field = I.n, I.field
    dim_s = monomial_count(n, s)
    rows = []
    for g in I.generators:
        d = g.homogeneous_degree()
        if d > s:
            continue
        idx = monomial_index(n, s - d)
        block = [[field.zero] * dim_s for _ in range(monomial_count(n, s - d))]
        for col, beta in enumerate(monomials_of_degree(n, s)):
            for alpha, a in g.terms.items():
                e = mono_sub(alpha, beta)
                if e is not None:
                    block[idx[e]][col] = a
        rows.extend(block)
    matrix = ExactMatrix(field, rows, cols=dim_s)
    kernel = matrix.kernel_basis()
    if len(kernel) != 1:
        raise NotGorensteinError(
            f"dual socle generator is not unique (kernel dimension "
            f"{len(kernel)} in degree {s})")
    vec = kernel[0]
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
    Newton dual of the Macaulay inverse generator.
    """
    n, field = I.n, I.field
    report = I.socle_report()
    if not report.is_gorenstein:
        raise NotGorensteinError("directrix forms require a Gorenstein ideal")
    s = report.socle_degree
    if n * (m - 1) < s:
        raise ValueError(
            f"n(m-1) = {n * (m - 1)} is below the socle degree {s}")
    for i in range(n):
        power = MultiPoly.variable(i, n, field) ** m
        if not I.contains(power):
            raise ValueError(
                f"pure power x_{i + 1}^{m} does not lie in the ideal")
    F = macaulay_inverse(I)
    f = socle_newton_dual(F, m)
    vec = f.to_vector()
    return vector_to_poly(n, f.homogeneous_degree(), vec, field)
