"""Rank-based decision procedures on spaces of forms.

These are point tests: given concrete forms, build the relevant
multiplication or membership matrix (rows of shifted forms from
pieces.shifted_vectors) and decide by its exact rank.  The five-quadrics
certificate reads the dual quadric F of five quadrics off the maximal
minors of their coefficient matrix, one elimination, and det Cat_1(F);
when both of its determinants are nonzero the degree-3 span is a theorem,
not a rank.  It is one-sided; a failed certificate never disproves the
Gorenstein property.
"""

from __future__ import annotations

from collections import namedtuple

from .linalg import ExactMatrix, maximal_minors, row_rank
from .monomials import monomial_count, monomials_of_degree
from .pieces import integer_terms, shifted_vectors
from .poly import MultiPoly


class SpansReport(namedtuple("SpansReport", "spans rank target_dim shape")):
    __slots__ = ()

    def as_dict(self):
        return {
            "spans": self.spans,
            "rank": self.rank,
            "target_dim": self.target_dim,
            "rows": self.shape[0],
            "cols": self.shape[1],
        }


def spans_target(forms, e: int) -> SpansReport:
    """Do the degree-e multiples of the forms fill all of R_{d+e}?"""
    forms = list(forms)
    if not forms:
        raise ValueError("need at least one form")
    n = forms[0].n
    field = forms[0].field
    degs = {f.homogeneous_degree() for f in forms}
    if len(degs) != 1:
        raise ValueError("forms must share a single degree")
    d = degs.pop()
    if e < 0:
        raise ValueError("shift must be non-negative")
    target = monomial_count(n, d + e)
    # the rows x^alpha * f are the columns of the multiplication matrix
    rows = shifted_vectors(n, d + e, [(d, integer_terms(f)) for f in forms])
    rank = row_rank(field, rows, target)
    return SpansReport(spans=(rank == target), rank=rank,
                       target_dim=target, shape=(target, len(rows)))


def linres_matrix(f: MultiPoly, m: int, e_prime: int):
    """Membership matrix for the colon of the pure powers by f, as (rows,
    nc): integer rows with nc columns.

    Rows are indexed by the degree-(e+e') monomials outside
    (x_1^m, ..., x_n^m), columns by the degree-e' monomials; the entry is
    the coefficient of f at the difference, f scaled once to integer
    coefficients (integer_terms), which keeps the rank and the kernel.  A
    degree-e' form g lies in (x_1^m, ..., x_n^m) : f exactly when the
    matrix kills its coefficient vector.
    """
    if f.is_zero():
        raise ValueError("zero form")
    if m < 1:
        raise ValueError("exponent m must be at least 1")
    n = f.n
    e = f.homogeneous_degree()
    # column beta is x^beta * f over the degree-(e+e') basis
    cols = shifted_vectors(n, e + e_prime, [(e, integer_terms(f))])
    rows = [list(row)
            for row, gamma in zip(zip(*cols), monomials_of_degree(n, e + e_prime))
            if all(g < m for g in gamma)]
    return rows, len(cols)


class LinresReport(namedtuple("LinresReport", "verdict s d rank required_rank "
                              "reason matrix_shape", defaults=(None,))):
    """verdict is "YES" or "NO"; matrix_shape, (rows, cols) of the
    membership matrix at e' = s/2, is not in as_dict."""
    __slots__ = ()

    def as_dict(self):
        return {
            "verdict": self.verdict,
            "s": self.s,
            "d": self.d,
            "rank": self.rank,
            "required_rank": self.required_rank,
            "reason": self.reason,
        }


def is_equigen_linres(f: MultiPoly, m: int) -> LinresReport:
    """Decide whether the colon of (x_1^m, ..., x_n^m) by f is an
    equigenerated Gorenstein ideal with linear resolution.

    Computes s = n(m-1) - deg f; an odd s is an immediate NO, otherwise
    the verdict is the full-rank test on the membership matrix at e' = s/2.
    A YES also pins the generation degree d = s/2 + 1.
    """
    if f.is_zero():
        raise ValueError("zero form")
    n = f.n
    e = f.homogeneous_degree()
    s = n * (m - 1) - e
    if s < 0:
        raise ValueError(f"degree {e} is too large for exponent m = {m}")
    if s % 2:
        return LinresReport("NO", s, None, None, None,
                            "s is odd, no linear-resolution degree exists")
    half = s // 2
    required = monomial_count(n, half)
    rows, nc = linres_matrix(f, m, half)
    rank = row_rank(f.field, rows, nc)
    shape = (len(rows), nc)
    if rank == required:
        return LinresReport("YES", s, half + 1, rank, required,
                            "membership matrix has full column rank", shape)
    return LinresReport("NO", s, None, rank, required,
                        f"membership matrix rank {rank} is below {required}", shape)


class QuadricsReport(namedtuple("QuadricsReport", "delta dee spans verdict")):
    """verdict is "GORENSTEIN" or "INCONCLUSIVE"."""
    __slots__ = ()

    def as_dict(self):
        return {
            "delta": str(self.delta),
            "dee": str(self.dee),
            "spans": self.spans,
            "verdict": self.verdict,
        }


def five_quadrics_certificate(quadrics) -> QuadricsReport:
    """Open-set certificate for five ternary quadrics.

    The coefficient vectors of the quadrics, over x^2, xy, xz, y^2, yz,
    z^2, are the rows of a 5 x 6 matrix Q, and its six maximal minors come
    from one elimination (linalg.maximal_minors): minor_j deletes column j.
    delta is minor_5, the determinant of the first five columns.  The
    vector (-1)^j minor_j = (d_1, ..., d_5, -delta) lies in the kernel of
    Q, so it holds the coefficients of a dual quadric F with I_2 o F = 0.
    The symmetric 3 x 3 arrangement of d_1..d_5 and -delta is Cat_1(F), and
    dee is det Cat_1(F).

    If both determinants are nonzero and the degree-1 multiples of the
    quadrics fill R_3, the ideal they generate is a codimension-3 Gorenstein
    ideal.  The span follows from the determinants, over every field:
    delta != 0 makes the quadrics a basis of F^perp in degree 2, and
    rank Cat_1(F) = 3 >= 2 then gives R_1 * I_2 = R_3
    (GradedIdeal.artinian_bound).  So the report's spans takes a rank
    (spans_target) only when delta * dee = 0, and the verdict is
    GORENSTEIN exactly when delta * dee != 0.  Any failure is
    INCONCLUSIVE, not a disproof.
    """
    quadrics = list(quadrics)
    if len(quadrics) != 5:
        raise ValueError("need exactly five quadrics")
    field = quadrics[0].field
    for q in quadrics:
        if q.n != 3:
            raise ValueError("quadrics must live in three variables")
        if q.is_zero() or q.homogeneous_degree() != 2:
            raise ValueError("inputs must be nonzero quadrics")
    minors = maximal_minors(field, [q.to_vector(2) for q in quadrics])
    delta = minors[5]
    d1, d2, d3, d4, d5 = (m if i % 2 == 0 else field.neg(m)
                          for i, m in enumerate(minors[:5]))
    sym = ExactMatrix(field, [
        [d1, d2, d3],
        [d2, d4, d5],
        [d3, d5, field.neg(delta)],
    ])
    dee = sym.det()
    nonzero = not field.is_zero(delta) and not field.is_zero(dee)
    return QuadricsReport(
        delta=delta,
        dee=dee,
        spans=nonzero or spans_target(quadrics, 1).spans,
        verdict="GORENSTEIN" if nonzero else "INCONCLUSIVE",
    )
