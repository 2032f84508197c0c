"""Graded pieces, subspaces of R_t kept as their canonical RREF over the
monomial basis (GradedPiece), and the integer rows that span them: shifted
generators, degree-one multiples and catalecticants.

Pieces, the rows built from them and the multiplication maps between them
are integer rows on both fields: the field turns each generator into an
integer term map once (integer_terms), a piece keeps the integer RREF of
linalg.rref_rows, and residuals are read off its linalg.normal_form.  Field
scalars cross only at GradedPiece.contains_vector/contains_poly and
vector_to_poly.

Macaulay duality lives here alone: catalecticant is the one builder of
catalecticant rows, whose ranks the Gorenstein certificate of ideals reads,
and whose kernels annihilator_pieces yields as the pieces of Ann(F) for
colons of pure powers and apolarity.annihilator.
"""

from __future__ import annotations

from math import gcd

from .fields import RationalField
from .linalg import _identity_rows, _residual, kernel_rows, normal_form, rref_rows
from .monomials import (monomial_count, monomial_index, monomials_of_degree,
                        product_table)
from .poly import MultiPoly


class GradedPiece:
    """Canonical basis of a subspace of R_t over the monomial basis.

    int_rows is the RREF of the subspace as integer rows: over QQ primitive
    rows with a positive pivot, as linalg.rref_int returns them, and over
    GF(p) leading-1 rows of residues.  Either form is unique for the
    subspace, so equal pieces have equal rows.
    """

    __slots__ = ("n", "t", "field", "pivots", "int_rows")

    def __init__(self, n, t, field, pivots, rows):
        """(pivots, rows): the integer RREF as linalg.rref_rows returns it."""
        self.n, self.t, self.field = n, t, field
        self.pivots, self.int_rows = pivots, rows

    @property
    def dim(self):
        return len(self.pivots)

    @property
    def ambient_dim(self):
        return monomial_count(self.n, self.t)

    @property
    def is_full(self):
        return self.dim == self.ambient_dim

    @property
    def standard_columns(self):
        pivots = set(self.pivots)
        return [c for c in range(self.ambient_dim) if c not in pivots]

    def contains_vector(self, vec) -> bool:
        """Whether the vector of field scalars lies in the span: its integer
        row has a zero residual on the normal form of the piece."""
        ints, _ = self.field.integer_row(vec)
        _, free, nf = normal_form(self.pivots, self.int_rows, len(ints))
        is_zero = self.field.is_zero
        return all(is_zero(v) for v in _residual(ints, nf, len(free)))

    def contains_poly(self, f) -> bool:
        if f.is_zero():
            return True
        if f.homogeneous_degree() != self.t:
            return False
        return self.contains_vector(f.to_vector(self.t))

    def __eq__(self, other):
        return (isinstance(other, GradedPiece) and self.n == other.n
                and self.t == other.t and self.field == other.field
                and self.pivots == other.pivots and self.int_rows == other.int_rows)

    def __repr__(self):
        return f"GradedPiece(t={self.t}, dim={self.dim}/{self.ambient_dim})"


def vector_to_poly(n, t, vec, field):
    """Coefficient vector (field scalars, or integers over QQ) -> polynomial,
    scaled primitive over QQ."""
    if isinstance(field, RationalField):
        ints, _ = field.integer_row(vec)
        g = gcd(*ints)
        if g:
            if next(v for v in ints if v) < 0:
                g = -g
            vec = [v // g for v in ints]
    return MultiPoly.from_vector(n, t, vec, field)


def integer_span(n, t, rows, field, profile=None) -> GradedPiece:
    """The piece spanned by integer rows: over QQ scaled rows, over GF(p)
    any integers standing for their residues.  profile is their row rank
    profile when the caller has it (linalg.rref_rows)."""
    if not rows:
        return zero_piece(n, t, field)
    return GradedPiece(n, t, field,
                       *rref_rows(field, rows, monomial_count(n, t), profile))


def full_piece(n, t, field) -> GradedPiece:
    dim = monomial_count(n, t)
    return GradedPiece(n, t, field, list(range(dim)), _identity_rows(dim))


def zero_piece(n, t, field) -> GradedPiece:
    return GradedPiece(n, t, field, [], [])


def dual_vector(piece: GradedPiece):
    """The primitive integer vector orthogonal to every row of a piece of
    codimension one: the coefficients of the dual form F of degree piece.t
    with g o F = 0 for every g in the piece, x^a o Y^[a] being 1.  It is the
    one column of the piece's linalg.normal_form."""
    _, _, nf = normal_form(piece.pivots, piece.int_rows, piece.ambient_dim)
    vec = [image[0] for image in nf]
    g = gcd(*vec)
    return [v // g for v in vec]


def catalecticant(n, s, F, t):
    """Cat_t(F), the matrix of contraction R_t -> D_{s-t} against the dual
    form F of degree s, given as its integer coefficient vector over the
    monomials of degree s.  x^alpha contracts F onto y^[gamma] with the
    coefficient of F at alpha + gamma, so the row of gamma reads F at the
    positions product_table(n, s - t, t)[gamma]; its kernel is Ann(F)_t."""
    return [[F[j] for j in row] for row in product_table(n, s - t, t)]


def annihilator_pieces(n, s, terms, field):
    """The pieces Ann(F)_t, t = 0, 1, ..., s + 1, of the nonzero dual form F
    of degree s with the integer term map terms (integer_terms): the kernel
    of Cat_t(F) for t <= s, then all of R_{s+1}."""
    idx = monomial_index(n, s)
    F = [0] * len(idx)
    for beta, c in terms.items():
        F[idx[beta]] = c
    for t in range(s + 1):
        kernel, _ = kernel_rows(field, catalecticant(n, s, F, t), monomial_count(n, t))
        yield integer_span(n, t, kernel, field)
    yield full_piece(n, s + 1, field)


def degree_one_multiples(piece: GradedPiece):
    """Integer vectors of x_i * b for every row b of piece.int_rows, the
    variables innermost."""
    src = monomials_of_degree(piece.n, piece.t)
    forms = [(piece.t, {src[c]: v for c, v in enumerate(row) if v})
             for row in piece.int_rows]
    return shifted_vectors(piece.n, piece.t + 1, forms)


def fresh_rows(piece: GradedPiece, below):
    """Indices of the rows of piece outside R_1 * below, below being the
    piece one degree lower or None.

    Row i is kept when it lies outside the span of the degree-one multiples
    of below and rows 0..i-1.  The multiples lie inside piece, so each is
    fixed by its coordinates in the basis int_rows, its entries at
    piece.pivots divided by the pivot entries; that column scaling moves no
    pivot, so the entries themselves serve.  Row i is then not kept exactly
    when some vector in the span of the coordinates has its last nonzero
    entry at i.  With the coordinates reversed, those positions are the
    pivots of their RREF.
    """
    last = piece.dim - 1
    if below is None or not below.dim or last < 0:
        return list(range(piece.dim))
    coords = [[vec[p] for p in reversed(piece.pivots)]
              for vec in degree_one_multiples(below)]
    taken = {last - c for c in rref_rows(piece.field, coords, piece.dim)[0]}
    return [i for i in range(piece.dim) if i not in taken]


def fresh_generators(piece: GradedPiece, below):
    """The rows of piece outside R_1 * below, as forms."""
    return [vector_to_poly(piece.n, piece.t, piece.int_rows[i], piece.field)
            for i in fresh_rows(piece, below)]


def integer_terms(f):
    """The term map of the nonzero form f (a polynomial or a dual form), its
    coefficients made integers by the field (over QQ, multiplied by the lcm
    of their denominators), so that the rows built from it are integer rows.
    poly._term_product multiplies such maps in either field: QQ's arithmetic
    keeps integers integers, and GF(p)'s coefficients are residues."""
    ints, _ = f.field.integer_row(list(f.terms.values()))
    return dict(zip(f.terms, ints))


def shifted_vectors(n, t, gens_with_terms):
    """Coefficient vectors of x^alpha * g for all generators g, given as
    (degree, term map) pairs, of degree <= t and all monomials alpha of
    complementary degree, alpha in the canonical order; each term of g is
    placed through product_table."""
    dim = monomial_count(n, t)
    out = []
    for deg_g, terms in gens_with_terms:
        if deg_g > t:
            continue
        idx = monomial_index(n, deg_g)
        placed = [(idx[e], c) for e, c in terms.items()]
        for row in product_table(n, t - deg_g, deg_g):
            vec = [0] * dim
            for j, c in placed:
                vec[row[j]] = c
            out.append(vec)
    return out
