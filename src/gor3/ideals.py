"""Homogeneous ideals queried degree by degree.

All ideal questions (Hilbert function, minimal generators, colon ideals,
socle, powers, membership) reduce to exact linear algebra on graded pieces:
the degree-t piece of an ideal is the row space of the shifted-generator
coefficient vectors over the canonical monomial basis.  Equality of ideals
always means equality of graded pieces through the relevant Artinian bound.
"""

from __future__ import annotations

import itertools
import random
from dataclasses import dataclass
from fractions import Fraction
from math import gcd

from .fields import QQ, RationalField
from .linalg import ExactMatrix, rref_mod
from .monomials import mono_mul, monomial_count, monomial_index, monomials_of_degree
from .poly import MultiPoly


# The word-size (31-bit) prime of the fullness certificate for QQ pieces.
CERTIFICATE_PRIME = 2147483647


class NotArtinianError(ValueError):
    pass


class NotEquigeneratedError(ValueError):
    pass


class DatumViolationError(ValueError):
    pass


class GradedPiece:
    """Canonical (RREF) basis of a subspace of R_t over the monomial basis."""

    __slots__ = ("n", "t", "field", "pivots", "rows", "pivot_map")

    def __init__(self, n, t, field, pivots, rows):
        self.n = n
        self.t = t
        self.field = field
        self.pivots = list(pivots)
        self.rows = [list(r) for r in rows]
        self.pivot_map = {p: k for k, p in enumerate(self.pivots)}

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
        pm = self.pivot_map
        return [c for c in range(self.ambient_dim) if c not in pm]

    def reduce_vector(self, vec):
        """Residual of vec modulo the span; zero iff vec lies in the span."""
        field = self.field
        out = list(vec)
        for k, p in enumerate(self.pivots):
            c = out[p]
            if field.is_zero(c):
                continue
            row = self.rows[k]
            for j in range(p, len(out)):
                v = row[j]
                if not field.is_zero(v):
                    out[j] = field.sub(out[j], field.mul(c, v))
        return out

    def contains_vector(self, vec) -> bool:
        field = self.field
        return all(field.is_zero(v) for v in self.reduce_vector(vec))

    def contains_poly(self, f) -> bool:
        if f.is_zero():
            return True
        if f.homogeneous_degree() != self.t:
            return False
        return self.contains_vector(f.to_vector(self.t))

    def reduce_monomial_std(self, col):
        """Image of the col-th basis monomial in the quotient, as a vector
        over the standard (non-pivot) columns."""
        field = self.field
        std = self.standard_columns
        k = self.pivot_map.get(col)
        if k is None:
            return [field.one if c == col else field.zero for c in std]
        row = self.rows[k]
        return [field.neg(row[c]) for c in std]

    def __eq__(self, other):
        return (isinstance(other, GradedPiece) and self.n == other.n
                and self.t == other.t and self.field == other.field
                and self.pivots == other.pivots and self.rows == other.rows)

    def __repr__(self):
        return f"GradedPiece(t={self.t}, dim={self.dim}/{self.ambient_dim})"


def vector_to_poly(n, t, vec, field):
    """Coefficient vector -> polynomial, scaled primitive over QQ."""
    if isinstance(field, RationalField):
        lcm = 1
        for v in vec:
            d = v.denominator
            lcm = lcm // gcd(lcm, d) * d
        ints = [int(v * lcm) for v in vec]
        g = 0
        for v in ints:
            if v:
                g = gcd(g, v)
        if g:
            lead = next(v for v in ints if v)
            if lead < 0:
                g = -g
            vec = [Fraction(v // g) for v in ints]
    return MultiPoly.from_vector(n, t, vec, field)


def span_of_vectors(n, t, vectors, field) -> GradedPiece:
    if not vectors:
        return GradedPiece(n, t, field, [], [])
    pivots, rows = ExactMatrix(field, vectors).rref()
    return GradedPiece(n, t, field, pivots, rows)


def full_piece(n, t, field) -> GradedPiece:
    dim = monomial_count(n, t)
    one, zero = field.one, field.zero
    rows = [[one if j == i else zero for j in range(dim)] for i in range(dim)]
    return GradedPiece(n, t, field, list(range(dim)), rows)


def zero_piece(n, t, field) -> GradedPiece:
    return GradedPiece(n, t, field, [], [])


class _Span:
    """Incremental echelon span used for minimal-generator extraction."""

    def __init__(self, field, length):
        self.field = field
        self.length = length
        self.rows = {}

    def residual(self, vec):
        field = self.field
        v = list(vec)
        i = 0
        while i < self.length:
            c = v[i]
            if field.is_zero(c):
                i += 1
                continue
            row = self.rows.get(i)
            if row is None:
                return v, i
            for j in range(i, self.length):
                w = row[j]
                if not field.is_zero(w):
                    v[j] = field.sub(v[j], field.mul(c, w))
            i += 1
        return v, None

    def add(self, vec) -> bool:
        """Insert vec; returns True if it enlarged the span."""
        v, lead = self.residual(vec)
        if lead is None:
            return False
        field = self.field
        inv = field.inv(v[lead])
        self.rows[lead] = [field.mul(inv, x) for x in v]
        return True


def degree_one_multiples(piece: GradedPiece, field):
    """Vectors of x_i * b for every b in the basis of the given piece."""
    n, t = piece.n, piece.t
    src = monomials_of_degree(n, t)
    idx = monomial_index(n, t + 1)
    dim = monomial_count(n, t + 1)
    zero = field.zero
    out = []
    for row in piece.rows:
        for i in range(n):
            vec = [zero] * dim
            for c, v in enumerate(row):
                if not field.is_zero(v):
                    e = list(src[c])
                    e[i] += 1
                    vec[idx[tuple(e)]] = v
            out.append(vec)
    return out


def _fresh_generators(piece: GradedPiece, below):
    """The rows of piece outside R_1 * below, as forms: the degree-one
    multiples of below enter a greedy span first, then the rows of piece in
    order, and a row is kept when it enlarges the span."""
    if not piece.dim:
        return []
    field = piece.field
    span = _Span(field, piece.ambient_dim)
    if below is not None:
        for vec in degree_one_multiples(below, field):
            span.add(vec)
    return [vector_to_poly(piece.n, piece.t, row, field)
            for row in piece.rows if span.add(row)]


def _shifted_vectors(n, t, gens_with_vecs, zero):
    """Coefficient vectors of x^alpha * g for all generators g of degree
    <= t and all monomials alpha of complementary degree."""
    idx = monomial_index(n, t)
    dim = monomial_count(n, t)
    out = []
    for deg_g, terms in gens_with_vecs:
        if deg_g > t:
            continue
        for alpha in monomials_of_degree(n, t - deg_g):
            vec = [zero] * dim
            for e, c in terms:
                vec[idx[mono_mul(alpha, e)]] = c
            out.append(vec)
    return out


class GradedIdeal:
    """Homogeneous ideal given by generators, queried per degree."""

    def __init__(self, n, generators, field=QQ, truncated_at=None):
        self.n = n
        self.field = field
        gens = []
        for g in generators:
            if not isinstance(g, MultiPoly):
                raise TypeError("generators must be MultiPoly")
            if g.n != n or g.field != field:
                raise ValueError("generator in a different ring")
            if g.is_zero():
                raise ValueError("zero generator")
            if not g.is_homogeneous():
                raise ValueError(f"generator {g} is not homogeneous")
            gens.append(g)
        self.generators = gens
        self.truncated_at = truncated_at
        self._pieces = {}
        self._artinian_bound = None
        self._gen_data = [(g.homogeneous_degree(), tuple(g.terms.items()))
                          for g in gens]

    @classmethod
    def from_pieces(cls, n, pieces, field, truncated_at=None):
        """The ideal whose degree-t piece is the t-th of pieces, t = 0, 1, ...

        Pieces are read lazily up to and including the first full one; every
        piece read seeds the cache, and a full piece also fixes the Artinian
        bound.  The minimal generators are the rows of each piece outside
        R_1 times the piece below.
        """
        gens, seeded = [], {}
        bound = below = None
        for t, piece in enumerate(pieces):
            gens.extend(_fresh_generators(piece, below))
            seeded[t] = piece
            if piece.is_full:
                # R_1 * R_{t-1} = R_t: nothing new can appear from here on
                bound = t
                break
            below = piece
        ideal = cls(n, gens, field, truncated_at=truncated_at)
        ideal._pieces = seeded
        ideal._artinian_bound = bound
        return ideal

    @classmethod
    def from_strings(cls, texts, var_names=("x", "y", "z"), field=QQ):
        from .parsing import parse_poly

        names = list(var_names)
        gens = [parse_poly(s, names, field) for s in texts]
        return cls(len(names), gens, field)

    @property
    def max_generator_degree(self):
        return max((d for d, _ in self._gen_data), default=0)

    def graded_piece(self, t) -> GradedPiece:
        if t < 0:
            raise ValueError("degree must be non-negative")
        piece = self._pieces.get(t)
        if piece is None:
            below = self._pieces.get(t - 1)
            if (below is not None and below.is_full) or self._proved_full(t):
                # R_1 * R_{t-1} = R_t above a full piece
                piece = full_piece(self.n, t, self.field)
            else:
                vecs = _shifted_vectors(self.n, t, self._gen_data, self.field.zero)
                piece = span_of_vectors(self.n, t, vecs, self.field)
            self._pieces[t] = piece
        return piece

    def _proved_full(self, t) -> bool:
        """Over QQ, True when I_t = R_t is proved modulo CERTIFICATE_PRIME.

        Each generator is scaled to an integer form, so the shifted rows are
        integer vectors with the same span over QQ.  The rank of an integer
        matrix modulo p is at most its rank over QQ, so full rank mod p proves
        the piece full.  False proves nothing; the piece is then eliminated
        exactly.  Fewer rows than dim R_t can never be full, so no rows are
        reduced then."""
        if not isinstance(self.field, RationalField):
            return False
        n = self.n
        dim = monomial_count(n, t)
        rows = sum(monomial_count(n, t - d) for d, _ in self._gen_data if d <= t)
        if rows < dim:
            return False
        p = CERTIFICATE_PRIME
        gens = []
        for d, terms in self._gen_data:
            lcm = 1
            for _, c in terms:
                lcm = lcm // gcd(lcm, c.denominator) * c.denominator
            gens.append((d, [(e, c.numerator * (lcm // c.denominator) % p)
                             for e, c in terms]))
        pivots, _ = rref_mod(_shifted_vectors(n, t, gens, 0), p)
        return len(pivots) == dim

    def hilbert_function(self, t) -> int:
        if t < 0:
            return 0
        return monomial_count(self.n, t) - self.graded_piece(t).dim

    def default_cap(self) -> int:
        return 4 * max(self.max_generator_degree, 1) * self.n

    def artinian_bound(self, cap=None) -> int:
        """Least t with (R/I)_t = 0.

        Without a cap the answer is exact.  An m-primary ideal generated in
        degrees <= D contains a regular sequence of n forms of degree D, hence
        all of R_{n(D-1)+1} (Eisenbud, Commutative Algebra, ch. 21; Hilbert
        functions do not change under field extension).  A nonzero Hilbert
        value at n(D-1)+1 therefore proves I is not Artinian, and the error
        names default_cap(), up to which no value vanishes either.  An
        explicit cap searches up to that degree only.
        """
        if self._artinian_bound is not None:
            return self._artinian_bound
        last = cap
        if cap is None:
            last = self.n * (max(self.max_generator_degree, 1) - 1) + 1
            cap = self.default_cap()
        for t in range(last + 1):
            if self.hilbert_function(t) == 0:
                self._artinian_bound = t
                return t
        raise NotArtinianError(
            f"not Artinian within cap (no vanishing Hilbert value up to t={cap})")

    def is_artinian(self, cap=None) -> bool:
        try:
            self.artinian_bound(cap)
            return True
        except NotArtinianError:
            return False

    def hilbert_series_table(self, t_max=None):
        if t_max is None:
            t_max = self.artinian_bound() - 1
        return [self.hilbert_function(t) for t in range(t_max + 1)]

    def minimal_generator_profile(self, t_max=None) -> dict:
        """degree -> number of minimal generators in that degree."""
        if t_max is None:
            t_max = self.max_generator_degree
        profile = {}
        for t in range(1, t_max + 1):
            below = span_of_vectors(
                self.n, t, degree_one_multiples(self.graded_piece(t - 1), self.field),
                self.field)
            fresh = self.graded_piece(t).dim - below.dim
            if fresh:
                profile[t] = fresh
        return profile

    def minimal_generators(self, t_max=None):
        """A minimal generating set extracted from the graded pieces."""
        if t_max is None:
            t_max = self.max_generator_degree
        gens = []
        for t in range(1, t_max + 1):
            piece = self.graded_piece(t)
            if piece.dim:
                gens.extend(_fresh_generators(piece, self.graded_piece(t - 1)))
        return gens

    def is_equigenerated(self):
        profile = self.minimal_generator_profile()
        if len(profile) != 1:
            return None
        return next(iter(profile.items()))

    # ------------------------------------------------------------------
    # colon ideals

    def _colon_piece(self, t, f, e) -> GradedPiece:
        """(I : f)_t as the kernel of multiplication by f into (R/I)_{t+e}."""
        n, field = self.n, self.field
        target = self.graded_piece(t + e)
        if target.is_full:
            return full_piece(n, t, field)
        if target.dim == 0:
            # multiplication by a nonzero form is injective on R_t
            return zero_piece(n, t, field)
        dim_t = monomial_count(n, t)
        dim_target = monomial_count(n, t + e)
        idx = monomial_index(n, t + e)
        zero = field.zero
        cols = []
        for gamma in monomials_of_degree(n, t):
            vec = [zero] * dim_target
            for alpha, c in f.terms.items():
                vec[idx[mono_mul(gamma, alpha)]] = c
            cols.append(vec)
        for row in target.rows:
            cols.append(list(row))
        matrix = ExactMatrix(field,
                             [[cols[j][i] for j in range(len(cols))]
                              for i in range(dim_target)])
        kernel = matrix.kernel_basis()
        return span_of_vectors(n, t, [v[:dim_t] for v in kernel], field)

    def _pure_power_exponents(self):
        """(m_1, ..., m_n) when the generators are c_i * x_i^{m_i}, exactly
        one pure power per variable in any order; otherwise None."""
        if len(self._gen_data) != self.n:
            return None
        m = [0] * self.n
        for _, terms in self._gen_data:
            if len(terms) != 1:
                return None
            (exps, _), = terms
            support = [i for i, x in enumerate(exps) if x]
            if len(support) != 1 or m[support[0]]:
                return None
            m[support[0]] = exps[support[0]]
        return m

    def colon(self, f: MultiPoly, t_max=None) -> "GradedIdeal":
        """The ideal (I : f), complete when I is Artinian.

        Pure powers (x_1^{m_1}, ..., x_n^{m_n}) with no t_max are Ann(X^[m-1])
        in Macaulay duality, so their colon is Ann(f o X^[m-1]), read off
        catalecticant kernels.  Every other base, and any explicit t_max, goes
        through the kernel of multiplication by f into R/I, degree by degree.
        Both give the canonical RREF of each piece and so the same generators.

        For non-Artinian I an explicit t_max is required and the result is
        marked as truncated at that degree.
        """
        if f.is_zero():
            raise ValueError("colon by the zero form")
        if not f.is_homogeneous():
            raise ValueError("colon by a non-homogeneous form")
        if t_max is None:
            m = self._pure_power_exponents()
            if m is not None:
                from .apolarity import InverseForm, annihilator, contract

                dual = InverseForm(self.n, {tuple(x - 1 for x in m): self.field.one},
                                   self.field)
                F = contract(f, dual)
                if F.is_zero():
                    # f lies in the pure powers
                    return GradedIdeal.from_pieces(
                        self.n, [full_piece(self.n, 0, self.field)], self.field)
                return annihilator(F)
        e = f.homogeneous_degree()
        truncated = None
        if t_max is None:
            t_max = self.artinian_bound()
        elif not self.is_artinian() or t_max < self.artinian_bound():
            truncated = t_max
        return GradedIdeal.from_pieces(
            self.n, (self._colon_piece(t, f, e) for t in range(t_max + 1)),
            self.field, truncated_at=truncated)

    # ------------------------------------------------------------------
    # socle

    def _socle_piece(self, t) -> GradedPiece:
        """{g in R_t : x_i g in I_{t+1} for all i}."""
        n, field = self.n, self.field
        above = self.graded_piece(t + 1)
        if above.is_full:
            return full_piece(n, t, field)
        dim_t = monomial_count(n, t)
        std = above.standard_columns
        idx = monomial_index(n, t + 1)
        columns = []
        for gamma in monomials_of_degree(n, t):
            col = []
            for i in range(n):
                e = list(gamma)
                e[i] += 1
                col.extend(above.reduce_monomial_std(idx[tuple(e)]))
            columns.append(col)
        height = n * len(std)
        rows = [[columns[j][i] for j in range(dim_t)] for i in range(height)]
        matrix = ExactMatrix(field, rows, cols=dim_t)
        return span_of_vectors(n, t, matrix.kernel_basis(), field)

    def socle_report(self, cap=None) -> "SocleReport":
        bound = self.artinian_bound(cap)
        if bound == 0:
            raise ValueError("the unit ideal has no socle (R/I = 0)")
        dims = {}
        for t in range(bound):
            sdim = self._socle_piece(t).dim - self.graded_piece(t).dim
            if sdim:
                dims[t] = sdim
        total = sum(dims.values())
        return SocleReport(
            socle_dims=dims,
            socle_degree=max(dims),
            is_gorenstein=(total == 1),
            artinian_bound=bound,
        )

    # ------------------------------------------------------------------
    # virtual datum

    def virtual_datum(self) -> "VirtualDatum":
        eq = self.is_equigenerated()
        if eq is None:
            raise NotEquigeneratedError(
                f"minimal generators spread over degrees "
                f"{sorted(self.minimal_generator_profile())}")
        d, r = eq
        if d < 2:
            raise DatumViolationError(f"generation degree {d} is below 2")
        if r < 3 or r % 2 == 0:
            raise DatumViolationError(
                f"generator count {r} is not an odd integer >= 3")
        half = (r - 1) // 2
        if d % half != 0:
            raise DatumViolationError(
                f"(r-1)/2 = {half} does not divide d = {d}")
        return VirtualDatum(d=d, r=r, d_prime=2 * d // (r - 1))

    # ------------------------------------------------------------------
    # powers

    def power_piece(self, k, t) -> GradedPiece:
        """Graded piece (I^k)_t."""
        if k < 1:
            raise ValueError("power must be >= 1")
        if k == 1:
            return self.graded_piece(t)
        products = []
        for combo in itertools.combinations_with_replacement(
                range(len(self.generators)), k):
            prod = self.generators[combo[0]]
            for j in combo[1:]:
                prod = prod * self.generators[j]
            if prod.homogeneous_degree() <= t:
                products.append((prod.homogeneous_degree(),
                                 tuple(prod.terms.items())))
        vecs = _shifted_vectors(self.n, t, products, self.field.zero)
        return span_of_vectors(self.n, t, vecs, self.field)

    # ------------------------------------------------------------------
    # equality and membership

    def contains(self, f: MultiPoly) -> bool:
        if f.is_zero():
            return True
        if not f.is_homogeneous():
            raise ValueError("membership is tested degree by degree")
        return self.graded_piece(f.homogeneous_degree()).contains_poly(f)

    def equals(self, other: "GradedIdeal", t_max=None) -> bool:
        """Graded-piece equality through the joint Artinian bound (or t_max)."""
        if self.n != other.n or self.field != other.field:
            return False
        if t_max is None:
            t_max = max(self.artinian_bound(), other.artinian_bound())
        return all(self.graded_piece(t) == other.graded_piece(t)
                   for t in range(t_max + 1))

    def __repr__(self):
        gens = ", ".join(str(g) for g in self.generators)
        return f"GradedIdeal({gens})"


@dataclass
class SocleReport:
    socle_dims: dict
    socle_degree: int
    is_gorenstein: bool
    artinian_bound: int

    def as_dict(self):
        return {
            "socle_dims": {str(k): v for k, v in sorted(self.socle_dims.items())},
            "socle_degree": self.socle_degree,
            "is_gorenstein": self.is_gorenstein,
            "artinian_bound": self.artinian_bound,
        }


@dataclass
class VirtualDatum:
    d: int
    r: int
    d_prime: int

    def as_tuple(self):
        return (self.d, self.r, self.d_prime)

    def as_dict(self):
        return {"d": self.d, "r": self.r, "d_prime": self.d_prime}


@dataclass
class ReductionReport:
    reduction_number_is_two: bool
    ji_equals_i2: bool
    ji2_equals_i3: bool
    seed: int
    attempts: int

    def __bool__(self):
        return self.reduction_number_is_two

    def as_dict(self):
        return {
            "reduction_number_is_two": self.reduction_number_is_two,
            "ji_equals_i2": self.ji_equals_i2,
            "ji2_equals_i3": self.ji2_equals_i3,
            "seed": self.seed,
            "attempts": self.attempts,
        }


# ----------------------------------------------------------------------
# module-level operation aliases

def ideal_graded_piece(I: GradedIdeal, t) -> GradedPiece:
    return I.graded_piece(t)


def hilbert_function(I: GradedIdeal, t) -> int:
    return I.hilbert_function(t)


def minimal_generator_profile(I: GradedIdeal, t_max=None) -> dict:
    return I.minimal_generator_profile(t_max)


def colon_form(I: GradedIdeal, f: MultiPoly, t_max=None) -> GradedIdeal:
    return I.colon(f, t_max)


def socle_report(I: GradedIdeal, cap=None) -> SocleReport:
    return I.socle_report(cap)


def virtual_datum(I: GradedIdeal) -> VirtualDatum:
    return I.virtual_datum()


def ideal_power_piece(I: GradedIdeal, k, t) -> GradedPiece:
    return I.power_piece(k, t)


def pure_power_ideal(lines, exponents, field=None) -> GradedIdeal:
    """(l_1^{m_1}, ..., l_n^{m_n}) for independent linear forms."""
    lines = list(lines)
    n = lines[0].n
    if field is None:
        field = lines[0].field
    _check_independent_lines(lines)
    if len(exponents) != len(lines):
        raise ValueError("one exponent per linear form")
    gens = [ell ** m for ell, m in zip(lines, exponents)]
    return GradedIdeal(n, gens, field)


def variable_lines(n, field=QQ):
    return [MultiPoly.variable(i, n, field) for i in range(n)]


def variable_power_ideal(n, m, field=QQ) -> GradedIdeal:
    """(x_1^m, ..., x_n^m)."""
    return pure_power_ideal(variable_lines(n, field), [m] * n, field)


def _check_independent_lines(lines):
    n = lines[0].n
    if len(lines) != n:
        raise ValueError(f"need exactly {n} linear forms")
    field = lines[0].field
    rows = []
    for ell in lines:
        if ell.is_zero() or ell.homogeneous_degree() != 1:
            raise ValueError("expected nonzero linear forms")
        rows.append(ell.to_vector(1))
    if ExactMatrix(field, rows).rank() != n:
        raise ValueError("linear forms are not independent")


def pure_power_index(I: GradedIdeal, lines) -> int:
    """Least m with every l_i^m in I."""
    _check_independent_lines(lines)
    bound = I.artinian_bound()
    result = 1
    for ell in lines:
        m = 1
        power = ell
        while not I.contains(power):
            m += 1
            if m > bound:
                raise RuntimeError("pure power index exceeded the Artinian bound")
            power = power * ell
        result = max(result, m)
    return result


def pure_power_gap(I: GradedIdeal, lines) -> int:
    """Socle degree + 1 minus the pure power index."""
    s = I.socle_report().socle_degree
    return s + 1 - pure_power_index(I, lines)


def colon_iteration_check(lines, exponents, f: MultiPoly, i: int) -> bool:
    """Colon by f versus colon by l_i*f after bumping the i-th exponent;
    the two must agree as graded ideals."""
    lines = list(lines)
    if not 0 <= i < len(lines):
        raise ValueError("line index out of range")
    left = pure_power_ideal(lines, exponents).colon(f)
    bumped = list(exponents)
    bumped[i] += 1
    right = pure_power_ideal(lines, bumped).colon(lines[i] * f)
    return left.equals(right)


def check_reduction_two(I: GradedIdeal, seed, retries=5) -> ReductionReport:
    """Seeded check that three general combinations J of the generators
    satisfy J*I^2 = I^3 while J*I != I^2."""
    eq = I.is_equigenerated()
    if eq is None:
        raise NotEquigeneratedError("reduction check needs an equigenerated ideal")
    d, _ = eq
    if I.n != 3:
        raise ValueError("reduction check is implemented for three variables")
    I.artinian_bound()
    rng = random.Random(seed)
    gens = I.generators
    attempts = 0
    while attempts < retries:
        attempts += 1
        combos = []
        for _ in range(3):
            combo = MultiPoly.zero(I.n, I.field)
            for g in gens:
                c = rng.randint(-10, 10)
                if c:
                    combo = combo + g.scale(c)
            combos.append(combo)
        if any(c.is_zero() for c in combos):
            continue
        J = GradedIdeal(I.n, combos, I.field)
        if not J.is_artinian(cap=3 * (d - 1) + 2):
            continue
        ji = _product_span(J.generators, gens, I, 2 * d)
        i2 = I.power_piece(2, 2 * d)
        ji_eq = ji.dim == i2.dim
        pairs = [a * b for a, b in
                 itertools.combinations_with_replacement(gens, 2)]
        ji2 = _product_span(J.generators, pairs, I, 3 * d)
        i3 = I.power_piece(3, 3 * d)
        ji2_eq = ji2.dim == i3.dim
        return ReductionReport(
            reduction_number_is_two=(ji2_eq and not ji_eq),
            ji_equals_i2=ji_eq,
            ji2_equals_i3=ji2_eq,
            seed=seed,
            attempts=attempts,
        )
    raise RuntimeError(
        f"could not find a height-3 reduction in {retries} seeded attempts")


def _product_span(j_gens, factors, I, t):
    data = []
    for j in j_gens:
        for g in factors:
            p = j * g
            if not p.is_zero() and p.homogeneous_degree() == t:
                data.append((t, tuple(p.terms.items())))
    vecs = _shifted_vectors(I.n, t, data, I.field.zero)
    return span_of_vectors(I.n, t, vecs, I.field)
