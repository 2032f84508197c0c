"""Homogeneous ideals queried degree by degree.

All ideal questions (Hilbert function, minimal generators, colon ideals,
socle, powers, membership) reduce to exact linear algebra on graded pieces:
the degree-t piece of an ideal is the row space of the shifted-generator
coefficient vectors over the canonical monomial basis.  Equality of ideals
always means equality of graded pieces through the relevant Artinian bound.
That bound is exact, with no search cap: an ideal generated in degrees <= D
is Artinian exactly when its degree n(D-1)+1 piece is full.  It is walked on
row rank profiles mod p.  A Gorenstein ideal is certified to be Ann(F), by
Macaulay duality, from the one exact piece in its socle degree (_certify):
by the walk at a value 1 when H(1) >= 2, with no piece below it and no
profile above it, and by socle_report on the exact values of any other
complete ideal, with no multiplication map.  The walk reduces each row
forward once: the echelon form its profile pass keeps finishes a GF(p)
piece by back-substitution (_upper_hilbert).

GradedPiece and the builders of its rows (shifted generators, catalecticants,
the pieces of Ann(F)) live in pieces; this module keeps the pieces an ideal
has built (_pieces, _power_pieces) and what it knows short of them (_Walk),
and asks them questions.  Minimal generators are read off them once per
ideal; an ideal made from its pieces (colons, Ann(F)) reads them on first use.
Powers of I, J * I and J * I^2 follow one product rule (_rows_times):
(I * B)_t = sum of g * B_{t - deg g} over the generators g, which is I's
own piece I_t when every B_{t - deg g} is full; else its rows g * b come
from poly._term_product, the one product of the package.  A power is kept
as a piece, J * I and J * I^2 as ranks.
"""

from __future__ import annotations

import itertools
import random
from collections import Counter, namedtuple

from .fields import QQ
from .linalg import kernel_rref, normal_form, row_profile, row_rank, rref_rows
from .monomials import monomial_count, monomials_of_degree, product_table
from .parsing import parse_poly
from .pieces import (GradedPiece, annihilator_pieces, catalecticant, dual_vector,
                     fresh_generators, full_piece, integer_span, integer_terms,
                     shifted_vectors)
from .poly import MultiPoly, _term_product


# seeded draws of J that check_reduction_two makes before it gives up
REDUCTION_RETRIES = 5


class NotArtinianError(ValueError):
    pass


class NotEquigeneratedError(ValueError):
    pass


class DatumViolationError(ValueError):
    pass


def _generator_data(gens, field):
    """(degree, integer term map) of each generator, in the order the walk
    shifts them."""
    gen_data = [(g.homogeneous_degree(), integer_terms(g)) for g in gens]
    if field == QQ:
        # Lightest generators first, by the squared norm of their integer
        # coefficients, which every row they shift shares.  The walk's row
        # profile is a greedy pass, so over rows in this order it keeps a
        # basis of least height (Rado-Edmonds), and by Hadamard's inequality
        # that basis has the smallest bound on every minor the exact Bareiss
        # pass forms, the last pivot included.  The sort is stable and every
        # piece is a canonical RREF, so no answer moves.  Over GF(p) rows are
        # residues whose size costs nothing.
        gen_data.sort(key=lambda gd: sum(c * c for c in gd[1].values()))
    return gen_data


class _Walk:
    """What an ideal knows of H short of its pieces: rows, t -> (rows,
    row_profile) the walk left for graded_piece, none at or above the bound;
    values, H(0..bound-1) once exact; bound; tried, (values, answer) of _certify."""
    __slots__ = ("rows", "values", "bound", "tried")

    def __init__(self):
        self.rows = {}
        self.values = None
        self.bound = None
        self.tried = (None, False)


class GradedIdeal:
    """Homogeneous ideal given by generators, queried per degree."""

    def __init__(self, n, generators, field=QQ):
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
        self._gens = gens
        # minimal_generators, once derived
        self._minimal = None
        # the last degree from_pieces read, when no piece it read was full
        self.truncated_at = None
        self._pieces = {}
        # (k, t) -> (I^k)_t for k >= 2, as power_piece built it
        self._power_pieces = {}
        self._walk = _Walk()
        self._gen_data_list = _generator_data(gens, field)

    @property
    def generators(self):
        """The generators as given, or for a from_pieces ideal its minimal
        generators, derived on first read."""
        return self.minimal_generators() if self._gens is None else self._gens

    @property
    def _gen_data(self):
        """(degree, integer term map) of each generator, in the walk's order
        (_generator_data), derived with the generators on first read."""
        if self._gen_data_list is None:
            self._gen_data_list = _generator_data(self.generators, self.field)
        return self._gen_data_list

    @classmethod
    def from_pieces(cls, n, pieces, field):
        """The ideal whose degree-t piece is the t-th of pieces, t = 0, 1, ...

        Pieces are read up to and including the first full one, whose degree
        is then the Artinian bound; pieces that run out first leave the ideal
        truncated_at the last degree read.  Every piece read seeds the cache.
        The minimal generators (generators, _gen_data) are derived from the
        seeded pieces on first read.  equals, contains, socle_report and the
        seeded pieces never read them; a piece above the seeded ones, which
        only a truncated ideal builds, does.
        """
        ideal = cls(n, [], field)
        top = -1
        for top, piece in enumerate(pieces):
            ideal._pieces[top] = piece
            if piece.is_full:
                # R_1 * R_{t-1} = R_t: nothing new can appear from here on
                ideal._walk.bound = top
                break
        else:
            ideal.truncated_at = top
        ideal._gens = ideal._gen_data_list = None
        return ideal

    @classmethod
    def from_strings(cls, texts, var_names=("x", "y", "z"), field=QQ):
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
            below, bound = self._pieces.get(t - 1), self._walk.bound
            if bound is not None and t >= bound or below is not None and below.is_full:
                # R_1 * R_{t-1} = R_t at the bound and above a full piece
                piece = full_piece(self.n, t, self.field)
            else:
                rows, echelon = self._walk.rows.pop(t, (None, None))
                if rows is None:
                    rows = shifted_vectors(self.n, t, self._gen_data)
                piece = integer_span(self.n, t, rows, self.field, echelon)
            self._pieces[t] = piece
        return piece

    def hilbert_function(self, t) -> int:
        if t < 0:
            return 0
        if self._walk.values is not None:
            return self._walk.values[t] if t < len(self._walk.values) else 0
        return monomial_count(self.n, t) - self.graded_piece(t).dim

    def _upper_hilbert(self, t) -> int:
        """dim R_t minus the rank mod p of the degree-t rows (the exact
        piece's rank once it is built): H(t) over GF(p), and over QQ an
        upper bound for H(t), since reduction mod CERTIFICATE_PRIME never
        raises a rank.

        The one forward pass over the rows (linalg.row_profile) returns the
        profile with its echelon form, kept with the rows (_Walk) for graded_piece:
        over GF(p) the piece is then finished by back-substitution, and over
        QQ the rows come lightest generator first (see _generator_data), so
        the profile keeps the rows of least height for the exact elimination."""
        dim = monomial_count(self.n, t)
        piece = self._pieces.get(t)
        if piece is not None:
            return dim - piece.dim
        entry = self._walk.rows.get(t)
        if entry is None:
            rows = shifted_vectors(self.n, t, self._gen_data)
            entry = self._walk.rows[t] = rows, row_profile(self.field, rows, dim)
        return dim - len(entry[1][0])

    def _certify(self, upper) -> bool:
        """Whether I = Ann(F) for a dual form F of degree s = len(upper) - 1,
        upper[t] >= H(t) for t <= s and I_{s+1} full: the walk's values at
        its early exit, where upper[1] >= 2 implies the last (artinian_bound),
        or in socle_report the exact values of a complete ideal.

        A Gorenstein h-vector is symmetric, so an upper with upper[s] != 1
        or upper[t] != upper[s-t] fails before any elimination.  Otherwise
        the exact piece I_s is built; with one free column it is read as F
        (dual_vector).  I_s o F = 0 puts I inside Ann(F), so the rank mod p
        of the catalecticant Cat_t(F) is at most H(t) <= upper[t].  Cat_t
        and Cat_{s-t} are transposes, so ranks equal to upper[t] for every
        t <= s/2 prove every Hilbert value and I_t = Ann(F)_t for t <= s:
        with I_{s+1} full, R/I is Gorenstein with socle {s: 1}.  _Walk keeps
        the values then, and the last answer with its values for a repeat call.
        """
        if self._walk.tried[0] == upper:
            return self._walk.tried[1]
        self._walk.tried = upper[:], False    # the walk appends to upper
        s = len(upper) - 1
        if s < 0 or upper[s] != 1 or upper != upper[::-1]:
            return False
        piece = self.graded_piece(s)
        if piece.ambient_dim - piece.dim != 1:
            return False    # over QQ an unlucky prime: I_s is full
        F = dual_vector(piece)
        for t in range(s // 2 + 1):
            h = upper[t]
            cat = catalecticant(self.n, s, F, t)
            if len(row_profile(self.field, cat, h)[0]) != h:
                return False
        self._walk.values, self._walk.tried = upper, (upper, True)
        return True

    def artinian_bound(self) -> int:
        """Least t with (R/I)_t = 0, exactly.

        An m-primary ideal generated in degrees <= D contains a regular
        sequence of n forms of degree D, hence all of R_{n(D-1)+1} (Eisenbud,
        Commutative Algebra, ch. 21; Hilbert functions do not change under
        field extension).  A nonzero Hilbert value at n(D-1)+1 therefore
        proves I is not Artinian.  The error keeps the words of an older
        search that stopped at 4Dn; no value up to there vanishes either.

        The degrees are walked first on row rank profiles mod p alone
        (_upper_hilbert): one forward pass per degree, which keeps its
        echelon form for the exact piece of that degree (finished by
        back-substitution over GF(p)).
        The Macaulay dual certificate (_certify) proves every Hilbert value
        from one exact piece, the socle-degree one.  The walk tries it only
        where that skips the profile of degree s + 1: at a value 1 in degree
        s >= 2 when upper[1] >= 2.  Otherwise (no such value or a failed
        try) over GF(p), where the walk's values are the Hilbert values
        themselves, its first zero is the bound, and a walk with no zero
        through n(D-1)+1 proves I not Artinian; no exact piece is built.
        Over QQ exact pieces, built from the walk's profiles, decide the
        bound top down: from the walk's first degree with upper = 0, full,
        or else from n(D-1)+1, whose exact piece is full or proves I not
        Artinian, the bound steps down while the exact value one degree
        lower is 0, since H(t) = 0 forces H(t+1) = 0.  socle_report tries
        the certificate on the exact values.  _Walk keeps the bound, over
        GF(p) the values, and no rows at or above the bound.

        The early try needs no profile of degree s+1, because a certified
        I_s with H(1) >= 2 gives R_1 * I_s = R_{s+1} over any field: Ann(F)
        has a generator in degree s+1 only when F is a divided power of one
        linear form (Iarrobino-Kanev, Power Sums, Gorenstein Algebras, and
        Determinantal Loci, LNM 1721).  The certificate gives I_s^perp = <F>
        and rank Cat_1(F) = H(1) >= 2.  Take G in (R_1 * I_s)^perp inside
        D_{s+1}.  Then x_j o G lies in I_s^perp, so x_j o G = c_j F for each
        j.  If c != 0, every form c_k x_i - c_i x_k annihilates F, so
        rank Cat_1(F) <= 1, a contradiction.  So c = 0, and a form of
        degree s+1 that every x_j annihilates is 0.
        """
        if self._walk.bound is not None:
            return self._walk.bound
        D = max(self.max_generator_degree, 1)
        top = self.n * (D - 1) + 1
        upper = []
        for t in range(top + 1):
            h = self._upper_hilbert(t)
            if h == 0:
                break
            upper.append(h)
            if t >= 2 and h == 1 and upper[1] >= 2 and self._certify(upper):
                # R_1 * I_t = R_{t+1} (see above): no profile of t + 1
                self._walk.bound = t + 1
                return t + 1
        t = min(len(upper), top)
        exact = self.field != QQ    # over GF(p) the walk's values are H
        if len(upper) > top if exact else self.hilbert_function(t):
            raise NotArtinianError(f"not Artinian within cap (no vanishing Hilbert "
                                   f"value up to t={4 * D * self.n})")
        # over QQ step down from the walk's first zero, else from top (see above)
        while not exact and t and self.hilbert_function(t - 1) == 0:
            t -= 1
        self._walk.values = upper if exact else None
        self._walk.bound = t
        self._walk.rows = {u: rows for u, rows in self._walk.rows.items() if u < t}
        return t

    def is_artinian(self) -> bool:
        try:
            self.artinian_bound()
            return True
        except NotArtinianError:
            return False

    def hilbert_series_table(self, t_max=None):
        if t_max is None:
            t_max = self.artinian_bound() - 1
        return [self.hilbert_function(t) for t in range(t_max + 1)]

    def minimal_generators(self):
        """The minimal generators, read off the graded pieces once: the rows
        of each piece outside R_1 times the piece below, through the top
        generator degree (for a from_pieces ideal, truncated_at or its bound)."""
        if self._minimal is None:
            top = (self.max_generator_degree if self._gens is not None
                   else self._walk.bound if self.truncated_at is None
                   else self.truncated_at)
            self._minimal = [g for t in range(top + 1) for g in fresh_generators(
                self.graded_piece(t), self.graded_piece(t - 1) if t else None)]
        return self._minimal

    def minimal_generator_profile(self) -> dict:
        """degree -> number of minimal generators in that degree."""
        return dict(Counter(g.homogeneous_degree() for g in self.minimal_generators()))

    def is_equigenerated(self):
        profile = self.minimal_generator_profile()
        if len(profile) != 1:
            return None
        return next(iter(profile.items()))

    # ------------------------------------------------------------------
    # colon ideals

    def _colon_piece(self, t, f, e) -> GradedPiece:
        """(I : f)_t = {g in R_t : g * f in I_{t+e}}: the left kernel of the
        residuals of the rows x^gamma * f modulo I_{t+e}, from one elimination
        (linalg.kernel_rref).  A full I_{t+e} leaves zero-width residuals, so
        all of R_t; a zero one leaves the independent rows of f, so 0."""
        n, field = self.n, self.field
        rows = shifted_vectors(n, t + e, [(e, integer_terms(f))])
        residuals = self.graded_piece(t + e).residuals(rows)
        return GradedPiece(n, t, field, *kernel_rref(field, list(zip(*residuals)),
                                                     monomial_count(n, t)))

    def _pure_power_exponents(self):
        """(m_1, ..., m_n) when the generators are c_i * x_i^{m_i}, exactly
        one pure power per variable in any order; otherwise None."""
        if len(self._gen_data) != self.n:
            return None
        m = [0] * self.n
        for _, terms in self._gen_data:
            if len(terms) != 1:
                return None
            exps, = terms
            support = [i for i, x in enumerate(exps) if x]
            if len(support) != 1 or m[support[0]]:
                return None
            m[support[0]] = exps[support[0]]
        return m

    def colon(self, f: MultiPoly, t_max=None) -> "GradedIdeal":
        """The ideal (I : f), complete when I is Artinian.

        The base alone picks the route.  Pure powers (x_1^{m_1}, ...,
        x_n^{m_n}) are Ann(X^[m-1]) in Macaulay duality, so their colon is
        Ann(f o X^[m-1]) (annihilator_pieces): the term of f at alpha sends
        X^[m-1] to X^[m-1-alpha], and drops out unless alpha <= m - 1 in
        every coordinate.  Every other base goes through the kernel of
        multiplication by f into R/I, one elimination per degree.  Both give
        the canonical RREF of each piece and so the same generators.

        t_max only truncates: no piece above it is read, and from_pieces
        labels the result truncated unless a piece through t_max is full.
        Only without t_max is I walked; for non-Artinian I it is required.
        """
        if f.n != self.n or f.field != self.field:
            raise ValueError("colon by a form in a different ring")
        if f.is_zero():
            raise ValueError("colon by the zero form")
        if not f.is_homogeneous():
            raise ValueError("colon by a non-homogeneous form")
        n, field, e = self.n, self.field, f.homogeneous_degree()
        m = self._pure_power_exponents()
        if m is None:
            if t_max is None:
                self.artinian_bound()   # a non-Artinian I raises here
            # from_pieces reads no piece above the first full one
            pieces = (self._colon_piece(t, f, e) for t in itertools.count())
        else:
            terms = {tuple(k - 1 - a for k, a in zip(m, alpha)): c
                     for alpha, c in integer_terms(f).items()
                     if all(a < k for a, k in zip(alpha, m))}
            if terms:
                pieces = annihilator_pieces(n, sum(m) - n - e, terms, field)
            else:
                # f lies in the pure powers
                pieces = [full_piece(n, 0, field)]
        if t_max is not None:
            pieces = itertools.islice(pieces, max(t_max + 1, 0))
        return GradedIdeal.from_pieces(n, pieces, field)

    # ------------------------------------------------------------------
    # socle

    def multiplication_maps(self, t):
        """x_k : (R/I)_t -> (R/I)_{t+1} for k = 1..n, each as the list of
        images of the standard monomials of degree t, written over the
        standard monomials of degree t + 1.

        The images are rows of linalg.normal_form of the piece above, all
        of them scaled by one L, the lcm of its pivot entries (1 over
        GF(p)); one scale for every map of degree t leaves the rank of any
        matrix stacked from them unchanged.
        """
        std = self.graded_piece(t).standard_columns
        above = self.graded_piece(t + 1)
        _, _, nf = normal_form(above.pivots, above.int_rows, above.ambient_dim)
        # x_k is the k-th monomial of degree one
        table = product_table(self.n, t, 1)
        return [[nf[table[c][k]] for c in std] for k in range(self.n)]

    def socle_report(self) -> "SocleReport":
        """Socle dimensions of R/I: in degree t, H(t) minus the rank of
        x_1..x_n : (R/I)_t -> (R/I)_{t+1}^n.

        When I = Ann(F), certified by the walk or here on the exact Hilbert
        values (_certify recalls a try on the same values), the socle is
        {s: 1}, s = deg F, and no map is built.
        """
        bound = self.artinian_bound()
        if bound == 0:
            raise ValueError("the unit ideal has no socle (R/I = 0)")
        s = bound - 1
        if self._certify(self.hilbert_series_table(s)):
            return SocleReport(socle_dims={s: 1}, socle_degree=s,
                               is_gorenstein=True, artinian_bound=bound)
        dims = {}
        for t in range(bound):
            sdim = self.hilbert_function(t)
            if not self.graded_piece(t + 1).is_full:
                # the matrices of x_1..x_n stacked, one column per standard
                # monomial: an injective map has an RREF with no free column
                stacked = [row for m in self.multiplication_maps(t) for row in zip(*m)]
                sdim -= row_rank(self.field, stacked, sdim)
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
        """Graded piece (I^k)_t, built once per ideal.  Above a full
        (I^k)_{t-1} it is full with no product, since R_1 * R_{t-1} = R_t,
        as graded_piece reads R_t above a full I_{t-1}; otherwise it is
        (I * I^{k-1})_t, I's own piece I_t when _rows_times says so."""
        if k < 1:
            raise ValueError("power must be >= 1")
        if k == 1 or t < 0:
            return self.graded_piece(t)     # t < 0 raises there
        piece = self._power_pieces.get((k, t))
        if piece is None:
            below = self._power_pieces.get((k, t - 1))
            if below is not None and below.is_full:
                piece = full_piece(self.n, t, self.field)
            else:
                rows = self._rows_times(t, lambda u: self.power_piece(k - 1, u))
                piece = (self.graded_piece(t) if rows is None
                         else integer_span(self.n, t, rows, self.field))
            self._power_pieces[k, t] = piece
        return piece

    def _rows_times(self, t, lower):
        """The rows of (I * B)_t = sum of g * B_{t-d} over the generators g
        of I, d = deg g <= t, for the pieces B_u = lower(u): g * b for
        every row b of B_{t-d}, multiplied with poly._term_product.  None
        when every such B_{t-d} is full, for then the sum is I_t."""
        lowers = {}
        for d, _ in self._gen_data:
            if d <= t and d not in lowers:
                lowers[d] = lower(t - d)
        if all(B.is_full for B in lowers.values()):
            return None
        products = []
        for d, terms in self._gen_data:
            if d <= t:
                monos = monomials_of_degree(self.n, t - d)
                for b in lowers[d].int_rows:
                    b_terms = {monos[j]: c for j, c in enumerate(b) if c}
                    products.append((t, _term_product(terms, b_terms, self.field)))
        return shifted_vectors(self.n, t, products)

    # ------------------------------------------------------------------
    # equality and membership

    def contains(self, f: MultiPoly) -> bool:
        if f.n != self.n or f.field != self.field:
            raise ValueError("membership of a form in a different ring")
        if f.is_zero():
            return True
        if not f.is_homogeneous():
            raise ValueError("membership is tested degree by degree")
        return self.graded_piece(f.homogeneous_degree()).contains_poly(f)

    def equals(self, other: "GradedIdeal") -> bool:
        """Graded-piece equality through the joint Artinian bound."""
        if self.n != other.n or self.field != other.field:
            return False
        top = max(self.artinian_bound(), other.artinian_bound())
        return all(self.graded_piece(t) == other.graded_piece(t)
                   for t in range(top + 1))

    def __repr__(self):
        gens = ", ".join(str(g) for g in self.generators)
        return f"GradedIdeal({gens})"


class SocleReport(namedtuple("SocleReport",
                             "socle_dims socle_degree is_gorenstein artinian_bound")):
    __slots__ = ()

    def as_dict(self):
        return {
            "socle_dims": {str(k): v for k, v in sorted(self.socle_dims.items())},
            "socle_degree": self.socle_degree,
            "is_gorenstein": self.is_gorenstein,
            "artinian_bound": self.artinian_bound,
        }


class VirtualDatum(namedtuple("VirtualDatum", "d r d_prime")):
    __slots__ = ()

    def as_tuple(self):
        return tuple(self)

    def as_dict(self):
        return self._asdict()


class ReductionReport(namedtuple("ReductionReport", "reduction_number_is_two "
                                  "ji_equals_i2 ji2_equals_i3 seed attempts")):
    __slots__ = ()

    def as_dict(self):
        return self._asdict()


def pure_power_ideal(lines, exponents) -> GradedIdeal:
    """(l_1^{m_1}, ..., l_n^{m_n}) for independent linear forms."""
    lines = list(lines)
    _line_inverse(lines, lines[0].n, lines[0].field)
    if len(exponents) != len(lines):
        raise ValueError("one exponent per linear form")
    gens = [ell ** m for ell, m in zip(lines, exponents)]
    return GradedIdeal(lines[0].n, gens, lines[0].field)


def variable_lines(n, field=QQ):
    return [MultiPoly.variable(i, n, field) for i in range(n)]


def variable_power_ideal(n, m, field=QQ) -> GradedIdeal:
    """(x_1^m, ..., x_n^m)."""
    return pure_power_ideal(variable_lines(n, field), [m] * n)


def _line_inverse(lines, n, field):
    """[A | I] reduced to [I | A^-1] as (pivots, integer rows), A having row
    i the coefficients of l_i.  Raises unless lines are n independent
    nonzero linear forms; the one proof of their independence."""
    if len(lines) != n:
        raise ValueError(f"need exactly {n} linear forms")
    rows = []
    for i, ell in enumerate(lines):
        if ell.is_zero() or ell.homogeneous_degree() != 1:
            raise ValueError("expected nonzero linear forms")
        # row i of [A | I], scaled as the field scaled row i of A
        ints, scale = ell.field.integer_row(ell.to_vector(1))
        rows.append(ints + [0] * i + [scale] + [0] * (n - 1 - i))
    # [A | I] reduces to [I | A^-1] exactly when the forms are independent
    pivots, red = rref_rows(field, rows, 2 * n)
    if pivots != list(range(n)):
        raise ValueError("linear forms are not independent")
    return pivots, red


def rewrite_in_linear_forms(f: MultiPoly, lines) -> MultiPoly:
    """Express f as a polynomial in n independent linear forms.

    Returns g with g(l_1, ..., l_n) = f; raises if the forms are dependent
    or not in f's ring.
    """
    n, field = f.n, f.field
    if any(ell.n != n or ell.field != field for ell in lines):
        raise ValueError("rewrite by linear forms in a different ring")
    # row i of A^-1 writes x_i in the l-coordinates
    images = [MultiPoly.from_vector(n, 1, row[n:], field)
              for row in field.scalar_rows(*_line_inverse(lines, n, field))]
    return f.substitute(images)


def pure_power_index(I: GradedIdeal, lines) -> int:
    """Least m with every l_i^m in I."""
    _line_inverse(lines, lines[0].n, lines[0].field)
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


def check_reduction_two(I: GradedIdeal, seed) -> ReductionReport:
    """Seeded check that three general combinations J of the generators
    satisfy J*I^2 = I^3 while J*I != I^2.

    Both products lie inside the power of I of their degree and are
    generated where it is, so each is compared by its rank in degree 2d
    or 3d.  Each rank follows the product rule of _rows_times: (J * B)_t
    is J_t, with no product, when B_{t-d} is full.  For J * I^2 that is
    the common case of a full (I^2)_{2d}, and J_{3d} is then full with no
    elimination, as J's Artinian bound is 3d - 2.
    """
    eq = I.is_equigenerated()
    if eq is None:
        raise NotEquigeneratedError("reduction check needs an equigenerated ideal")
    d, _ = eq
    if I.n != 3:
        raise ValueError("reduction check is implemented for three variables")
    I.artinian_bound()
    rng = random.Random(seed)
    gens = I.generators

    def rank(J, t, lower):
        """dim (J * B)_t for the pieces B_u = lower(u)."""
        rows = J._rows_times(t, lower)
        if rows is None:
            return J.graded_piece(t).dim
        return row_rank(I.field, rows, monomial_count(I.n, t))

    attempts = 0
    while attempts < REDUCTION_RETRIES:
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
        if not J.is_artinian():
            continue
        # J*I and J*I^2 lie inside I^2 and I^3: equal exactly when the ranks are
        ji_eq = rank(J, 2 * d, I.graded_piece) == I.power_piece(2, 2 * d).dim
        ji2_eq = (rank(J, 3 * d, lambda u: I.power_piece(2, u))
                  == I.power_piece(3, 3 * d).dim)
        return ReductionReport(
            reduction_number_is_two=(ji2_eq and not ji_eq),
            ji_equals_i2=ji_eq,
            ji2_equals_i3=ji2_eq,
            seed=seed,
            attempts=attempts,
        )
    raise RuntimeError(
        f"could not find a height-3 reduction in {REDUCTION_RETRIES} seeded attempts")

