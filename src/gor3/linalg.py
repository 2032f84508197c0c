"""Exact dense linear algebra: RREF, rank, kernels, normal forms, maximal
minors and determinants.

Everything here is exact; there is no floating point and no tolerance
anywhere.  Only integer rows are reduced (over QQ any scaling of the rows,
over GF(p) the residues); the field objects convert scalars to and from
them.  rref_rows, row_rank, kernel_rows and kernel_rref hand the
elimination to the kernels of ``_rowred_py``, and normal_form is the one
reduction modulo an integer RREF: kernel bases, residuals, the
multiplication maps of R/I and the span check of the modular front end are
read off it.  kernel_rref reads the canonical RREF of a kernel off the
normal form of the rows with their columns reversed, so a kernel piece
costs one elimination, not a second one of the kernel basis.  ExactMatrix
holds field scalars (int or Fraction over QQ, int over GF(p)); its field
converts the rows on the way in and the RREF on the way out.  Its
determinant is one fraction-free Bareiss pass over those integer rows for
both fields, and maximal_minors reads all k + 1 maximal minors of k rows
of field scalars off one such pass.

Every rank, profile and RREF starts from one forward pass,
rank_profile_mod, modulo the field's own p over GF(p) and modulo
CERTIFICATE_PRIME over QQ (row_profile), on rows packed one int each; it
stops at full rank and returns the profile with the echelon form it kept,
one value.  rref_rows takes that pass once, or reads it whole from a
caller that has it, for every matrix:
a full profile is the identity, over GF(p) rref_mod back-substitutes the
echelon form, and over QQ the profile decides which rows the exact kernel
sees and, by its pivot columns, the columns that kernel pivots in; one
check in rref_rows proves that result or, on an unlucky prime, eliminates
all rows left to right.  A rank alone never builds a reduced form: it is
the length of that profile, or over QQ, when the profile falls short of
full rank, the pivot count of the exact forward elimination.
"""

from __future__ import annotations

from math import gcd

from ._rowred_py import _back_substitute, _bareiss, rank_profile_mod, rref_int, rref_mod

# The prime of the modular front end of QQ elimination, the largest below
# 2^15.  Small residues keep the packed slots of rank_profile_mod narrow
# (about 30 bits plus log2 of the column count); any prime gives the same
# answers, since an unlucky one only sends QQ to the exact elimination.
CERTIFICATE_PRIME = 32749


def _identity_rows(n):
    """The rows of the n x n identity matrix, as ints."""
    return [[0] * i + [1] + [0] * (n - 1 - i) for i in range(n)]


def _pivot_lcm(pivots, rows):
    """The lcm of the pivot entries of an integer RREF (1 over GF(p))."""
    lcm = 1
    for p, row in zip(pivots, rows):
        lcm = lcm // gcd(lcm, row[p]) * row[p]
    return lcm


def normal_form(pivots, rows, nc):
    """(lcm, free, nf): the normal form modulo the integer RREF (pivots,
    rows) with nc columns, read on its free columns.

    lcm is the lcm of the pivot entries (1 for leading-1 rows) and free
    lists the free columns.  nf[x] is lcm times the residual of the unit
    vector e_x: a free column c maps to lcm * e_c, and the pivot p of a row
    r to -r * lcm / r[p].  The residual of any row v is the sum of
    v[x] * nf[x] over its nonzero entries, divided by lcm; it is zero
    exactly when v lies in the row space.
    """
    lcm = _pivot_lcm(pivots, rows)
    pivot_set = set(pivots)
    free = [c for c in range(nc) if c not in pivot_set]
    nf = [None] * nc
    for i, c in enumerate(free):
        nf[c] = [0] * len(free)
        nf[c][i] = lcm
    for p, row in zip(pivots, rows):
        scale = lcm // row[p]
        nf[p] = [-scale * row[c] for c in free]
    return lcm, free, nf


def _residual(row, nf, width):
    """lcm times the residual of an integer row, on the width free columns
    of the table nf of normal_form."""
    out = [0] * width
    for v, image in zip(row, nf):
        if v:
            out = [a + v * b for a, b in zip(out, image)]
    return out


def row_profile(field, rows, limit):
    """(profile, basis): the row rank profile of integer rows modulo the
    prime of field (its characteristic p over GF(p), CERTIFICATE_PRIME over
    QQ, of characteristic 0), at most limit rows, and the echelon form that
    pass kept (rank_profile_mod).  Over GF(p) the length of the profile is the
    rank; over QQ it is a lower bound for the rank, which never drops under
    reduction mod CERTIFICATE_PRIME.  It is the one caller of
    rank_profile_mod."""
    return rank_profile_mod(rows, field.characteristic or CERTIFICATE_PRIME, limit)


def rref_rows(field, rows, nc, echelon=None):
    """Canonical RREF (pivots, rows) of integer rows with nc columns.

    Over QQ the rows are primitive with a positive pivot, as rref_int
    returns them; over GF(p) they are the leading-1 rows of rref_mod.
    Either form is unique for the row space.  One route serves both fields
    and every shape, and it is the only way from rows to an RREF mod p.
    echelon is row_profile(field, rows, nc) of these rows, the profile
    with the echelon form its pass kept, when the caller has it; otherwise
    the pass is taken here.
    The rank over QQ is never below the rank mod CERTIFICATE_PRIME, so a
    profile of nc rows proves the identity RREF with no kernel call.
    Otherwise over GF(p) rref_mod back-substitutes the echelon form into
    the RREF of the profile rows.  Over QQ only the profile rows are
    eliminated exactly.  They are nonsingular on their pivot columns mod p,
    the keys of the echelon form, so over QQ too: rref_int pivots inside
    those columns on small entries, which keeps its minors small, and
    returns A_P^-1 times the profile rows.  One check then proves the
    result: no row is nonzero left of its pivot (else the column profile
    over QQ is another one) and every other row has a zero residual (else
    a row lies outside their span).  If it fails, the prime was unlucky
    and all rows are eliminated left to right, the one fallback.
    """
    profile, basis = echelon or row_profile(field, rows, nc)
    if len(profile) == nc:
        return list(range(nc)), _identity_rows(nc)
    if field.characteristic:
        return rref_mod([rows[i] for i in profile], field.p, basis)
    chosen = set(profile)
    pivots, red = rref_int([rows[i] for i in profile], sorted(basis))
    _, free, nf = normal_form(pivots, red, nc)
    if (any(any(row[:c]) for c, row in zip(pivots, red))
            or any(any(_residual(r, nf, len(free)))
                   for i, r in enumerate(rows) if i not in chosen)):
        return rref_int(rows)
    return pivots, red


def row_rank(field, rows, nc):
    """Rank of integer rows with nc columns, from a forward pass that
    reduces nothing above a pivot.

    Over GF(p) it is the length of the row rank profile.  Over QQ the rank
    is never below the rank mod CERTIFICATE_PRIME, so a profile of
    min(rows, nc) rows proves full rank; a shorter one (rank deficient, or
    an unlucky prime) gives way to the pivot count of a Bareiss elimination.
    """
    full = min(len(rows), nc)
    rank = len(row_profile(field, rows, full)[0])
    if rank == full or field.characteristic:
        return rank
    return len(_bareiss(list(rows))[0])


def kernel_rows(field, rows, nc):
    """(basis, L): an integer basis of the right kernel of integer rows with
    nc columns, and the lcm L of the pivot entries of their RREF.

    The basis is the transpose of the normal_form table: for each free
    column c, L times the kernel vector with 1 at c and 0 at the other
    free columns.
    """
    lcm, _, nf = normal_form(*rref_rows(field, rows, nc), nc)
    return [list(vec) for vec in zip(*nf)], lcm


def kernel_rref(field, rows, nc):
    """The canonical RREF (pivots, rows) of the right kernel of integer rows
    with nc columns, in the contract of rref_rows, from one elimination.

    The rows are reduced with their columns reversed.  In that order the
    normal_form kernel vector of a free column c is nonzero only at c and
    at pivots before c; in the original order its first nonzero is at
    nc - 1 - c, where every other kernel vector is 0.  These vectors sorted
    by that column are the RREF once scaled: over QQ divided by their gcd
    (the pivot entry, the lcm of pivot entries, is positive), over GF(p)
    taken mod p (the lcm is 1).
    """
    _, free, nf = normal_form(*rref_rows(field, [row[::-1] for row in rows], nc), nc)
    basis = []
    for vec in reversed(list(zip(*nf))):
        if field.characteristic:
            basis.append([v % field.p for v in reversed(vec)])
        else:
            g = gcd(*vec)
            basis.append([v // g for v in reversed(vec)])
    return [nc - 1 - c for c in reversed(free)], basis


def _integer_rows(field, entries):
    """Clear denominators row by row; row scaling preserves the row space,
    so RREF and kernels are unaffected.  Returns (rows, scale), scale being
    the product of the row multipliers (1 over GF(p), whose residues are
    ints already)."""
    out = []
    scale = 1
    for row in entries:
        ints, lcm = field.integer_row(row)
        scale *= lcm
        out.append(ints)
    return out, scale


def maximal_minors(field, rows):
    """The k x k minors of k >= 1 rows of k + 1 field scalars, as a list:
    entry j is the determinant with column j deleted, a field quotient as
    ExactMatrix.det returns it.

    One Bareiss pass over the integer rows.  Rank below k gives all zeros.
    Otherwise one column f is free and the pivot columns P form a block A
    with det A the last pivot times the swap sign, the minor of f.  The
    kernel vector (-1)^c minor_c of the rows is then (-1)^(f+1) times
    (det A_j at p_j, -det A at f), A_j being A with its column j replaced
    by column f (Cramer's rule), and det A_j is sign times the last pivot
    times the RREF entry of row j at f: the fraction-free back-substitution
    of rref_int, _back_substitute, run on the one free column.  Each minor
    is divided by the product of the row multipliers.
    """
    k = len(rows)
    work, scale = _integer_rows(field, rows)
    pivots, sign = _bareiss(work)
    minors = [0] * (k + 1)
    if len(pivots) == k:
        f = next(c for c in range(k + 1) if c not in pivots)
        d = work[k - 1][pivots[-1]]
        minors[f] = sign * d
        for p, (s,) in zip(pivots, _back_substitute(work, pivots, [f], d)):
            minors[p] = sign * s if (p + f) % 2 else -sign * s
    return [field.div(m, scale) for m in minors]


class ExactMatrix:
    """Dense matrix over an exact field.

    In the package only the five-quadrics certificate uses it, for one
    3 x 3 determinant, det Cat_1(F); its other determinants are maximal
    minors (maximal_minors).  rref, kernel_basis, minor and adjugate have
    no caller, but perfbench/run.py reads its linalg.* metrics off these
    methods, so they leave with the class once the benchmark reads them
    elsewhere.
    """

    __slots__ = ("field", "rows", "cols", "entries")

    def __init__(self, field, entries, cols=None):
        self.field = field
        self.entries = [list(r) for r in entries]
        self.rows = len(self.entries)
        if self.rows:
            self.cols = len(self.entries[0])
            for r in self.entries:
                if len(r) != self.cols:
                    raise ValueError("ragged matrix")
        else:
            self.cols = 0 if cols is None else cols

    def rref(self):
        """Canonical reduced row echelon form.

        Returns (pivots, rows) where rows are leading-1 field vectors with
        zeros above and below every pivot.  Zero rows are dropped.  The
        result is unique for the row space.
        """
        pivots, rows = rref_rows(self.field, _integer_rows(self.field, self.entries)[0],
                                  self.cols)
        return pivots, self.field.scalar_rows(pivots, rows)

    def kernel_basis(self):
        """Row-reduced basis of the right kernel.

        Each basis vector carries a 1 in its own free column and 0 in the
        free columns of the other vectors, so the basis is canonical.
        """
        field = self.field
        basis, lcm = kernel_rows(field, _integer_rows(field, self.entries)[0], self.cols)
        inv, zero = field.inv(lcm), field.zero
        return [[field.mul(v, inv) if v else zero for v in vec] for vec in basis]

    def det(self):
        """Exact determinant (square matrices), from one Bareiss pass over
        the integer rows for both fields: over QQ the last pivot divided by
        the product of the row multipliers, over GF(p) the last pivot of
        the residues read as integers, taken mod p (det is a polynomial in
        the entries)."""
        if self.rows != self.cols:
            raise ValueError("determinant of a non-square matrix")
        n = self.rows
        if n == 0:
            return self.field.one
        rows, scale = _integer_rows(self.field, self.entries)
        _, sign = _bareiss(rows)
        # a singular matrix leaves its last row zero
        return self.field.div(sign * rows[n - 1][n - 1], scale)

    def minor(self, i, j):
        return ExactMatrix(
            self.field,
            [[v for c, v in enumerate(row) if c != j]
             for r, row in enumerate(self.entries) if r != i],
        )

    def adjugate(self):
        """adj(A) with A * adj(A) = det(A) * I."""
        if self.rows != self.cols:
            raise ValueError("adjugate of a non-square matrix")
        n = self.rows
        field = self.field
        adj = [[field.zero] * n for _ in range(n)]
        for i in range(n):
            for j in range(n):
                c = self.minor(j, i).det()
                if (i + j) % 2:
                    c = field.neg(c)
                adj[i][j] = c
        return ExactMatrix(field, adj)
