"""Exact dense linear algebra: RREF, rank, kernels, determinants.

Everything here is exact; there is no floating point and no tolerance
anywhere.  Matrices hold raw field scalars (Fraction over QQ, int over
GF(p)) and the elimination work is delegated to the row-reduction kernels
of ``_rowred_py``.  Over QQ a modular front end decides, from the row rank
profile modulo CERTIFICATE_PRIME (rank_profile_mod, a forward-only pass that
stops at full rank), which rows the exact kernel sees.  A rank alone never
builds a reduced form: it is the length of that profile, or over QQ, when
the profile falls short of full rank, the pivot count of the exact forward
elimination.
"""

from __future__ import annotations

from fractions import Fraction
from math import gcd

from ._rowred_py import _bareiss, rank_profile_mod, rref_int, rref_mod
from .fields import PrimeField, RationalField

# The word-size prime (2^31 - 1) of the modular front end of QQ elimination.
CERTIFICATE_PRIME = 2147483647


def _integer_vector(row):
    """(ints, lcm): the Fraction row times the lcm of its denominators."""
    lcm = 1
    for v in row:
        d = v.denominator
        if d != 1:
            lcm = lcm // gcd(lcm, d) * d
    return [v.numerator * (lcm // v.denominator) if v else 0 for v in row], lcm


def _in_row_space(pivots, red, rows, nc):
    """True when every integer row lies in the row space of the integer
    RREF (pivots, red).  A combination of the RREF rows is fixed by its
    entries at the pivots, so only the free columns are compared, all
    scaled by the lcm of the pivot entries."""
    pivot_set = set(pivots)
    free = [c for c in range(nc) if c not in pivot_set]
    lcm = 1
    for p, r in zip(pivots, red):
        lcm = lcm // gcd(lcm, r[p]) * r[p]
    scaled = [[lcm // r[p] * r[f] for f in free] for p, r in zip(pivots, red)]
    for row in rows:
        coeffs = [(row[p], s) for p, s in zip(pivots, scaled) if row[p]]
        for j, f in enumerate(free):
            if lcm * row[f] != sum(c * s[j] for c, s in coeffs):
                return False
    return True


def _rref_rational(rows, nc):
    """Integer RREF of rows (the contract of rref_int), rows having nc
    columns.

    With at least as many rows as columns, the row rank profile S modulo
    CERTIFICATE_PRIME comes first: the rows independent mod p of the rows
    before them, found row by row until nc of them are kept.
    The rank over QQ is never below the rank mod p, so |S| = nc proves the
    identity RREF.  Otherwise only the rows in S are eliminated exactly and
    every other row is checked against the result; if one lies outside (an
    unlucky prime), all rows are eliminated.  Either way the output is the
    canonical RREF of the row space.
    """
    if len(rows) < nc:
        return rref_int(rows)
    profile = rank_profile_mod(rows, CERTIFICATE_PRIME, nc)
    if len(profile) == nc:
        return list(range(nc)), [[int(i == j) for j in range(nc)] for i in range(nc)]
    chosen = set(profile)
    pivots, red = rref_int([rows[i] for i in profile])
    if _in_row_space(pivots, red,
                     [r for i, r in enumerate(rows) if i not in chosen], nc):
        return pivots, red
    return rref_int(rows)


class ExactMatrix:
    """Dense matrix over an exact field."""

    __slots__ = ("field", "rows", "cols", "entries", "_rref")

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
        self._rref = None

    @classmethod
    def identity(cls, field, n):
        one, zero = field.one, field.zero
        return cls(field, [[one if i == j else zero for j in range(n)]
                           for i in range(n)])

    @classmethod
    def zero(cls, field, rows, cols):
        z = field.zero
        return cls(field, [[z] * cols for _ in range(rows)], cols=cols)

    def __getitem__(self, ij):
        i, j = ij
        return self.entries[i][j]

    def transpose(self):
        return ExactMatrix(
            self.field,
            [[self.entries[i][j] for i in range(self.rows)]
             for j in range(self.cols)],
            cols=self.rows,
        )

    def _integer_rows(self):
        """Clear denominators row by row (QQ only); row scaling preserves
        the row space, so RREF and kernels are unaffected.  Returns (rows,
        scale), scale being the product of the row multipliers."""
        out = []
        scale = 1
        for row in self.entries:
            ints, lcm = _integer_vector(row)
            scale *= lcm
            out.append(ints)
        return out, scale

    def rref(self):
        """Canonical reduced row echelon form.

        Returns (pivots, rows) where rows are leading-1 field vectors with
        zeros above and below every pivot.  Zero rows are dropped.  The
        result is unique for the row space.
        """
        if self._rref is not None:
            return self._rref
        if isinstance(self.field, RationalField):
            pivots, rows = _rref_rational(self._integer_rows()[0], self.cols)
            zero = self.field.zero
            out = [[Fraction(v, row[p]) if v else zero for v in row]
                   for p, row in zip(pivots, rows)]
        elif isinstance(self.field, PrimeField):
            pivots, out = rref_mod(self.entries, self.field.p)
        else:
            raise TypeError(f"unsupported field {self.field!r}")
        self._rref = (pivots, out)
        return self._rref

    def rank(self) -> int:
        """Rank, from the cached RREF when there is one and otherwise from a
        forward pass that reduces nothing above a pivot.

        Over GF(p) it is the length of the row rank profile.  Over QQ the
        rank is never below the rank mod CERTIFICATE_PRIME, so a profile of
        min(rows, cols) rows proves full rank; a shorter one (rank deficient,
        or an unlucky prime) gives way to the pivot count of a Bareiss
        elimination of the integer rows.
        """
        if self._rref is not None:
            return len(self._rref[0])
        full = min(self.rows, self.cols)
        if isinstance(self.field, PrimeField):
            return len(rank_profile_mod(self.entries, self.field.p, full))
        if not isinstance(self.field, RationalField):
            raise TypeError(f"unsupported field {self.field!r}")
        rows = self._integer_rows()[0]
        if len(rank_profile_mod(rows, CERTIFICATE_PRIME, full)) == full:
            return full
        return len(_bareiss(rows)[0])

    def kernel_basis(self):
        """Row-reduced basis of the right kernel.

        Each basis vector carries a 1 in its own free column and 0 in the
        free columns of the other vectors, so the basis is canonical.
        """
        pivots, rows = self.rref()
        field = self.field
        pivot_set = set(pivots)
        free = [c for c in range(self.cols) if c not in pivot_set]
        basis = []
        for f in free:
            vec = [field.zero] * self.cols
            vec[f] = field.one
            for k, p in enumerate(pivots):
                v = rows[k][f]
                if not field.is_zero(v):
                    vec[p] = field.neg(v)
            basis.append(vec)
        return basis

    def matvec(self, v):
        field = self.field
        out = []
        for row in self.entries:
            acc = field.zero
            for a, b in zip(row, v):
                if not field.is_zero(a) and not field.is_zero(b):
                    acc = field.add(acc, field.mul(a, b))
            out.append(acc)
        return out

    def det(self):
        """Exact determinant (square matrices)."""
        if self.rows != self.cols:
            raise ValueError("determinant of a non-square matrix")
        n = self.rows
        if n == 0:
            return self.field.one
        if isinstance(self.field, RationalField):
            rows, scale = self._integer_rows()
            _, sign = _bareiss(rows)
            # a singular matrix leaves its last row zero
            return Fraction(sign * rows[n - 1][n - 1], scale)
        p = self.field.p
        work = [list(r) for r in self.entries]
        det = 1
        for k in range(n):
            sel = -1
            for i in range(k, n):
                if work[i][k] % p:
                    sel = i
                    break
            if sel < 0:
                return 0
            if sel != k:
                work[k], work[sel] = work[sel], work[k]
                det = -det
            a = work[k][k]
            det = det * a % p
            inv = pow(a, p - 2, p)
            for i in range(k + 1, n):
                f = work[i][k] * inv % p
                if f:
                    for j in range(k, n):
                        work[i][j] = (work[i][j] - f * work[k][j]) % p
        return det % p

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

    def __repr__(self):
        return f"ExactMatrix({self.rows}x{self.cols} over {self.field!r})"


def rank_kernel(matrix: ExactMatrix):
    """(rank, kernel basis); rank + len(kernel) == cols, M v = 0 exactly."""
    basis = matrix.kernel_basis()       # caches the RREF that rank reads
    return matrix.rank(), basis
