"""Exact dense linear algebra: RREF, rank, kernels, determinants.

Everything here is exact; there is no floating point and no tolerance
anywhere.  Matrices hold raw field scalars (Fraction over QQ, int over
GF(p)) and the elimination work is delegated to the row-reduction kernels
of ``_rowred_py``.
"""

from __future__ import annotations

from fractions import Fraction
from math import gcd

from ._rowred_py import rref_int, rref_mod
from .fields import PrimeField, RationalField


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
        the row space, so RREF and kernels are unaffected."""
        out = []
        for row in self.entries:
            lcm = 1
            for v in row:
                d = v.denominator
                lcm = lcm // gcd(lcm, d) * d
            out.append([int(v * lcm) for v in row])
        return out

    def rref(self):
        """Canonical reduced row echelon form.

        Returns (pivots, rows) where rows are leading-1 field vectors with
        zeros above and below every pivot.  Zero rows are dropped.  The
        result is unique for the row space.
        """
        if self._rref is not None:
            return self._rref
        if isinstance(self.field, RationalField):
            pivots, rows = rref_int(self._integer_rows())
            out = [[Fraction(v, row[p]) for v in row]
                   for p, row in zip(pivots, rows)]
        elif isinstance(self.field, PrimeField):
            pivots, out = rref_mod(self.entries, self.field.p)
        else:
            raise TypeError(f"unsupported field {self.field!r}")
        self._rref = (pivots, out)
        return self._rref

    def rank(self) -> int:
        return len(self.rref()[0])

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
            scaled = []
            scale = 1
            for row in self.entries:
                lcm = 1
                for v in row:
                    d = v.denominator
                    lcm = lcm // gcd(lcm, d) * d
                scale *= lcm
                scaled.append([int(v * lcm) for v in row])
            return Fraction(_det_bareiss(scaled, n), scale)
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


def _det_bareiss(m, n):
    """Fraction-free determinant of an integer matrix (destructive)."""
    sign = 1
    prev = 1
    for k in range(n - 1):
        if m[k][k] == 0:
            sel = -1
            for i in range(k + 1, n):
                if m[i][k] != 0:
                    sel = i
                    break
            if sel < 0:
                return 0
            m[k], m[sel] = m[sel], m[k]
            sign = -sign
        for i in range(k + 1, n):
            for j in range(k + 1, n):
                m[i][j] = (m[i][j] * m[k][k] - m[i][k] * m[k][j]) // prev
            m[i][k] = 0
        prev = m[k][k]
    return sign * m[n - 1][n - 1]


def rank_kernel(matrix: ExactMatrix):
    """(rank, kernel basis); rank + len(kernel) == cols, M v = 0 exactly."""
    return matrix.rank(), matrix.kernel_basis()
