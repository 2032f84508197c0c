"""Alternating polynomial matrices, Pfaffians and the generic power model.

Sign conventions (frozen for reproducibility; the generated ideals do not
depend on them): the Pfaffian of an even alternating matrix is expanded
along the first row with alternating signs starting at +, and the i-th
maximal Pfaffian of an odd matrix carries the sign (-1)^(i+1), rows and
columns counted from 1.
"""

from __future__ import annotations

import random
from functools import lru_cache

from .fields import QQ
from .ideals import GradedIdeal
from .poly import MultiPoly

# seeded specializations generic_power_model draws before it gives up
MODEL_RETRIES = 5


class SkewPolyMatrix:
    """r x r alternating matrix of polynomials (A = -A^T, zero diagonal)."""

    def __init__(self, entries):
        r = len(entries)
        for row in entries:
            if len(row) != r:
                raise ValueError("matrix must be square")
        self.r = r
        self.entries = [list(row) for row in entries]
        if r == 0:
            raise ValueError("empty matrix")
        self.n = entries[0][0].n
        self.field = entries[0][0].field
        for i in range(r):
            for j in range(r):
                a = self.entries[i][j]
                if a.n != self.n or a.field != self.field:
                    raise ValueError("entries live in different rings")
        for i in range(r):
            if not self.entries[i][i].is_zero():
                raise ValueError(f"nonzero diagonal entry at ({i}, {i})")
            for j in range(i + 1, r):
                if self.entries[i][j] + self.entries[j][i] != MultiPoly.zero(
                        self.n, self.field):
                    raise ValueError(f"entries ({i},{j}) and ({j},{i}) "
                                     "do not negate each other")

    @classmethod
    def from_upper(cls, n, upper, field=QQ):
        """Build from the strictly upper-triangular entries, row by row:
        upper[i][k] is the entry at (i, i+1+k)."""
        r = len(upper) + 1
        zero = MultiPoly.zero(n, field)
        entries = [[zero for _ in range(r)] for _ in range(r)]
        for i, row in enumerate(upper):
            if len(row) != r - 1 - i:
                raise ValueError("ragged upper-triangular input")
            for k, value in enumerate(row):
                j = i + 1 + k
                entries[i][j] = value
                entries[j][i] = -value
        return cls(entries)

    def __repr__(self):
        return f"SkewPolyMatrix(r={self.r}, n={self.n})"


def _pfaffian_of(entries, indices, n, field, cache):
    """Pfaffian of the principal submatrix on the given (even) index tuple."""
    if not indices:
        return MultiPoly.constant(n, 1, field)
    key = indices
    found = cache.get(key)
    if found is not None:
        return found
    first = indices[0]
    rest = indices[1:]
    total = MultiPoly.zero(n, field)
    for pos, j in enumerate(rest):
        a = entries[first][j]
        if a.is_zero():
            continue
        sub = tuple(k for k in rest if k != j)
        term = a * _pfaffian_of(entries, sub, n, field, cache)
        if pos % 2:
            total = total - term
        else:
            total = total + term
    cache[key] = total
    return total


def pfaffian(A: SkewPolyMatrix) -> MultiPoly:
    """Pfaffian of an even alternating matrix; Pf(A)^2 = det(A)."""
    if A.r % 2:
        raise ValueError("Pfaffian needs an even matrix size")
    return _pfaffian_of(A.entries, tuple(range(A.r)), A.n, A.field, {})


def maximal_pfaffians(A: SkewPolyMatrix):
    """The r signed sub-Pfaffians of an odd alternating matrix.

    Entry i is (-1)^(i) times the Pfaffian with row and column i removed
    (0-based, matching the 1-based (-1)^(i+1) convention).  Entries that
    are forms of one degree d' give nonzero entries of degree (r - 1)d'/2
    (Buchsbaum-Eisenbud 1977).
    """
    if A.r % 2 == 0:
        raise ValueError("maximal Pfaffians need an odd matrix size")
    cache = {}
    out = []
    for i in range(A.r):
        keep = tuple(k for k in range(A.r) if k != i)
        pf = _pfaffian_of(A.entries, keep, A.n, A.field, cache)
        if i % 2:
            pf = -pf
        out.append(pf)
    return out


def pfaffian_ideal(A: SkewPolyMatrix) -> GradedIdeal:
    gens = [p for p in maximal_pfaffians(A) if not p.is_zero()]
    return GradedIdeal(A.n, gens, A.field)


def generic_skew_matrix(r, d_prime, field=QQ) -> SkewPolyMatrix:
    """Alternating r x r matrix with entry x_{ij}^{d'} in position (i, j),
    one variable per strictly-upper position (C(r, 2) variables)."""
    n = r * (r - 1) // 2
    upper = []
    v = 0
    for i in range(r - 1):
        row = []
        for _ in range(i + 1, r):
            row.append(MultiPoly.variable(v, n, field) ** d_prime)
            v += 1
        upper.append(row)
    return SkewPolyMatrix.from_upper(n, upper, field)


@lru_cache(maxsize=None)
def _generic_pfaffians(r, d_prime, field):
    """The maximal Pfaffians of generic_skew_matrix(r, d_prime, field), which
    do not depend on the seed: built once per (r, d', field) and shared by
    every generic_power_model call.  Nothing may mutate them; substitute
    returns new polynomials."""
    return tuple(maximal_pfaffians(generic_skew_matrix(r, d_prime, field)))


def _composite_images(big_n, n, field, rng):
    """Images of the original variables under the chain of substitutions
    eliminating the last variable one at a time.

    Each elimination sends the current last variable to a random combination
    of the remaining ones; substitutions compose, so each original variable
    ends up at a linear form in the n surviving variables.  Tracking the
    composite as coefficient vectors avoids blowing up intermediate
    polynomials in many variables.
    """
    vecs = [[field.one if j == i else field.zero for j in range(big_n)]
            for i in range(big_n)]
    for m in range(big_n, n, -1):
        coeffs = [_random_nonzero(field, rng) for _ in range(m - 1)]
        for v in vecs:
            c = v[m - 1]
            if not field.is_zero(c):
                for j in range(m - 1):
                    v[j] = field.add(v[j], field.mul(c, coeffs[j]))
            del v[m - 1]
    return [MultiPoly.from_vector(n, 1, v, field) for v in vecs]


def generic_power_model(r, d_prime, n, seed, field=QQ) -> GradedIdeal:
    """Specialize the pure-power alternating model down to n variables.

    Starts from the C(r,2)-variable matrix with entries x_{ij}^{d'}, takes
    its maximal Pfaffians and repeatedly replaces the last variable by a
    seeded random combination of the remaining ones (applied as the
    composite substitution).  Coefficients are drawn from {-10..10} minus
    {0}.  For n = 3 the result is checked to be Artinian, exactly; a failed
    specialization is retried with fresh randomness, up to MODEL_RETRIES
    draws in all.  The maximal Pfaffians generate a grade-3 Pfaffian ideal,
    so an Artinian specialization vanishes from degree 2d + d' - 2 on
    (Buchsbaum-Eisenbud 1977) and no search cap is needed.
    """
    if r < 3 or r % 2 == 0:
        raise ValueError("matrix size must be odd and at least 3")
    if d_prime < 1:
        raise ValueError("entry degree must be at least 1")
    big_n = r * (r - 1) // 2
    if not 3 <= n <= big_n:
        raise ValueError(f"target variable count must lie in [3, {big_n}]")
    rng = random.Random(seed)
    base = _generic_pfaffians(r, d_prime, field)
    for _ in range(MODEL_RETRIES):
        images = _composite_images(big_n, n, field, rng)
        polys = [p.substitute(images) for p in base]
        gens = [p for p in polys if not p.is_zero()]
        ideal = GradedIdeal(n, gens, field)
        if n > 3 or ideal.is_artinian():
            return ideal
    raise RuntimeError(
        f"specialization failed to reach an Artinian ideal after "
        f"{MODEL_RETRIES} reseeds (seed {seed})")


def _random_nonzero(field, rng):
    while True:
        c = field.of(rng.randint(-10, 10))
        if not field.is_zero(c):
            return c
