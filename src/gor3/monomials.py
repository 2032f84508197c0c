"""Exponent vectors and graded monomial bases.

Monomials are exponent tuples.  The canonical order on each graded piece is
degree-lexicographic with x1 > x2 > ... > xn; within a fixed degree this is
plain lexicographic order on exponent tuples, descending.  Every module in
the package indexes coefficient vectors against this order, so it must never
change.

Dense matrices over these bases are built by index lookup: product_table
gives the position of every product of a degree-s and a degree-t monomial
in the degree-(s+t) basis, so shifted generator rows, multiplication maps
and catalecticants never form an exponent tuple per entry.  mono_mul is
left to the sparse products of polynomials and terms.
"""

from __future__ import annotations

from functools import lru_cache
from math import comb
from operator import add


def monomial_count(n: int, t: int) -> int:
    """Number of degree-t monomials in n variables."""
    return comb(t + n - 1, n - 1)


@lru_cache(maxsize=None)
def monomials_of_degree(n: int, t: int) -> tuple:
    """All exponent vectors of total degree t in n variables, canonically ordered.

    The first entry is (t, 0, ..., 0) and the last is (0, ..., 0, t).
    """
    if n < 1:
        raise ValueError("need at least one variable")
    if t < 0:
        raise ValueError("degree must be non-negative")
    return tuple(_descending(n, t))


def _descending(n, t):
    if n == 1:
        yield (t,)
        return
    for first in range(t, -1, -1):
        for rest in _descending(n - 1, t - first):
            yield (first,) + rest


@lru_cache(maxsize=None)
def monomial_index(n: int, t: int) -> dict:
    """exponent vector -> position in monomials_of_degree(n, t)."""
    return {e: i for i, e in enumerate(monomials_of_degree(n, t))}


def mono_mul(a: tuple, b: tuple) -> tuple:
    return tuple(map(add, a, b))


@lru_cache(maxsize=None)
def product_table(n: int, s: int, t: int) -> tuple:
    """table[i][j] is the position in monomials_of_degree(n, s + t) of the
    i-th degree-s monomial times the j-th degree-t monomial.

    The table is shared through the cache, so its rows are tuples.
    """
    idx = monomial_index(n, s + t)
    right = monomials_of_degree(n, t)
    return tuple(tuple([idx[mono_mul(a, b)] for b in right])
                 for a in monomials_of_degree(n, s))


def mono_sub(a: tuple, b: tuple):
    """b - a, or None if any coordinate goes negative."""
    out = []
    for x, y in zip(a, b):
        d = y - x
        if d < 0:
            return None
        out.append(d)
    return tuple(out)


def deglex_key(e: tuple):
    """Sort key; max() over terms picks the deg-lex leading monomial."""
    return (sum(e), e)


def default_var_names(n: int, dual: bool = False) -> list:
    if n <= 3:
        names = ["x", "y", "z"][:n]
    else:
        names = [f"x{i + 1}" for i in range(n)]
    if dual:
        return [s.upper() for s in names]
    return names
