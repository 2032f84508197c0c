"""The modular front end of QQ elimination, against oracles that never take it.

With at least as many rows as columns, ``ExactMatrix.rref`` over QQ takes
the row rank profile modulo CERTIFICATE_PRIME first: full rank there proves
the identity RREF with no exact elimination; otherwise ``rref_int`` sees the
profile rows only, every other row is checked against its result, and an
unlucky prime falls back to all rows.  Every route must give the canonical
RREF that ``oracles.gcd_rref_int`` and ``oracles.fraction_rref`` compute.
"""

import random
from fractions import Fraction

import pytest

import gor3.linalg
from gor3.fields import QQ
from gor3.linalg import CERTIFICATE_PRIME as P
from gor3.linalg import ExactMatrix

from oracles import fraction_rref, gcd_rref_int


@pytest.fixture
def kernel_calls(monkeypatch):
    """The row lists rref_int and rref_mod receive, in order."""
    calls = []
    rref_int, rref_mod = gor3.linalg.rref_int, gor3.linalg.rref_mod

    def counted_int(rows):
        calls.append(("int", [list(r) for r in rows]))
        return rref_int(rows)

    def counted_mod(rows, p):
        calls.append(("mod", p))
        return rref_mod(rows, p)

    monkeypatch.setattr(gor3.linalg, "rref_int", counted_int)
    monkeypatch.setattr(gor3.linalg, "rref_mod", counted_mod)
    return calls


def _exact_calls(calls):
    return [rows for kind, rows in calls if kind == "int"]


def _check(rows, scale=None):
    """rref of rows over QQ equals both oracles; rows are integer lists,
    divided row by row by scale[i] when given, so that denominators are
    cleared on the way in."""
    entries = [[Fraction(v, scale[i] if scale else 1) for v in row]
               for i, row in enumerate(rows)]
    pivots, out = ExactMatrix(QQ, entries, cols=len(rows[0]) if rows else 0).rref()
    expected = fraction_rref(entries)
    assert (pivots, out) == expected
    oracle_pivots, oracle_rows = gcd_rref_int(rows)
    assert pivots == oracle_pivots
    assert out == [[Fraction(v, row[c]) for v in row]
                   for c, row in zip(oracle_pivots, oracle_rows)]
    return pivots


def _rank_profile_mod(rows, p):
    """Rows independent mod p of the rows before them, by a row-at-a-time
    elimination of their own."""
    basis = {}
    profile = []
    for i, row in enumerate(rows):
        v = [x % p for x in row]
        for c in range(len(v)):
            if not v[c]:
                continue
            if c not in basis:
                inv = pow(v[c], -1, p)
                basis[c] = [x * inv % p for x in v]
                profile.append(i)
                break
            k = v[c]
            v = [(x - k * y) % p for x, y in zip(v, basis[c])]
    return profile


def _product(rng, nr, nc, rank, bits):
    left = [[rng.randint(-2 ** bits, 2 ** bits) for _ in range(rank)] for _ in range(nr)]
    right = [[rng.randint(-2 ** bits, 2 ** bits) for _ in range(nc)] for _ in range(rank)]
    return [[sum(a * b for a, b in zip(row, col)) for col in zip(*right)] for row in left]


def test_zero_and_one_by_one(kernel_calls):
    assert _check([[0, 0], [0, 0], [0, 0]]) == []
    assert _check([[0, 0], [0, 0]]) == []
    assert _check([[0]]) == []
    del kernel_calls[:]
    assert _check([[5]], scale=[3]) == [0]
    assert kernel_calls == [("mod", P)]               # 5/3 is a unit mod P
    del kernel_calls[:]
    assert _check([[-P]]) == [0]
    # -P vanishes mod P: no profile row, the check fails, all rows are eliminated
    assert _exact_calls(kernel_calls) == [[], [[-P]]]


def test_full_column_rank_needs_no_exact_elimination(kernel_calls):
    rng = random.Random(11)
    for nr, nc, bits in [(6, 6, 8), (12, 5, 8), (50, 36, 20), (10, 6, 600)]:
        rows = [[rng.randint(-2 ** bits, 2 ** bits) for _ in range(nc)] for _ in range(nr)]
        del kernel_calls[:]
        assert _check(rows, scale=[rng.choice([1, 2, 7]) for _ in rows]) == list(range(nc))
        assert kernel_calls == [("mod", P)]


def test_rank_deficient_product_eliminates_the_profile_rows_only(kernel_calls):
    rng = random.Random(5)
    rows = _product(rng, 50, 36, 35, 25)
    del kernel_calls[:]
    assert len(_check(rows)) == 35
    profile = _rank_profile_mod(rows, P)
    assert len(profile) == 35
    assert _exact_calls(kernel_calls) == [[rows[i] for i in profile]]


def test_dependent_mod_p_but_independent_over_qq_falls_back(kernel_calls):
    # rows 0 and 1 agree mod P, so row 1 is outside the profile
    rows = [[1, 0, 2], [1 + P, P, 2], [0, 1, 1], [1, 1, 3]]
    assert _rank_profile_mod(rows, P) == [0, 2]
    del kernel_calls[:]
    assert _check(rows) == [0, 1, 2]
    assert _exact_calls(kernel_calls) == [[rows[0], rows[2]], rows]
    # row 1 agrees with the profile row on the first free column only
    rows = [[1, 0, 0], [1 + P, 0, P], [2, 0, 0]]
    del kernel_calls[:]
    assert _check(rows) == [0, 2]
    assert _exact_calls(kernel_calls) == [[rows[0]], rows]


def test_column_profile_mismatch(kernel_calls):
    # mod P the pivot column is 1, over QQ it is 0
    del kernel_calls[:]
    assert _check([[P, 1], [2 * P, 3]]) == [0, 1]
    assert _exact_calls(kernel_calls) == [[[P, 1]], [[P, 1], [2 * P, 3]]]
    # the same first row with a dependent second row: the profile row is
    # right although its pivot column mod P is not
    del kernel_calls[:]
    assert _check([[P, 1], [2 * P, 2]]) == [0]
    assert _exact_calls(kernel_calls) == [[[P, 1]]]


def test_wide_matrices_skip_the_front_end(kernel_calls):
    rows = [[1, 2, 3], [2, 4, 7]]
    del kernel_calls[:]
    assert _check(rows) == [0, 2]
    assert kernel_calls == [("int", rows)]


def test_seeded_tall_and_square_matrices(kernel_calls):
    """Seeded tall and square matrices reach every outcome of the front end
    and always give the canonical RREF."""
    rng = random.Random(2025)
    outcomes = {"identity": 0, "profile": 0, "fallback": 0}
    for k in range(300):
        nc = rng.randint(1, 8)
        nr = nc + rng.randint(0, 6)
        kind = k % 4
        if kind == 0:
            rows = [[rng.randint(-9, 9) if rng.random() < 0.7 else 0 for _ in range(nc)]
                    for _ in range(nr)]
        elif kind == 1:
            rows = _product(rng, nr, nc, rng.randint(1, nc), rng.choice([3, 60]))
        elif kind == 2:
            # repeated and scaled rows
            base = [[rng.randint(-5, 5) for _ in range(nc)] for _ in range(3)]
            rows = [[rng.choice([1, -1, 2, 3]) * v for v in rng.choice(base)]
                    for _ in range(nr)]
        else:
            # entries that vanish mod P, so the profile often comes up short
            rows = [[rng.choice([0, 1, -1, 2]) * P + rng.choice([0, 0, 1])
                     for _ in range(nc)] for _ in range(nr)]
        del kernel_calls[:]
        _check(rows, scale=[rng.choice([1, 1, 2, 5]) for _ in rows])
        exact = len(_exact_calls(kernel_calls))
        assert kernel_calls[0] == ("mod", P)
        outcomes[["identity", "profile", "fallback"][exact]] += 1
    assert all(count >= 20 for count in outcomes.values()), outcomes
