"""The forward-only row rank profile and the rank that reads it.

``rank_profile_mod(rows, p, limit)`` keeps, row by row, the rows that are
independent mod p of the rows before them and stops at limit of them.  It
must equal the pivots of the Gauss-Jordan oracle ``oracles.field_rref`` on
the transposed rows and the profile of ``oracles.row_rank_profile``, which
reduces against whole rows and reads every row.  ``row_rank`` must equal the pivot count of the
canonical RREF over QQ and GF(32003), also where the prime is unlucky.
"""

import random
from fractions import Fraction

import pytest

import gor3.linalg
from gor3._rowred_py import rank_profile_mod
from gor3.fields import GF, QQ
from gor3.linalg import CERTIFICATE_PRIME as P
from gor3.linalg import ExactMatrix, row_rank, rref_rows

from oracles import field_rref, random_product, row_rank_profile

# rows 0 and 1 agree mod P, so the profile mod P misses rank 3 over QQ
UNLUCKY = [[1, 0, 2], [1 + P, P, 2], [0, 1, 1], [1, 1, 3]]


class Unread:
    """A row the profile must never reach: reading it fails the test."""

    def __iter__(self):
        raise AssertionError("row read after the limit was reached")


def _matrices(rng):
    """Seeded tall, square and wide matrices, with zero rows, rows that
    vanish mod P and repeated rows, paired with a prime to reduce them by."""
    yield random_product(random.Random(5), 50, 36, 35, 25), P
    yield UNLUCKY, P
    yield [[0, 0, 0], [0, 0, 0]], P
    yield [[P, 2 * P], [0, 0], [-P, 5 * P]], P
    for k in range(240):
        nc = rng.randint(1, 9)
        nr = rng.choice([nc, nc + rng.randint(1, 6), rng.randint(0, nc)])
        kind = k % 4
        if kind == 0:
            rows = [[rng.randint(-9, 9) if rng.random() < 0.6 else 0 for _ in range(nc)]
                    for _ in range(nr)]
        elif kind == 1:
            rows = random_product(rng, nr, nc, rng.randint(1, nc), rng.choice([3, 40]))
        elif kind == 2:
            base = [[rng.randint(-5, 5) for _ in range(nc)] for _ in range(3)]
            rows = [[rng.choice([0, 1, -2]) * v for v in rng.choice(base)] for _ in range(nr)]
        else:
            rows = [[rng.choice([0, 1, -1, 3]) * P + rng.choice([0, 0, 1]) for _ in range(nc)]
                    for _ in range(nr)]
        yield rows, rng.choice([P, 32003, 7])


def test_profile_equals_transposed_pivots_and_oracle():
    assert len(rank_profile_mod(random_product(random.Random(5), 50, 36, 35, 25), P, 36)) == 35
    seen_deficient = 0
    for rows, p in _matrices(random.Random(2026)):
        nc = len(rows[0]) if rows else 0
        transposed = field_rref(list(zip(*rows)), GF(p))[0]
        profile = rank_profile_mod(rows, p, nc)
        assert profile == transposed == row_rank_profile(rows, p)
        assert rank_profile_mod(rows, p, min(len(rows), nc)) == profile
        seen_deficient += len(profile) < min(len(rows), nc)
    assert seen_deficient >= 40


def test_limit_stops_early_and_keeps_the_prefix():
    rng = random.Random(7)
    for rows, p in [(random_product(rng, 12, 8, 6, 10), P),
                    ([[0, 0, 0], [1, 2, 3], [2, 4, 6], [0, 1, 0], [5, 5, 5]], 7),
                    (UNLUCKY, P)]:
        full = row_rank_profile(rows, p)
        for k in range(len(full) + 1):
            assert rank_profile_mod(rows, p, k) == full[:k]
            # the rows after the k-th kept row are never read
            last = full[k - 1] + 1 if k else 0
            assert rank_profile_mod(rows[:last] + [Unread()], p, k) == full[:k]
    assert rank_profile_mod([[1, 0], [0, 1], Unread()], P, 2) == [0, 1]


def _qq(rows, rng):
    return [[Fraction(v, rng.choice([1, 1, 2, 3])) for v in row] for row in rows]


@pytest.mark.parametrize("field", [QQ, GF(32003)], ids=str)
def test_rank_equals_rref_pivot_count(field):
    rng = random.Random(31)
    for rows, _ in _matrices(random.Random(99)):
        nc = len(rows[0]) if rows else 0
        entries = _qq(rows, rng) if field is QQ else [[v % field.p for v in r] for r in rows]
        ints = [field.integer_row(r)[0] for r in entries]
        assert row_rank(field, ints, nc) == len(rref_rows(field, ints, nc)[0])


def test_rank_over_qq_falls_back_on_an_unlucky_prime(monkeypatch):
    calls = []
    bareiss = gor3.linalg._bareiss

    def counted(work):
        calls.append(len(work))
        return bareiss(work)

    monkeypatch.setattr(gor3.linalg, "_bareiss", counted)
    assert row_rank_profile(UNLUCKY, P) == [0, 2]
    assert row_rank(QQ, UNLUCKY, 3) == 3
    assert calls == [4]
    # full rank mod P proves full rank: no exact elimination at all
    del calls[:]
    rows = [QQ.integer_row(r)[0] for r in [[Fraction(1, 2), 3], [5, 7], [1, 1]]]
    assert row_rank(QQ, rows, 2) == 2
    assert calls == []


def test_rank_and_rref_follow_mutated_entries():
    # entries is a public list: rref() reads it as it is now; the row
    # functions keep no state and leave their input as it is
    for field in (QQ, GF(32003)):
        M = ExactMatrix(field, [[field.one, field.zero], [field.zero, field.one]])
        assert M.rref()[0] == [0, 1]
        M.entries[1][1] = field.zero
        assert M.rref()[0] == [0]
        rows = [[field.one, field.zero], [field.zero, field.one]]
        assert rref_rows(field, rows, 2)[0] == [0, 1]
        assert rows == [[1, 0], [0, 1]]
        rows[1][1] = field.zero
        assert row_rank(field, rows, 2) == 1
        assert rref_rows(field, rows, 2)[0] == [0]
        assert rows == [[1, 0], [0, 0]]


@pytest.mark.parametrize("p", [P, 2 ** 31 - 1])
def test_dense_rows_with_unreduced_growth(p):
    """rank_profile_mod reduces an entry mod p only when it reads it, so on
    dense rows of 124 columns an entry takes up to about a hundred updates
    before it is read.  The profile still equals the transposed pivots of
    the Gauss-Jordan oracle and row_rank_profile, also on rows that vanish mod p only after those
    updates and on entries far outside [0, p), and every limit keeps a
    prefix of it."""
    rng = random.Random(p)
    rows = random_product(rng, 110, 124, 100, 31)
    rows += [[v + rng.choice([-3, 1, 7]) * p for v in rows[rng.randrange(110)]]
             for _ in range(10)]
    rows += [[rng.randrange(p) for _ in range(124)] for _ in range(4)]
    rng.shuffle(rows)
    full = rank_profile_mod(rows, p, 124)
    assert len(full) == 104
    assert full == field_rref(list(zip(*rows)), GF(p))[0] == row_rank_profile(rows, p)
    for k in (0, 1, 51, 103, 104):
        assert rank_profile_mod(rows, p, k) == full[:k]
