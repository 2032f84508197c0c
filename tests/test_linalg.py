import random
from fractions import Fraction
from functools import reduce
from math import gcd

from gor3._rowred_py import rref_int, rref_mod
from gor3.fields import GF, QQ
from gor3.linalg import ExactMatrix, rank_kernel


def frac_matrix(entries):
    return ExactMatrix(QQ, [[Fraction(v) for v in row] for row in entries])


def bareiss_rank_and_pivots(rows):
    """Independent fraction-free elimination oracle: returns the rank and
    the list of pivot values met during the sweep (one-step division form)."""
    m = [list(r) for r in rows]
    nr = len(m)
    nc = len(m[0]) if nr else 0
    prev = 1
    rank = 0
    pivots = []
    r = 0
    for c in range(nc):
        sel = next((i for i in range(r, nr) if m[i][c] != 0), None)
        if sel is None:
            continue
        m[r], m[sel] = m[sel], m[r]
        pivots.append(m[r][c])
        for i in range(r + 1, nr):
            for j in range(c + 1, nc):
                m[i][j] = (m[i][j] * m[r][c] - m[i][c] * m[r][j]) // prev
            m[i][c] = 0
        prev = m[r][c]
        rank += 1
        r += 1
        if r == nr:
            break
    return rank, pivots


def test_identity_rank_kernel():
    M = ExactMatrix.identity(QQ, 4)
    rank, kernel = rank_kernel(M)
    assert rank == 4
    assert kernel == []


def test_zero_matrix():
    M = ExactMatrix.zero(QQ, 3, 5)
    rank, kernel = rank_kernel(M)
    assert rank == 0
    assert len(kernel) == 5


def test_kernel_vectors_are_exact():
    rng = random.Random(11)
    for _ in range(25):
        nr, nc = rng.randint(1, 7), rng.randint(1, 7)
        M = frac_matrix([[rng.randint(-6, 6) for _ in range(nc)]
                         for _ in range(nr)])
        rank, kernel = rank_kernel(M)
        assert rank + len(kernel) == nc
        for v in kernel:
            assert all(x == 0 for x in M.matvec(v))


def test_appending_kernel_vector_keeps_rank():
    rng = random.Random(5)
    for _ in range(10):
        nr, nc = rng.randint(2, 6), rng.randint(2, 6)
        rows = [[Fraction(rng.randint(-5, 5)) for _ in range(nc)]
                for _ in range(nr)]
        M = ExactMatrix(QQ, rows)
        kernel = M.kernel_basis()
        if not kernel:
            continue
        v = kernel[0]
        extended = ExactMatrix(QQ, [row + [sum(a * b for a, b in zip(row, v))]
                                    for row in rows])
        assert extended.rank() == M.rank()


def test_rref_is_idempotent():
    rng = random.Random(7)
    for _ in range(15):
        nr, nc = rng.randint(1, 6), rng.randint(1, 6)
        M = frac_matrix([[rng.randint(-5, 5) for _ in range(nc)]
                         for _ in range(nr)])
        pivots, rows = M.rref()
        again = ExactMatrix(QQ, rows, cols=nc).rref() if rows else ([], [])
        assert again == (pivots, rows)


def test_rank_qq_vs_fp_against_oracle():
    """Rank over QQ agrees with the fraction-free oracle and with the rank
    over GF(p) whenever p divides no elimination pivot."""
    primes = [101, 103, 107, 109, 113, 127, 131]
    rng = random.Random(42)
    for _ in range(20):
        rows = [[rng.randint(-9, 9) for _ in range(6)] for _ in range(6)]
        oracle_rank, pivots = bareiss_rank_and_pivots(rows)
        M = frac_matrix(rows)
        assert M.rank() == oracle_rank
        good = next(p for p in primes
                    if all(v % p != 0 for v in pivots))
        Mp = ExactMatrix(GF(good), [[v % good for v in row] for row in rows])
        assert Mp.rank() == oracle_rank


def test_rational_entries_and_rref_normalization():
    M = ExactMatrix(QQ, [[Fraction(1, 2), Fraction(1, 3)],
                         [Fraction(3, 2), Fraction(2, 1)]])
    pivots, rows = M.rref()
    assert pivots == [0, 1]
    assert rows == [[1, 0], [0, 1]]
    # proportional rows collapse to a single pivot
    S = ExactMatrix(QQ, [[Fraction(1, 2), Fraction(1, 3)],
                         [Fraction(3, 2), Fraction(1, 1)]])
    assert S.rank() == 1
    assert S.rref()[1] == [[1, Fraction(2, 3)]]


def test_det_bareiss_and_adjugate():
    M = frac_matrix([[2, 1, 0], [1, 3, 1], [0, 1, 4]])
    d = M.det()
    assert d == Fraction(18)
    adj = M.adjugate()
    prod = [[sum(M.entries[i][k] * adj.entries[k][j] for k in range(3))
             for j in range(3)] for i in range(3)]
    assert prod == [[d if i == j else 0 for j in range(3)] for i in range(3)]


def test_det_mod_p():
    F = GF(13)
    M = ExactMatrix(F, [[2, 1], [1, 3]])
    assert M.det() == 5
    singular = ExactMatrix(F, [[1, 2], [2, 4]])
    assert singular.det() == 0


def fraction_rref(rows):
    """Independent Gauss-Jordan over Fraction: (pivots, leading-1 rows)."""
    m = [[Fraction(v) for v in r] for r in rows]
    nr = len(m)
    nc = len(m[0]) if nr else 0
    pivots = []
    r = 0
    for c in range(nc):
        sel = next((i for i in range(r, nr) if m[i][c] != 0), None)
        if sel is None:
            continue
        m[r], m[sel] = m[sel], m[r]
        m[r] = [v / m[r][c] for v in m[r]]
        for i in range(nr):
            if i != r and m[i][c] != 0:
                k = m[i][c]
                m[i] = [a - k * b for a, b in zip(m[i], m[r])]
        pivots.append(c)
        r += 1
        if r == nr:
            break
    return pivots, m[:r]


def test_kernel_contract():
    """rref_int gives primitive rows with a positive pivot and zeros in the
    other pivot columns, equal to the rational RREF once divided through;
    rref_mod gives that RREF mod p for a prime dividing no Bareiss pivot."""
    primes = [101, 103, 107, 109, 113, 127, 131]
    rng = random.Random(3)
    for _ in range(40):
        nr, nc = rng.randint(1, 8), rng.randint(1, 8)
        rows = [[rng.randint(-9, 9) for _ in range(nc)] for _ in range(nr)]
        pivots, reduced = fraction_rref(rows)
        int_pivots, out = rref_int(rows)
        assert int_pivots == pivots
        assert len(out) == len(reduced)
        for col, row, expected in zip(pivots, out, reduced):
            assert row[col] > 0
            assert reduce(gcd, row) == 1
            assert all(row[c] == 0 for c in pivots if c != col)
            assert [Fraction(v, row[col]) for v in row] == expected
        _, bareiss_pivots = bareiss_rank_and_pivots(rows)
        p = next(p for p in primes if all(v % p for v in bareiss_pivots))
        assert rref_mod([[v % p for v in r] for r in rows], p) == (
            pivots,
            [[v.numerator * pow(v.denominator, -1, p) % p for v in r]
             for r in reduced])
