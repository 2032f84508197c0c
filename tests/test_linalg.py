import random
from collections import Counter
from fractions import Fraction
from functools import reduce
from math import gcd, lcm

import pytest

import gor3.linalg
from gor3._rowred_py import _bareiss, rank_profile_mod, rref_int, rref_mod
from gor3.fields import GF, QQ
from gor3.linalg import (CERTIFICATE_PRIME, ExactMatrix, kernel_rows, maximal_minors,
                         normal_form, row_profile, row_rank, rref_rows)
from oracles import Span, det_by_minors, fraction_rref, gcd_rref_int


def frac_matrix(entries):
    return ExactMatrix(QQ, [[Fraction(v) for v in row] for row in entries])


def standard_bareiss(rows):
    """Independent fraction-free elimination oracle, one-step division form:
    at every step every row below the pivot is updated, a row with a zero
    in the pivot column too (it is rescaled by pivot / previous pivot).

    Returns (m, cols, lazy): the eliminated matrix, the pivot columns, and
    the lazy paths a kernel that skips those rescales must take, "updated"
    when a row left behind by a rescale is later updated and "pivot" when
    such a row becomes the pivot row."""
    m = [list(r) for r in rows]
    nr = len(m)
    nc = len(m[0]) if nr else 0
    level = [1] * nr        # the pivot of the step that last updated a row
    lazy = set()
    prev = 1
    cols = []
    r = 0
    for c in range(nc):
        sel = next((i for i in range(r, nr) if m[i][c] != 0), None)
        if sel is None:
            continue
        m[r], m[sel] = m[sel], m[r]
        level[r], level[sel] = level[sel], level[r]
        if level[r] != prev:
            lazy.add("pivot")
        a = m[r][c]
        for i in range(r + 1, nr):
            if m[i][c]:
                if level[i] != prev:
                    lazy.add("updated")
                level[i] = a
            for j in range(c + 1, nc):
                m[i][j] = (m[i][j] * a - m[i][c] * m[r][j]) // prev
            m[i][c] = 0
        prev = a
        cols.append(c)
        r += 1
        if r == nr:
            break
    return m, cols, lazy


def bareiss_rank_and_pivots(rows):
    """The rank and the pivot values met during the sweep of
    standard_bareiss."""
    m, cols, _ = standard_bareiss(rows)
    return len(cols), [m[k][c] for k, c in enumerate(cols)]


def test_identity_rank_kernel():
    identity = [[int(i == j) for j in range(4)] for i in range(4)]
    assert row_rank(QQ, identity, 4) == 4
    assert kernel_rows(QQ, identity, 4) == ([], 1)


def test_zero_matrix():
    zero = [[0] * 5 for _ in range(3)]
    assert row_rank(QQ, zero, 5) == 0
    assert len(kernel_rows(QQ, zero, 5)[0]) == 5


def test_kernel_vectors_are_exact():
    rng = random.Random(11)
    for _ in range(25):
        nr, nc = rng.randint(1, 7), rng.randint(1, 7)
        rows = [[rng.randint(-6, 6) for _ in range(nc)] for _ in range(nr)]
        kernel = frac_matrix(rows).kernel_basis()
        assert row_rank(QQ, rows, nc) + len(kernel) == nc
        for v in kernel:
            assert all(sum(a * b for a, b in zip(row, v)) == 0 for row in rows)


def test_appending_kernel_vector_keeps_rank():
    rng = random.Random(5)
    for _ in range(10):
        nr, nc = rng.randint(2, 6), rng.randint(2, 6)
        rows = [[rng.randint(-5, 5) for _ in range(nc)] for _ in range(nr)]
        kernel = frac_matrix(rows).kernel_basis()
        if not kernel:
            continue
        v = kernel[0]
        extended = [QQ.integer_row(row + [sum(a * b for a, b in zip(row, v))])[0]
                    for row in rows]
        assert row_rank(QQ, extended, nc + 1) == row_rank(QQ, rows, nc)


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
        assert row_rank(QQ, rows, 6) == oracle_rank
        good = next(p for p in primes
                    if all(v % p != 0 for v in pivots))
        residues = [[v % good for v in row] for row in rows]
        assert row_rank(GF(good), residues, 6) == oracle_rank


def test_rational_entries_and_rref_normalization():
    M = ExactMatrix(QQ, [[Fraction(1, 2), Fraction(1, 3)],
                         [Fraction(3, 2), Fraction(2, 1)]])
    pivots, rows = M.rref()
    assert pivots == [0, 1]
    assert rows == [[1, 0], [0, 1]]
    # proportional rows collapse to a single pivot
    S = ExactMatrix(QQ, [[Fraction(1, 2), Fraction(1, 3)],
                         [Fraction(3, 2), Fraction(1, 1)]])
    assert S.rref() == ([0], [[1, Fraction(2, 3)]])


@pytest.mark.parametrize("field", [QQ, GF(13)], ids=str)
def test_det_small_cases(field):
    """2 x 2, singular, 0 x 0 (the empty product), a row swap (the sign)
    and non-square input, which raises."""
    def det(rows):
        return ExactMatrix(field, rows).det()

    assert det([[2, 1], [1, 3]]) == 5
    assert det([[1, 2], [2, 4]]) == 0
    assert det([]) == field.one
    assert det([[0, 1], [1, 0]]) == field.neg(field.one)
    assert det([[0, 1, 0], [1, 0, 0], [0, 0, 3]]) == field.neg(field.of(3))
    for rows in ([[1, 2, 3], [4, 5, 6]], [[1, 2], [3, 4], [5, 6]], [[1, 2], [3]]):
        with pytest.raises(ValueError):
            det(rows)


def test_det_bareiss_and_adjugate():
    """det of a Fraction matrix, A * adj(A) = det(A) * I, and Cramer's rule:
    entry i of last * adj(top) equals det of top with row i replaced by
    last, singular tops included."""
    M = frac_matrix([[2, 1, 0], [1, 3, 1], [0, 1, 4]])
    d = M.det()
    assert d == Fraction(18)
    adj = M.adjugate()
    prod = [[sum(M.entries[i][k] * adj.entries[k][j] for k in range(3))
             for j in range(3)] for i in range(3)]
    assert prod == [[d if i == j else 0 for j in range(3)] for i in range(3)]
    rng = random.Random(31)
    for field in (QQ, GF(13)):
        singular = 0
        for _ in range(30):
            n = rng.randint(1, 5)
            top = [[field.of(rng.randint(-4, 4)) for _ in range(n)] for _ in range(n)]
            if n > 1 and rng.random() < 0.3:
                top[-1] = list(top[0])
            last = [field.of(rng.randint(-4, 4)) for _ in range(n)]
            singular += field.is_zero(ExactMatrix(field, top).det())
            adj = ExactMatrix(field, top).adjugate().entries
            for i in range(n):
                cramer = field.of(sum(last[k] * adj[k][i] for k in range(n)))
                replaced = ExactMatrix(field, top[:i] + [last] + top[i + 1:])
                assert replaced.det() == cramer
        assert singular > 3


def test_det_mod_p():
    F = GF(13)
    M = ExactMatrix(F, [[2, 1], [1, 3]])
    assert M.det() == 5
    singular = ExactMatrix(F, [[1, 2], [2, 4]])
    assert singular.det() == 0
    # determinant 13: singular mod 13 alone
    rows = [[1, 2], [2, 4 + 13]]
    assert ExactMatrix(QQ, rows).det() == 13
    assert ExactMatrix(F, rows).det() == 0
    assert ExactMatrix(GF(32003), rows).det() == 13


@pytest.mark.parametrize("field", [QQ, GF(32003), GF(2), GF(3)], ids=str)
def test_maximal_minors_equal_the_column_deleted_determinants(field):
    """maximal_minors of k x (k+1) rows equals ExactMatrix.det of each block
    with one column deleted, value and type (a Fraction over QQ), at full
    rank, below it, and with a singular leading k x k block."""
    rng = random.Random(41)

    def entry():
        if field == QQ:
            return Fraction(rng.randint(-6, 6), rng.randint(1, 5))
        return field.of(rng.randint(-4, 4))

    shapes = Counter()
    for _ in range(150):
        k = rng.randint(1, 6)
        rows = [[entry() if rng.random() < 0.8 else field.zero for _ in range(k + 1)]
                for _ in range(k)]
        if k > 1 and rng.random() < 0.3:
            rows[-1] = list(rows[0])        # rank below k
        elif rng.random() < 0.3:
            j = rng.randrange(k)            # leading block singular
            for row in rows:
                row[j] = field.zero
        want = [ExactMatrix(field, [[v for c, v in enumerate(row) if c != j]
                                    for row in rows]).det() for j in range(k + 1)]
        got = maximal_minors(field, rows)
        assert got == want, rows
        assert [type(v) for v in got] == [type(v) for v in want]
        full = any(not field.is_zero(v) for v in got)
        shapes["full" if full else "low"] += 1
        shapes["singular lead"] += full and field.is_zero(got[k])
    assert min(shapes.values()) >= 10, shapes


def test_kernel_contract():
    """rref_int gives primitive rows with a positive pivot and zeros in the
    other pivot columns, equal to the rational RREF once divided through;
    rref_mod, back-substituting the echelon form rank_profile_mod keeps,
    gives that RREF mod p for a prime dividing no Bareiss pivot."""
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
        residues = [[v % p for v in r] for r in rows]
        profile, basis = rank_profile_mod(residues, p, nc)
        assert rref_mod([residues[i] for i in profile], p, basis) == (
            pivots,
            [[v.numerator * pow(v.denominator, -1, p) % p for v in r]
             for r in reduced])


def _product(rng, nr, nc, rank, bits):
    """An nr x nc integer matrix of rank at most rank, as a product of
    random factors with entries of up to bits bits."""
    left = [[rng.randint(-2 ** bits, 2 ** bits) for _ in range(rank)]
            for _ in range(nr)]
    right = [[rng.randint(-2 ** bits, 2 ** bits) for _ in range(nc)]
             for _ in range(rank)]
    return [[sum(a * b for a, b in zip(row, col)) for col in zip(*right)]
            for row in left]


def _kernel_inputs():
    rng = random.Random(2024)
    fixed = [
        [],
        [[0, 0, 0], [0, 0, 0]],                  # the zero matrix
        [[0, 0, 3, -6, 9]],                      # 1 x n, zero columns first
        [[0], [-4], [6]],                        # n x 1
        [[0, 0, 1, 2], [0, 0, 3, 4]],            # zero columns before a pivot
        [[1, 1, 0], [1, 1, 1], [0, 1, 0]],       # step 2 needs a row swap
        [[1, 2], [3, 4]],                        # last Bareiss pivot -2
        [[2, 1, 5], [4, 1, 7], [6, 1, 9]],       # rank 2, last pivot -2
    ]
    random_inputs = []
    for k in range(1000):
        nr, nc = rng.randint(1, 9), rng.randint(1, 9)
        kind = k % 5
        if kind == 0:
            rows = [[rng.randint(-9, 9) if rng.random() < 0.6 else 0
                     for _ in range(nc)] for _ in range(nr)]
        elif kind == 1:
            rows = _product(rng, nr, nc, rng.randint(1, 3), 4)
        elif kind == 2:
            lead = rng.randint(1, 3)
            rows = [[0] * lead + r for r in _product(rng, nr, nc, rng.randint(1, 4), 3)]
        elif kind == 3:
            # repeated and scaled rows: pivots often sit below the next row
            base = [[rng.randint(-5, 5) for _ in range(nc)] for _ in range(3)]
            rows = [[rng.choice([1, -1, 2, 3]) * v for v in rng.choice(base)]
                    for _ in range(nr)]
            for r in rows:
                r[rng.randrange(nc)] += rng.randint(-1, 1)
        else:
            rows = _product(rng, nr, nc, rng.randint(1, min(nr, nc)), 60)
        random_inputs.append(rows)
    # the shape and input size of the socle-degree pieces (50 x 36, rank 35,
    # about 52-bit entries), its transpose shape, and entries of 600 bits
    big = [_product(rng, 50, 36, 35, 25), _product(rng, 36, 50, 12, 10),
           _product(rng, 8, 10, 6, 300),
           [[rng.randint(-2 ** 600, 2 ** 600) for _ in range(6)] for _ in range(10)]]
    return fixed, random_inputs, big


def test_kernel_against_both_oracles():
    """rref_int equals the gcd Gauss-Jordan kernel it replaced and, divided
    through by its pivots, the Fraction Gauss-Jordan."""
    fixed, random_inputs, big = _kernel_inputs()
    shapes = set()
    negative_last = 0
    for rows in fixed + random_inputs + big:
        result = rref_int(rows)
        assert result == gcd_rref_int(rows)
        pivots, out = result
        expected_pivots, expected = fraction_rref(rows)
        assert pivots == expected_pivots
        assert [[Fraction(v, row[c]) for v in row]
                for c, row in zip(pivots, out)] == expected
        if rows:
            nr, nc = len(rows), len(rows[0])
            shapes.add((nr > nc) - (nr < nc))
            rank, bareiss_pivots = bareiss_rank_and_pivots(rows)
            negative_last += bool(rank) and bareiss_pivots[-1] < 0
    assert shapes == {-1, 0, 1}
    assert negative_last > 100
    assert len(rref_int(big[0])[0]) == 35
    assert max(abs(v).bit_length() for v in big[-1][0]) >= 590


# Matrices whose Bareiss elimination meets chains of zero pivot-column
# entries, each with the lazy paths it takes (standard_bareiss).
LAZY = [
    # row 1 skips step 0 and is the pivot row of step 1; row 2 skips step 0
    # and is updated at step 1
    ([[3, 1, 2, 5], [0, 2, 1, 1], [0, 5, 4, 7]], {"pivot", "updated"}),
    # upper triangular, negative pivots: each row lags until it is chosen
    ([[-2, 1, 3, 4], [0, -3, 5, 1], [0, 0, -5, 2], [0, 0, 0, 7]], {"pivot"}),
    # row 3 skips steps 0 and 1, then is updated at step 2 and chosen at 3
    ([[2, 1, 1, 0, 1], [1, -3, 1, 2, 0], [0, 0, -4, 1, 3], [0, 0, 5, 6, -1],
      [0, 0, 0, 0, 0]], {"pivot", "updated"}),
    # more rows than columns, a zero row and a repeated row: rank 3 of 6
    ([[0, 0, 7], [-1, 2, 0], [0, 0, 0], [0, 3, 1], [0, 0, 7], [-2, 4, 0]],
     {"pivot", "updated"}),
    # rank deficient: the last row is the sum of two lagging rows
    ([[5, 0, 1, 2], [0, -2, 0, 3], [0, 0, 3, 1], [0, -2, 3, 4]], {"pivot", "updated"}),
    # a lagging row becomes the pivot row after a row swap
    ([[0, 0, 2, 1], [4, 1, 0, 0], [0, 0, -3, 2], [0, 6, 1, 1]], {"pivot", "updated"}),
]


def _staircases(rng):
    """Seeded sparse matrices whose rows start at random columns (negative
    entries, zero rows, rank deficiency and every shape), some with 40-bit
    entries, in a random row order."""
    for k in range(300):
        nr, nc = rng.randint(1, 9), rng.randint(1, 9)
        bits = 40 if k % 10 == 0 else 3
        rows = []
        for _ in range(nr):
            start = rng.randint(0, nc)
            rows.append([0] * start + [rng.randint(-2 ** bits, 2 ** bits)
                                       if rng.random() < 0.5 else 0
                                       for _ in range(nc - start)])
        if nr > 2 and k % 3 == 0:
            rows[-1] = [a - 2 * b for a, b in zip(rows[0], rows[1])]
        rng.shuffle(rows)
        yield rows


def test_lazy_bareiss_paths():
    """_bareiss leaves a row with a zero in the pivot column as it is and
    divides it by its own level when it is next updated or chosen.  Its
    pivot rows and pivots equal the standard elimination's, the rows below
    its rank end zero, sign times the last pivot is the determinant, and
    rref_int equals the Fraction Gauss-Jordan."""
    seen = set()
    shapes = set()
    for rows, lazy in LAZY:
        assert standard_bareiss(rows)[2] == lazy, rows
    for rows in [rows for rows, _ in LAZY] + list(_staircases(random.Random(8))):
        expected_m, expected_cols, lazy = standard_bareiss(rows)
        seen |= lazy
        work = list(rows)
        pivots, sign = _bareiss(work)
        rank = len(pivots)
        assert pivots == expected_cols
        assert work[:rank] == expected_m[:rank]
        assert not any(any(r) for r in work[rank:])
        nr, nc = len(rows), len(rows[0])
        shapes.add((nr > nc) - (nr < nc))
        if nr == nc:
            last = sign * work[-1][pivots[-1]] if rank == nr else 0
            assert last == det_by_minors(rows), rows
        out_pivots, out = rref_int(rows)
        expected_pivots, expected = fraction_rref(rows)
        assert out_pivots == expected_pivots == pivots
        assert [[Fraction(v, row[c]) for v in row]
                for c, row in zip(out_pivots, out)] == expected
    assert seen == {"pivot", "updated"}
    assert shapes == {-1, 0, 1}


def _profile_inputs():
    """Every matrix of test_kernel_against_both_oracles and test_lazy_bareiss_paths."""
    fixed, random_inputs, big = _kernel_inputs()
    return (fixed + random_inputs + big + [rows for rows, _ in LAZY]
            + list(_staircases(random.Random(8))))


def _profiles():
    """(rows, chosen, columns, unlucky) for every matrix rows of
    _profile_inputs with a row and a column: chosen its profile rows from
    row_profile over QQ, columns their pivot columns modulo the certificate
    prime, and unlucky whether those are not their pivot columns over QQ."""
    for rows in _profile_inputs():
        if not rows or not rows[0]:
            continue
        nc = len(rows[0])
        profile, basis = row_profile(QQ, rows, nc)
        chosen = [rows[i] for i in profile]
        yield rows, chosen, sorted(basis), rref_int(chosen)[0] != sorted(basis)


@pytest.mark.parametrize("prime", [2, 3, CERTIFICATE_PRIME])
def test_pivots_inside_the_profile_give_the_same_rref(prime, monkeypatch):
    """rref_rows over QQ, which hands rref_int the profile rows and their
    pivot columns modulo the certificate prime, equals the left-to-right
    rref_int of all rows, on matrices of every shape.  Modulo 2 and 3 the
    column profile often differs from the one over QQ, and rref_rows
    eliminates all rows again."""
    monkeypatch.setattr(gor3.linalg, "CERTIFICATE_PRIME", prime)
    shapes = set()
    unlucky = 0
    for rows, _, _, mismatch in _profiles():
        nr, nc = len(rows), len(rows[0])
        shapes.add((nr > nc) - (nr < nc))
        assert rref_rows(QQ, rows, nc) == rref_int(rows)
        unlucky += mismatch
    assert shapes == {-1, 0, 1}
    assert unlucky > (0 if prime == CERTIFICATE_PRIME else 20)


@pytest.mark.parametrize("prime", [2, 3])
def test_pivots_outside_the_column_profile_give_the_row_space(prime, monkeypatch):
    """rref_int(rows, P), P pivot columns of rows modulo prime that are not
    their pivot columns over QQ, returns primitive rows, one per column of
    P in order, each with a positive entry at its own column of P and zero
    at the others.  They span the row space of rref_int(rows): each has a
    zero residual against its normal_form.  Some row is nonzero left of its
    pivot, which is what rref_rows checks; otherwise they would be a second
    RREF of the same row space."""
    monkeypatch.setattr(gor3.linalg, "CERTIFICATE_PRIME", prime)
    unlucky = 0
    for _, chosen, columns, mismatch in _profiles():
        if not mismatch:
            assert rref_int(chosen, columns) == rref_int(chosen)
            continue
        unlucky += 1
        nc = len(chosen[0])
        pivots, out = rref_int(chosen, columns)
        assert pivots == columns and len(out) == len(chosen)
        for c, row in zip(pivots, out):
            assert row[c] > 0 and gcd(*row) == 1
            assert not any(row[p] for p in pivots if p != c)
        assert any(any(row[:c]) for c, row in zip(pivots, out))
        _, free, nf = normal_form(*rref_int(chosen), nc)
        for row in out:
            assert not any(sum(v * nf[x][j] for x, v in enumerate(row) if v)
                           for j in range(len(free)))
    assert unlucky > 20


def test_pivots_inside_the_profile_take_the_least_entry():
    """With columns P, _bareiss takes row k as the pivot row of step k with no
    swap, and pivots on its entry of least absolute value among the columns
    of P not yet used, although columns outside P hold smaller ones.  Entry c
    of row k is then the minor of rows 0..k at the columns pivoted before it
    and c (Bareiss 1968), which the oracle computes by expansion."""
    rng = random.Random(53)
    tried = outside = 0
    while tried < 150:
        nr = rng.randint(1, 5)
        nc = nr + rng.randint(1, 3)
        rows = [[rng.randint(-30, 30) for _ in range(nc)] for _ in range(nr)]
        for r in rows:
            r[rng.randrange(nc)] = rng.choice([1, -1])
        profile, basis = row_profile(QQ, rows, nc)
        if len(profile) < nr:
            continue
        tried += 1
        columns = sorted(basis)
        work = list(rows)
        pivots, sign = _bareiss(work, columns)
        assert sign == 1 and sorted(pivots) == columns
        for k, col in enumerate(pivots):
            minors = {c: det_by_minors([[row[j] for j in pivots[:k] + [c]]
                                        for row in rows[:k + 1]])
                      for c in range(nc) if c not in pivots[:k]}
            assert {c: work[k][c] for c in minors} == minors
            assert abs(minors[col]) == min(abs(minors[c]) for c in columns
                                           if c not in pivots[:k] and minors[c])
            outside += any(0 < abs(v) < abs(minors[col])
                           for c, v in minors.items() if c not in columns)
    assert outside > 20


def _seeded_rrefs(field, rng):
    """(rows, nc, pivots, red) for seeded low-rank integer matrices, taken
    mod p over GF(p), with their integer RREF from rref_rows."""
    out = []
    for _ in range(80):
        nr, nc = rng.randint(1, 9), rng.randint(1, 9)
        rows = _product(rng, nr, nc, rng.randint(1, min(nr, nc)), rng.choice([3, 40]))
        if field.characteristic:
            rows = [[v % field.characteristic for v in row] for row in rows]
        out.append((rows, nc, *rref_rows(field, rows, nc)))
    return out


@pytest.mark.parametrize("field", [QQ, GF(32003)], ids=str)
def test_kernel_basis_is_the_transposed_normal_form(field):
    for rows, nc, pivots, red in _seeded_rrefs(field, random.Random(19)):
        L, free, nf = normal_form(pivots, red, nc)
        assert free == [c for c in range(nc) if c not in pivots]
        assert L == lcm(1, *(row[p] for p, row in zip(pivots, red)))
        for i, c in enumerate(free):
            assert nf[c] == [L if j == i else 0 for j in range(len(free))]
        basis = [[nf[x][j] for x in range(nc)] for j in range(len(free))]
        assert kernel_rows(field, rows, nc) == (basis, L)
        for vec in basis:
            for row in rows:
                assert field.is_zero(sum(a * b for a, b in zip(row, vec)))


@pytest.mark.parametrize("field", [QQ, GF(32003)], ids=str)
def test_residual_vanishes_exactly_on_the_span(field):
    """sum(v[x] * nf[x]) is zero exactly when the Fraction oracle puts v in
    the row space: combinations of the rows, the same moved off one entry,
    and random rows."""
    rng = random.Random(23)
    seen = set()
    for rows, nc, pivots, red in _seeded_rrefs(field, rng):
        _, free, nf = normal_form(pivots, red, nc)
        span = Span(field, nc)
        for row in rows:
            span.add([field.of(v) for v in row])
        candidates = [[rng.randint(-9, 9) for _ in range(nc)]]
        for _ in range(3):
            coeffs = [rng.randint(-5, 5) for _ in rows]
            combo = [sum(c * row[j] for c, row in zip(coeffs, rows)) for j in range(nc)]
            moved = list(combo)
            moved[rng.randrange(nc)] += 1
            candidates += [combo, moved]
        for vec in candidates:
            residual = [sum(v * nf[x][j] for x, v in enumerate(vec))
                        for j in range(len(free))]
            in_span = span.residual([field.of(v) for v in vec])[1] is None
            assert all(field.is_zero(v) for v in residual) == in_span
            seen.add(in_span)
    assert seen == {True, False}


@pytest.mark.parametrize("field", [QQ, GF(13), GF(32003)], ids=str)
def test_det_shares_the_bareiss_pass(field):
    """det clears denominators row by row (over GF(p) it reads the residues
    as integers) and reads the last Bareiss pivot; the row swaps fix its
    sign.  Over GF(p) it equals the integer determinant mod p, entries
    given as negative ints or ints >= p included."""
    if field == QQ:
        def entry(rng):
            return Fraction(rng.randint(-6, 6), rng.choice([1, 1, 2, 3]))

        def expected(rows):
            return det_by_minors(rows)
    else:
        p = field.p

        def entry(rng):
            return rng.choice([rng.randint(-6, 6), rng.randint(-3 * p, 3 * p)])

        def expected(rows):
            return det_by_minors(rows) % p

    rng = random.Random(17)
    cases = []
    for _ in range(60):
        n = rng.randint(1, 5)
        rows = [[entry(rng) if rng.random() < 0.7 else field.zero for _ in range(n)]
                for _ in range(n)]
        cases.append(rows)
        if n > 1:
            # singular: the last row repeats a multiple of the first
            k = rng.randint(-3, 3)
            cases.append(rows[:-1] + [[k * v for v in rows[0]]])
    # a zero leading entry forces a row swap at every step
    cases.append([[0, 0, 2], [0, 3, 1], [5, 1, 1]])
    cases.append([[0, 1], [1, 0]])
    cases.append([[1, 2], [2, 4]])
    swaps = 0
    for rows in cases:
        d = ExactMatrix(field, rows).det()
        assert d == expected(rows), rows
        if field != QQ:
            assert 0 <= d < field.p
        swaps += rows[0][0] == 0
    assert swaps > 10
    assert ExactMatrix(field, [[0, 1], [1, 0]]).det() == field.neg(field.one)
    assert ExactMatrix(field, [[1, 2], [2, 4]]).det() == 0
