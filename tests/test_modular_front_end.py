"""One RREF route for every matrix, against oracles that never take it.

``rref_rows`` takes the row rank profile (``rank_profile_mod``) of every
matrix first, modulo CERTIFICATE_PRIME over QQ and modulo p over GF(p),
whatever its shape: full rank there proves the identity RREF with no
kernel call.  Otherwise over GF(p) ``rref_mod`` back-substitutes the
echelon form of the profile rows, and over QQ ``rref_int`` sees the profile
rows only, with their pivot columns mod p to pivot in.  ``rref_rows`` then
checks that no result row is nonzero left of its pivot and that every
other row lies in their span; an unlucky prime fails the check and all
rows are eliminated left to right.  Every route must give the canonical RREF
that ``oracles.gcd_rref_int``, ``oracles.fraction_rref`` and
``oracles.field_rref`` compute, whichever prime the front end uses.
"""

import random
from fractions import Fraction
from math import gcd

import pytest

import gor3.linalg
from gor3._rowred_py import rref_int
from gor3.cases import run_case
from gor3.fields import GF, QQ
from gor3.linalg import CERTIFICATE_PRIME as P
from gor3.linalg import kernel_rows, row_profile, row_rank, rref_rows
from gor3.monomials import monomials_of_degree

from oracles import (catalecticant_rows_by_tuples, field_rref, fraction_rref,
                     gcd_rref_int, random_product, row_rank_profile)


@pytest.fixture
def kernel_calls(monkeypatch):
    """The calls of the kernels behind gor3.linalg, in order: ("int", rows)
    for rref_int, ("mod", p) for the row rank profile rank_profile_mod and
    ("rref_mod", rows) for rref_mod, which no QQ elimination reaches."""
    calls = []
    rref_int = gor3.linalg.rref_int
    rank_profile_mod = gor3.linalg.rank_profile_mod
    rref_mod = gor3.linalg.rref_mod

    def counted_int(rows, pivots=None):
        calls.append(("int", [list(r) for r in rows]))
        return rref_int(rows, pivots)

    def counted_profile(rows, p, limit):
        calls.append(("mod", p))
        return rank_profile_mod(rows, p, limit)

    def counted_mod(rows, p, basis):
        calls.append(("rref_mod", [list(r) for r in rows]))
        return rref_mod(rows, p, basis)

    monkeypatch.setattr(gor3.linalg, "rref_int", counted_int)
    monkeypatch.setattr(gor3.linalg, "rank_profile_mod", counted_profile)
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
    nc = len(rows[0]) if rows else 0
    pivots, red = rref_rows(QQ, [QQ.integer_row(e)[0] for e in entries], nc)
    out = QQ.scalar_rows(pivots, red)
    expected = fraction_rref(entries)
    assert (pivots, out) == expected
    oracle_pivots, oracle_rows = gcd_rref_int(rows)
    assert pivots == oracle_pivots
    assert out == [[Fraction(v, row[c]) for v in row]
                   for c, row in zip(oracle_pivots, oracle_rows)]
    return pivots


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
    rows = random_product(rng, 50, 36, 35, 25)
    del kernel_calls[:]
    assert len(_check(rows)) == 35
    profile = row_rank_profile(rows, P)
    assert len(profile) == 35
    assert _exact_calls(kernel_calls) == [[rows[i] for i in profile]]


def test_dependent_mod_p_but_independent_over_qq_falls_back(kernel_calls):
    # rows 0 and 1 agree mod P, so row 1 is outside the profile
    rows = [[1, 0, 2], [1 + P, P, 2], [0, 1, 1], [1, 1, 3]]
    assert row_rank_profile(rows, P) == [0, 2]
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
    # the same first row with a dependent second row: the second row lies in
    # the span of the profile row, but the pass that pivots in column 1
    # leaves P left of its pivot, so rref_rows eliminates all rows
    del kernel_calls[:]
    assert _check([[P, 1], [2 * P, 2]]) == [0]
    assert _exact_calls(kernel_calls) == [[[P, 1]], [[P, 1], [2 * P, 2]]]
    # mod P the pivot columns are 1 and 2, over QQ 0 and 2: the profile is
    # every row, and the pass that pivots inside 1 and 2 leaves P in column
    # 0, left of the first pivot; rref_rows then takes the left-to-right
    # pass on all rows, the same rows here
    del kernel_calls[:]
    assert _check([[P, 1, 0], [0, 0, 1]]) == [0, 2]
    assert _exact_calls(kernel_calls) == [[[P, 1, 0], [0, 0, 1]]] * 2


def test_socle_pieces_pivot_inside_their_profile(rref_int_calls):
    """The ten (5, 2) socle-degree pieces of a seed-23 model-properness
    pass over QQ reach rref_int with the pivot columns of their profile
    rows, one per row, and give the RREF of the left-to-right pass."""
    assert run_case("model-properness", QQ, 23).passed
    pieces = [(rows, pivots) for rows, pivots in rref_int_calls if len(rows) == 35]
    assert len(pieces) == 10
    for rows, pivots in pieces:
        assert len(pivots) == 35
        assert rref_int(rows, pivots) == rref_int(rows)


def test_wide_matrices_take_the_front_end(kernel_calls):
    """A matrix with fewer rows than columns takes the profile like any
    other: of full row rank, all its rows are the profile rows; rank
    deficient, rref_int sees the profile rows only; with rows that vanish
    mod P, the empty profile fails the check and all rows are eliminated."""
    rows = [[1, 2, 3], [2, 4, 7]]
    del kernel_calls[:]
    assert _check(rows) == [0, 2]
    assert kernel_calls == [("mod", P), ("int", rows)]
    rows = [[1, 2, 3, 0], [2, 4, 6, 0], [0, 0, 1, 5]]
    del kernel_calls[:]
    assert _check(rows) == [0, 2]
    assert kernel_calls == [("mod", P), ("int", [rows[0], rows[2]])]
    rows = [[P, 2 * P, 0], [0, P, -3 * P]]
    del kernel_calls[:]
    assert _check(rows) == [0, 1]
    assert kernel_calls == [("mod", P), ("int", []), ("int", rows)]


def test_prime_field_rref_reduces_the_profile_rows_only(kernel_calls):
    """Over GF(p) a full profile returns the identity with no rref_mod call;
    a short one hands rref_mod its profile rows alone, once."""
    field = GF(32003)
    rng = random.Random(38)
    for nr, nc in [(7, 4), (4, 4)]:
        rows = [[rng.randint(0, 32002) for _ in range(nc)] for _ in range(nr)]
        del kernel_calls[:]
        assert rref_rows(field, rows, nc) == field_rref(rows, field)
        assert kernel_calls == [("mod", 32003)]
    for nr, nc, rank in [(7, 4, 3), (3, 6, 2), (6, 6, 1)]:
        rows = [[v % 32003 for v in row] for row in random_product(rng, nr, nc, rank, 8)]
        profile = row_rank_profile(rows, 32003)
        assert len(profile) == rank
        del kernel_calls[:]
        assert rref_rows(field, rows, nc) == field_rref(rows, field)
        assert kernel_calls == [("mod", 32003), ("rref_mod", [rows[i] for i in profile])]


@pytest.mark.parametrize("field", [QQ, GF(7), GF(32003)], ids=str)
def test_seeded_wide_and_tall_matrices_of_every_rank(field, kernel_calls):
    """Seeded wide and tall matrices, of full rank and rank deficient, give
    field_rref's RREF over either field after one row profile, and over
    GF(p) hand rref_mod their profile rows exactly when the profile is
    short of nc rows."""
    rng = random.Random(3838)
    seen = set()
    for _ in range(160):
        nr, nc = rng.sample(range(1, 10), 2)
        full = min(nr, nc)
        rank = rng.randint(1, full)
        rows = random_product(rng, nr, nc, rank, rng.choice([2, 30]))
        if rng.random() < 0.2:
            rows[rng.randrange(nr)] = [0] * nc
        del kernel_calls[:]
        pivots, red = rref_rows(field, rows, nc)
        expected = field_rref(rows, field)
        assert (pivots, field.scalar_rows(pivots, red)) == expected
        assert [kind for kind, _ in kernel_calls].count("mod") == 1
        reduced = [arg for kind, arg in kernel_calls if kind == "rref_mod"]
        if field == QQ or len(pivots) == nc:
            assert reduced == []
        else:
            assert reduced == [[rows[i] for i in row_rank_profile(rows, field.p)]]
        seen.add((nr < nc, len(pivots) == full))
    assert seen == {(True, True), (True, False), (False, True), (False, False)}


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
            rows = random_product(rng, nr, nc, rng.randint(1, nc), rng.choice([3, 60]))
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


# 2^31 - 1, the largest prime below 2^30 and the largest below 2^15
PRIMES = (2 ** 31 - 1, 1073741789, 32749)


def _expected_kernel(rows, nc):
    """The kernel_rows contract from the Fraction oracle: for each free
    column c, L times the kernel vector with 1 at c and 0 at the other free
    columns, L being the lcm of the pivot entries of the primitive RREF."""
    pivots, red = fraction_rref(rows)
    lcm = 1
    for c, row in zip(*gcd_rref_int(rows)):
        lcm = lcm * row[c] // gcd(lcm, row[c])
    basis = []
    for c in (c for c in range(nc) if c not in pivots):
        vec = [Fraction(0)] * nc
        vec[c] = Fraction(1)
        for p, row in zip(pivots, red):
            vec[p] = -row[c]
        basis.append([int(lcm * v) for v in vec])
    return basis, lcm


def _answers_at_each_prime(monkeypatch, rows, nc):
    """{prime: (rref_rows, row_rank, kernel_rows, fell_back)} over tall or
    square integer rows over QQ, CERTIFICATE_PRIME set to each prime in
    turn.  fell_back tells whether rref_int saw all rows: the front end
    hands it fewer than nc <= len(rows) rows unless the prime is unlucky."""
    out = {}
    for p in PRIMES:
        monkeypatch.setattr(gor3.linalg, "CERTIFICATE_PRIME", p)
        seen = []
        monkeypatch.setattr(gor3.linalg, "rref_int",
                            lambda r, pivots=None:
                            seen.append(len(r)) or rref_int(r, pivots))
        out[p] = (rref_rows(QQ, rows, nc), row_rank(QQ, rows, nc),
                  kernel_rows(QQ, rows, nc), len(rows) in seen)
    return out


def _prime_free_matrices(rng):
    """(rows, unlucky): seeded tall and square integer matrices; where
    unlucky is a prime, rows were built to vanish or coincide modulo it."""
    for p in PRIMES:
        yield [[1, 0, 2], [1 + p, p, 2], [0, 1, 1], [1, 1, 3]], p
        yield [[p, 1], [2 * p, 3]], p
        for _ in range(12):
            nc = rng.randint(1, 6)
            nr = nc + rng.randint(0, 4)
            yield [[rng.randint(-9, 9) for _ in range(nc)] for _ in range(nr)], None
            yield [[rng.choice([0, 1, -1, 2]) * p + rng.choice([0, 0, 1])
                    for _ in range(nc)] for _ in range(nr)], p
    # degree-2 catalecticants (15 x 6) of the binomial dual form
    # X^3*Y^3 + Z^6, rank 4, and of the divided power of X + 2Y + 3Z, rank 1
    yield catalecticant_rows_by_tuples(3, 6, {(3, 3, 0): 1, (0, 0, 6): 1}, 2), None
    power = {e: 2 ** e[1] * 3 ** e[2] for e in monomials_of_degree(3, 6)}
    yield catalecticant_rows_by_tuples(3, 6, power, 2), None


def test_no_answer_depends_on_the_prime(monkeypatch):
    """rref_rows, row_rank and kernel_rows over QQ give the oracle's answer
    modulo any certificate prime, and matrices built on a prime's multiples
    take the unlucky-prime fallback at that prime."""
    fallbacks = {p: 0 for p in PRIMES}
    for rows, unlucky in _prime_free_matrices(random.Random(3)):
        nc = len(rows[0])
        answers = _answers_at_each_prime(monkeypatch, rows, nc)
        pivots, red = gcd_rref_int(rows)
        expected = ((pivots, red), len(pivots), _expected_kernel(rows, nc))
        for p, (*got, fell_back) in answers.items():
            assert tuple(got) == expected, p
            if unlucky == p:
                fallbacks[p] += fell_back
    # the two hand-built matrices and some of the seeded ones, at each prime
    assert all(count >= 4 for count in fallbacks.values()), fallbacks


def test_a_profile_passed_in_gives_the_same_rref(monkeypatch):
    """rref_rows with the row profile and echelon form the caller took (as
    the Artinian walk passes them, one value from one pass) equals rref_rows
    without them, over QQ modulo each prime and over GF(p) from the profile
    rows alone, for tall and wide matrices."""
    rng = random.Random(8)
    matrices = [rows for rows, _ in _prime_free_matrices(rng)]
    matrices += [[list(col) for col in zip(*rows)] for rows in matrices]
    matrices += [[[rng.randint(-3, 3) for _ in range(7)] for _ in range(3)]
                 for _ in range(10)]
    for field in (GF(7), GF(32003)):
        for rows in matrices:
            nc = len(rows[0])
            echelon = row_profile(field, rows, nc)
            assert rref_rows(field, rows, nc, echelon) == rref_rows(field, rows, nc)
    for p in PRIMES:
        monkeypatch.setattr(gor3.linalg, "CERTIFICATE_PRIME", p)
        for rows in matrices:
            nc = len(rows[0])
            echelon = row_profile(QQ, rows, nc)
            assert rref_rows(QQ, rows, nc, echelon) == gcd_rref_int(rows)
