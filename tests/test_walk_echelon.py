"""The Artinian walk's one forward pass and the rows it passes over.

rank_profile_mod keeps its echelon form in the dict basis, and rref_mod,
given that form with the profile rows, finishes their RREF by
back-substitution alone.  It must equal the Gauss-Jordan pass of
``oracles.field_rref`` over those rows: on seeded wide, tall, rank-0,
rank-deficient and full-rank matrices over GF(2), GF(3), GF(7) and
GF(32003), and on every degree the walk profiles for the registry's ideals
over those fields.  Without an echelon form rref_mod takes the pass itself,
and must equal the same oracle on seeded empty, zero, wide, tall,
rank-deficient and full-rank matrices with entries outside [0, p).

The walk passes over every x_k multiple of a row that fell outside the
profile one degree down.  The profile and the echelon form must equal
those of a pass that reads every row, at every degree, and the answers
(the Artinian bound, the Hilbert table, the socle report) those of a walk
with the skip switched off: on the registry's ideals and seeded random
ideals over QQ and the same four prime fields, and over QQ modulo the tiny
primes 2, 3 and 5 as well.
"""

import random

import pytest

import gor3.ideals
import gor3.linalg
from gor3 import GradedIdeal, MultiPoly
from gor3._rowred_py import rank_profile_mod, rref_mod
from gor3.cases import (ex_2_5_ideal, ex_3_7_ideal, ex_4_5_ideal, ex_4_9_ideal,
                        five_gen_monomial_ideal, monomial_tower_ideal,
                        monomial_tower_squared, random_quadrics)
from gor3.fields import GF, QQ
from gor3.ideals import NotArtinianError
from gor3.monomials import monomials_of_degree
from gor3.pfaffians import generic_power_model

from oracles import field_rref, random_product

PRIMES = [2, 3, 7, 32003]


def _matrices(rng, p):
    """(label, rows): seeded wide, tall, rank-0, rank-deficient and
    full-rank integer matrices, some with entries far outside [0, p)."""
    for k in range(12):
        nc = rng.randint(1, 10)
        yield "wide", random_product(rng, rng.randint(1, nc), nc, rng.randint(1, nc), 8)
        yield "tall", random_product(rng, nc + rng.randint(1, 6), nc, rng.randint(1, nc), 8)
        yield "rank 0", [[rng.randint(-3, 3) * p for _ in range(nc)]
                         for _ in range(rng.randint(1, 4))]
        rank = rng.randint(1, max(nc - 1, 1))
        yield "rank deficient", random_product(rng, nc + 2, nc, rank, 3)
        yield "full rank", [[rng.randrange(p) if rng.random() < 0.7 else 0
                             for _ in range(nc)] for _ in range(nc)]


def _back_substituted(rows, p):
    """rref_mod of the profile rows, from the echelon form of the pass."""
    nc = len(rows[0])
    basis = {}
    profile = rank_profile_mod(rows, p, nc, (), basis)
    return rref_mod([rows[i] for i in profile], p, basis)


@pytest.mark.parametrize("p", PRIMES)
def test_back_substitution_equals_gauss_jordan(p):
    rng = random.Random(350 + p)
    seen = set()
    for label, rows in _matrices(rng, p):
        nc = len(rows[0])
        profile = rank_profile_mod(rows, p, nc)
        expected = field_rref([rows[i] for i in profile], GF(p))
        assert _back_substituted(rows, p) == expected == rref_mod(rows, p), label
        seen.add((label, len(profile) == min(len(rows), nc)))
    assert ("rank deficient", False) in seen and ("full rank", True) in seen


def _unreduced(rng, p, rows):
    """rows with every entry moved by a random multiple of p in [-3p, 3p],
    so many entries are negative or at least p."""
    return [[v + rng.randint(-3, 3) * p for v in row] for row in rows]


def _unit_triangular(rng, n, lower):
    """A random n x n unit lower (or upper) triangular integer matrix: its
    determinant is 1, so it is invertible mod every prime."""
    return [[1 if i == j else (rng.randint(-9, 9) if (j < i) == lower else 0)
             for j in range(n)] for i in range(n)]


def _profile_less_matrices(rng, p):
    """(label, rows, rank): seeded empty, zero, wide, tall, rank-deficient
    and full-rank matrices, entries outside [0, p) throughout; rank is the
    rank mod p where the construction fixes it, else None."""
    yield "empty", [], 0
    yield "no columns", [[], [], []], 0
    for _ in range(10):
        nc = rng.randint(1, 9)
        yield "all zero", _unreduced(rng, p, [[0] * nc] * rng.randint(1, 5)), 0
        yield "wide", _unreduced(rng, p, [[rng.randrange(p) for _ in range(nc)]
                                          for _ in range(rng.randint(1, nc))]), None
        yield "tall", _unreduced(rng, p, [[rng.randrange(p) for _ in range(nc)]
                                          for _ in range(nc + rng.randint(1, 6))]), None
        rank = rng.randint(1, max(nc - 1, 1))
        yield "rank deficient", _unreduced(rng, p, random_product(rng, nc + 2, nc, rank, 3)), None
        lower, upper = _unit_triangular(rng, nc, True), _unit_triangular(rng, nc, False)
        square = [[sum(a * b for a, b in zip(row, col)) for col in zip(*upper)]
                  for row in lower]
        yield "full rank", _unreduced(rng, p, square), nc


@pytest.mark.parametrize("p", PRIMES)
def test_rref_without_an_echelon_form_equals_gauss_jordan(p):
    """rref_mod given rows alone takes rank_profile_mod's forward pass
    itself and back-substitutes it; it must equal the Gauss-Jordan oracle
    and leave its input as it was."""
    rng = random.Random(3600 + p)
    seen = set()
    for label, rows, rank in _profile_less_matrices(rng, p):
        before = [list(row) for row in rows]
        got = rref_mod(rows, p)
        assert got == field_rref(rows, GF(p)), label
        assert rows == before, label
        assert rank is None or len(got[0]) == rank, label
        nc = len(rows[0]) if rows else 0
        seen.add((label, len(got[0]) == min(len(rows), nc)))
    assert ("rank deficient", False) in seen and ("full rank", True) in seen


def _registry_ideals(field):
    """The registry's ideals given by generators, and its colon ideals (whose
    generators the walk sees again in a fresh ideal)."""
    ideals = [ex_2_5_ideal(field), ex_3_7_ideal(field), ex_4_5_ideal(field),
              ex_4_9_ideal(field), monomial_tower_ideal(3, field),
              monomial_tower_ideal(4, field), monomial_tower_squared(3, field),
              five_gen_monomial_ideal(2, field)]
    ideals += [GradedIdeal(3, random_quadrics(seed, field), field) for seed in (1, 2)]
    for r, dp in ((5, 1), (5, 2)):
        for seed in (1, 2):
            try:
                ideals.append(generic_power_model(r, dp, 3, seed, field))
            except RuntimeError:
                continue    # no Artinian specialization over a tiny field
    return [_fresh(I) for I in ideals]


def _random_ideals(field, count, seed):
    """count seeded ideals of 3-6 forms of degree 2-4 in three variables,
    with small coefficients and random supports."""
    rng = random.Random(seed)
    out = []
    for _ in range(count):
        gens = []
        for _ in range(rng.randint(3, 6)):
            d = rng.randint(2, 4)
            terms = {e: field.of(rng.randint(-4, 4)) for e in monomials_of_degree(3, d)
                     if rng.random() < 0.5}
            terms = {e: c for e, c in terms.items() if not field.is_zero(c)}
            gens.append(MultiPoly(3, terms or {(d, 0, 0): field.one}, field))
        out.append(GradedIdeal(3, gens, field))
    return out


def _fresh(I):
    return GradedIdeal(I.n, I.generators, I.field)


def _checked_walk(monkeypatch):
    """Check every profile taken from now on against a pass over every row
    (same profile, same echelon form) and every rref_mod given an echelon
    form against the Gauss-Jordan oracle over the same rows.  Returns a
    counter of the rows skipped and the back-substitutions checked."""
    seen = {"skipped": 0, "back_substituted": 0}
    profile_mod = gor3.linalg.rank_profile_mod
    kernel = gor3.linalg.rref_mod

    def checked_profile(rows, p, limit, skip=(), basis=None):
        got = profile_mod(rows, p, limit, skip, basis)
        if skip:
            full = {}
            assert profile_mod(rows, p, limit, (), full) == got
            assert basis is None or basis == full
            seen["skipped"] += len(skip)
        return got

    def checked_kernel(rows, p, basis=None):
        got = kernel(rows, p, basis)
        if basis is not None:
            assert got == field_rref(rows, GF(p))
            seen["back_substituted"] += 1
        return got

    monkeypatch.setattr(gor3.linalg, "rank_profile_mod", checked_profile)
    monkeypatch.setattr(gor3.linalg, "rref_mod", checked_kernel)
    return seen


def _answers(I):
    """The Artinian bound, the Hilbert table and the socle report of I, or
    the NotArtinianError text; then every piece below the bound, built from
    the walk's cached profiles where it left them."""
    try:
        bound = I.artinian_bound()
    except NotArtinianError as e:
        return str(e)
    answers = (bound, I.hilbert_series_table(), I.socle_report().as_dict())
    return answers, [I.graded_piece(t) for t in range(bound)]


def _compare_with_unskipped(ideals, monkeypatch):
    """The answers and pieces of every ideal with the skip, each profile and
    back-substitution checked, equal those with the skip switched off and
    those of ideals whose pieces are eliminated from all their rows."""
    expected = []
    with monkeypatch.context() as m:
        m.setattr(gor3.ideals, "shifted_multiples", lambda *args: set())
        for I in ideals:
            expected.append(_answers(_fresh(I)))
    seen = _checked_walk(monkeypatch)
    for I, answer in zip(ideals, expected):
        got = _answers(_fresh(I))
        assert got == answer, I
        if not isinstance(got, str):
            J = _fresh(I)
            assert got[1] == [J.graded_piece(t) for t in range(len(got[1]))], I
    return seen


@pytest.mark.parametrize("field", [QQ, GF(2), GF(3), GF(7), GF(32003)], ids=str)
def test_the_skip_changes_no_profile_and_no_answer(field, monkeypatch):
    ideals = _registry_ideals(field) + _random_ideals(field, 10, 3535)
    seen = _compare_with_unskipped(ideals, monkeypatch)
    assert seen["skipped"] >= 100
    # over QQ the echelon form is one mod CERTIFICATE_PRIME and never read
    assert (seen["back_substituted"] > 0) == (field != QQ)


@pytest.mark.parametrize("prime", [2, 3, 5])
def test_the_skip_holds_modulo_any_prime(prime, monkeypatch):
    """Over QQ modulo a tiny prime, profiles fall short and the exact route
    takes over; the skip must still change no profile and no answer."""
    ideals = _registry_ideals(QQ)[:10] + _random_ideals(QQ, 6, 3536)
    monkeypatch.setattr(gor3.linalg, "CERTIFICATE_PRIME", prime)
    seen = _compare_with_unskipped(ideals, monkeypatch)
    assert seen["skipped"] >= 100


def _read_counts(monkeypatch):
    """(rows, rows read) of every nonempty rank_profile_mod call from now on."""
    counts = []
    profile_mod = gor3.linalg.rank_profile_mod

    def counted(rows, p, limit, *rest):
        read = set()
        wrapped = [_ReadRow(row, i, read) for i, row in enumerate(rows)]
        got = profile_mod(wrapped, p, limit, *rest)
        if rows:
            counts.append((len(rows), len(read)))
        return got

    monkeypatch.setattr(gor3.linalg, "rank_profile_mod", counted)
    return counts


class _ReadRow(list):
    """A row that records its index in read when it is iterated."""

    def __init__(self, row, index, read):
        super().__init__(row)
        self.index, self.read = index, read

    def __iter__(self):
        self.read.add(self.index)
        return super().__iter__()


class _Unreadable:
    """A row of the given length whose entries must not be read."""

    def __init__(self, length):
        self.length = length

    def __len__(self):
        return self.length

    def __iter__(self):
        raise AssertionError("row entry read")

    __getitem__ = __iter__


@pytest.mark.parametrize("field, skipped", [(QQ, 13), (GF(32003), 11)], ids=str)
def test_the_socle_degree_of_a_pfaffian_model(field, skipped, monkeypatch):
    """generic_power_model(5, 2, 3, 1) has socle degree 7, whose 50 rows
    span a piece of dimension 35 in R_7 (36 columns): the walk reads only
    the rows no degree-6 dependency forces, and over GF(p) the socle piece
    is one rref_mod call that back-substitutes the walk's echelon form."""
    I = _fresh(generic_power_model(5, 2, 3, 1, field))
    counts = _read_counts(monkeypatch)
    calls = []
    kernel = gor3.linalg.rref_mod

    def unread_rows(rows, p, *rest):
        calls.append((len(rows), len(rows[0]), rest))
        return kernel([_Unreadable(len(row)) for row in rows], p, *rest)

    monkeypatch.setattr(gor3.linalg, "rref_mod", unread_rows)
    rep = I.socle_report()
    assert rep.socle_degree == 7 and rep.is_gorenstein
    assert (50, 50 - skipped) in counts
    if field == QQ:
        assert calls == []
    else:
        # the 35 profile rows, as before, and an echelon form with them
        assert len(calls) == 1
        nr, nc, (basis,) = calls[0]
        assert (nr, nc) == (35, 36) and len(basis) == 35
    monkeypatch.undo()
    assert I.graded_piece(7) == _fresh(I).graded_piece(7)
