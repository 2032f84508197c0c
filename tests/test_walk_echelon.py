"""The Artinian walk's one forward pass and the back-substitution that
finishes it.

rank_profile_mod returns its profile with the echelon form it kept, and
rref_mod, given that form with the profile rows, finishes their RREF by
back-substitution alone.  It must equal the Gauss-Jordan pass of
``oracles.field_rref`` over those rows: on seeded wide, tall, rank-0,
rank-deficient and full-rank matrices over GF(2), GF(3), GF(7) and
GF(32003), and on every degree the walk profiles for the registry's ideals
over those fields.  Given rows alone, rref_rows takes the pass itself, and
must equal the same oracle on seeded empty, zero, wide, tall,
rank-deficient and full-rank matrices with entries outside [0, p).

The walk's answers (the Artinian bound, the Hilbert table, the socle
report) and the pieces built from its cached profiles must equal those of
a fresh ideal whose pieces are all eliminated from their rows before it is
asked anything, so that it takes no profile: on the registry's ideals and
seeded random ideals over QQ and the same four prime fields, and over QQ
modulo the tiny primes 2, 3 and 5 as well.
"""

import inspect
import random

import pytest

import gor3.linalg
from gor3 import GradedIdeal, MultiPoly
from gor3._rowred_py import rank_profile_mod, rref_mod
from gor3.cases import (ex_2_5_ideal, ex_3_7_ideal, ex_4_5_ideal, ex_4_9_ideal,
                        five_gen_monomial_ideal, monomial_tower_ideal,
                        monomial_tower_squared, random_quadrics)
from gor3.fields import GF, QQ
from gor3.ideals import NotArtinianError
from gor3.linalg import row_profile, rref_rows
from gor3.monomials import monomials_of_degree
from gor3.pfaffians import generic_power_model
from gor3.pieces import integer_span

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
    profile, basis = rank_profile_mod(rows, p, len(rows[0]))
    return rref_mod([rows[i] for i in profile], p, basis)


@pytest.mark.parametrize("p", PRIMES)
def test_back_substitution_equals_gauss_jordan(p):
    rng = random.Random(350 + p)
    seen = set()
    for label, rows in _matrices(rng, p):
        nc = len(rows[0])
        profile = rank_profile_mod(rows, p, nc)[0]
        expected = field_rref([rows[i] for i in profile], GF(p))
        assert _back_substituted(rows, p) == expected == rref_rows(GF(p), rows, nc), label
        seen.add((label, len(profile) == min(len(rows), nc)))
    assert ("rank deficient", False) in seen and ("full rank", True) in seen


def test_the_pass_travels_as_one_value():
    """The forward pass returns its profile with its echelon form, and the
    layers above take that pair whole: no function takes a dict to fill,
    and no profile can be passed without the echelon form of its pass."""
    expected = {rank_profile_mod: ["rows", "p", "limit"],
                row_profile: ["field", "rows", "limit"],
                rref_rows: ["field", "rows", "nc", "echelon=None"],
                integer_span: ["n", "t", "rows", "field", "echelon=None"],
                rref_mod: ["rows", "p", "basis"]}
    for fn, params in expected.items():
        assert [str(q) for q in inspect.signature(fn).parameters.values()] == params
    assert rank_profile_mod([[2, 4], [1, 2], [0, 3]], 7, 2) == ([0, 2], {0: [2], 1: []})


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
    """rref_rows given rows alone takes rank_profile_mod's forward pass
    itself and has rref_mod back-substitute it; it must equal the
    Gauss-Jordan oracle and leave its input as it was."""
    rng = random.Random(3600 + p)
    seen = set()
    for label, rows, rank in _profile_less_matrices(rng, p):
        before = [list(row) for row in rows]
        nc = len(rows[0]) if rows else 0
        got = rref_rows(GF(p), rows, nc)
        assert got == field_rref(rows, GF(p)), label
        assert rows == before, label
        assert rank is None or len(got[0]) == rank, label
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


def _checked_back_substitution(monkeypatch):
    """Check every rref_mod call from now on against the Gauss-Jordan
    oracle over the same rows.  Returns a counter of the calls checked."""
    seen = {"back_substituted": 0}
    kernel = gor3.linalg.rref_mod

    def checked_kernel(rows, p, basis):
        got = kernel(rows, p, basis)
        assert got == field_rref(rows, GF(p))
        seen["back_substituted"] += 1
        return got

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


def _answers_from_pieces(I):
    """_answers of a fresh copy of I whose pieces in degrees 0..n(D-1)+1,
    D the largest generator degree, are all built first, each eliminated
    from all its rows: the walk then reads exact pieces and takes no
    profile."""
    J = _fresh(I)
    for t in range(J.n * (max(J.max_generator_degree, 1) - 1) + 2):
        if J.graded_piece(t).is_full:
            break
    return _answers(J)


def _compare_with_pieces(ideals, monkeypatch):
    """The answers and pieces of every ideal, each back-substitution of its
    walk checked, equal those of a fresh ideal whose pieces are eliminated
    from all their rows before it is asked anything."""
    expected = [_answers_from_pieces(I) for I in ideals]
    seen = _checked_back_substitution(monkeypatch)
    for I, answer in zip(ideals, expected):
        assert _answers(_fresh(I)) == answer, I
    return seen


@pytest.mark.parametrize("field", [QQ, GF(2), GF(3), GF(7), GF(32003)], ids=str)
def test_the_walk_gives_the_answers_of_exact_pieces(field, monkeypatch):
    ideals = _registry_ideals(field) + _random_ideals(field, 10, 3535)
    seen = _compare_with_pieces(ideals, monkeypatch)
    # over QQ the echelon form is one mod CERTIFICATE_PRIME and never read
    assert (seen["back_substituted"] > 0) == (field != QQ)


@pytest.mark.parametrize("prime", [2, 3, 5])
def test_the_walk_holds_modulo_any_prime(prime, monkeypatch):
    """Over QQ modulo a tiny prime, profiles fall short and the exact route
    takes over; the walk must still give the answers of exact pieces."""
    ideals = _registry_ideals(QQ)[:10] + _random_ideals(QQ, 6, 3536)
    monkeypatch.setattr(gor3.linalg, "CERTIFICATE_PRIME", prime)
    _compare_with_pieces(ideals, monkeypatch)


def test_the_bound_steps_down_past_an_unlucky_prime(monkeypatch):
    """(x^2, y^2, 3z^2 + xy, z^5) over QQ is a complete intersection of
    quadrics with bound 4, but modulo 3 its third quadric is xy and the
    walk first reads 0 in degree 6: the bound steps down two degrees on
    exact pieces and stops at the nonzero H(3)."""
    monkeypatch.setattr(gor3.linalg, "CERTIFICATE_PRIME", 3)
    I = GradedIdeal.from_strings(["x^2", "y^2", "3*z^2 + x*y", "z^5"])
    assert I.artinian_bound() == 4
    assert sorted(I._pieces) == [3, 4, 5, 6]
    assert I.hilbert_series_table() == [1, 3, 3, 1]


def test_the_bound_over_gf_p_builds_no_exact_piece():
    """Over GF(p) the walk's values are the Hilbert values, so its first
    zero is the bound and no exact piece is built for it; the pieces read
    later come from the walk's cached profiles and give the same table."""
    I = GradedIdeal.from_strings(["y", "z", "x^5"], field=GF(32003))
    assert I.artinian_bound() == 5
    assert I._pieces == {}
    assert I.hilbert_series_table() == [1, 1, 1, 1, 1]
    J = GradedIdeal.from_strings(["y", "z", "y^2"], field=GF(32003))
    with pytest.raises(NotArtinianError):
        J.artinian_bound()
    assert J._pieces == {}


def _read_counts(monkeypatch):
    """(rows, rows read) of every nonempty rank_profile_mod call from now on."""
    counts = []
    profile_mod = gor3.linalg.rank_profile_mod

    def counted(rows, p, limit):
        read = set()
        wrapped = [_ReadRow(row, i, read) for i, row in enumerate(rows)]
        got = profile_mod(wrapped, p, limit)
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


@pytest.mark.parametrize("field", [QQ, GF(32003)], ids=str)
def test_the_socle_degree_of_a_pfaffian_model(field, monkeypatch):
    """generic_power_model(5, 2, 3, 1) has socle degree 7, whose 50 rows
    span a piece of dimension 35 in R_7 (36 columns): the walk reads all
    50 rows, and over GF(p) the socle piece is one rref_mod call that
    back-substitutes the walk's echelon form without reading a row."""
    I = _fresh(generic_power_model(5, 2, 3, 1, field))
    counts = _read_counts(monkeypatch)
    calls = []
    kernel = gor3.linalg.rref_mod

    def unread_rows(rows, p, basis):
        calls.append((len(rows), len(rows[0]), basis))
        return kernel([_Unreadable(len(row)) for row in rows], p, basis)

    monkeypatch.setattr(gor3.linalg, "rref_mod", unread_rows)
    rep = I.socle_report()
    assert rep.socle_degree == 7 and rep.is_gorenstein
    assert (50, 50) in counts
    if field == QQ:
        assert calls == []
    else:
        # the 35 profile rows, as before, and an echelon form with them
        assert len(calls) == 1
        nr, nc, basis = calls[0]
        assert (nr, nc) == (35, 36) and len(basis) == 35
    monkeypatch.undo()
    assert I.graded_piece(7) == _fresh(I).graded_piece(7)
