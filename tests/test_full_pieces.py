"""Full graded pieces decided without an exact elimination.

A QQ piece with at least as many shifted generators as monomials is proved
full by its rank modulo CERTIFICATE_PRIME, and a piece above a full piece is
full outright.  Both must give exactly the piece that row-reducing the
shifted generators gives.  The Artinian search stops at the exact degree
n(D-1)+1.
"""

import random
from fractions import Fraction

import pytest

import gor3.linalg
from gor3 import GradedIdeal, MultiPoly, NotArtinianError
from gor3.fields import GF, QQ
from gor3.linalg import CERTIFICATE_PRIME
from gor3.monomials import monomial_count, monomials_of_degree
from gor3.pieces import GradedPiece, full_piece, shifted_vectors

from oracles import fraction_rref

# (n, generator degrees, common factor degree or 0)
RANDOM_IDEALS = [
    (2, [2, 3], 0),
    (2, [3, 3, 4], 0),
    (3, [2, 2, 2], 0),
    (3, [1, 2, 3], 0),
    (3, [2, 2, 3, 3], 0),
    (3, [1, 1, 2], 1),
    (4, [2, 2, 2, 2], 0),
    (4, [1, 2, 2, 2], 0),
]


def _random_form(n, d, rng):
    monos = list(monomials_of_degree(n, d))
    chosen = rng.sample(monos, min(len(monos), rng.randint(2, 5)))
    return MultiPoly(n, {a: Fraction(rng.choice([1, -1, 2, -3, 5]),
                                     rng.choice([1, 1, 2, 3, 7]))
                         for a in chosen}, QQ)


def _random_ideal(n, degrees, common, rng):
    gens = [_random_form(n, d, rng) for d in degrees]
    if common:
        # a shared factor: many shifted rows, but no piece is ever full
        factor = _random_form(n, common, rng)
        gens = [g * factor for g in gens]
    return GradedIdeal(n, gens, QQ)


def _exact_piece(I, t):
    """The piece by a Fraction Gauss-Jordan of the shifted generators."""
    vecs = shifted_vectors(I.n, t, I._gen_data)
    pivots, rows = fraction_rref(vecs)
    return GradedPiece(I.n, t, QQ, pivots, [QQ.integer_row(r)[0] for r in rows])


def _top_degree(I):
    """The Artinian bound, or the exact degree that proves non-Artinian."""
    try:
        return I.artinian_bound()
    except NotArtinianError:
        return I.n * (I.max_generator_degree - 1) + 1


def test_pieces_equal_the_exact_elimination(monkeypatch):
    calls = []
    rref_int = gor3.linalg.rref_int
    monkeypatch.setattr(gor3.linalg, "rref_int",
                        lambda rows: calls.append(rows) or rref_int(rows))
    rng = random.Random(7)
    proved = eliminated = 0     # pieces with at least dim R_t shifted rows
    for n, degrees, common in RANDOM_IDEALS:
        I = _random_ideal(n, degrees, common, rng)
        # on a copy, so that every piece of I below is built in its own step
        top = _top_degree(GradedIdeal(n, I.generators, QQ))
        for t in range(top + 2):
            before = len(calls)
            piece = I.graded_piece(t)
            assert piece == _exact_piece(I, t), (n, degrees, common, t)
            rows = sum(monomial_count(n, t - d) for d, _ in I._gen_data if d <= t)
            if rows >= monomial_count(n, t) and not (t and I._pieces[t - 1].is_full):
                if piece.is_full:
                    proved += len(calls) == before
                else:
                    eliminated += len(calls) > before
    # some pieces were proved full mod p with no exact elimination, and some
    # with enough rows were not full and were eliminated exactly
    assert proved and eliminated


def test_unlucky_prime_falls_back_to_the_exact_elimination(monkeypatch):
    x = MultiPoly.variable(0, 2)
    y = MultiPoly.variable(1, 2)
    I = GradedIdeal(2, [x, y.scale(CERTIFICATE_PRIME)])
    # singular modulo the certificate prime, full over QQ: the profile row x
    # is eliminated, P*y fails the check, and then both rows are eliminated
    calls = []
    rref_int = gor3.linalg.rref_int
    monkeypatch.setattr(gor3.linalg, "rref_int",
                        lambda rows: calls.append(rows) or rref_int(rows))
    assert I.graded_piece(1) == full_piece(2, 1, QQ)
    assert calls == [[[1, 0]], [[1, 0], [0, CERTIFICATE_PRIME]]]
    assert I.artinian_bound() == 1


def _no_kernel(*args):
    raise AssertionError("elimination kernel called")


@pytest.mark.parametrize("field", [QQ, GF(32003)], ids=str)
def test_no_elimination_above_a_full_piece(field, monkeypatch):
    I = GradedIdeal.from_strings(["x^3", "y^3", "z^3"], field=field)
    bound = I.artinian_bound()
    assert bound == 7 and I.graded_piece(bound).is_full
    monkeypatch.setattr(gor3.linalg, "rref_int", _no_kernel)
    monkeypatch.setattr(gor3.linalg, "rref_mod", _no_kernel)
    monkeypatch.setattr(gor3.linalg, "rank_profile_mod", _no_kernel)
    for t in (bound + 1, bound + 2):
        assert I.graded_piece(t) == full_piece(3, t, field)


def test_full_qq_piece_is_proved_without_exact_elimination(monkeypatch):
    I = GradedIdeal.from_strings(["x^3", "2/3*y^3", "z^3 - 5*x*y*z"])
    monkeypatch.setattr(gor3.linalg, "rref_int", _no_kernel)
    assert I.graded_piece(7) == full_piece(3, 7, QQ)


@pytest.mark.parametrize("field", [QQ, GF(32003)], ids=str)
def test_not_artinian_is_decided_at_the_exact_degree(field):
    I = GradedIdeal.from_strings(["x^2", "y^3"], field=field)
    with pytest.raises(NotArtinianError) as info:
        I.artinian_bound()
    # the message of the old cap search, which named default_cap() = 36
    assert str(info.value) == (
        "not Artinian within cap (no vanishing Hilbert value up to t=36)")
    # n(D-1)+1 = 7 is the last degree searched: over QQ its exact piece is
    # the proof, over GF(p) the walk's profile of that degree
    assert max(I._pieces if field == QQ else I._walk.rows) == 7
