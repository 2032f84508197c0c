"""Full graded pieces decided without an exact elimination.

A QQ piece may be proved full by its rank modulo CERTIFICATE_PRIME, and a
piece above a full piece is full outright.  Both must give exactly the piece
that row-reducing the shifted generators gives.  The Artinian search without
a cap stops at the exact degree n(D-1)+1.
"""

import random
from fractions import Fraction

import pytest

import gor3.ideals
import gor3.linalg
from gor3 import GradedIdeal, MultiPoly, NotArtinianError
from gor3.fields import GF, QQ
from gor3.ideals import (
    CERTIFICATE_PRIME,
    _shifted_vectors,
    full_piece,
    span_of_vectors,
)
from gor3.monomials import monomials_of_degree

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
    vecs = _shifted_vectors(I.n, t, I._gen_data, QQ.zero)
    return span_of_vectors(I.n, t, vecs, QQ)


def _top_degree(I):
    """The Artinian bound, or the exact degree that proves non-Artinian."""
    try:
        return I.artinian_bound()
    except NotArtinianError:
        return I.n * (I.max_generator_degree - 1) + 1


def test_pieces_equal_the_exact_elimination(monkeypatch):
    outcomes = []
    certificates = []
    proved_full = GradedIdeal._proved_full
    rref_mod = gor3.ideals.rref_mod

    def recorded(self, t):
        outcomes.append(proved_full(self, t))
        return outcomes[-1]

    def counted(rows, p):
        certificates.append(p)
        return rref_mod(rows, p)

    monkeypatch.setattr(GradedIdeal, "_proved_full", recorded)
    monkeypatch.setattr(gor3.ideals, "rref_mod", counted)
    rng = random.Random(7)
    full = not_full = 0
    for n, degrees, common in RANDOM_IDEALS:
        I = _random_ideal(n, degrees, common, rng)
        for t in range(_top_degree(I) + 2):
            piece = I.graded_piece(t)
            assert piece == _exact_piece(I, t), (n, degrees, common, t)
            full += piece.is_full
            not_full += not piece.is_full
    assert full and not_full
    # some pieces were proved full mod p, and some certificates with enough
    # rows failed and fell back to the exact elimination
    assert set(certificates) == {CERTIFICATE_PRIME}
    assert 0 < outcomes.count(True) < len(certificates)


def test_unlucky_prime_falls_back_to_the_exact_elimination(monkeypatch):
    x = MultiPoly.variable(0, 2)
    y = MultiPoly.variable(1, 2)
    I = GradedIdeal(2, [x, y.scale(CERTIFICATE_PRIME)])
    # singular modulo the certificate prime, full over QQ
    assert not I._proved_full(1)
    calls = []
    rref_int = gor3.linalg.rref_int
    monkeypatch.setattr(gor3.linalg, "rref_int",
                        lambda rows: calls.append(rows) or rref_int(rows))
    assert I.graded_piece(1) == full_piece(2, 1, QQ)
    assert len(calls) == 1
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
    monkeypatch.setattr(gor3.ideals, "rref_mod", _no_kernel)
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
    # n(D-1)+1 = 7 is the last degree searched
    assert max(I._pieces) == 7


def test_explicit_cap_searches_up_to_the_cap():
    I = GradedIdeal.from_strings(["x^2", "y^3"])
    with pytest.raises(NotArtinianError, match=r"up to t=9\)"):
        I.artinian_bound(cap=9)
    assert max(I._pieces) == 9
    J = GradedIdeal.from_strings(["x^2", "y^3", "z^4"])
    assert not J.is_artinian(cap=6)
    assert J.artinian_bound() == 7
