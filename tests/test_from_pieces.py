"""Ideals built from their graded pieces keep those pieces.

``colon`` and ``annihilator`` return through ``GradedIdeal.from_pieces``,
which seeds the piece cache with the pieces it read and, once a full piece
was read, the Artinian bound.  Every seeded piece must be the piece of the
ideal the returned generators generate, so the generators are checked
against the pieces here.
"""

import random

import pytest

from gor3 import GradedIdeal, InverseForm, MultiPoly, annihilator, parse_poly
from gor3.fields import GF, QQ
from gor3.ideals import variable_power_ideal
from gor3.monomials import monomials_of_degree

FIELDS = [QQ, GF(32003)]
VARS = ["x", "y", "z"]


def _random_form(n, e, field, rng):
    monos = rng.sample(list(monomials_of_degree(n, e)), 3)
    return MultiPoly(n, {a: field.of(rng.choice([1, -1, 2, 3, -5, 11])) for a in monos},
                     field)


def _random_dual(n, s, field, rng):
    monos = rng.sample(list(monomials_of_degree(n, s)), 3)
    return InverseForm(n, {a: field.of(rng.choice([1, -2, 3, 7])) for a in monos},
                       field)


def _assert_seeded_pieces_match_generators(J):
    ref = GradedIdeal(J.n, J.generators, J.field)
    assert J._pieces, "no piece was seeded"
    assert sorted(J._pieces) == list(range(len(J._pieces)))
    for t, piece in J._pieces.items():
        assert piece == ref.graded_piece(t)
    if J.truncated_at is None:
        assert J._artinian_bound == max(J._pieces)
        assert J._artinian_bound == ref.artinian_bound()


def _colons(field):
    """(base, f) pairs: pure powers with unequal exponents, and a base that
    is not pure powers, which only the kernel route handles."""
    rng = random.Random(f"from-pieces-{field}")
    out = []
    for n, m, e in [(2, [3, 5], 2), (3, [3, 3, 3], 2), (3, [2, 3, 4], 3),
                    (4, [2, 2, 2, 2], 2)]:
        gens = [MultiPoly.monomial(tuple(m[i] if j == i else 0 for j in range(n)),
                                   1, field) for i in range(n)]
        out.append((GradedIdeal(n, gens, field), _random_form(n, e, field, rng)))
    base = GradedIdeal.from_strings(["x^3", "y^3", "z^3", "x*y*z"], field=field)
    out.append((base, parse_poly("x^2 + y*z", VARS, field)))
    return out


@pytest.mark.parametrize("field", FIELDS, ids=str)
def test_colon_pieces_match_generators(field):
    for base, f in _colons(field):
        _assert_seeded_pieces_match_generators(base.colon(f))
        _assert_seeded_pieces_match_generators(
            base.colon(f, t_max=base.artinian_bound()))


@pytest.mark.parametrize("field", FIELDS, ids=str)
def test_unit_colon_pieces_match_generators(field):
    base = variable_power_ideal(3, 3, field)
    f = parse_poly("x^3 - 2*y^3", VARS, field)
    for J in (base.colon(f), base.colon(f, t_max=base.artinian_bound())):
        assert [str(g) for g in J.generators] == ["1"]
        assert J._artinian_bound == 0
        _assert_seeded_pieces_match_generators(J)


@pytest.mark.parametrize("field", FIELDS, ids=str)
def test_annihilator_pieces_match_generators(field):
    rng = random.Random(f"ann-{field}")
    duals = [InverseForm(3, {(2, 0, 0): field.one, (0, 2, 0): field.one,
                             (0, 0, 2): field.one}, field),
             InverseForm(2, {(0, 0): field.one}, field)]
    duals += [_random_dual(n, s, field, rng) for n, s in [(2, 4), (3, 3), (3, 5), (4, 2)]]
    for F in duals:
        J = annihilator(F)
        _assert_seeded_pieces_match_generators(J)
        assert J._artinian_bound == F.degree() + 1
        assert [str(g) for g in annihilator(F, t_max=F.degree() + 3).generators] == [
            str(g) for g in J.generators]


@pytest.mark.parametrize("field", FIELDS, ids=str)
def test_truncated_colon_keeps_truncation_and_sets_no_bound(field):
    base = GradedIdeal.from_strings(["x^3", "y^3"], field=field)
    J = base.colon(parse_poly("x*y", VARS, field), t_max=5)
    assert J.truncated_at == 5
    assert J._artinian_bound is None
    assert sorted(J._pieces) == list(range(6))
    assert [str(g) for g in J.generators] == ["x^2", "y^2"]
    _assert_seeded_pieces_match_generators(J)


def test_kernel_route_reads_no_piece_above_the_first_full(monkeypatch):
    read = []
    colon_piece = GradedIdeal._colon_piece

    def counting(self, t, f, e):
        read.append(t)
        return colon_piece(self, t, f, e)

    monkeypatch.setattr(GradedIdeal, "_colon_piece", counting)
    base = variable_power_ideal(3, 3, QQ)
    J = base.colon(parse_poly("x^2 + y^2 + z^2", VARS), t_max=base.artinian_bound())
    top = J.artinian_bound()
    assert top < base.artinian_bound()
    assert read == list(range(top + 1))
