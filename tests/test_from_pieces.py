"""Ideals built from their graded pieces keep those pieces.

``colon`` and ``annihilator`` return through ``GradedIdeal.from_pieces``,
which seeds the piece cache with the pieces it read and, once a full piece
was read, the Artinian bound.  Every seeded piece must be the piece of the
ideal the returned generators generate, so the generators are checked
against the pieces here.  The generators are derived from the seeded
pieces on first read; they must be the list that deriving them on
construction gave, and the questions that never read them must derive
nothing.
"""

import random

import pytest

import gor3.pieces
from gor3 import (GradedIdeal, InverseForm, MultiPoly, annihilator, macaulay_inverse,
                  parse_poly)
from gor3.fields import GF, QQ
from gor3.ideals import variable_power_ideal
from gor3.monomials import monomials_of_degree
from gor3.pieces import fresh_generators

from oracles import colon_by_kernel, registry_colons

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
        assert J._walk.bound == max(J._pieces)
        assert J._walk.bound == ref.artinian_bound()


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
        _assert_seeded_pieces_match_generators(colon_by_kernel(base, f))


@pytest.mark.parametrize("field", FIELDS, ids=str)
def test_unit_colon_pieces_match_generators(field):
    base = variable_power_ideal(3, 3, field)
    f = parse_poly("x^3 - 2*y^3", VARS, field)
    for J in (base.colon(f), colon_by_kernel(base, f)):
        assert [str(g) for g in J.generators] == ["1"]
        assert J._walk.bound == 0
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
        assert J._walk.bound == F.degree() + 1


@pytest.mark.parametrize("field", FIELDS, ids=str)
def test_truncated_colon_keeps_truncation_and_sets_no_bound(field):
    base = GradedIdeal.from_strings(["x^3", "y^3"], field=field)
    J = base.colon(parse_poly("x*y", VARS, field), t_max=5)
    assert J.truncated_at == 5
    assert J._walk.bound is None
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
    # not pure powers, so colon takes the kernel route, with and without t_max
    base = GradedIdeal.from_strings(["x^3", "y^3", "z^3", "x*y*z"])
    f = parse_poly("x^2 + y^2 + z^2", VARS)
    for t_max in (None, base.artinian_bound() + 2):
        read.clear()
        J = base.colon(f, t_max)
        top = J.artinian_bound()
        assert J.truncated_at is None
        assert top < base.artinian_bound()
        assert read == list(range(top + 1))


def _eager_generators(seeded):
    """The generators from_pieces built on construction from the pieces it
    seeded: the fresh rows of each piece over the one below, up to and
    including the first full piece."""
    gens, below = [], None
    for piece in seeded:
        gens.extend(fresh_generators(piece, below))
        if piece.is_full:
            break
        below = piece
    return gens


def _assert_lazy_generators_match_eager(J):
    assert J._gens is None, "generators derived on construction"
    seeded = [J._pieces[t] for t in sorted(J._pieces)]
    eager = _eager_generators(seeded)
    assert J.generators == eager
    assert [str(g) for g in J.generators] == [str(g) for g in eager]
    assert J._gen_data == GradedIdeal(J.n, eager, J.field)._gen_data


@pytest.mark.parametrize("field", FIELDS, ids=str)
def test_registry_generators_are_the_eager_list(field):
    for label, build in registry_colons(field):
        I = build()
        F = macaulay_inverse(I)
        _assert_lazy_generators_match_eager(build())
        _assert_lazy_generators_match_eager(annihilator(F))
    base = variable_power_ideal(3, 4, field)
    f = parse_poly("x^3 + y^3 + z^3", VARS, field)
    for t_max in range(5):
        _assert_lazy_generators_match_eager(base.colon(f, t_max=t_max))


@pytest.mark.parametrize("field", FIELDS, ids=str)
def test_questions_on_pieces_derive_no_generators(field, monkeypatch):
    calls = []

    original = gor3.pieces.fresh_rows

    def fresh_rows(piece, below):
        calls.append(piece.t)
        return original(piece, below)

    # every minimal-generator pass goes through pieces.fresh_generators
    monkeypatch.setattr(gor3.pieces, "fresh_rows", fresh_rows)
    for label, build in registry_colons(field):
        calls.clear()
        I = build()
        s = I.socle_report().socle_degree
        F = macaulay_inverse(I)
        assert annihilator(F).equals(I), label
        assert I.contains(MultiPoly.variable(0, 3, field) ** (s + 1)), label
        assert calls == [], label
        assert I._gens is None and I._minimal is None, label


@pytest.mark.parametrize("field", FIELDS, ids=str)
def test_truncated_colon_pieces_above_the_truncation(field):
    """(x^4, y^4, z^4) : (x^3 + y^3 + z^3) has minimal generators in degrees
    3 and 4; truncated at 3 it is generated by xyz alone, and its pieces
    above 3 are those of (xyz), as when the generators were built eagerly."""
    base = variable_power_ideal(3, 4, field)
    f = parse_poly("x^3 + y^3 + z^3", VARS, field)
    J = base.colon(f, t_max=3)
    seeded = [J._pieces[t] for t in range(4)]
    assert J._gens is None
    eager = GradedIdeal(3, _eager_generators(seeded), field)
    assert [str(g) for g in eager.generators] == ["x*y*z"]
    for t in range(4, 9):
        assert J.graded_piece(t) == eager.graded_piece(t)
    assert J.generators == eager.generators
    assert J.graded_piece(4) != base.colon(f).graded_piece(4)


# (base, f): two on the pure-power route and one on the kernel route
CUT_COLONS = {
    "cubes": (["x^3", "y^3", "z^3"], "x^2 + y^2 + z^2"),
    "fourths": (["x^4", "y^4", "z^4"], "x^3 + y^3 + z^3"),
    "cubes-xyz": (["x^3", "y^3", "z^3", "x*y*z"], "x^2 + y^2 + z^2"),
}


@pytest.mark.parametrize("field", FIELDS, ids=str)
@pytest.mark.parametrize("label", CUT_COLONS)
def test_a_cut_colon_is_truncated_only_below_its_own_bound(field, label):
    """A colon cut at t_max is complete exactly when t_max reaches the
    Artinian bound of the complete colon, not that of the base; a complete
    cut is the complete colon."""
    gens, form = CUT_COLONS[label]
    base = GradedIdeal.from_strings(gens, field=field)
    f = parse_poly(form, VARS, field)
    full = base.colon(f)
    own = full.artinian_bound()
    assert own < base.artinian_bound()
    for t_max in range(base.artinian_bound() + 1):
        for J in (base.colon(f, t_max), colon_by_kernel(base, f, t_max)):
            assert J.truncated_at == (t_max if t_max < own else None), t_max
            if J.truncated_at is None:
                assert J.equals(full), t_max
                assert J.generators == full.generators, t_max


def test_a_cut_colon_never_walks_its_base(monkeypatch):
    def refuse(self):
        raise AssertionError("the base was walked")

    monkeypatch.setattr(GradedIdeal, "artinian_bound", refuse)
    monkeypatch.setattr(GradedIdeal, "is_artinian", refuse)
    base = GradedIdeal.from_strings(["x^3", "y^3"])
    J = base.colon(parse_poly("x*y", VARS), t_max=5)
    assert J.truncated_at == 5
    assert [str(g) for g in J.generators] == ["x^2", "y^2"]
