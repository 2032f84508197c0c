"""Minimal generators stop early in a certified Gorenstein ideal.

A complete colon or Ann(F) in n >= 2 variables that the Macaulay dual
certificate proves Gorenstein has no minimal generator above s + 2 - d0,
d0 its initial degree, and with H(1) >= 2 it has R_1 * I_s = R_{s+1}, so
``GradedIdeal.minimal_generators`` reads no piece above the tighter stop.  The
generators must be those of ``oracles.minimal_generators_through_the_bound``,
the loop through the bound, in the same order and printed the same, over QQ
and over GF(p) for a large and two small primes.  Ann(X^[3]) and
Ann((X+Y)^[4]) (H(1) = 1) and (x^2, xy, y^2, z^2) : z (not Gorenstein)
have generators at their bound.
"""

import random

import pytest

import gor3.ideals
import gor3.pieces
from gor3 import InverseForm, annihilator, parse_poly
from gor3.cases import ex_2_5_ideal, ex_3_7_ideal, ex_4_5_ideal, ex_4_9_ideal
from gor3.fields import GF, QQ
from gor3.ideals import GradedIdeal, variable_power_ideal
from gor3.monomials import monomials_of_degree

from oracles import minimal_generators_through_the_bound

FIELDS = [QQ, GF(32003), GF(3), GF(2)]
VARS = ["x", "y", "z"]


def _random_dual(n, s, field, rng):
    monos = rng.sample(list(monomials_of_degree(n, s)), min(4, s + 1))
    return InverseForm(n, {a: field.of(rng.choice([1, -1, 2, 3, -5])) for a in monos},
                       field)


def _builders(field):
    """(label, build) pairs, build() returning a fresh ideal over field."""
    def poly(text):
        return parse_poly(text, VARS, field)

    out = [("ex-2-5", lambda: ex_2_5_ideal(field)), ("ex-3-7", lambda: ex_3_7_ideal(field)),
           ("ex-4-5", lambda: ex_4_5_ideal(field)), ("ex-4-9", lambda: ex_4_9_ideal(field)),
           ("non-equigen-xyz",
            lambda: variable_power_ideal(3, 4, field).colon(poly("x^3 + y^3 + z^3")))]
    for m in range(1, 6):
        for e in range(7):
            out.append((f"sum-power m={m} e={e}",
                        lambda m=m, e=e: variable_power_ideal(3, m, field)
                        .colon(poly("x + y + z") ** e)))
    rng = random.Random(f"socle-degree-{field}")
    for n, s in [(3, 2), (3, 3), (3, 4), (3, 5), (3, 6), (2, 4), (4, 3)]:
        F = _random_dual(n, s, field, rng)
        out.append((f"ann of {F}", lambda F=F: annihilator(F)))
    X3 = InverseForm(3, {(3, 0, 0): field.one}, field)
    XY4 = InverseForm(3, {(a, 4 - a, 0): field.one for a in range(5)}, field)
    out += [("ann X^[3]", lambda: annihilator(X3)),
            ("ann (X+Y)^[4]", lambda: annihilator(XY4)),
            ("(x^2, xy, y^2, z^2) : z",
             lambda: GradedIdeal.from_strings(["x^2", "x*y", "y^2", "z^2"], field=field)
             .colon(poly("z"))),
            ("truncated colon",
             lambda: variable_power_ideal(3, 3, field).colon(poly("x^2 + y^2 + z^2"),
                                                             t_max=3))]
    return out


@pytest.mark.parametrize("field", FIELDS, ids=str)
def test_generators_equal_the_loop_through_the_bound(field):
    for label, build in _builders(field):
        expected = [str(g) for g in minimal_generators_through_the_bound(build())]
        assert [str(g) for g in build().minimal_generators()] == expected, label


@pytest.mark.parametrize("field", FIELDS, ids=str)
def test_generators_at_the_bound_are_kept(field):
    X3 = InverseForm(3, {(3, 0, 0): field.one}, field)
    assert annihilator(X3).minimal_generator_profile() == {1: 2, 4: 1}
    XY4 = InverseForm(3, {(a, 4 - a, 0): field.one for a in range(5)}, field)
    assert annihilator(XY4).minimal_generator_profile() == {1: 2, 5: 1}
    base = GradedIdeal.from_strings(["x^2", "x*y", "y^2", "z^2"], field=field)
    J = base.colon(parse_poly("z", VARS, field))
    assert J.artinian_bound() == 2
    assert [str(g) for g in J.minimal_generators()] == ["z", "x^2", "x*y", "y^2"]
    cut = variable_power_ideal(3, 3, field).colon(
        parse_poly("x^2 + y^2 + z^2", VARS, field), t_max=3)
    assert cut.truncated_at == 3


def test_no_multiple_of_the_socle_piece_is_formed(monkeypatch):
    """(x^3, y^3, z^3) : (x^2 + y^2 + z^2) is Ann(F) with socle degree 4 and
    initial degree 3, whose seven generators are cubics: they stop at
    s + 2 - d0 = 3, over I_2 = 0, so no degree-one multiple is formed, where
    the loop through the bound forms those of I_3 and I_4; socle_report then
    recalls the certificate and builds no catalecticant."""
    formed = []
    multiples = gor3.pieces.degree_one_multiples

    def counted(piece):
        formed.append(piece.t)
        return multiples(piece)

    monkeypatch.setattr(gor3.pieces, "degree_one_multiples", counted)

    def build():
        return variable_power_ideal(3, 3).colon(parse_poly("x^2 + y^2 + z^2", VARS, QQ))

    J = build()
    assert J.minimal_generator_profile() == {3: 7}
    assert formed == []

    def refused(*args):
        raise AssertionError("the certificate was tried again")

    monkeypatch.setattr(gor3.ideals, "catalecticant", refused)
    assert J.socle_report().socle_dims == {4: 1}
    formed.clear()
    assert [str(g) for g in minimal_generators_through_the_bound(build())] == \
        [str(g) for g in J.minimal_generators()]
    assert formed == [3, 4]
