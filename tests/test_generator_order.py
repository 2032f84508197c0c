"""The order of an ideal's generators.

Over QQ, GradedIdeal keeps its generators' integer term maps lightest first,
by squared norm, so that the walk's row profile keeps the rows of least
height and the one exact elimination of a certified walk, the socle-degree
piece, gets them lightest first.  Over GF(p) the input order is kept.  No
order may change an answer: every piece is a canonical RREF.
"""

import itertools

import pytest

from gor3 import GradedIdeal
from gor3.apolarity import macaulay_inverse
from gor3.fields import GF, QQ
from gor3.pfaffians import generic_power_model
from gor3.pieces import integer_terms

FIELDS = [QQ, GF(32003)]


def _model(field):
    """A (5, 2) Pfaffian model: five quartics with socle degree 7."""
    return generic_power_model(5, 2, 3, 24, field).generators


def _norm(terms):
    return sum(c * c for c in terms.values())


def _answers(I):
    bound = I.artinian_bound()
    return (I._pieces[bound - 1], I.hilbert_series_table(), bound,
            I.socle_report(), I.minimal_generators(), str(macaulay_inverse(I)))


@pytest.mark.parametrize("field", FIELDS, ids=str)
def test_every_generator_order_gives_the_same_answers(field):
    gens = _model(field)
    expected = _answers(GradedIdeal(3, gens, field))
    assert expected[2] == 8
    for order in itertools.permutations(gens):
        assert _answers(GradedIdeal(3, list(order), field)) == expected


def test_qq_socle_elimination_gets_its_rows_lightest_first(rref_int_calls):
    gens = _model(QQ)
    heaviest_first = sorted(gens, key=lambda g: -_norm(integer_terms(g)))
    for order in (gens, heaviest_first, heaviest_first[::-1]):
        del rref_int_calls[:]
        I = GradedIdeal(3, order, QQ)
        assert I.generators == order
        assert I.artinian_bound() == 8
        # the certified walk makes one exact elimination, of the socle piece
        (rows, _), = rref_int_calls
        assert len(rows) == 35
        norms = [sum(v * v for v in row) for row in rows]
        assert norms == sorted(norms)
        assert len(set(norms)) > 1


def test_gf_p_keeps_the_input_order():
    field = GF(32003)
    gens = _model(field)
    for order in (gens, gens[::-1]):
        I = GradedIdeal(3, order, field)
        assert I.generators == order
        assert [terms for _, terms in I._gen_data] == [integer_terms(g) for g in order]
