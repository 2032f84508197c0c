"""Powers of an ideal and the reduction-number-two check, against products.

``power_piece`` reads (I^k)_t as full above a full (I^k)_{t-1}; otherwise
it and ``check_reduction_two`` follow one product rule,
(I * B)_t = sum of g * B_{t - deg g}, which is I's own piece I_t when every
B_{t - deg g} is full.  ``oracles.reduction_by_products`` redraws the same J
and takes every rank from MultiPoly products through ``oracles.field_rref``;
the complete intersection (x^2, y^2, z^2), whose (I^2)_4 is not full, keeps
the product rows.
"""

import pytest

import gor3.ideals
from gor3 import GradedIdeal
from gor3.cases import ex_2_5_ideal, ex_3_7_ideal
from gor3.fields import GF, QQ
from gor3.ideals import check_reduction_two

from oracles import reduction_by_products

FIELDS = [QQ, GF(32003)]
IDEALS = {
    "ex-2-5": ex_2_5_ideal,
    "ex-3-7": ex_3_7_ideal,
    "readme": lambda field: GradedIdeal.from_strings(
        ["x*y", "x*z", "y*z", "x^2-z^2", "y^2-z^2"], field=field),
    "ci": lambda field: GradedIdeal.from_strings(["x^2", "y^2", "z^2"], field=field),
}


@pytest.mark.parametrize("field", FIELDS, ids=lambda f: f.name)
@pytest.mark.parametrize("name", sorted(IDEALS))
def test_reduction_check_matches_products(name, field):
    I = IDEALS[name](field)
    for seed in range(1, 6):
        assert check_reduction_two(I, seed).as_dict() == reduction_by_products(I, seed)


@pytest.mark.parametrize("field", FIELDS, ids=lambda f: f.name)
def test_complete_intersection_ji2_equals_i3(field):
    """(I^2)_4 of (x^2, y^2, z^2) is not full, so J*I^2 takes its rows; J is
    I itself for a general draw, and J*I^2 = I^3."""
    ci = IDEALS["ci"](field)
    assert not ci.power_piece(2, 4).is_full
    for seed in range(1, 6):
        assert check_reduction_two(ci, seed).ji2_equals_i3 is True


def _count_products(monkeypatch):
    """The degree t of each GradedIdeal._rows_times call that forms product
    rows, in the order the calls return; a call that reads I_t is left out."""
    builds = []
    rows_times = GradedIdeal._rows_times

    def counted(self, t, lower):
        rows = rows_times(self, t, lower)
        if rows is not None:
            builds.append(t)
        return rows

    monkeypatch.setattr(GradedIdeal, "_rows_times", counted)
    return builds


def test_powers_above_a_full_piece_make_no_products(monkeypatch):
    I = ex_2_5_ideal()
    assert I.power_piece(2, 4).is_full
    calls = _count_products(monkeypatch)
    for t in range(5, 10):
        assert I.power_piece(2, t).is_full
    assert calls == []


@pytest.mark.parametrize("field", FIELDS, ids=lambda f: f.name)
def test_a_power_over_a_full_lower_power_is_the_ideal_piece(field, monkeypatch):
    """(I^k)_t = I_d * (I^{k-1})_{t-d} = I_t once (I^{k-1})_{t-d} is full:
    (I^3)_6 of the README ideal and (I^2)_6 of the complete intersection,
    whose I_4 is full, take no product; (I^3)_6 of the complete
    intersection, over a (I^2)_4 that is not full, does."""
    calls = _count_products(monkeypatch)
    readme, ci = IDEALS["readme"](field), IDEALS["ci"](field)
    assert readme.power_piece(2, 4).is_full and calls == [4]
    assert readme.power_piece(3, 6) is readme.graded_piece(6)
    assert ci.graded_piece(4).is_full
    assert ci.power_piece(2, 6) is ci.graded_piece(6)
    assert calls == [4]
    assert ci.power_piece(2, 4).dim == 6 and ci.power_piece(3, 6).dim == 10
    assert calls == [4, 4, 6]


@pytest.mark.parametrize("field", FIELDS, ids=lambda f: f.name)
def test_a_mixed_degree_power_over_full_pieces_is_the_ideal_piece(field, monkeypatch):
    """(x, y^2, z^2) has H = 1, 2, 1, 0, so I_4 and I_3 are full and
    (I^2)_5 = x * I_4 + y^2 * I_3 + z^2 * I_3 is I_5, with no product of
    forms, though I is generated in two degrees."""
    I = GradedIdeal.from_strings(["x", "y^2", "z^2"], field=field)
    products = []
    term_product = gor3.ideals._term_product
    monkeypatch.setattr(gor3.ideals, "_term_product",
                        lambda *args: products.append(args) or term_product(*args))
    assert I.power_piece(2, 5) is I.graded_piece(5)
    assert products == []
    assert [I.hilbert_function(t) for t in range(5)] == [1, 2, 1, 0, 0]


@pytest.mark.parametrize("k", [1, 2])
def test_a_negative_degree_raises_for_every_power(k):
    with pytest.raises(ValueError, match="degree must be non-negative"):
        ex_2_5_ideal().power_piece(k, -1)
