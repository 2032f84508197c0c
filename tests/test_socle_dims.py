"""Socle dimensions counted on R/I against the kernel route inside R_t.

socle_report counts the socle of R/I in degree t as H(t) minus the rank of
x_1..x_n : (R/I)_t -> (R/I)_{t+1}^n.  The route rebuilt here is independent
of it: the kernel of g -> (x_1 g, ..., x_n g) mod I_{t+1} on all of R_t,
read from kernel_rows, is {g : m g in I}, and its dimension less dim I_t
is the socle dimension.
"""

import random
from fractions import Fraction

import pytest

from gor3 import GradedIdeal, MultiPoly
from gor3.cases import monomial_tower_squared
from gor3.fields import GF, QQ
from gor3.linalg import kernel_rows
from gor3.monomials import monomial_count, monomial_index, monomials_of_degree
from gor3.pfaffians import generic_power_model
from oracles import reduce_vector

FIELDS = [QQ, GF(32003)]


def kernel_route_socle_dims(I):
    n, field = I.n, I.field
    dims = {}
    for t in range(I.artinian_bound()):
        above = I.graded_piece(t + 1)
        idx = monomial_index(n, t + 1)
        width = monomial_count(n, t + 1)
        columns = []
        for gamma in monomials_of_degree(n, t):
            column = []
            for i in range(n):
                vec = [field.zero] * width
                e = list(gamma)
                e[i] += 1
                vec[idx[tuple(e)]] = field.one
                column.extend(reduce_vector(above, vec))
            columns.append(column)
        rows = [field.integer_row(row)[0] for row in zip(*columns)]
        sdim = len(kernel_rows(field, rows, len(columns))[0]) - I.graded_piece(t).dim
        if sdim:
            dims[t] = sdim
    return dims


def _random_form(n, d, field, rng):
    monos = list(monomials_of_degree(n, d))
    chosen = rng.sample(monos, min(len(monos), rng.randint(3, 8)))
    if field == QQ:
        coeffs = [Fraction(rng.choice([1, -1, 2, -3, 5]), rng.choice([1, 1, 2, 7]))
                  for _ in chosen]
    else:
        coeffs = [field.of(rng.randint(1, field.p - 1)) for _ in chosen]
    return MultiPoly(n, dict(zip(chosen, coeffs)), field)


# (n, generator degrees); pure powers of the variables are added to some
# of them so that both Gorenstein and non-Gorenstein quotients occur
SHAPES = [(2, [2, 3]), (2, [3, 3, 4]), (3, [2, 2, 2]), (3, [2, 2, 3, 3]),
          (3, [2, 2, 2, 2]), (4, [2, 2, 2, 2]), (4, [2, 2, 2, 2, 3])]


def _seeded_ideals(field):
    rng = random.Random(4242)
    ideals = []
    for n, degrees in SHAPES:
        for with_powers in (False, True):
            gens = [_random_form(n, d, field, rng) for d in degrees]
            if with_powers:
                m = max(degrees) + 1
                gens += [MultiPoly.monomial(tuple(m if j == i else 0 for j in range(n)),
                                            1, field) for i in range(n)]
            I = GradedIdeal(n, gens, field)
            if I.is_artinian():
                ideals.append(I)
    return ideals


@pytest.mark.parametrize("field", FIELDS, ids=["QQ", "GF32003"])
def test_socle_dims_equal_the_kernel_route(field):
    ideals = _seeded_ideals(field)
    assert len(ideals) >= 10
    assert {I.n for I in ideals} == {2, 3, 4}
    gorenstein = 0
    for I in ideals:
        report = I.socle_report()
        assert report.socle_dims == kernel_route_socle_dims(I)
        gorenstein += report.is_gorenstein
    # both kinds of quotient are covered
    assert 0 < gorenstein < len(ideals)


@pytest.mark.parametrize("field", FIELDS, ids=["QQ", "GF32003"])
def test_squared_tower(field):
    I = monomial_tower_squared(3, field)
    report = I.socle_report()
    assert report.socle_dims == {7: 1, 9: 3}
    assert kernel_route_socle_dims(I) == report.socle_dims
    # the top degree sits right below a full piece, a degree the rank
    # never has to be taken for
    assert I.graded_piece(report.socle_degree + 1).is_full


@pytest.mark.parametrize("seed", [1, 2, 3])
def test_power_models(seed):
    I = generic_power_model(5, 2, 3, seed)
    report = I.socle_report()
    assert report.socle_dims == kernel_route_socle_dims(I)
    assert report.is_gorenstein
