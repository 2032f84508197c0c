"""The dense builders that read positions off monomials.product_table,
checked against builders that add and subtract exponent tuples
(tests/oracles.py), over QQ and GF(32003) and from one to four variables."""

import random
from fractions import Fraction

import pytest

from gor3 import GF, QQ, InverseForm, MultiPoly
from gor3.apolarity import annihilator, macaulay_inverse
from gor3.criteria import linres_matrix, spans_target
from gor3.ideals import GradedIdeal
from gor3.monomials import monomials_of_degree
from gor3.pieces import catalecticant, integer_terms, shifted_vectors

from oracles import (
    catalecticant_rows_by_tuples,
    linres_rows_by_tuples,
    macaulay_inverse_by_tuples,
    multiplication_maps_by_tuples,
    shifted_rows_by_tuples,
    spans_rank_by_tuples,
)

FIELDS = [QQ, GF(32003)]
# (variables, degree of the dual form): n = 1 and n = 4 included
SHAPES = [(1, 4), (2, 4), (3, 3), (4, 3)]


def _coeff(rng, field):
    if field == QQ:
        return Fraction(rng.choice([-1, 1]) * rng.randint(1, 9), rng.randint(1, 4))
    return field.of(rng.randint(1, 32002))


def _random_form(rng, n, d, field, cls=MultiPoly, density=0.7):
    basis = monomials_of_degree(n, d)
    terms = {e: _coeff(rng, field) for e in basis if rng.random() < density}
    if not terms:
        terms = {basis[0]: field.one}
    return cls(n, terms, field)


CASES = [(field, n, s) for field in FIELDS for n, s in SHAPES]


@pytest.fixture(params=CASES, ids=[f"{f!r}-n{n}-s{s}" for f, n, s in CASES])
def gorenstein(request):
    """(F, Ann(F)) for a seeded random dual form F."""
    field, n, s = request.param
    rng = random.Random(f"{field!r}{n}{s}")
    F = _random_form(rng, n, s, field, InverseForm)
    return F, annihilator(F)


def test_catalecticant_rows(gorenstein):
    F, _ = gorenstein
    s = F.degree()
    terms = integer_terms(F)
    vec = [terms.get(beta, 0) for beta in monomials_of_degree(F.n, s)]
    for t in range(s + 1):
        assert catalecticant(F.n, s, vec, t) == catalecticant_rows_by_tuples(
            F.n, s, terms, t)


def test_shifted_vectors(gorenstein):
    _, I = gorenstein
    bound = I.artinian_bound()
    for t in range(bound + 2):
        assert shifted_vectors(I.n, t, I._gen_data) == shifted_rows_by_tuples(
            I.n, t, I._gen_data)


def test_multiplication_maps(gorenstein):
    _, I = gorenstein
    for t in range(I.artinian_bound()):
        assert I.multiplication_maps(t) == multiplication_maps_by_tuples(I, t)


def test_macaulay_inverse(gorenstein):
    F, I = gorenstein
    # from the generators alone, so every piece is built from shifted rows
    fresh = GradedIdeal(I.n, I.generators, I.field)
    got = macaulay_inverse(fresh)
    assert got.to_vector(F.degree()) == macaulay_inverse_by_tuples(fresh)
    # and it is F up to a scalar
    lead = next(c for c in F.to_vector() if not F.field.is_zero(c))
    assert got == F.scale(F.field.inv(lead))


def test_spans_target(gorenstein):
    _, I = gorenstein
    d = min(g.homogeneous_degree() for g in I.generators)
    forms = [g for g in I.generators if g.homogeneous_degree() == d]
    for e in range(3):
        rep = spans_target(forms, e)
        rank, count = spans_rank_by_tuples(forms, e)
        assert (rep.rank, rep.shape[1]) == (rank, count)
        assert rep.spans == (rank == rep.target_dim)


@pytest.mark.parametrize("field", FIELDS, ids=repr)
@pytest.mark.parametrize("n", [1, 2, 3, 4])
def test_linres_matrix(field, n):
    rng = random.Random(n)
    for e in (1, 2):
        f = _random_form(rng, n, e, field)
        for m in (2, 3):
            for e_prime in range(3):
                M = linres_matrix(f, m, e_prime)
                assert M.entries == linres_rows_by_tuples(f, m, e_prime)
                assert M.cols == len(monomials_of_degree(n, e_prime))
