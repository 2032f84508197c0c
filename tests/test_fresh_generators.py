"""Minimal generators read off one coordinate RREF, against the greedy span.

``from_pieces`` and ``minimal_generators`` keep the rows of each piece that
lie outside R_1 times the piece below, found as the non-pivots of the
reversed coordinates of the degree-one multiples.  ``oracles.Span`` is the
row-by-row greedy those rows were once found with; both must keep the same
rows and print the same generators.
"""

import random

import pytest

from gor3 import GradedIdeal, InverseForm, MultiPoly, annihilator, parse_poly
from gor3.fields import GF, QQ
from gor3.monomials import monomials_of_degree

from oracles import colon_by_kernel, greedy_fresh_generators

FIELDS = [QQ, GF(32003)]
VARS = ["x", "y", "z"]


def _random_form(n, e, field, rng):
    monos = list(monomials_of_degree(n, e))
    chosen = rng.sample(monos, min(len(monos), rng.randint(2, 4)))
    return MultiPoly(n, {a: field.of(rng.choice([1, -1, 2, 3, -5, 11])) for a in chosen},
                     field)


def _pure_powers(n, m, field):
    return GradedIdeal(n, [MultiPoly.monomial(tuple(m[i] if j == i else 0 for j in range(n)),
                                              1, field) for i in range(n)], field)


def _oracle_generators(J, top):
    gens = []
    for t in range(top + 1):
        gens.extend(greedy_fresh_generators(
            J.graded_piece(t), J.graded_piece(t - 1) if t else None))
    return [str(g) for g in gens]


def _assert_matches_oracle(J):
    """Generators (read through from_pieces when J came from it) and
    minimal_generators both equal the greedy span, and the profile counts
    them."""
    top = J.max_generator_degree
    expected = _oracle_generators(J, top)
    assert [str(g) for g in J.minimal_generators()] == expected
    profile = {}
    for g in J.minimal_generators():
        d = g.homogeneous_degree()
        profile[d] = profile.get(d, 0) + 1
    assert J.minimal_generator_profile() == profile
    return expected


def _ideals(field):
    rng = random.Random(f"fresh-{field}")
    colons = []
    for n, m, e in [(2, [3, 5], 2), (3, [3, 3, 3], 2), (3, [2, 3, 4], 3),
                    (3, [4, 4, 4], 4), (4, [2, 2, 2, 2], 2)]:
        colons.append((_pure_powers(n, m, field), _random_form(n, e, field, rng)))
    colons.append((GradedIdeal.from_strings(["x^3", "y^3", "z^3", "x*y*z"], field=field),
                   parse_poly("x^2 + y*z", VARS, field)))
    duals = [InverseForm(n, {a: field.of(rng.choice([1, -2, 3, 7]))
                             for a in rng.sample(list(monomials_of_degree(n, s)), 3)},
                         field)
             for n, s in [(2, 4), (3, 3), (3, 5), (4, 2)]]
    randoms = [GradedIdeal(n, [_random_form(n, d, field, rng) for d in degrees], field)
               for n, degrees in [(2, [2, 3]), (3, [2, 2, 2]), (3, [1, 2, 3]),
                                  (3, [2, 2, 3, 3]), (3, [2, 2, 2, 2, 2, 3]),
                                  (4, [2, 2, 2, 2])]]
    return colons, duals, randoms


@pytest.mark.parametrize("field", FIELDS, ids=str)
def test_generators_match_the_greedy_span(field):
    colons, duals, randoms = _ideals(field)
    results = []
    for base, f in colons:
        results.append(base.colon(f))                                  # duality route
        results.append(colon_by_kernel(base, f))                      # kernel route
    results += [annihilator(F) for F in duals]
    for J in results:
        # from_pieces extracted J.generators from the pieces up to the bound
        expected = _oracle_generators(J, J.artinian_bound())
        assert [str(g) for g in J.generators] == expected
        assert _assert_matches_oracle(J) == expected
    kept_some = dropped_some = False
    for I in randoms:
        expected = _assert_matches_oracle(I)
        kept_some |= bool(expected)
        dropped_some |= len(expected) < len(I.generators)
    assert kept_some
    # one random set of generators is redundant
    assert dropped_some
