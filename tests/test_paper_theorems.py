"""The paper's theorem on general forms, checked on seeded draws.

A codimension-3 homogeneous Gorenstein ideal of k[x,y,z] is not generated
by general forms of one degree d, unless d = 2 or the ideal is a complete
intersection.  So r general forms of degree d (3 <= r <= dim R_d) give a
Gorenstein ideal exactly at (d, r) = (d, 3), the complete intersection with
virtual datum (d, 3, d), and at (2, 5), five general quadrics with datum
(2, 5, 1).  Conversely, the specialized pure-power Pfaffian model with r
rows and entry degree d' is Gorenstein and equigenerated with datum
((r - 1) d' / 2, r, d').
"""

import random

import pytest

from gor3 import GradedIdeal, MultiPoly
from gor3.fields import GF, QQ
from gor3.monomials import monomial_count, monomials_of_degree
from gor3.pfaffians import generic_power_model

P = GF(32003)


def _general_forms(d, r, field):
    """r seeded ternary forms of degree d, coefficients from -10..10."""
    rng = random.Random(f"general-forms-{d}-{r}")
    forms = []
    for _ in range(r):
        terms = {}
        for e in monomials_of_degree(3, d):
            c = field.of(rng.randint(-10, 10))
            if not field.is_zero(c):
                terms[e] = c
        forms.append(MultiPoly(3, terms, field))
    return forms


@pytest.mark.parametrize("field,d", [(P, d) for d in range(2, 6)]
                         + [(QQ, d) for d in range(2, 5)], ids=str)
def test_general_forms_are_gorenstein_only_where_the_theorem_allows(field, d):
    hits = {}
    for r in range(3, monomial_count(3, d) + 1):
        I = GradedIdeal(3, _general_forms(d, r, field), field)
        if I.socle_report().is_gorenstein:
            hits[r] = I.virtual_datum().as_tuple()
    expected = {3: (d, 3, d)}
    if d == 2:
        expected[5] = (2, 5, 1)
    assert hits == expected


@pytest.mark.parametrize("r,d_prime", [(3, 2), (3, 3), (5, 1), (5, 2), (7, 1)])
def test_pfaffian_models_are_gorenstein_with_their_datum(r, d_prime):
    I = generic_power_model(r, d_prime, 3, 0, P)
    assert I.socle_report().is_gorenstein
    assert I.virtual_datum().as_tuple() == ((r - 1) * d_prime // 2, r, d_prime)
