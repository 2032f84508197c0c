"""betti_table against the Koszul route of tests/oracles.py.

betti_table takes the ranks of d_1, d_2 and d_n from the Hilbert function,
the minimal generators and the socle, and builds matrices only for the
middle differentials when n >= 4.  The oracle builds every differential
K_i(j) -> K_{i-1}(j) from the multiplication maps and ranks it.  The two
tables must be equal on every ideal and field here, in one to five
variables, Gorenstein or not, equigenerated or not; an ideal that is not
Artinian over a field must be rejected by both.
"""

import random

import pytest

from gor3 import GradedIdeal, MultiPoly
from gor3.betti import betti_table
from gor3.cases import (
    ex_2_5_ideal,
    ex_3_7_ideal,
    ex_4_5_ideal,
    ex_4_9_ideal,
    five_gen_monomial_ideal,
    monomial_tower_ideal,
    monomial_tower_squared,
    random_quadrics,
)
from gor3.fields import QQ, PrimeField
from gor3.ideals import NotArtinianError
from gor3.monomials import monomials_of_degree
from gor3.pfaffians import generic_power_model
from oracles import betti_table_by_koszul

FIELDS = {"QQ": QQ, "GF(2)": PrimeField(2), "GF(3)": PrimeField(3),
          "GF(32003)": PrimeField(32003)}


def seeded_ideal(n, seed, field, m, degrees):
    """x_i^m for every variable and one seeded form of each given degree,
    with coefficients in -3..3."""
    rng = random.Random(f"betti-oracle:{n}:{seed}")
    gens = [MultiPoly.monomial(tuple(m * (k == i) for k in range(n)), 1, field)
            for i in range(n)]
    for degree in degrees:
        terms = {e: field.of(rng.randint(-3, 3)) for e in monomials_of_degree(n, degree)}
        gens.append(MultiPoly(n, {e: c for e, c in terms.items()
                                  if not field.is_zero(c)}, field))
    return GradedIdeal(n, [g for g in gens if not g.is_zero()], field)


# (variables, pure power, degrees of the seeded forms)
SEEDED = [(1, 5, (3,)), (2, 4, (3,)), (4, 3, (2, 2, 3)), (5, 2, (2, 2, 3))]


IDEALS = {
    "ex-2-5": ex_2_5_ideal,
    "ex-3-7": ex_3_7_ideal,
    "ex-4-5": ex_4_5_ideal,
    "ex-4-9": ex_4_9_ideal,
    "tower-d2": lambda f: monomial_tower_ideal(2, f),
    "tower-d3": lambda f: monomial_tower_ideal(3, f),
    "tower-d4": lambda f: monomial_tower_ideal(4, f),
    "tower-d3-squared": lambda f: monomial_tower_squared(3, f),
    "five-gen-dp2": lambda f: five_gen_monomial_ideal(2, f),
    "five-gen-dp3": lambda f: five_gen_monomial_ideal(3, f),
    "quadrics-seed-0": lambda f: GradedIdeal(3, random_quadrics(0, f), f),
    "quadrics-seed-42": lambda f: GradedIdeal(3, random_quadrics(42, f), f),
    "pfaffian-r5-dp1": lambda f: generic_power_model(5, 1, 3, 7, f),
    "pfaffian-r5-dp2": lambda f: generic_power_model(5, 2, 3, 7, f),
    "pfaffian-r7-dp1": lambda f: generic_power_model(7, 1, 3, 3, f),
    "x2-xy-xz-y2-z2": lambda f: GradedIdeal.from_strings(
        ["x^2", "x*y", "x*z", "y^2", "z^2"], field=f),
    "x3-y3-z3-xyz": lambda f: GradedIdeal.from_strings(
        ["x^3", "y^3", "z^3", "x*y*z"], field=f),
    **{f"seeded-n{n}-{seed}": (lambda f, n=n, seed=seed, m=m, degrees=degrees:
                                 seeded_ideal(n, seed, f, m, degrees))
       for n, m, degrees in SEEDED for seed in (0, 1)},
}


# generic_power_model draws its substitution coefficients from -10..10
# minus 0, all 1 over GF(2), and finds no Artinian draw there
CASES = [(name, field) for name in IDEALS for field in FIELDS
         if not (name.startswith("pfaffian") and field == "GF(2)")]


@pytest.mark.parametrize("name,field", CASES, ids=[f"{n}-{f}" for n, f in CASES])
def test_betti_table_equals_the_koszul_route(name, field):
    try:
        I = IDEALS[name](FIELDS[field])
        I.artinian_bound()
    except NotArtinianError:
        # not Artinian over this field: both routes must say so
        with pytest.raises(NotArtinianError):
            betti_table(I)
        with pytest.raises(NotArtinianError):
            betti_table_by_koszul(I)
        return
    assert betti_table(I).entries == betti_table_by_koszul(I).entries
