from math import comb

import pytest

import gor3.betti
import gor3.ideals
import gor3.linalg
from gor3 import GradedIdeal
from gor3.betti import betti_table, has_linear_resolution, socle_decomposition_from_betti
from gor3.cases import (
    ex_2_5_ideal,
    ex_3_7_ideal,
    five_gen_expected_betti,
    five_gen_expected_socle,
    five_gen_monomial_ideal,
    monomial_tower_ideal,
    monomial_tower_squared,
    tower_expected_betti,
    tower_expected_socle,
)
from gor3.fields import QQ, PrimeField
from gor3.ideals import NotEquigeneratedError
from oracles import betti_table_by_koszul, is_gorenstein_symmetric


def test_koszul_complete_intersection():
    ci = GradedIdeal.from_strings(["x^2", "y^2", "z^2"])
    table = betti_table(ci)
    assert table.entries == {(0, 0): 1, (1, 2): 3, (2, 4): 3, (3, 6): 1}
    assert not has_linear_resolution(table)


def test_koszul_of_the_residue_field():
    m = GradedIdeal.from_strings(["x", "y", "z"])
    table = betti_table(m)
    assert table.entries == {(0, 0): 1, (1, 1): 3, (2, 2): 3, (3, 3): 1}
    assert has_linear_resolution(table)


def test_koszul_mixed_degrees():
    ci = GradedIdeal.from_strings(["x^2", "y^3", "z^4"])
    table = betti_table(ci)
    assert table.entries == {
        (0, 0): 1,
        (1, 2): 1, (1, 3): 1, (1, 4): 1,
        (2, 5): 1, (2, 6): 1, (2, 7): 1,
        (3, 9): 1,
    }


def test_betti_row_zero_is_trivial(ex_2_5):
    table = betti_table(ex_2_5)
    assert table.beta(0, 0) == 1
    assert all(i != 0 or j == 0 for (i, j) in table.entries)


def test_generator_row_matches_profile(ex_2_5, tower_d4):
    for I in (ex_2_5, tower_d4):
        table = betti_table(I)
        assert table.column_shifts(1) == I.minimal_generator_profile()


def test_tower_tables(tower_d3, tower_d4):
    for d, I in ((3, tower_d3), (4, tower_d4)):
        b1, b2, b3 = tower_expected_betti(d)
        table = betti_table(I)
        assert table.column_shifts(1) == b1
        assert table.column_shifts(2) == b2
        assert table.column_shifts(3) == b3
        assert socle_decomposition_from_betti(table) == tower_expected_socle(d)


def test_tower_d2_socle_numeric():
    from gor3.cases import monomial_tower_ideal

    I = monomial_tower_ideal(2)
    assert I.minimal_generator_profile() == {2: 5}
    assert I.socle_report().socle_dims == {1: 1, 2: 1}
    assert socle_decomposition_from_betti(betti_table(I)) == {1: 1, 2: 1}


def test_squared_tower_table():
    I = monomial_tower_squared(3)
    table = betti_table(I)
    assert table.column_shifts(1) == {6: 7}
    assert table.column_shifts(2) == {8: 6, 10: 4}
    assert table.column_shifts(3) == {10: 1, 12: 3}
    assert I.socle_report().socle_dims == {7: 1, 9: 3}


def test_five_gen_table(five_gen_dp2):
    b1, b2, b3 = five_gen_expected_betti(2)
    table = betti_table(five_gen_dp2)
    assert table.column_shifts(1) == b1
    assert table.column_shifts(2) == b2
    assert table.column_shifts(3) == b3
    assert socle_decomposition_from_betti(table) == \
        five_gen_expected_socle(2)


def test_linear_resolution_cases(ex_3_7, tower_d3):
    assert has_linear_resolution(betti_table(ex_3_7))
    assert not has_linear_resolution(betti_table(tower_d3))
    with pytest.raises(NotEquigeneratedError):
        has_linear_resolution(betti_table(GradedIdeal.from_strings(["x^2", "y^3", "z^4"])))


def test_socle_cross_validation(ex_2_5, ex_3_7, tower_d3, tower_d4, five_gen_dp2):
    """Top Betti shifts and the colon-based socle must agree everywhere.
    betti_table reads its top column off socle_report, so the whole table
    is also checked against the Koszul route, which builds every
    differential from the multiplication maps, over QQ and GF(32003)."""
    fp = PrimeField(32003)
    for I in (ex_2_5, ex_3_7, tower_d3, tower_d4, five_gen_dp2,
              ex_2_5_ideal(fp), ex_3_7_ideal(fp), monomial_tower_ideal(3, fp),
              monomial_tower_ideal(4, fp), five_gen_monomial_ideal(2, fp)):
        table = betti_table(I)
        assert socle_decomposition_from_betti(table) == I.socle_report().socle_dims
        assert table.entries == betti_table_by_koszul(I).entries


def test_gorenstein_symmetry(ex_2_5, ex_3_7, ex_4_5):
    for I in (ex_2_5, ex_3_7, ex_4_5):
        assert is_gorenstein_symmetric(betti_table(I))


def test_mixed_degree_gorenstein_link():
    """The colon with the extra cubic generator: still Gorenstein, mixed
    generator degrees, Betti table symmetric, both socle routes agree."""
    from gor3.parsing import parse_poly

    I = GradedIdeal.from_strings(["x^4", "y^4", "z^4"]).colon(
        parse_poly("x^3+y^3+z^3", ["x", "y", "z"]))
    table = betti_table(I)
    assert table.column_shifts(1) == {3: 1, 4: 6}
    assert table.column_shifts(1) == I.minimal_generator_profile()
    assert is_gorenstein_symmetric(table)
    assert socle_decomposition_from_betti(table) == \
        I.socle_report().socle_dims == {6: 1}
    gens = [str(g) for g in I.minimal_generators()]
    assert "x*y*z" in gens


def test_non_gorenstein_is_not_symmetric(tower_d3):
    assert not is_gorenstein_symmetric(betti_table(tower_d3))


def test_euler_characteristic_per_degree(ex_2_5, tower_d3):
    """Alternating chain dimensions equal alternating Betti numbers in each
    internal degree."""
    for I in (ex_2_5, tower_d3):
        s = I.socle_report().socle_degree
        table = betti_table(I)
        for j in range(0, s + I.n + 1):
            chains = sum((-1) ** i * comb(I.n, i) * I.hilbert_function(j - i)
                         for i in range(I.n + 1) if j - i >= 0)
            homology = sum((-1) ** i * table.beta(i, j)
                           for i in range(I.n + 1))
            assert chains == homology, (j,)


def test_staircase_rendering(ex_2_5):
    text = betti_table(ex_2_5).staircase()
    assert "1" in text and ":" in text
    lines = text.splitlines()
    assert len(lines) >= 3


def test_triples_serialization(ex_2_5):
    table = betti_table(ex_2_5)
    triples = table.triples()
    assert (0, 0, 1) in triples
    assert (1, 2, 5) in triples
    assert (3, 5, 1) in triples
    rebuilt = {(i, j): v for i, j, v in triples}
    assert rebuilt == table.entries


def test_betti_table_reads_the_top_column_off_the_socle(tower_d3):
    # socle {1: 1, 2: 1}: the top twists are the socle degrees + 3
    I = GradedIdeal.from_strings(["x^2", "x*y", "x*z", "y^2", "z^2"])
    assert betti_table(I).column_shifts(3) == {4: 1, 5: 1}
    assert betti_table(tower_d3).column_shifts(3) == {
        s + 3: v for s, v in tower_expected_socle(3).items()}
    with pytest.raises(ValueError, match="unit ideal"):
        betti_table(GradedIdeal.from_strings(["x", "y", "z", "1"]))


@pytest.mark.parametrize("field", [QQ, PrimeField(32003)], ids=["QQ", "GF(32003)"])
@pytest.mark.parametrize("gens", [
    ["x*y", "x*z", "y*z", "x^2-z^2", "y^2-z^2"],
    ["x^2", "y^2", "z^2"],
], ids=["readme", "squares"])
def test_a_certified_gorenstein_table_builds_no_map_and_no_rank(monkeypatch, gens, field):
    # in three variables the ranks of d_1, d_2 and d_3 come from H, the
    # minimal generators and the socle, and a certified socle builds no map
    calls = []

    def record(name, fn):
        def wrapper(*args, **kwargs):
            calls.append(name)
            return fn(*args, **kwargs)
        return wrapper

    monkeypatch.setattr(GradedIdeal, "multiplication_maps",
                        record("multiplication_maps", GradedIdeal.multiplication_maps))
    row_rank = record("row_rank", gor3.linalg.row_rank)
    for module in (gor3.linalg, gor3.betti, gor3.ideals):
        monkeypatch.setattr(module, "row_rank", row_rank)
    I = GradedIdeal.from_strings(gens, field=field)
    table = betti_table(I)
    assert calls == []
    assert I.socle_report().is_gorenstein
    assert table.entries == betti_table_by_koszul(I).entries


@pytest.mark.parametrize("make,entries", [
    (ex_2_5_ideal, {(0, 0): 1, (1, 2): 5, (2, 3): 5, (3, 5): 1}),
    (lambda: monomial_tower_ideal(4),
     {(0, 0): 1, (1, 4): 9, (2, 5): 9, (2, 6): 1, (3, 6): 2, (2, 7): 4,
      (3, 7): 1, (3, 8): 3}),
    (ex_3_7_ideal, {(0, 0): 1, (1, 3): 7, (2, 4): 7, (3, 7): 1}),
    # built from generators, so the bound comes from the duality certificate
    (lambda: GradedIdeal.from_strings(["x^2", "y^2", "z^2"]),
     {(0, 0): 1, (1, 2): 3, (2, 4): 3, (3, 6): 1}),
], ids=["ex-2-5", "tower-d4", "ex-3-7", "squares"])
def test_betti_table_builds_no_piece_above_the_bound(make, entries):
    # R/I is 0 from the Artinian bound on, so the top twists s + 1 .. s + n
    # need no piece of degree above it
    I = make()
    table = betti_table(I)
    assert max(I._pieces) <= I.artinian_bound()
    assert table.entries == entries
