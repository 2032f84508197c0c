"""Acceptance suite: every criterion is asserted exactly (no tolerances)
and prints a one-line verdict.  Run `pytest -s tests/test_acceptance.py`
to see the per-criterion lines, or `gor3 reproduce --all` for the
case-registry view of the same material.
"""

import random
from contextlib import contextmanager

from gor3 import (
    GradedIdeal,
    MultiPoly,
    annihilator,
    check_reduction_two,
    colon_iteration_check,
    directrix_form,
    five_quadrics_certificate,
    has_linear_resolution,
    is_equigen_linres,
    linres_matrix,
    macaulay_inverse,
    pure_power_gap,
    pure_power_index,
    socle_decomposition_from_betti,
    spans_target,
    variable_lines,
    variable_power_ideal,
)
from gor3.betti import betti_table
from gor3.cases import (
    five_gen_expected_betti,
    monomial_tower_squared,
    random_quadrics,
    tower_expected_betti,
    tower_expected_socle,
)
from gor3.fields import QQ
from gor3.linalg import kernel_rows
from gor3.monomials import monomial_count, monomials_of_degree
from gor3.parsing import parse_poly, parse_poly_list
from gor3.pfaffians import generic_power_model, pfaffian
from gor3.pieces import integer_span
from oracles import det_by_minors, random_alternating

VARS = ["x", "y", "z"]


def P(text):
    return parse_poly(text, VARS)


@contextmanager
def criterion(label):
    try:
        yield
    except BaseException:
        print(f"{label}: FAIL")
        raise
    print(f"{label}: PASS")


def test_c01_colon_two_five(ex_2_5):
    with criterion("C01 colon example with datum (2,5,1)"):
        listed = GradedIdeal.from_strings(
            ["x*y", "x*z", "y*z", "x^2 - z^2", "y^2 - z^2"])
        assert ex_2_5.equals(listed)
        assert ex_2_5.minimal_generator_profile() == {2: 5}
        rep = ex_2_5.socle_report()
        assert rep.is_gorenstein and rep.socle_degree == 2
        assert ex_2_5.virtual_datum().as_tuple() == (2, 5, 1)


def test_c02_colon_three_seven(ex_3_7):
    with criterion("C02 colon example with datum (3,7,1), both linearity oracles"):
        listed = GradedIdeal.from_strings(
            ["x^3", "y^3", "z^3", "x*y*z",
             "x*(y^2 - z^2)", "y*(x^2 - z^2)", "z*(x^2 - y^2)"])
        assert ex_3_7.equals(listed)
        assert ex_3_7.minimal_generator_profile() == {3: 7}
        assert ex_3_7.socle_report().socle_degree == 4
        assert ex_3_7.virtual_datum().as_tuple() == (3, 7, 1)
        betti_says = has_linear_resolution(ex_3_7)
        rank_says = is_equigen_linres(P("x^2 + y^2 + z^2"), 3)
        assert betti_says is True
        assert rank_says.verdict == "YES" and rank_says.d == 3


def test_c03_degree_four_data(ex_4_5, ex_4_9):
    with criterion("C03 degree-4 colon data (4,5,2) and (4,9,1)"):
        assert ex_4_5.virtual_datum().as_tuple() == (4, 5, 2)
        assert ex_4_9.virtual_datum().as_tuple() == (4, 9, 1)


def test_c04_non_equigenerated():
    with criterion("C04 colon with the extra generator xyz (not equigenerated)"):
        base = GradedIdeal.from_strings(["x^4", "y^4", "z^4"])
        I = base.colon(P("x^3 + y^3 + z^3"))
        profile = I.minimal_generator_profile()
        assert 3 in profile
        assert I.contains(P("x*y*z"))
        assert len(profile) > 1


def test_c05_monomial_towers(tower_d3, tower_d4):
    with criterion("C05 monomial tower Betti/socle at d = 3, 4 plus span test"):
        for d, I in ((3, tower_d3), (4, tower_d4)):
            table = betti_table(I)
            b1, b2, b3 = tower_expected_betti(d)
            assert table.column_shifts(1) == b1
            assert table.column_shifts(2) == b2
            assert table.column_shifts(3) == b3
            expected = tower_expected_socle(d)
            assert socle_decomposition_from_betti(I) == expected
            assert I.socle_report().socle_dims == expected
            assert spans_target(I.generators, d - 2).spans


def test_c06_squared_tower():
    with criterion("C06 exponent-doubled tower Betti shifts and socle"):
        I = monomial_tower_squared(3)
        table = betti_table(I)
        assert table.column_shifts(1) == {6: 7}
        assert table.column_shifts(2) == {8: 6, 10: 4}
        assert table.column_shifts(3) == {10: 1, 12: 3}
        assert I.socle_report().socle_dims == {7: 1, 9: 3}


def test_c07_five_generator_family(five_gen_dp2):
    with criterion("C07 five-generator monomial family at d' = 2"):
        table = betti_table(five_gen_dp2)
        b1, b2, b3 = five_gen_expected_betti(2)
        assert table.column_shifts(1) == b1
        assert table.column_shifts(2) == b2
        assert table.column_shifts(3) == b3
        assert five_gen_dp2.socle_report().socle_dims == {6: 3}
        assert spans_target(five_gen_dp2.generators, 3).spans


def test_c08_sum_power_threshold():
    with criterion("C08 sum-of-variables colon: YES exactly when m >= s/2 + 1"):
        ell = P("x + y + z")
        checked = 0
        for m in range(1, 6):
            for e in range(0, 7):
                s = 3 * (m - 1) - e
                if s < 0 or s % 2:
                    continue
                checked += 1
                d = s // 2 + 1
                rep = is_equigen_linres(ell ** e, m)
                assert (rep.verdict == "YES") == (m >= d), (m, e)
                if rep.verdict == "YES":
                    I = variable_power_ideal(3, m).colon(ell ** e)
                    assert has_linear_resolution(I), (m, e)
                    assert I.is_equigenerated()[0] == d
                    assert I.socle_report().is_gorenstein
        assert checked >= 12


def test_c09_five_quadrics():
    with criterion("C09 five-quadrics certificate: unit point and 100-seed sweep"):
        qs = parse_poly_list("x^2+z^2, x*y+z^2, x*z, y^2, y*z", VARS)
        rep = five_quadrics_certificate(qs)
        assert rep.delta == 1 and rep.dee == 1
        certified = 0
        for seed in range(100):
            quad = random_quadrics(seed)
            verdict = five_quadrics_certificate(quad)
            if verdict.verdict == "GORENSTEIN":
                certified += 1
                assert GradedIdeal(3, quad, QQ).socle_report().is_gorenstein, \
                    f"false positive at seed {seed}"
        assert certified >= 95


def test_c10_powers_and_reduction(ex_2_5):
    with criterion("C10 powers match the maximal-ideal powers; reduction number 2"):
        for k in (2, 3):
            for t in range(0, 2 * k + 3):
                dim = ex_2_5.power_piece(k, t).dim
                expected = monomial_count(3, t) if t >= 2 * k else 0
                assert dim == expected, (k, t)
        for seed in range(1, 11):
            assert check_reduction_two(ex_2_5, seed).reduction_number_is_two, seed


def test_c11_duality_round_trip(ex_2_5, ex_3_7, ex_4_5, ex_4_9):
    with criterion("C11 inverse-system round trip and directrix identities"):
        lines = variable_lines(3)
        for I in (ex_2_5, ex_3_7, ex_4_5, ex_4_9):
            s = I.socle_report().socle_degree
            assert annihilator(macaulay_inverse(I)).equals(I)
            m_min = pure_power_index(I, lines)
            for m in sorted({m_min, s + 1}):
                f = directrix_form(I, m)
                assert f.homogeneous_degree() == 3 * (m - 1) - s
                assert all(max(e) < m for e in f.terms)
                assert variable_power_ideal(3, m).colon(f).equals(I)


def test_c12_pure_power_gap(ex_3_7):
    with criterion("C12 pure power index 3, gap 2, squared-product directrix"):
        lines = variable_lines(3)
        assert pure_power_index(ex_3_7, lines) == 3
        assert pure_power_gap(ex_3_7, lines) == 2
        f = directrix_form(ex_3_7, 5)
        assert all(min(e) >= 2 for e in f.terms)
        quotient = MultiPoly(3, {tuple(v - 2 for v in e): c
                                 for e, c in f.terms.items()}, QQ)
        target = P("x^2 + y^2 + z^2")
        e0 = next(iter(target.terms))
        ratio = QQ.div(quotient.terms[e0], target.terms[e0])
        assert quotient == target.scale(ratio)


def test_c13_model_properness():
    with criterion("C13 specialized alternating models hit their data"):
        for r, dp, datum in ((5, 1, (2, 5, 1)), (5, 2, (4, 5, 2))):
            good = 0
            for seed in range(1, 11):
                try:
                    I = generic_power_model(r, dp, 3, seed)
                except RuntimeError:
                    continue
                rep = I.socle_report()
                if rep.is_gorenstein and I.virtual_datum().as_tuple() == datum:
                    good += 1
            assert good >= 9, f"(r={r}, d'={dp}): {good}/10"


def test_c14a_pfaffian_square_is_determinant():
    with criterion("C14a Pf^2 = det on alternating matrices, sizes 2-8"):
        rng = random.Random(2025)
        for size in (2, 4, 6, 8):
            for _ in range(50):
                A = random_alternating(rng, size)
                scalar = [[v.coefficient((0,)) for v in row]
                          for row in A.entries]
                pf = pfaffian(A).coefficient((0,))
                assert pf * pf == det_by_minors(scalar)


def test_c14b_colon_iteration_seeded():
    with criterion("C14b iterated colon identity on 25 seeded instances"):
        rng = random.Random(14)
        lines = variable_lines(3)
        done = 0
        while done < 25:
            deg = rng.randint(1, 4)
            terms = {}
            for e in monomials_of_degree(3, deg):
                c = rng.randint(-4, 4)
                if c:
                    terms[e] = QQ.of(c)
            if not terms:
                continue
            f = MultiPoly(3, terms, QQ)
            exps = [rng.randint(1, 3) for _ in range(3)]
            i = rng.randrange(3)
            assert colon_iteration_check(lines, exps, f, i)
            done += 1


def test_c14c_membership_matrix_vs_colon():
    with criterion("C14c membership-matrix kernels equal colon pieces, 25 seeds"):
        rng = random.Random(15)
        for _ in range(25):
            e = rng.randint(1, 3)
            m = rng.randint(2, 4)
            ep = rng.randint(1, 3)
            terms = {}
            for ev in monomials_of_degree(3, e):
                c = rng.randint(-5, 5)
                if c:
                    terms[ev] = QQ.of(c)
            if not terms:
                terms[(e, 0, 0)] = QQ.one
            f = MultiPoly(3, terms, QQ)
            kernel, _ = kernel_rows(QQ, *linres_matrix(f, m, ep))
            piece = variable_power_ideal(3, m).colon(f, t_max=ep).graded_piece(ep)
            assert integer_span(3, ep, kernel, QQ) == piece


def test_c14d_hilbert_symmetry(ex_2_5, ex_3_7, ex_4_5, ex_4_9):
    with criterion("C14d Hilbert symmetry on all Gorenstein suite ideals"):
        five_quadrics = GradedIdeal.from_strings(
            ["x^2+z^2", "x*y+z^2", "x*z", "y^2", "y*z"])
        for I in (ex_2_5, ex_3_7, ex_4_5, ex_4_9, five_quadrics):
            s = I.socle_report().socle_degree
            assert I.socle_report().is_gorenstein
            for t in range(s + 1):
                assert I.hilbert_function(t) == I.hilbert_function(s - t)


def test_c14e_betti_socle_cross_validation(
        ex_2_5, ex_3_7, tower_d3, tower_d4, five_gen_dp2):
    with criterion("C14e Betti-vs-socle cross validation on all Artinian cases"):
        squared = monomial_tower_squared(3)
        ci = GradedIdeal.from_strings(["x^2", "y^2", "z^2"])
        for I in (ex_2_5, ex_3_7, tower_d3, tower_d4, five_gen_dp2,
                  squared, ci):
            assert socle_decomposition_from_betti(I) == \
                I.socle_report().socle_dims
