import random
from math import comb

import pytest

from gor3 import (
    GradedIdeal,
    MultiPoly,
    NotArtinianError,
    NotEquigeneratedError,
    DatumViolationError,
    check_reduction_two,
    colon_iteration_check,
    pure_power_gap,
    pure_power_ideal,
    pure_power_index,
    variable_lines,
    variable_power_ideal,
)
from gor3.fields import GF, QQ
from gor3.monomials import monomials_of_degree
from gor3.parsing import parse_poly
from gor3.pieces import degree_one_multiples, integer_span
from oracles import mono_divides, piece_rows

VARS = ["x", "y", "z"]


def P(text, field=QQ):
    return parse_poly(text, VARS, field)


def monomial_quotient_dimension(powers, t):
    """Brute-force count of degree-t monomials outside (x^a, y^b, z^c)."""
    count = 0
    for e in monomials_of_degree(3, t):
        if not any(mono_divides(p, e) for p in powers):
            count += 1
    return count


def test_graded_pieces_of_cubes(cubes):
    assert cubes.graded_piece(3).dim == 3
    assert cubes.graded_piece(2).dim == 0
    assert cubes.graded_piece(4).dim == 9


def test_graded_piece_of_colon(ex_3_7):
    assert ex_3_7.graded_piece(3).dim == 7


def test_hilbert_function_against_monomial_oracle(cubes):
    powers = [(3, 0, 0), (0, 3, 0), (0, 0, 3)]
    for t in range(0, 9):
        assert cubes.hilbert_function(t) == monomial_quotient_dimension(powers, t)
    assert cubes.hilbert_function(3) == 7
    assert cubes.hilbert_function(6) == 1
    assert cubes.hilbert_function(7) == 0


def test_hilbert_at_zero():
    I = GradedIdeal.from_strings(["x^2 - y*z", "z^4"])
    assert I.hilbert_function(0) == 1


def test_dimension_monotonicity(ex_3_7, cubes):
    for I in (ex_3_7, cubes):
        for t in range(0, 6):
            piece = I.graded_piece(t)
            grown = integer_span(
                3, t + 1, degree_one_multiples(piece), I.field)
            assert piece.dim <= grown.dim <= I.graded_piece(t + 1).dim


def test_minimal_profiles(ex_2_5, ex_3_7):
    assert ex_2_5.minimal_generator_profile() == {2: 5}
    assert ex_3_7.minimal_generator_profile() == {3: 7}
    single = GradedIdeal.from_strings(["x^2"])
    assert single.minimal_generator_profile() == {2: 1}


def test_colon_by_unit(cubes):
    one = MultiPoly.constant(3, 1)
    assert cubes.colon(one).equals(cubes)


def test_colon_contains_base(cubes, ex_3_7):
    bound = max(cubes.artinian_bound(), ex_3_7.artinian_bound())
    for t in range(bound + 1):
        inner = cubes.graded_piece(t)
        outer = ex_3_7.graded_piece(t)
        for row in piece_rows(inner):
            assert outer.contains_vector(row)


def test_colon_rejects_bad_forms(cubes):
    with pytest.raises(ValueError):
        cubes.colon(MultiPoly.zero(3))
    with pytest.raises(ValueError):
        cubes.colon(P("x + y^2"))


def test_colon_by_member_gives_unit_ideal(cubes):
    C = cubes.colon(P("x^3"))
    assert C.graded_piece(0).dim == 1
    assert C.hilbert_function(0) == 0
    with pytest.raises(ValueError):
        C.socle_report()


def test_unit_ideal_has_one_minimal_generator(cubes):
    """The unit ideal is minimally generated by 1, in degree 0, whether it
    comes from a colon or from generators that include a constant."""
    colon = cubes.colon(P("x^3"))
    given = GradedIdeal(3, [P("x*y"), MultiPoly.constant(3, 5), P("z")])
    for unit in (colon, given):
        assert [str(g) for g in unit.minimal_generators()] == ["1"]
        assert unit.minimal_generator_profile() == {0: 1}


def test_truncated_colon_is_labeled():
    I = GradedIdeal.from_strings(["x^2"])  # not Artinian
    C = I.colon(P("x"), t_max=4)
    assert C.truncated_at == 4
    assert C.contains(P("x"))


def test_socle_reports(ex_2_5, tower_d3):
    rep = ex_2_5.socle_report()
    assert rep.socle_dims == {2: 1}
    assert rep.is_gorenstein
    rep3 = tower_d3.socle_report()
    assert rep3.socle_dims == {2: 1, 3: 3}
    assert not rep3.is_gorenstein


def test_socle_of_maximal_ideal():
    m = GradedIdeal.from_strings(["x", "y", "z"])
    rep = m.socle_report()
    assert rep.socle_degree == 0
    assert rep.is_gorenstein
    assert rep.artinian_bound == 1


def test_not_artinian_detection():
    I = GradedIdeal.from_strings(["x^2", "y^3"])
    with pytest.raises(NotArtinianError):
        I.socle_report()
    # the one exact piece is the nonzero one in degree n(D-1)+1
    assert sorted(I._pieces) == [7]
    for field in (QQ, GF(32003)):
        I = GradedIdeal.from_strings(["x^3*y^2", "x^2*z^3+y^5", "y^4*z-x*z^4"],
                                     field=field)
        assert not I.is_artinian()
        # over GF(p) the walk's values are exact: no piece is built
        assert sorted(I._pieces) == ([13] if field == QQ else [])


def test_artinian_hilbert_vanishing(ex_2_5, ex_3_7, ex_4_5):
    for I in (ex_2_5, ex_3_7, ex_4_5):
        rep = I.socle_report()
        for t in range(rep.socle_degree + 1, rep.socle_degree + 4):
            assert I.hilbert_function(t) == 0
        assert I.hilbert_function(rep.socle_degree) >= 1


def test_gorenstein_hilbert_symmetry(ex_2_5, ex_3_7, ex_4_5, ex_4_9):
    for I in (ex_2_5, ex_3_7, ex_4_5, ex_4_9):
        s = I.socle_report().socle_degree
        for t in range(s + 1):
            assert I.hilbert_function(t) == I.hilbert_function(s - t)


def test_virtual_data(ex_2_5, ex_3_7, ex_4_5, ex_4_9):
    assert ex_2_5.virtual_datum().as_tuple() == (2, 5, 1)
    assert ex_3_7.virtual_datum().as_tuple() == (3, 7, 1)
    assert ex_4_5.virtual_datum().as_tuple() == (4, 5, 2)
    assert ex_4_9.virtual_datum().as_tuple() == (4, 9, 1)
    for I in (ex_2_5, ex_3_7, ex_4_5, ex_4_9):
        datum = I.virtual_datum()
        assert datum.d_prime * (datum.r - 1) == 2 * datum.d


def test_datum_errors(tower_d3):
    with pytest.raises(NotEquigeneratedError):
        GradedIdeal.from_strings(["x^2", "y^3", "z^4"]).virtual_datum()
    # 2d+1 = 7 generators in degree 3 is fine, but 4 even generators are not
    with pytest.raises(DatumViolationError):
        GradedIdeal.from_strings(["x^2", "y^2", "z^2", "x*y"]).virtual_datum()


def test_complete_intersection_datum():
    ci = GradedIdeal.from_strings(["x^3", "y^3", "z^3"])
    assert ci.virtual_datum().as_tuple() == (3, 3, 3)


def test_power_pieces(ex_2_5):
    assert ex_2_5.power_piece(2, 4).dim == comb(4 + 2, 2)
    assert ex_2_5.power_piece(3, 6).dim == comb(6 + 2, 2)
    one_var = GradedIdeal(1, [MultiPoly.variable(0, 1)], QQ)
    assert one_var.power_piece(2, 2).dim == 1


def test_reduction_number_two(ex_2_5, ex_3_7):
    rep = check_reduction_two(ex_2_5, seed=1)
    assert rep.reduction_number_is_two
    rep7 = check_reduction_two(ex_3_7, seed=1)
    assert rep7.reduction_number_is_two


def test_reduction_on_complete_intersection():
    ci = GradedIdeal.from_strings(["x^2", "y^2", "z^2"])
    rep = check_reduction_two(ci, seed=1)
    # three general combinations regenerate the ideal, so J*I = I^2
    assert rep.ji_equals_i2
    assert not rep.reduction_number_is_two


def test_pure_power_index_and_gap(ex_2_5, ex_3_7):
    lines = variable_lines(3)
    assert pure_power_index(ex_3_7, lines) == 3
    assert pure_power_gap(ex_3_7, lines) == 2
    assert pure_power_index(ex_2_5, lines) == 3
    assert pure_power_gap(ex_2_5, lines) == 0
    m = GradedIdeal.from_strings(["x", "y", "z"])
    assert pure_power_index(m, lines) == 1
    assert pure_power_gap(m, lines) == 0


def test_pure_power_index_rejects_dependent_lines(ex_2_5):
    with pytest.raises(ValueError):
        pure_power_index(ex_2_5, [P("x"), P("y"), P("x + y")])


def test_colon_iteration_basic():
    lines = variable_lines(3)
    assert colon_iteration_check(lines, [3, 3, 3], P("x^2 + y^2 + z^2"), 0)
    one = MultiPoly.constant(3, 1)
    assert colon_iteration_check(lines, [2, 3, 4], one, 1)


def test_colon_iteration_seeded():
    rng = random.Random(2024)
    lines = variable_lines(3)
    for trial in range(25):
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


def test_colon_iteration_iterated_product():
    """Bumping every exponent by k while multiplying by (l1*l2*l3)^k."""
    lines = variable_lines(3)
    f = P("x^2 + y^2 + z^2")
    base = pure_power_ideal(lines, [3, 3, 3]).colon(f)
    prod = P("x*y*z")
    for k in (1, 2):
        shifted = pure_power_ideal(lines, [3 + k] * 3).colon(prod ** k * f)
        assert base.equals(shifted)


def test_colon_iteration_with_general_lines():
    lines = [P("x + y"), P("y - z"), P("z")]
    f = P("x^2 + y*z")
    assert colon_iteration_check(lines, [2, 2, 3], f, 2)


def test_ideal_equality_and_membership(ex_2_5):
    five = GradedIdeal.from_strings(
        ["x*y", "x*z", "y*z", "x^2 - z^2", "y^2 - z^2"])
    assert ex_2_5.equals(five)
    assert ex_2_5.contains(P("x*y"))
    assert not ex_2_5.contains(P("x^2"))
    assert ex_2_5.contains(P("x^2 - z^2"))


def test_graded_ideal_over_prime_field():
    F = GF(101)
    base = GradedIdeal.from_strings(["x^3", "y^3", "z^3"], VARS, F)
    I = base.colon(parse_poly("x^2 + y^2 + z^2", VARS, F))
    assert I.minimal_generator_profile() == {3: 7}
    assert I.socle_report().is_gorenstein
    assert I.virtual_datum().as_tuple() == (3, 7, 1)


def test_variable_power_ideal_bound():
    J = variable_power_ideal(3, 3)
    assert J.artinian_bound() == 7
    assert J.hilbert_function(6) == 1


def ci_hilbert_series(degs, t_max):
    """Coefficients of prod(1 - t^d) / (1 - t)^n, an independent formula
    for the Hilbert function of a complete intersection."""
    num = [1]
    for d in degs:
        new = num + [0] * d
        for i, c in enumerate(num):
            new[i + d] -= c
        num = new
    out = num + [0] * (t_max + 1 - len(num)) if len(num) < t_max + 1 \
        else num[:t_max + 1]
    for _ in degs:
        for i in range(1, t_max + 1):
            out[i] += out[i - 1]
    return out[:t_max + 1]


def test_mixed_ci_hilbert_series_formula():
    ci = GradedIdeal.from_strings(["x^2", "y^3", "z^4"])
    assert [ci.hilbert_function(t) for t in range(11)] == \
        ci_hilbert_series([2, 3, 4], 10)
    squares = GradedIdeal.from_strings(["x^2", "y^2", "z^2"])
    assert [squares.hilbert_function(t) for t in range(7)] == \
        ci_hilbert_series([2, 2, 2], 6)
