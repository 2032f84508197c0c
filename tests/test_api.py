"""The module-level operation names are the public API surface; keep them
working even if the method-based internals move around."""

import gor3


def test_operation_aliases():
    I = gor3.GradedIdeal.from_strings(["x^2", "y^2", "z^2"])
    assert gor3.ideal_graded_piece(I, 2).dim == 3
    assert gor3.hilbert_function(I, 2) == 3
    assert gor3.minimal_generator_profile(I) == {2: 3}
    assert gor3.socle_report(I).socle_degree == 3
    assert gor3.virtual_datum(I).as_tuple() == (2, 3, 2)
    assert gor3.ideal_power_piece(I, 2, 4).dim == 6
    f = gor3.parse_poly("x*y", ["x", "y", "z"])
    colon = gor3.colon_form(I, f)
    assert colon.contains(gor3.parse_poly("x", ["x", "y", "z"]))


def test_linalg_aliases():
    identity = [[int(i == j) for j in range(3)] for i in range(3)]
    assert gor3.row_rank(gor3.QQ, identity, 3) == 3
    assert gor3.kernel_rows(gor3.QQ, identity, 3) == ([], 1)
    assert gor3.ExactMatrix(gor3.QQ, identity).det() == 1
    assert not hasattr(gor3, "rank_kernel")


def test_monomial_aliases():
    assert len(gor3.monomials_of_degree(3, 4)) == gor3.monomial_count(3, 4) == 15


def test_gap_with_general_lines():
    lines = [gor3.parse_poly(s, ["x", "y", "z"]) for s in ("x+y", "y", "z")]
    I = gor3.GradedIdeal.from_strings(
        ["x*y", "x*z", "y*z", "x^2-z^2", "y^2-z^2"])
    assert gor3.pure_power_index(I, lines) == 3
    assert gor3.pure_power_gap(I, lines) == 0
