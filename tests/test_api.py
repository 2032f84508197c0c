"""The public API surface: GradedIdeal methods for the ideal operations,
module-level names for the rest."""

import gor3


def test_ideal_operations_are_methods():
    I = gor3.GradedIdeal.from_strings(["x^2", "y^2", "z^2"])
    assert I.graded_piece(2).dim == 3
    assert I.hilbert_function(2) == 3
    assert I.minimal_generator_profile() == {2: 3}
    assert I.socle_report().socle_degree == 3
    assert I.virtual_datum().as_tuple() == (2, 3, 2)
    assert I.power_piece(2, 4).dim == 6
    f = gor3.parse_poly("x*y", ["x", "y", "z"])
    colon = I.colon(f)
    assert colon.contains(gor3.parse_poly("x", ["x", "y", "z"]))
    for alias in ("ideal_graded_piece", "hilbert_function",
                  "minimal_generator_profile", "colon_form", "socle_report",
                  "virtual_datum", "ideal_power_piece", "substitute"):
        assert not hasattr(gor3, alias)


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
