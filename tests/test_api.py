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


# The report types: repr, field access, as_dict/as_tuple and value equality,
# built with the constructor calls the package makes.

def test_socle_report_behaviour():
    rep = gor3.SocleReport(socle_dims={3: 1, 1: 2}, socle_degree=3,
                           is_gorenstein=False, artinian_bound=4)
    assert repr(rep) == ("SocleReport(socle_dims={3: 1, 1: 2}, socle_degree=3, "
                         "is_gorenstein=False, artinian_bound=4)")
    assert (rep.socle_dims, rep.socle_degree, rep.is_gorenstein,
            rep.artinian_bound) == ({3: 1, 1: 2}, 3, False, 4)
    assert rep.as_dict() == {"socle_dims": {"1": 2, "3": 1}, "socle_degree": 3,
                             "is_gorenstein": False, "artinian_bound": 4}
    assert list(rep.as_dict()["socle_dims"]) == ["1", "3"]
    assert rep == gor3.SocleReport({3: 1, 1: 2}, 3, False, 4)
    assert rep != gor3.SocleReport({3: 1, 1: 2}, 3, True, 4)


def test_virtual_datum_behaviour():
    datum = gor3.VirtualDatum(d=4, r=5, d_prime=2)
    assert repr(datum) == "VirtualDatum(d=4, r=5, d_prime=2)"
    assert (datum.d, datum.r, datum.d_prime) == (4, 5, 2)
    assert datum.as_tuple() == (4, 5, 2)
    assert datum.as_dict() == {"d": 4, "r": 5, "d_prime": 2}
    assert list(datum.as_dict()) == ["d", "r", "d_prime"]
    assert datum == gor3.VirtualDatum(4, 5, 2)
    assert datum != gor3.VirtualDatum(4, 9, 1)


def test_reduction_report_behaviour():
    rep = gor3.ReductionReport(reduction_number_is_two=True, ji_equals_i2=False,
                               ji2_equals_i3=True, seed=7, attempts=2)
    assert repr(rep) == ("ReductionReport(reduction_number_is_two=True, "
                         "ji_equals_i2=False, ji2_equals_i3=True, seed=7, "
                         "attempts=2)")
    assert (rep.seed, rep.attempts, rep.ji_equals_i2) == (7, 2, False)
    assert rep.as_dict() == {"reduction_number_is_two": True,
                             "ji_equals_i2": False, "ji2_equals_i3": True,
                             "seed": 7, "attempts": 2}
    assert list(rep.as_dict()) == ["reduction_number_is_two", "ji_equals_i2",
                                   "ji2_equals_i3", "seed", "attempts"]
    assert rep == gor3.ReductionReport(True, False, True, 7, 2)
    assert rep != gor3.ReductionReport(True, False, True, 8, 2)


def test_betti_table_behaviour():
    table = gor3.BettiTable(n=3, entries={(1, 2): 3, (0, 0): 1})
    assert repr(table) == "BettiTable(n=3, entries={(1, 2): 3, (0, 0): 1})"
    assert (table.n, table.entries) == (3, {(1, 2): 3, (0, 0): 1})
    assert table.beta(1, 2) == 3 and table.beta(2, 2) == 0
    assert table.as_dict() == {"n": 3, "triples": [[0, 0, 1], [1, 2, 3]]}
    assert table == gor3.BettiTable(3, {(0, 0): 1, (1, 2): 3})
    assert table != gor3.BettiTable(3, {(0, 0): 1})
    assert table != gor3.BettiTable(4, {(1, 2): 3, (0, 0): 1})
    # the default entries are a fresh dict per table
    empty, other = gor3.BettiTable(3), gor3.BettiTable(3)
    assert repr(empty) == "BettiTable(n=3, entries={})"
    assert empty == other and empty.entries is not other.entries
    assert empty.staircase() == "(empty)"


def test_spans_report_behaviour():
    rep = gor3.SpansReport(spans=False, rank=9, target_dim=10, shape=(10, 12))
    assert repr(rep) == ("SpansReport(spans=False, rank=9, target_dim=10, "
                         "shape=(10, 12))")
    assert (rep.spans, rep.rank, rep.target_dim, rep.shape) == (False, 9, 10, (10, 12))
    assert rep.as_dict() == {"spans": False, "rank": 9, "target_dim": 10,
                             "rows": 10, "cols": 12}
    assert rep == gor3.SpansReport(False, 9, 10, (10, 12))
    assert rep != gor3.SpansReport(True, 10, 10, (10, 12))


def test_linres_report_behaviour():
    no = gor3.LinresReport("NO", 3, None, None, None, "s is odd")
    assert no.matrix_shape is None
    assert repr(no) == ("LinresReport(verdict='NO', s=3, d=None, rank=None, "
                        "required_rank=None, reason='s is odd', matrix_shape=None)")
    yes = gor3.LinresReport("YES", 4, 3, 6, 6, "full", (7, 6))
    assert (yes.verdict, yes.s, yes.d, yes.rank, yes.required_rank, yes.reason,
            yes.matrix_shape) == ("YES", 4, 3, 6, 6, "full", (7, 6))
    # matrix_shape is left out of as_dict
    assert yes.as_dict() == {"verdict": "YES", "s": 4, "d": 3, "rank": 6,
                             "required_rank": 6, "reason": "full"}
    assert yes == gor3.LinresReport("YES", 4, 3, 6, 6, "full", matrix_shape=(7, 6))
    assert yes != gor3.LinresReport("YES", 4, 3, 6, 6, "full")
    assert no == gor3.LinresReport("NO", 3, None, None, None, "s is odd")


def test_quadrics_report_behaviour():
    third = gor3.QQ.div(gor3.QQ.one, gor3.QQ.of(3))
    rep = gor3.QuadricsReport(delta=gor3.QQ.of(-2), dee=third, spans=True,
                              verdict="GORENSTEIN")
    assert repr(rep) == ("QuadricsReport(delta=-2, "
                         "dee=Fraction(1, 3), spans=True, verdict='GORENSTEIN')")
    assert (rep.spans, rep.verdict) == (True, "GORENSTEIN")
    assert rep.as_dict() == {"delta": "-2", "dee": "1/3", "spans": True,
                             "verdict": "GORENSTEIN"}
    assert rep == gor3.QuadricsReport(gor3.QQ.of(-2), third, True, "GORENSTEIN")
    assert rep != gor3.QuadricsReport(0, 0, False, "INCONCLUSIVE")


def test_case_result_behaviour():
    res = gor3.cases.CaseResult("ex-2-5", False, [("datum", False, "got 1")],
                                note="n")
    assert repr(res) == ("CaseResult(case_id='ex-2-5', passed=False, "
                         "checks=[('datum', False, 'got 1')], skipped=False, "
                         "note='n')")
    assert (res.case_id, res.passed, res.skipped, res.note) == ("ex-2-5", False,
                                                                False, "n")
    assert res.as_dict() == {"case": "ex-2-5", "passed": False,
                             "skipped": False, "note": "n",
                             "checks": [{"label": "datum", "ok": False,
                                         "detail": "got 1"}]}
    skipped = gor3.cases.CaseResult("sum-power", True, [], skipped=True,
                                    note="requires characteristic 0")
    assert (skipped.skipped, skipped.checks) == (True, [])
    assert skipped == gor3.cases.CaseResult("sum-power", True, [], True,
                                            "requires characteristic 0")
    assert skipped != gor3.cases.CaseResult("sum-power", True, [])
    # the default checks are a fresh list per result
    bare, other = gor3.cases.CaseResult("a", True), gor3.cases.CaseResult("a", True)
    assert (bare.checks, bare.skipped, bare.note) == ([], False, "")
    assert bare == other and bare.checks is not other.checks
