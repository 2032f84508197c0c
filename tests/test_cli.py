import json

import pytest

import gor3.cases
import gor3.ideals
from gor3.cases import case_ids
from gor3.cli import build_parser, main


def run(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def run_json(capsys, *argv):
    code, out, err = run(capsys, *argv, "--json")
    return code, json.loads(out), err


def test_colon_subcommand(capsys):
    code, report, _ = run_json(
        capsys, "colon", "--ci", "x^3,y^3,z^3", "--f", "x^2+y^2+z^2")
    assert code == 0
    assert report["minimal_profile"] == {"3": 7}
    assert report["socle"]["is_gorenstein"] is True
    assert report["datum"] == {"d": 3, "r": 7, "d_prime": 1}
    assert len(report["generators"]) == 7


def test_colon_into_the_unit_ideal(capsys):
    code, report, err = run_json(
        capsys, "colon", "--ci", "x^3,y^3,z^3", "--f", "x^3")
    assert code == 0
    assert err == ""
    assert report["generators"] == ["1"]
    assert report["complete"] is True
    assert report["minimal_profile"] == {"0": 1}
    assert "socle" not in report and "datum" not in report


def test_colon_cut_at_its_own_bound_is_complete(capsys):
    # the colon's degree-5 piece is all of R_5, although the base's bound is 7
    args = ("colon", "--ci", "x^3,y^3,z^3", "--f", "x^2+y^2+z^2", "--t-max")
    code, report, _ = run_json(capsys, *args, "5")
    assert code == 0
    assert report["complete"] is True and "through_degree" not in report
    assert report["socle"]["socle_dims"] == {"4": 1}
    assert report["datum"] == {"d": 3, "r": 7, "d_prime": 1}
    code, cut, _ = run_json(capsys, *args, "4")
    assert code == 0
    assert (cut["complete"], cut["through_degree"]) == (False, 4)
    assert "socle" not in cut and "datum" not in cut
    assert cut["generators"] == report["generators"]


def test_colon_reports_are_deterministic(capsys):
    args = ("colon", "--ci", "x^3,y^3,z^3", "--f", "x^2*y^2+x^2*z^2+y^2*z^2")
    _, first, _ = run(capsys, *args)
    _, second, _ = run(capsys, *args)
    assert first == second


def test_socle_subcommand(capsys):
    code, report, _ = run_json(
        capsys, "socle", "--ideal", "x*y,x*z,y*z,x^2-z^2,y^2-z^2")
    assert code == 0
    assert report["socle"]["socle_degree"] == 2
    assert report["hilbert_function"] == [1, 3, 1, 0]


def test_betti_subcommand(capsys):
    code, report, _ = run_json(
        capsys, "betti", "--ideal", "x^2,y^2,z^2")
    assert code == 0
    assert [1, 2, 3] in report["betti"]["triples"]
    assert report["linear_resolution"] is False


def test_datum_subcommand(capsys):
    code, report, _ = run_json(capsys, "datum", "--ideal", "x^3,y^3,z^3")
    assert code == 0
    assert report["datum"] == {"d": 3, "r": 3, "d_prime": 3}


def test_readme_datum_example(capsys):
    code, out, _ = run(capsys, "datum", "--ideal", "x*y,x*z,y*z,x^2-z^2,y^2-z^2")
    assert code == 0
    assert out.endswith("datum:\n  d: 2\n  r: 5\n  d_prime: 1\n")


def test_ideal_from_file(tmp_path, capsys):
    path = tmp_path / "ideal.txt"
    path.write_text("x^3\ny^3\nz^3\n")
    code, report, _ = run_json(capsys, "datum", "--ideal", f"@{path}")
    assert code == 0
    assert report["datum"] == {"d": 3, "r": 3, "d_prime": 3}


def test_datum_failure_exit_code(capsys):
    code, report, _ = run_json(capsys, "datum", "--ideal", "x^2,y^3,z^4")
    assert code == 1
    assert "error" in report


def test_pfaffian_even(capsys):
    # a single upper-triangle row with one entry is a 2x2 matrix
    code, report, _ = run_json(capsys, "pfaffian", "--matrix", "x")
    assert code == 0
    assert report["size"] == 2
    assert report["pfaffian"] == "x"


def test_pfaffian_rejects_ragged_matrix(capsys):
    code, _, err = run(capsys, "pfaffian", "--matrix", "x,y,z")
    assert code == 2
    assert "upper triangle" in err or "square" in err


def test_pfaffian_file_matrix(tmp_path, capsys):
    path = tmp_path / "m.txt"
    path.write_text("x*y*z, y^3, x^3, x^2*y\nz^3, y^3, z^3\nz^3, x^3\nz^3\n")
    code, report, _ = run_json(capsys, "pfaffian", "--matrix", f"@{path}")
    assert code == 0
    assert report["size"] == 5
    assert report["minimal_profile"] == {"6": 5}
    assert report["datum"] == {"d": 6, "r": 5, "d_prime": 3}


def test_model_subcommand(capsys):
    code, report, _ = run_json(
        capsys, "model", "--r", "5", "--dp", "1", "--seed", "7")
    assert code == 0
    assert report["datum"] == {"d": 2, "r": 5, "d_prime": 1}
    assert report["seed"] == 7


def test_inverse_and_ann_round_trip(capsys):
    code, report, _ = run_json(
        capsys, "inverse", "--ideal", "x*y,x*z,y*z,x^2-z^2,y^2-z^2")
    assert code == 0
    assert report["generator"] == "X^2 + Y^2 + Z^2"
    code, back, _ = run_json(capsys, "ann", "--dual", report["generator"])
    assert code == 0
    assert back["minimal_profile"] == {"2": 5}


def test_pfaffian_square_matrix_matches_its_upper_triangle(capsys):
    square = run_json(capsys, "pfaffian", "--matrix", "0,x,y\n-x,0,z\n-y,-z,0")
    upper = run_json(capsys, "pfaffian", "--matrix", "x,y\nz")
    assert square == upper
    assert square[0] == 0 and square[1]["size"] == 3


def test_pfaffian_of_a_non_artinian_ideal_reports_the_socle_error(capsys):
    code, report, err = run_json(capsys, "pfaffian", "--matrix", "x,y\n0")
    assert code == 0 and err == ""
    assert report["maximal_pfaffians"] == ["0", "-y", "x"]
    assert report["complete"] is True
    assert "not Artinian" in report["socle"]["error"]
    assert "datum" not in report


def test_newton_dual_subcommand(capsys):
    code, report, _ = run_json(
        capsys, "newton-dual", "--f", "x^2*y^2+x^2*z^2+y^2*z^2",
        "--socle-m", "3")
    assert code == 0
    assert report["dual"] == "X^2 + Y^2 + Z^2"


def test_directrix_subcommand(capsys):
    code, report, _ = run_json(
        capsys, "directrix", "--m", "3",
        "--ideal", "x*y,x*z,y*z,x^2-z^2,y^2-z^2")
    assert code == 0
    assert report["colon_identity_verified"] is True
    assert report["degree"] == 4


def test_linres_subcommand_with_char_warning(capsys):
    code, report, _ = run_json(
        capsys, "linres-test", "--f", "(x+y+z)^2", "--m", "3")
    assert code == 0
    assert report["verdict"] == "YES"
    assert "warning" not in report
    code, modp, _ = run_json(
        capsys, "linres-test", "--f", "(x+y+z)^2", "--m", "3",
        "--field", "fp:101")
    assert code == 0
    assert "characteristic" in modp["warning"]


def test_spans_subcommand(capsys):
    code, report, _ = run_json(
        capsys, "spans", "--forms", "x^2+z^2,x*y+z^2,x*z,y^2,y*z", "--e", "1")
    assert code == 0
    assert report["spans"] is True


def test_certify_quadrics_seeded(capsys):
    code, report, _ = run_json(capsys, "certify-quadrics", "--seed", "5")
    assert code == 0
    assert report["verdict"] in ("GORENSTEIN", "INCONCLUSIVE")
    if report["verdict"] == "GORENSTEIN":
        assert report["socle_confirms"] is True


def test_gap_subcommand(capsys):
    code, report, _ = run_json(
        capsys, "gap", "--ideal",
        "x^3,y^3,z^3,x*y*z,x*(y^2-z^2),y*(x^2-z^2),z*(x^2-y^2)")
    assert code == 0
    assert report["pure_power_index"] == 3
    assert report["gap"] == 2


def test_power_check_subcommand(capsys):
    code, report, _ = run_json(
        capsys, "power-check", "--ideal", "x*y,x*z,y*z,x^2-z^2,y^2-z^2",
        "--k", "2", "--seed", "1")
    assert code == 0
    assert report["power_equals_max_ideal_power"] is True
    assert report["reduction"]["reduction_number_is_two"] is True


def test_power_check_builds_each_product_piece_once(capsys, monkeypatch):
    """power_piece keeps (I^k)_t on the ideal, so check_reduction_two reads
    the (I^2)_4 that the table of pieces built; above that full piece the
    table's (I^2)_5 and (I^2)_6 are full with no product, J*I^2 is read
    off J's piece of degree 6, and (I^3)_6 = I_2 * (I^2)_4 off I's."""
    builds = []
    product_rows = gor3.ideals._product_rows

    def counted(n, t, field, combos):
        # the combos are kept, so the ids of their factors stay unique
        combos = list(combos)
        builds.append((len(combos[0]), t, combos))
        return product_rows(n, t, field, combos)

    monkeypatch.setattr(gor3.ideals, "_product_rows", counted)
    code, report, _ = run_json(
        capsys, "power-check", "--ideal", "x*y,x*z,y*z,x^2-z^2,y^2-z^2",
        "--k", "2", "--seed", "1")
    assert code == 0 and report["reduction"]["reduction_number_is_two"] is True
    # (I^2)_4 for the table, then J*I for the reduction
    assert sorted(k_t for *k_t, _ in builds) == [[2, 4], [2, 4]]
    signatures = {(t, tuple(tuple(map(id, c)) for c in combos))
                  for _, t, combos in builds}
    assert len(signatures) == len(builds)


def test_reproduce_single_case(capsys):
    code, out, _ = run(capsys, "reproduce", "--case", "ex-2-5")
    assert code == 0
    assert "PASS ex-2-5" in out


def test_reproduce_unknown_case(capsys):
    code, _, err = run(capsys, "reproduce", "--case", "nope")
    assert code == 2
    assert "unknown case" in err


RAISED_EX_4_9 = ("NotEquigeneratedError: minimal generators spread over "
                 "degrees [3, 4]")


@pytest.fixture
def ex_4_9_raises(monkeypatch):
    """ex-4-9 run over any field, without the characteristic hypothesis it
    skips below: over GF(3) its colon has generators in degrees 3 and 4, so
    virtual_datum raises."""
    monkeypatch.delitem(gor3.cases.LEFSCHETZ_BASES, "ex-4-9")
    monkeypatch.setitem(gor3.cases._CASES, "ex-4-9",
                        lambda field, seed: gor3.cases.ex_4_9_ideal(field).virtual_datum())


def test_reproduce_all_runs_past_a_case_that_raises(capsys, ex_4_9_raises):
    code, out, err = run(capsys, "reproduce", "--all", "--field", "fp:3")
    assert code == 1
    assert err == ""
    assert f"FAIL ex-4-9\n     failed: raised -- {RAISED_EX_4_9}\n" in out
    assert "PASS non-equigen-xyz" in out
    assert f"{len(case_ids())} case(s)," in out


def test_reproduce_all_json_records_a_case_that_raises(capsys, ex_4_9_raises):
    code, report, err = run_json(capsys, "reproduce", "--all", "--field", "fp:3")
    assert code == 1
    assert err == ""
    assert [r["case"] for r in report["results"]] == case_ids()
    failed = next(r for r in report["results"] if r["case"] == "ex-4-9")
    assert failed["passed"] is False
    assert failed["checks"] == [{"label": "raised", "ok": False, "detail": RAISED_EX_4_9}]


def test_model_specialization_failure_is_an_error(capsys):
    # over GF(2) every drawn coefficient is 1, so every reseed specializes
    # to the same non-Artinian ideal
    code, out, err = run(capsys, "model", "--r", "5", "--dp", "1", "--field", "fp:2")
    assert code == 1
    assert out == ""
    assert err.startswith("error: specialization failed")


def test_power_check_without_a_reduction_is_an_error(capsys):
    # over GF(2) no seeded draw of linear forms gives a height-3 reduction;
    # the RuntimeError ends in one error line, not a traceback
    code, out, err = run(capsys, "power-check", "--ideal", "x*y,x*z,y*z,x^2-z^2,y^2-z^2",
                         "--field", "fp:2", "--seed", "8")
    assert code == 1
    assert out == ""
    assert err == "error: could not find a height-3 reduction in 5 seeded attempts\n"


BAD_INPUTS = [
    ["socle", "--ideal", "1"],
    ["betti", "--ideal", "1"],
    ["inverse", "--ideal", "1"],
    ["gap", "--ideal", "1"],
    ["directrix", "--ideal", "1", "--m", "2"],
    ["power-check", "--ideal", "x^2,y^2,z^2", "--k", "0"],
    ["spans", "--forms", "x^2,y^2", "--e", "-1"],
    ["ann", "--dual", "X^2+Y"],
    ["socle", "--ideal", "x^2,y^2,z^2", "--field", "fp:4"],
    ["socle", "--ideal", "x^2,y^2,z^2", "--field", "fp:2147483659"],
    ["model", "--r", "5", "--dp", "1", "--field", "fp:2"],
    ["colon", "--ci", "x^3,y^3,z^3", "--f", "0"],
    ["colon", "--ci", "x^3,y^3,z^3", "--f", "x+y^2"],
    ["socle", "--ideal", "x^2+y"],
    ["socle", "--ideal", "x*y"],
    ["pfaffian", "--matrix", "x,y;z"],
    ["reproduce"],
    ["power-check", "--ideal", "x*y,x*z,y*z,x^2-z^2,y^2-z^2", "--t-max", "1"],
    ["socle", "--ideal", "x^2,y^2", "--vars", "x,x,y"],
    ["socle", "--ideal", "x^2,y^2", "--vars", "x,,y"],
    ["socle", "--ideal", "c^2,d^2", "--vars", "a b,c,d"],
    ["socle", "--ideal", "c^2,d^2", "--vars", "2,c,d"],
    ["socle", "--ideal", "x^2,y^2,z^2", "--vars", "x,y,z*"],
]


@pytest.mark.parametrize("argv", BAD_INPUTS, ids=" ".join)
def test_bad_input_exits_with_a_message(capsys, argv):
    code, _, err = run(capsys, *argv)
    assert type(code) is int and code in (1, 2)
    assert err.strip()


DUAL_CLASH = "dual forms are written in the names upper-cased, and two of them then coincide"


@pytest.mark.parametrize("argv, message", [
    (["colon", "--ci", "x^3,y^3,z^3", "--f", "x", "--t-max", "-1"],
     "--t-max -1 is below 0, the least degree of a piece: no piece to report"),
    (["socle", "--ideal", "@no/such/file"], "cannot read 'no/such/file': "),
    (["socle", "--ideal", ", ,"], "empty generator list"),
    (["power-check", "--ideal", "x^2,y^3,z^3"],
     "power check needs an equigenerated ideal"),
    (["power-check", "--ideal", "x^2,y^2,z^2", "--k", "0"],
     "--k 0 is below 1: I^k is compared for k >= 1"),
    (["power-check", "--ideal", "x^2,y^2,z^2", "--k", "-2"],
     "--k -2 is below 1: I^k is compared for k >= 1"),
    (["spans", "--forms", "x^2,y^2,z^2", "--e", "-1"],
     "--e -1 is below 0: the forms are multiplied by R_e, e >= 0"),
    (["linres-test", "--f", "x*y*z", "--m", "0"],
     "--m 0 is below 1: the colon is by the pure powers x_i^m, m >= 1"),
    (["directrix", "--ideal", "x^2,y^2,z^2", "--m", "0"],
     "--m 0 is below 1: the pure powers x_i^m need m >= 1"),
    (["newton-dual", "--f", "x*y", "--socle-m", "0"],
     "--socle-m 0 is below 1: the directrix (m-1, ..., m-1) needs m >= 1"),
    (["ann", "--dual", "A^2", "--vars", "a,A"],
     f"--vars 'a,A': {DUAL_CLASH}"),
    (["inverse", "--ideal", "A,a^2", "--vars", "a,A"],
     f"--vars 'a,A': {DUAL_CLASH}"),
    (["newton-dual", "--f", "b*B", "--socle-m", "2", "--vars", "B,b"],
     f"--vars 'B,b': {DUAL_CLASH}"),
], ids=["negative-t-max", "unreadable-file", "empty-list", "not-equigenerated",
        "zero-k", "negative-k", "negative-e", "linres-zero-m", "directrix-zero-m",
        "zero-socle-m",
        "ann-dual-names", "inverse-dual-names", "newton-dual-names"])
def test_usage_error_exits_2_with_its_message(capsys, argv, message):
    code, out, err = run(capsys, *argv)
    assert code == 2
    assert out == ""
    assert err.startswith(f"error: {message}")


def test_power_check_t_max_below_dk_is_a_usage_error(capsys):
    # the quadrics have d = 2, so I^2 starts in degree 4 and no piece of
    # degree <= 1 could be compared
    code, out, err = run(capsys, "power-check", "--ideal",
                         "x*y,x*z,y*z,x^2-z^2,y^2-z^2", "--t-max", "1")
    assert code == 2
    assert out == ""
    assert err == ("error: --t-max 1 is below d*k = 4, the least degree of "
                   "I^2: no piece to compare\n")


@pytest.mark.parametrize("names, message", [
    ("x,x,y", "--vars 'x,x,y': variable 'x' is repeated"),
    (" x , y,x", "--vars ' x , y,x': variable 'x' is repeated"),
    ("x,,y", "--vars 'x,,y': variable 2 has an empty name"),
    ("x,y,", "--vars 'x,y,': variable 3 has an empty name"),
    ("", "--vars '': variable 1 has an empty name"),
], ids=["repeated", "repeated-spaced", "empty-inner", "empty-last", "empty"])
def test_repeated_or_empty_variable_is_a_usage_error(capsys, names, message):
    # a repeated name gives a ring with a variable no text can reach, which
    # made x^2, y^2 read as not Artinian (exit 1)
    code, out, err = run(capsys, "socle", "--ideal", "x^2,y^2", "--vars", names)
    assert code == 2
    assert out == ""
    assert err == f"error: {message}\n"


@pytest.mark.parametrize("ideal, names, bad", [
    ("c^2,d^2", "a b,c,d", "a b"),
    ("c^2,d^2", "2,c,d", "2"),
    ("x^2,y^2,z^2", "x,y,z*", "z*"),
], ids=["space", "digit", "operator"])
def test_unreadable_variable_name_is_a_usage_error(capsys, ideal, names, bad):
    # the parser reads a variable only as one name token, so these rings had
    # a variable no text can reach: "c^2,d^2" read as not Artinian (exit 1)
    # and "z^2" as an unknown variable
    code, out, err = run(capsys, "socle", "--ideal", ideal, "--vars", names)
    assert code == 2
    assert out == ""
    assert err == (f"error: --vars {names!r}: variable {bad!r} is not a name "
                   f"(a letter or _, then letters, digits or _)\n")


def test_parse_error_exit_code(capsys):
    code, _, err = run(capsys, "colon", "--ci", "x^3,y^(", "--f", "x")
    assert code == 2
    assert "parse error" in err


def test_non_decimal_digit_is_a_parse_error(capsys):
    # '²' is a digit to str.isdigit but not a decimal int() can read
    code, out, err = run(capsys, "socle", "--ideal", "x^²,y^2,z^2")
    assert code == 2
    assert out == ""
    assert err == "parse error: unexpected character '²' (at position 2)\n"


@pytest.mark.parametrize("field", ["q", "fp:7"])
def test_malformed_text_is_a_parse_error_in_every_field(capsys, field):
    # 3/021 is 1/7, which GF(7) refuses; the syntax error after it comes first
    code, out, err = run(capsys, "socle", "--ideal", "3/021e3 ^0(", "--field", field)
    assert code == 2
    assert out == ""
    assert err == "parse error: unexpected 'e3' (at position 5)\n"


def test_denominator_divisible_by_p_in_well_formed_text_exits_1(capsys):
    code, out, err = run(capsys, "socle", "--ideal", "x^2+3/021*y^2, y^2, z^2",
                         "--field", "fp:7")
    assert code == 1
    assert out == ""
    assert err == "error: denominator 7 is divisible by 7\n"


def test_field_flag_is_respected(capsys):
    code, report, _ = run_json(
        capsys, "colon", "--ci", "x^3,y^3,z^3", "--f", "x^2+y^2+z^2",
        "--field", "fp:101")
    assert code == 0
    assert report["field"] == "GF(101)"
    assert report["minimal_profile"] == {"3": 7}


def test_bad_field_spec(capsys):
    code, _, err = run(capsys, "socle", "--ideal", "x,y,z", "--field", "fp:9")
    assert code == 2


def test_usage_error(capsys):
    assert main(["colon"]) == 2


def test_t_max_is_an_option_of_colon_and_power_check_only(capsys):
    code, _, err = run(capsys, "socle", "--ideal", "x^2,y^2,z^2", "--t-max", "3")
    assert code == 2
    assert "--t-max" in err
    commands = sorted({argv[0] for argv in README_EXAMPLES[:-2]})
    with_t_max = []
    for command in commands:
        code, out, _ = run(capsys, command, "--help")
        assert code == 0
        if "--t-max" in out:
            with_t_max.append(command)
    assert with_t_max == ["colon", "power-check"]


# One example per subcommand, as in the README's CLI section, plus a usage
# error and the top-level help.
README_EXAMPLES = [
    ["colon", "--ci", "x^3,y^3,z^3", "--f", "x^2+y^2+z^2"],
    ["socle", "--ideal", "x*y,x*z,y*z,x^2-z^2,y^2-z^2"],
    ["betti", "--ideal", "x^2,y^2,z^2"],
    ["datum", "--ideal", "x^2,y^2,z^2"],
    ["pfaffian", "--matrix", "x*y*z, y^3, x^3, x^2*y\nz^3, y^3, z^3\nz^3, x^3\nz^3"],
    ["model", "--r", "5", "--dp", "2", "--seed", "7"],
    ["inverse", "--ideal", "x*y,x*z,y*z,x^2-z^2,y^2-z^2"],
    ["ann", "--dual", "X^2+Y^2+Z^2"],
    ["newton-dual", "--f", "x^2*y^2+x^2*z^2+y^2*z^2", "--socle-m", "3"],
    ["directrix", "--ideal", "x*y,x*z,y*z,x^2-z^2,y^2-z^2", "--m", "3"],
    ["linres-test", "--f", "(x+y+z)^2", "--m", "3"],
    ["spans", "--forms", "x^2+z^2,x*y+z^2,x*z,y^2,y*z", "--e", "1"],
    ["certify-quadrics", "--seed", "42"],
    ["gap", "--ideal", "x^3,y^3,z^3,x*y*z,x*(y^2-z^2),y*(x^2-z^2),z*(x^2-y^2)"],
    ["power-check", "--ideal", "x*y,x*z,y*z,x^2-z^2,y^2-z^2", "--k", "2", "--seed", "1"],
    ["reproduce", "--case", "ex-3-7"],
    ["colon", "--ci", "x^3,y^3,z^3"],
    ["--help"],
]


def test_cached_parser_answers_like_a_fresh_one(capsys):
    assert len({argv[0] for argv in README_EXAMPLES[:-2]}) == 16
    cold = []
    for argv in README_EXAMPLES:
        build_parser.cache_clear()
        cold.append(run(capsys, *argv))
    build_parser.cache_clear()
    warm = [run(capsys, *argv) for argv in README_EXAMPLES]
    assert warm == cold
    assert [code for code, _, _ in cold[-2:]] == [2, 0]
    assert all(code == 0 for code, _, _ in cold[:-2])
    info = build_parser.cache_info()
    assert (info.misses, info.hits) == (1, len(README_EXAMPLES) - 1)


@pytest.mark.parametrize("argv", README_EXAMPLES[:-2] + [
    ["reproduce"],
    ["socle", "--ideal", "x^(,y^2"],
    ["socle", "--ideal", "@no/such/file"],
    ["power-check", "--ideal", "x*y,x*z,y*z,x^2-z^2,y^2-z^2", "--t-max", "1"],
], ids=" ".join)
def test_bad_field_is_reported_before_anything_else(capsys, argv):
    code, out, err = run(capsys, *argv, "--field=fp:9")
    assert code == 2
    assert out == ""
    assert err == "error: modulus 9 is not prime\n"


# Each polynomial list option, given inline with commas and as a file with
# one item per line.
LIST_OPTIONS = {
    "--ideal": (["socle", "--ideal"], "x*y,x*z,y*z,x^2-z^2,y^2-z^2", []),
    "--ci": (["colon", "--ci"], "x^3,y^3,z^3", ["--f", "x^2+y^2+z^2"]),
    "--forms": (["certify-quadrics", "--forms"], "x^2+z^2,x*y+z^2,x*z,y^2,y*z", []),
    "--lines": (["gap", "--ideal", "x^3,y^3,z^3,x*y*z,x*(y^2-z^2),y*(x^2-z^2),"
                 "z*(x^2-y^2)", "--lines"], "x+y,y+z,x+z", []),
}


@pytest.mark.parametrize("option", LIST_OPTIONS)
def test_list_option_from_a_file_with_one_item_per_line(tmp_path, capsys, option):
    head, items, tail = LIST_OPTIONS[option]
    path = tmp_path / "items.txt"
    path.write_text(items.replace(",", "\n") + "\n")
    inline = run(capsys, *head, items, *tail)
    from_file = run(capsys, *head, f"@{path}", *tail)
    assert inline[0] == 0 and inline[2] == ""
    assert from_file == inline


def test_colon_prints_in_the_user_variables(capsys):
    code, report, _ = run_json(capsys, "colon", "--ci", "a^3,b^3,c^3",
                               "--f", "a^2+b^2+c^2", "--vars", "a,b,c")
    assert code == 0
    _, default, _ = run_json(capsys, "colon", "--ci", "x^3,y^3,z^3",
                             "--f", "x^2+y^2+z^2")
    rename = str.maketrans("xyz", "abc")
    assert report["base"] == ["a^3", "b^3", "c^3"]
    assert report["form"] == "a^2 + b^2 + c^2"
    assert report["generators"] == [g.translate(rename) for g in default["generators"]]
    # the printed generators read back in the same variables
    code, back, _ = run_json(capsys, "socle", "--ideal", ",".join(report["generators"]),
                             "--vars", "a,b,c")
    assert code == 0
    assert back["generators"] == report["generators"]
    assert back["hilbert_function"] == report["hilbert_function"]


def test_inverse_and_ann_round_trip_in_the_user_variables(capsys):
    ideal = "a*b,a*c,b*c,a^2-c^2,b^2-c^2"
    code, inverse, _ = run_json(capsys, "inverse", "--ideal", ideal, "--vars", "a,b,c")
    assert code == 0
    assert inverse["generator"] == "A^2 + B^2 + C^2"
    code, ann, _ = run_json(capsys, "ann", "--dual", inverse["generator"],
                            "--vars", "a,b,c")
    assert code == 0
    assert ann["dual_form"] == inverse["generator"]
    assert ann["minimal_profile"] == {"2": 5}
    code, again, _ = run_json(capsys, "inverse", "--ideal", ",".join(ann["generators"]),
                              "--vars", "a,b,c")
    assert code == 0
    assert again["generator"] == inverse["generator"]


@pytest.mark.parametrize("flags, dual", [
    (["--f", "a^2*b + b*c^2"], "a^2 + c^2"),
    (["--f", "a^2*b^2+a^2*c^2+b^2*c^2", "--socle-m", "3"], "A^2 + B^2 + C^2"),
], ids=["newton", "socle"])
def test_newton_dual_prints_in_the_user_variables(capsys, flags, dual):
    code, report, _ = run_json(capsys, "newton-dual", *flags, "--vars", "a,b,c")
    assert code == 0
    assert report["dual"] == dual
