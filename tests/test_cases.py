from gor3.cases import FREQUENCY_MIN_FIELD, case_ids, run_case
from gor3.fields import GF


def test_every_registered_case_passes():
    for cid in case_ids():
        res = run_case(cid)
        assert res.passed, (cid, [c for c in res.checks if not c[1]])


def test_case_results_serialize():
    res = run_case("ex-2-5")
    d = res.as_dict()
    assert d["case"] == "ex-2-5"
    assert d["passed"] is True
    assert all(c["ok"] for c in d["checks"])


def test_char_zero_case_skips_over_prime_field():
    res = run_case("sum-power", field=GF(101))
    assert res.skipped
    assert "characteristic" in res.note


def test_small_cases_hold_mod_p():
    F = GF(101)
    for cid in ("ex-2-5", "ex-3-7", "non-equigen-xyz", "five-quadrics-unit"):
        res = run_case(cid, field=F)
        assert res.passed, (cid, [c for c in res.checks if not c[1]])


def test_frequency_checks_wait_for_a_large_field():
    # random coefficients from -10..10 are degenerate mod 3 far more often
    # than over QQ; the checks that hold seed by seed stay
    sweep = run_case("five-quadrics-sweep", field=GF(3))
    assert sweep.passed
    assert [label for label, _, _ in sweep.checks] == ["no false positives"]
    assert sweep.note.startswith("42/100 certified")
    model = run_case("model-properness", field=GF(3))
    assert model.passed
    assert [label.endswith("is Gorenstein when Artinian")
            for label, _, _ in model.checks] == [True, True]
    for res in (sweep, model):
        assert f"p >= {FREQUENCY_MIN_FIELD}" in res.note
    # over GF(2) no specialization is Artinian: nothing to check, so the
    # case says so instead of passing on zero seeds
    tiny = run_case("model-properness", field=GF(2))
    assert tiny.skipped and tiny.checks == []
    assert tiny.note == ("no specialization over GF(2) is Artinian: "
                         "the field is too small")
    for cid, label in (("five-quadrics-sweep", "certificate fires on most seeds"),
                       ("model-properness", "model (r=5, entry degree 1) "
                                            "hits datum (2, 5, 1)")):
        large = run_case(cid, field=GF(1009))
        assert large.passed and large.note == ""
        assert label in [got for got, _, _ in large.checks]
