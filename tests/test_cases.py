import pytest

from gor3.cases import (FREQUENCY_MIN_FIELD, LEFSCHETZ_BASES, case_ids,
                        ex_3_7_ideal, ex_4_5_ideal, run_case)
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


# The cases each small prime skips: the worked examples below their
# characteristic hypothesis (p > 3(m-1) for LEFSCHETZ_BASES), sum-power
# (characteristic 0 only) and model-properness over GF(2), where no
# specialization is Artinian.  Everything else runs its checks.
SMALL_FIELD_SKIPS = {
    2: {"ex-3-7", "ex-4-5", "ex-4-9", "sum-power", "model-properness"},
    3: {"ex-3-7", "ex-4-5", "ex-4-9", "sum-power"},
    5: {"ex-3-7", "ex-4-5", "ex-4-9", "sum-power"},
    7: {"ex-4-5", "ex-4-9", "sum-power"},
    13: {"sum-power"},
}


@pytest.mark.parametrize("p", sorted(SMALL_FIELD_SKIPS))
def test_no_case_fails_over_a_small_field(p):
    results = {cid: run_case(cid, field=GF(p)) for cid in case_ids()}
    failed = {cid: [c for c in res.checks if not c[1]]
              for cid, res in results.items() if not res.passed}
    assert failed == {}
    assert {cid for cid, res in results.items() if res.skipped} == SMALL_FIELD_SKIPS[p]
    for cid, m in LEFSCHETZ_BASES.items():
        if cid in SMALL_FIELD_SKIPS[p]:
            assert results[cid].note == (
                f"requires characteristic 0 or p > {3 * (m - 1)}, where "
                f"k[x,y,z]/(x^{m},y^{m},z^{m}) has the strong Lefschetz property")
    duality = results["duality-roundtrip"]
    left_out = sorted(SMALL_FIELD_SKIPS[p] & set(LEFSCHETZ_BASES))
    checked = {label.split(":")[0] for label, _, _ in duality.checks}
    assert checked == {"ex-2-5", "ex-3-7", "ex-4-5", "ex-4-9"} - set(left_out)
    if left_out:
        assert duality.note.startswith(f"{', '.join(left_out)} left out")
    else:
        assert duality.note == ""


def test_examples_change_below_their_hypothesis():
    # over GF(5), (x+y+z)^5 = x^5 + y^5 + z^5 lies in the base ideal
    assert ex_4_5_ideal(GF(5)).minimal_generator_profile() == {0: 1}
    # over GF(7) < 12 the colon gains a quadric; over GF(2) < 6 ex-3-7 does
    assert ex_4_5_ideal(GF(7)).minimal_generator_profile() == {2: 1, 4: 2}
    assert ex_3_7_ideal(GF(2)).minimal_generator_profile() == {2: 1, 3: 4}
