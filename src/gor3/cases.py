"""Registry of worked examples with their expected invariants.

Each case rebuilds one construction from scratch and diffs every computed
quantity (colon generators, profiles, socle data, Betti shifts, ranks)
against the frozen expectations.  `run_case` returns a structured result;
the CLI `reproduce` subcommand and the acceptance tests both drive this
registry.
"""

from __future__ import annotations

import random
from collections import namedtuple

from .apolarity import annihilator, directrix_form, macaulay_inverse
from .betti import betti_table, has_linear_resolution, socle_decomposition_from_betti
from .criteria import five_quadrics_certificate, is_equigen_linres, spans_target
from .fields import QQ
from .ideals import (
    REDUCTION_RETRIES,
    DatumViolationError,
    GradedIdeal,
    NotArtinianError,
    NotEquigeneratedError,
    check_reduction_two,
    pure_power_gap,
    pure_power_index,
    variable_lines,
    variable_power_ideal,
)
from .monomials import monomial_count, monomials_of_degree
from .parsing import parse_poly, parse_poly_list
from .pfaffians import generic_power_model
from .poly import MultiPoly, power_substitution

_VARS = ["x", "y", "z"]


class CaseResult(namedtuple("CaseResult", "case_id passed checks skipped note")):
    """checks holds (label, ok, detail) triples."""
    __slots__ = ()

    def __new__(cls, case_id, passed, checks=None, skipped=False, note=""):
        # a fresh list per result, as one default list would be shared
        return super().__new__(cls, case_id, passed,
                               [] if checks is None else checks, skipped, note)

    def as_dict(self):
        return {
            "case": self.case_id,
            "passed": self.passed,
            "skipped": self.skipped,
            "note": self.note,
            "checks": [{"label": label, "ok": ok, "detail": detail}
                       for label, ok, detail in self.checks],
        }


class _Checker:
    def __init__(self):
        self.checks = []

    def add(self, label, ok, detail=""):
        self.checks.append((label, bool(ok), str(detail)))

    def equal(self, label, got, expected):
        self.add(label, got == expected, f"got {got!r}, expected {expected!r}")

    def shifts(self, table, expected):
        """The shifts of the three Betti columns of table against expected,
        their dicts in column order."""
        for i, label in enumerate(("generator shifts", "first syzygy shifts",
                                   "last shifts")):
            self.equal(label, table.column_shifts(i + 1), expected[i])

    def result(self, case_id, note=""):
        passed = all(ok for _, ok, _ in self.checks)
        return CaseResult(case_id, passed, self.checks, note=note)


# ----------------------------------------------------------------------
# shared builders

def _link(m, f, field) -> GradedIdeal:
    """(x^m, y^m, z^m) : f, the form f given as text."""
    base = GradedIdeal.from_strings([f"x^{m}", f"y^{m}", f"z^{m}"], _VARS, field)
    return base.colon(parse_poly(f, _VARS, field))


# The worked examples (x^m, y^m, z^m) : f, as case id -> (m, f).
_EXAMPLES = {
    "ex-2-5": (3, "x^2*y^2 + x^2*z^2 + y^2*z^2"),
    "ex-3-7": (3, "x^2 + y^2 + z^2"),
    "ex-4-5": (5, "(x+y+z)^5"),
    "ex-4-9": (5, "(x+y+z)^6"),
}


def ex_2_5_ideal(field=QQ) -> GradedIdeal:
    return _link(*_EXAMPLES["ex-2-5"], field)


def ex_3_7_ideal(field=QQ) -> GradedIdeal:
    return _link(*_EXAMPLES["ex-3-7"], field)


def ex_4_5_ideal(field=QQ) -> GradedIdeal:
    return _link(*_EXAMPLES["ex-4-5"], field)


def ex_4_9_ideal(field=QQ) -> GradedIdeal:
    return _link(*_EXAMPLES["ex-4-9"], field)


def monomial_tower_ideal(d, field=QQ) -> GradedIdeal:
    """(z*(x,y)^(d-1), x^2*(x,y)^(d-2), y^d, z^d), 2d+1 monomials of degree d."""
    if d < 2:
        raise ValueError("tower needs d >= 2")
    gens = []
    for a in range(d - 1, -1, -1):
        gens.append(MultiPoly.monomial((a, d - 1 - a, 1), 1, field))
    for a in range(d - 2, -1, -1):
        gens.append(MultiPoly.monomial((a + 2, d - 2 - a, 0), 1, field))
    gens.append(MultiPoly.monomial((0, d, 0), 1, field))
    gens.append(MultiPoly.monomial((0, 0, d), 1, field))
    return GradedIdeal(3, gens, field)


def monomial_tower_squared(d, field=QQ) -> GradedIdeal:
    tower = monomial_tower_ideal(d, field)
    return GradedIdeal(3, [power_substitution(g, 2) for g in tower.generators],
                       field)


def five_gen_monomial_ideal(dp, field=QQ) -> GradedIdeal:
    """(x^(2d'), y^(2d'), z^(2d'), x^d'*y^d', x*z^(2d'-1)), all of degree 2d'."""
    if dp < 2:
        raise ValueError("needs d' >= 2")
    gens = [
        MultiPoly.monomial((2 * dp, 0, 0), 1, field),
        MultiPoly.monomial((0, 2 * dp, 0), 1, field),
        MultiPoly.monomial((0, 0, 2 * dp), 1, field),
        MultiPoly.monomial((dp, dp, 0), 1, field),
        MultiPoly.monomial((1, 0, 2 * dp - 1), 1, field),
    ]
    return GradedIdeal(3, gens, field)


# five quadrics, the number the five-quadrics certificate takes
QUADRIC_COUNT = 5


def random_quadrics(seed, field=QQ):
    """QUADRIC_COUNT seeded ternary quadrics, coefficients from -10..10."""
    rng = random.Random(seed)
    out = []
    for _ in range(QUADRIC_COUNT):
        q = MultiPoly(3, {e: field.of(rng.randint(-10, 10))
                          for e in monomials_of_degree(3, 2)}, field)
        if q.is_zero():
            q = MultiPoly.monomial((2, 0, 0), 1, field)
        out.append(q)
    return out


# ----------------------------------------------------------------------
# tower expectations, instantiated from the closed-form shifts

def tower_expected_betti(d):
    beta1 = {d: 2 * d + 1}
    beta2 = {d + 1: 3 * d - 3}
    beta2[d + 2] = beta2.get(d + 2, 0) + 1
    beta2[2 * d - 1] = beta2.get(2 * d - 1, 0) + d
    beta3 = {d + 2: d - 2} if d > 2 else {}
    beta3[d + 3] = beta3.get(d + 3, 0) + 1
    beta3[2 * d] = beta3.get(2 * d, 0) + d - 1
    return beta1, beta2, beta3


def tower_expected_socle(d):
    if d == 2:
        return {1: 1, 2: 1}
    out = {}
    for deg, mult in ((d - 1, d - 2), (d, 1), (2 * d - 3, d - 1)):
        out[deg] = out.get(deg, 0) + mult
    return out


def five_gen_expected_betti(dp):
    beta1 = {2 * dp: 5}
    beta2 = {2 * dp + 1: 1}
    beta2[3 * dp] = beta2.get(3 * dp, 0) + 2
    beta2[4 * dp - 1] = beta2.get(4 * dp - 1, 0) + 2
    beta2[4 * dp] = beta2.get(4 * dp, 0) + 2
    beta3 = {4 * dp + 1: 1}
    beta3[5 * dp - 1] = beta3.get(5 * dp - 1, 0) + 2
    return beta1, beta2, beta3


def five_gen_expected_socle(dp):
    out = {4 * dp - 2: 1}
    out[5 * dp - 4] = out.get(5 * dp - 4, 0) + 2
    return out


# ----------------------------------------------------------------------
# cases

# Seeded sweeps assert how often a random choice is generic.  Over GF(p) the
# coefficients, drawn from -10..10, also vanish mod p, so those frequencies
# hold over QQ and large primes only (GF(67) certifies 94/100 quadric
# systems, GF(3) 42/100); below this field size only the checks that hold
# seed by seed are made.
FREQUENCY_MIN_FIELD = 1000


def _frequencies_hold(field):
    p = field.characteristic
    return p == 0 or p >= FREQUENCY_MIN_FIELD


# The worked examples that need a hypothesis on the field, by their m (from
# _EXAMPLES); ex-2-5 holds over every field.  R/I has the Hilbert function
# the paper computes when multiplication by (x+y+z)^e has maximal rank on
# A = k[x,y,z]/(x^m, y^m, z^m) in every degree.  It does when A has the
# strong Lefschetz property, which monomial complete intersections have in
# characteristic 0 and in characteristic p above their socle degree 3(m-1)
# (Harima et al., The Lefschetz Properties, LNM 2080, ch. 3).  Below that
# bound the colon can change: over GF(5) the colon by
# (x+y+z)^5 = x^5 + y^5 + z^5 is the unit ideal.
LEFSCHETZ_BASES = {cid: _EXAMPLES[cid][0] for cid in ("ex-3-7", "ex-4-5", "ex-4-9")}


def _example_holds(case_id, field):
    """Whether field meets the hypothesis of the example case_id: always for
    a characteristic-free one, else characteristic 0 or p > 3(m-1)."""
    m = LEFSCHETZ_BASES.get(case_id)
    p = field.characteristic
    return m is None or p == 0 or p > 3 * (m - 1)


def _example_skipped(case_id, field):
    """A skipped result, with the hypothesis in its note, when field does not
    meet the hypothesis of the example case_id; else None.  run_case returns
    it in place of running the case."""
    if _example_holds(case_id, field):
        return None
    m = LEFSCHETZ_BASES[case_id]
    return CaseResult(case_id, True, [], skipped=True,
                      note=f"requires characteristic 0 or p > {3 * (m - 1)}, "
                           f"where k[x,y,z]/(x^{m},y^{m},z^{m}) has the strong "
                           f"Lefschetz property")


def _case_ex_2_5(field, seed):
    c = _Checker()
    I = ex_2_5_ideal(field)
    listed = GradedIdeal.from_strings(
        ["x*y", "x*z", "y*z", "x^2 - z^2", "y^2 - z^2"], _VARS, field)
    c.add("colon equals the five listed quadrics", I.equals(listed))
    c.equal("minimal profile", I.minimal_generator_profile(), {2: 5})
    rep = I.socle_report()
    c.equal("socle degree", rep.socle_degree, 2)
    c.add("Gorenstein", rep.is_gorenstein)
    c.equal("datum", I.virtual_datum().as_tuple(), (2, 5, 1))
    return c.result("ex-2-5")


def _case_ex_3_7(field, seed):
    c = _Checker()
    I = ex_3_7_ideal(field)
    listed = GradedIdeal.from_strings(
        ["x^3", "y^3", "z^3", "x*y*z",
         "x*(y^2 - z^2)", "y*(x^2 - z^2)", "z*(x^2 - y^2)"], _VARS, field)
    c.add("colon equals the seven listed cubics", I.equals(listed))
    c.equal("minimal profile", I.minimal_generator_profile(), {3: 7})
    rep = I.socle_report()
    c.equal("socle degree", rep.socle_degree, 4)
    c.add("Gorenstein", rep.is_gorenstein)
    c.equal("datum", I.virtual_datum().as_tuple(), (3, 7, 1))
    by_betti = has_linear_resolution(betti_table(I))
    m, f = _EXAMPLES["ex-3-7"]
    by_rank = is_equigen_linres(parse_poly(f, _VARS, field), m)
    c.add("linear resolution via Betti table", by_betti)
    c.equal("linear resolution via rank criterion", by_rank.verdict, "YES")
    c.equal("criterion degree", by_rank.d, 3)
    return c.result("ex-3-7")


def _datum_case(case_id, build, datum, socle_degree):
    def runner(field, seed):
        c = _Checker()
        I = build(field)
        c.equal("datum", I.virtual_datum().as_tuple(), datum)
        c.equal("socle degree", I.socle_report().socle_degree, socle_degree)
        return c.result(case_id)

    return runner


def _case_non_equigen(field, seed):
    c = _Checker()
    I = _link(4, "x^3 + y^3 + z^3", field)
    profile = I.minimal_generator_profile()
    c.add("profile includes degree 3", 3 in profile, f"profile {profile}")
    c.add("xyz lies in the colon", I.contains(parse_poly("x*y*z", _VARS, field)))
    c.add("not equigenerated", len(profile) > 1, f"profile {profile}")
    return c.result("non-equigen-xyz")


def _tower_case(d):
    def runner(field, seed):
        c = _Checker()
        I = monomial_tower_ideal(d, field)
        table = betti_table(I)
        c.shifts(table, tower_expected_betti(d))
        expected_socle = tower_expected_socle(d)
        c.equal("socle decomposition (Betti route)",
                socle_decomposition_from_betti(table), expected_socle)
        c.equal("socle decomposition (colon route)",
                I.socle_report().socle_dims, expected_socle)
        c.add("degree d-2 multiples fill the target",
              spans_target(I.generators, d - 2).spans)
        return c.result(f"monomial-tower-d{d}")

    return runner


def _case_tower_squared(field, seed):
    c = _Checker()
    I = monomial_tower_squared(3, field)
    c.shifts(betti_table(I), ({6: 7}, {8: 6, 10: 4}, {10: 1, 12: 3}))
    c.equal("socle decomposition", I.socle_report().socle_dims, {7: 1, 9: 3})
    return c.result("monomial-tower-d3-squared")


def _case_five_gen(field, seed):
    c = _Checker()
    dp = 2
    I = five_gen_monomial_ideal(dp, field)
    c.shifts(betti_table(I), five_gen_expected_betti(dp))
    c.equal("socle decomposition", I.socle_report().socle_dims,
            five_gen_expected_socle(dp))
    c.add("degree 3d'-3 multiples fill the target",
          spans_target(I.generators, 3 * dp - 3).spans)
    return c.result("five-gen-monomial-dp2")


def _case_sum_power(field, seed):
    if field.characteristic != 0:
        return CaseResult("sum-power", True, [], skipped=True,
                          note="requires characteristic 0")
    c = _Checker()
    ell = parse_poly("x + y + z", _VARS, field)
    for m in range(1, 6):
        for e in range(0, 7):
            s = 3 * (m - 1) - e
            if s < 0 or s % 2:
                continue
            d = s // 2 + 1
            expect_yes = m >= d
            report = is_equigen_linres(ell ** e, m)
            c.equal(f"(m={m}, e={e}) verdict",
                    report.verdict, "YES" if expect_yes else "NO")
            if expect_yes and report.verdict == "YES":
                I = variable_power_ideal(3, m, field).colon(ell ** e)
                c.add(f"(m={m}, e={e}) Betti oracle agrees",
                      has_linear_resolution(betti_table(I)))
                c.equal(f"(m={m}, e={e}) generation degree",
                        I.is_equigenerated()[0], d)
    return c.result("sum-power")


def _case_five_quadrics_unit(field, seed):
    c = _Checker()
    qs = parse_poly_list("x^2+z^2, x*y+z^2, x*z, y^2, y*z", _VARS, field)
    rep = five_quadrics_certificate(qs)
    # the certificate's scalars are quotients (field.div); so is the
    # expected value, so that the detail prints Fraction(1, 1) over QQ
    one = field.div(field.one, field.one)
    c.equal("delta", rep.delta, one)
    c.equal("dee", rep.dee, one)
    c.equal("verdict", rep.verdict, "GORENSTEIN")
    c.add("socle report confirms",
          GradedIdeal(3, qs, field).socle_report().is_gorenstein)
    return c.result("five-quadrics-unit")


def _case_five_quadrics_sweep(field, seed):
    c = _Checker()
    gorenstein = 0
    confirmed = 0
    for k in range(100):
        qs = random_quadrics(seed + k, field)
        rep = five_quadrics_certificate(qs)
        if rep.verdict == "GORENSTEIN":
            gorenstein += 1
            if GradedIdeal(3, qs, field).socle_report().is_gorenstein:
                confirmed += 1
    c.equal("no false positives", confirmed, gorenstein)
    note = ""
    if _frequencies_hold(field):
        c.add("certificate fires on most seeds", gorenstein >= 95,
              f"{gorenstein}/100 certified")
    else:
        note = (f"{gorenstein}/100 certified; the >= 95 frequency is checked "
                f"only over QQ and GF(p) with p >= {FREQUENCY_MIN_FIELD}: "
                f"delta*dee has degree 20 in the random coefficients and "
                f"vanishes mod a small p far more often")
    return c.result("five-quadrics-sweep", note=note)


def _case_power_max(field, seed):
    c = _Checker()
    I = ex_2_5_ideal(field)
    for k in (2, 3):
        for t in range(2 * k + 3):
            piece = I.power_piece(k, t)
            expected = monomial_count(3, t) if t >= 2 * k else 0
            c.equal(f"dim (I^{k})_{t}", piece.dim, expected)
    missed = []
    for s in range(1, 11):
        try:
            rep = check_reduction_two(I, seed + s)
        except RuntimeError:
            if _frequencies_hold(field):
                raise
            missed.append(seed + s)
            continue
        c.add(f"reduction number two (seed {seed + s})",
              rep.reduction_number_is_two, rep.as_dict())
    note = ""
    if missed:
        note = (f"no height-3 reduction in {REDUCTION_RETRIES} draws for "
                f"seed(s) {missed}: over GF(p) with p < {FREQUENCY_MIN_FIELD} "
                f"the draws from -10..10 are degenerate far more often, so "
                f"such seeds are not checked")
    return c.result("power-max-2-5", note=note)


def _case_duality(field, seed):
    c = _Checker()
    left_out = [name for name in _EXAMPLES if not _example_holds(name, field)]
    lines = variable_lines(3, field)
    for name, link in _EXAMPLES.items():
        if name in left_out:
            continue
        I = _link(*link, field)
        s = I.socle_report().socle_degree
        F = macaulay_inverse(I)
        c.add(f"{name}: annihilator round trip", annihilator(F).equals(I))
        m_min = pure_power_index(I, lines)
        for m in sorted({m_min, s + 1}):
            f = directrix_form(I, m)
            c.equal(f"{name}: directrix degree (m={m})",
                    f.homogeneous_degree(), 3 * (m - 1) - s)
            c.add(f"{name}: no term in the pure powers (m={m})",
                  all(max(e) < m for e in f.terms))
            colon = variable_power_ideal(3, m, field).colon(f)
            c.add(f"{name}: colon identity (m={m})", colon.equals(I))
    note = ""
    if left_out:
        note = (f"{', '.join(left_out)} left out: below the characteristic "
                f"their cases require")
    return c.result("duality-roundtrip", note=note)


def _case_gap(field, seed):
    c = _Checker()
    I = ex_3_7_ideal(field)
    lines = variable_lines(3, field)
    m = pure_power_index(I, lines)
    c.equal("pure power index", m, 3)
    c.equal("gap", pure_power_gap(I, lines), 2)
    f = directrix_form(I, 5)
    c.add("divisible by (xyz)^2", all(min(e) >= 2 for e in f.terms))
    quotient = MultiPoly(3, {tuple(v - 2 for v in e): cf
                             for e, cf in f.terms.items()}, field)
    target = parse_poly(_EXAMPLES["ex-3-7"][1], _VARS, field)
    ok = False
    if quotient.terms and target.terms:
        e0 = next(iter(target.terms))
        if e0 in quotient.terms:
            ratio = field.div(quotient.terms[e0], target.terms[e0])
            ok = quotient == target.scale(ratio)
    c.add("quotient is x^2+y^2+z^2 up to scalar", ok, str(quotient))
    return c.result("gap-3-7")


def _case_model(field, seed):
    c = _Checker()
    frequent = _frequencies_hold(field)
    counts = []
    for r, dp, datum in ((5, 1, (2, 5, 1)), (5, 2, (4, 5, 2))):
        good = artinian = gorenstein = 0
        for s in range(1, 11):
            try:
                I = generic_power_model(r, dp, 3, seed + s, field)
                artinian += 1
                rep = I.socle_report()
                gorenstein += rep.is_gorenstein
                if rep.is_gorenstein and I.virtual_datum().as_tuple() == datum:
                    good += 1
            except (RuntimeError, NotArtinianError, NotEquigeneratedError,
                    DatumViolationError):
                continue
        counts.append((r, dp, datum, good, artinian, gorenstein))
    if not frequent and not any(artinian for *_, artinian, _ in counts):
        return CaseResult("model-properness", True, [], skipped=True,
                          note=f"no specialization over {field.name} is "
                               f"Artinian: the field is too small")
    for r, dp, datum, good, artinian, gorenstein in counts:
        if frequent:
            c.add(f"model (r={r}, entry degree {dp}) hits datum {datum}",
                  good >= 9, f"{good}/10 seeds")
        else:
            c.add(f"model (r={r}, entry degree {dp}) is Gorenstein when "
                  f"Artinian", artinian > 0 and gorenstein == artinian,
                  f"{gorenstein}/{artinian} Artinian seeds, "
                  f"{good}/10 hit datum {datum}")
    note = "" if frequent else (
        f"the datum frequency is checked only over QQ and GF(p) with "
        f"p >= {FREQUENCY_MIN_FIELD}: over a small field more "
        f"specializations fail; Pfaffian ideals of grade 3 are Gorenstein "
        f"(Buchsbaum-Eisenbud) over every field")
    return c.result("model-properness", note=note)


_CASES = {
    "ex-2-5": _case_ex_2_5,
    "ex-3-7": _case_ex_3_7,
    "ex-4-5": _datum_case("ex-4-5", ex_4_5_ideal, (4, 5, 2), 7),
    "ex-4-9": _datum_case("ex-4-9", ex_4_9_ideal, (4, 9, 1), 6),
    "non-equigen-xyz": _case_non_equigen,
    "monomial-tower-d3": _tower_case(3),
    "monomial-tower-d4": _tower_case(4),
    "monomial-tower-d3-squared": _case_tower_squared,
    "five-gen-monomial-dp2": _case_five_gen,
    "sum-power": _case_sum_power,
    "five-quadrics-unit": _case_five_quadrics_unit,
    "five-quadrics-sweep": _case_five_quadrics_sweep,
    "power-max-2-5": _case_power_max,
    "duality-roundtrip": _case_duality,
    "gap-3-7": _case_gap,
    "model-properness": _case_model,
}


def case_ids():
    return list(_CASES)


def run_case(case_id, field=QQ, seed=0) -> CaseResult:
    runner = _CASES.get(case_id)
    if runner is None:
        raise KeyError(f"unknown case {case_id!r}; known: {', '.join(_CASES)}")
    return _example_skipped(case_id, field) or runner(field, seed)
