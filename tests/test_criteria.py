import random

import pytest

from gor3 import GradedIdeal, MultiPoly
from gor3.betti import betti_table, has_linear_resolution
from gor3.criteria import (
    five_quadrics_certificate,
    is_equigen_linres,
    linres_matrix,
    spans_target,
)
from gor3.fields import GF, QQ
from gor3.ideals import variable_power_ideal
from gor3.linalg import kernel_rows
from gor3.monomials import monomial_count, monomial_index, monomials_of_degree
from gor3.parsing import parse_poly, parse_poly_list
from gor3.pieces import catalecticant, integer_span, integer_terms
from oracles import five_quadrics_by_cofactors

VARS = ["x", "y", "z"]


def P(text):
    return parse_poly(text, VARS)


def random_form(rng, degree, density=0.6):
    terms = {}
    for e in monomials_of_degree(3, degree):
        if rng.random() < density:
            c = rng.randint(-5, 5)
            if c:
                terms[e] = QQ.of(c)
    if not terms:
        terms[next(iter(monomials_of_degree(3, degree)))] = QQ.one
    return MultiPoly(3, terms, QQ)


def test_spans_five_general_quadrics():
    qs = parse_poly_list("x^2+z^2, x*y+z^2, x*z, y^2, y*z", VARS)
    assert spans_target(qs, 1).spans


def test_spans_tower_generators(tower_d3, tower_d4):
    assert spans_target(tower_d3.generators, 1).spans
    assert spans_target(tower_d4.generators, 2).spans


def test_spans_fails_in_two_variables():
    forms = [parse_poly("x^2", ["x", "y"]), parse_poly("y^2", ["x", "y"])]
    rep = spans_target(forms, 0)
    assert not rep.spans
    assert rep.rank == 2 and rep.target_dim == 3


def test_spans_requires_equal_degrees():
    with pytest.raises(ValueError):
        spans_target([P("x^2"), P("x^3")], 1)


def test_spans_monotone_in_shift(ex_2_5):
    """Once the multiples fill the target they keep filling it."""
    forms = ex_2_5.generators
    spanned = False
    for e in range(0, 5):
        now = spans_target(forms, e).spans
        if spanned:
            assert now
        spanned = spanned or now
    assert spanned


def test_linres_matrix_identity_for_unit_form():
    one = MultiPoly.constant(3, 1)
    for m, ep in ((2, 2), (3, 4)):
        rows, nc = linres_matrix(one, m, ep)
        outside = sum(1 for g in monomials_of_degree(3, ep)
                      if all(v < m for v in g))
        assert len(rows) == outside
        assert nc == len(monomials_of_degree(3, ep))
        kernel_dim = len(kernel_rows(QQ, rows, nc)[0])
        assert kernel_dim == variable_power_ideal(3, m).graded_piece(ep).dim


def test_linres_kernel_matches_colon_on_seeds():
    """Kernel vectors of the membership matrix are exactly the coefficient
    vectors of the colon ideal's graded piece."""
    rng = random.Random(77)
    for trial in range(25):
        e = rng.randint(1, 3)
        m = rng.randint(2, 4)
        ep = rng.randint(1, 3)
        f = random_form(rng, e)
        kernel, _ = kernel_rows(QQ, *linres_matrix(f, m, ep))
        colon_piece = variable_power_ideal(3, m).colon(
            f, t_max=ep).graded_piece(ep)
        kernel_span = integer_span(3, ep, kernel, QQ)
        assert kernel_span.dim == colon_piece.dim
        assert kernel_span == colon_piece


@pytest.mark.parametrize("field", [QQ, GF(32003)], ids=str)
def test_linres_matrix_is_a_catalecticant(field):
    """The colon of the pure powers by f is Ann(G), G = f o X^[m-1] of
    degree s = n(m-1) - e, so the membership matrix at e' is Cat_e'(G): its
    rows are those of the catalecticant whose monomial gamma has every
    exponent below m, the row of gamma being that of (m-1, ..., m-1) -
    gamma, which reverses their order."""
    rng = random.Random(3811)
    for _ in range(30):
        n, m = rng.randint(2, 4), rng.randint(2, 4)
        s_max = n * (m - 1)
        e = rng.randint(1, s_max)
        ep = rng.randint(0, s_max - e)
        s = s_max - e
        terms = {a: field.of(rng.randint(-5, 5)) for a in monomials_of_degree(n, e)
                 if rng.random() < 0.5}
        terms[rng.choice(monomials_of_degree(n, e))] = field.one
        f = MultiPoly(n, terms, field)
        idx = monomial_index(n, s)
        G = [0] * len(idx)
        for alpha, c in integer_terms(f).items():
            if all(a < m for a in alpha):
                G[idx[tuple(m - 1 - a for a in alpha)]] = c
        kept = [row for row, gamma in zip(catalecticant(n, s, G, ep),
                                          monomials_of_degree(n, s - ep))
                if all(g < m for g in gamma)]
        assert linres_matrix(f, m, ep) == (kept[::-1], monomial_count(n, ep))


def test_linres_verdicts():
    assert is_equigen_linres(P("(x+y+z)^2"), 3).verdict == "YES"
    assert is_equigen_linres(P("(x+y+z)^2"), 3).d == 3
    assert is_equigen_linres(P("x^3+y^3+z^3"), 4).verdict == "NO"
    # odd socle parameter
    rep = is_equigen_linres(P("(x+y+z)^3"), 3)
    assert rep.verdict == "NO" and rep.s == 3
    with pytest.raises(ValueError):
        is_equigen_linres(P("(x+y+z)^4"), 2)


def test_linres_sum_power_threshold():
    ell = P("x + y + z")
    for m in range(1, 6):
        for e in range(0, 7):
            s = 3 * (m - 1) - e
            if s < 0 or s % 2:
                continue
            verdict = is_equigen_linres(ell ** e, m).verdict
            assert verdict == ("YES" if m >= s // 2 + 1 else "NO"), (m, e)


def test_linres_consistency_with_full_invariants():
    """YES answers coincide with Gorenstein + equigenerated + Betti-linear."""
    ell = P("x + y + z")
    samples = [(3, 2), (3, 4), (4, 3), (2, 1), (5, 6), (3, 0)]
    for m, e in samples:
        s = 3 * (m - 1) - e
        if s < 0 or s % 2:
            continue
        rep = is_equigen_linres(ell ** e, m)
        I = variable_power_ideal(3, m).colon(ell ** e)
        eq = I.is_equigenerated()
        oracle = (I.socle_report().is_gorenstein and eq is not None
                  and has_linear_resolution(betti_table(I)))
        assert (rep.verdict == "YES") == oracle, (m, e)
        if rep.verdict == "YES":
            assert eq[0] == rep.d


def test_five_quadrics_unit_point():
    qs = parse_poly_list("x^2+z^2, x*y+z^2, x*z, y^2, y*z", VARS)
    rep = five_quadrics_certificate(qs)
    assert rep.delta == 1
    assert rep.dee == 1
    assert rep.verdict == "GORENSTEIN"


def test_five_quadrics_on_listed_example(ex_2_5):
    rep = five_quadrics_certificate(ex_2_5.generators)
    if rep.verdict == "GORENSTEIN":
        assert ex_2_5.socle_report().is_gorenstein
    else:
        assert rep.verdict == "INCONCLUSIVE"
    # whatever the certificate says, the socle oracle is the authority
    assert ex_2_5.socle_report().is_gorenstein


def test_five_quadrics_no_false_positives():
    from gor3.cases import random_quadrics

    certified = 0
    for seed in range(40):
        qs = random_quadrics(seed)
        rep = five_quadrics_certificate(qs)
        if rep.verdict == "GORENSTEIN":
            certified += 1
            assert GradedIdeal(3, qs, QQ).socle_report().is_gorenstein
    assert certified >= 38


@pytest.mark.parametrize("field", [QQ, GF(32003)], ids=str)
def test_five_quadrics_matches_cofactor_reference(field):
    """delta and dee by Cramer determinants equal the adjugate-by-cofactors
    reference, singular top blocks included: there delta is 0 but dee is
    still printed, and is nonzero when the fifth quadric is a combination
    of two others plus z^2 (rank-4 top, generic left kernel)."""
    from gor3.cases import random_quadrics

    quintuples = [random_quadrics(seed, field) for seed in range(10)]
    z2 = parse_poly("z^2", VARS, field)
    for seed in range(3):
        qs = random_quadrics(seed, field)
        quintuples.append(qs[:4] + [qs[0] + qs[1].scale(field.of(2)) + z2])
    for text in ("x^2, y^2, z^2, x*y, x*z", "x^2, x*y, x*z, x^2+x*y, x^2-x*z",
                 "x^2, x*y, x*z, y^2, y*z", "x^2+z^2, x*y+z^2, x*z, y^2, y*z"):
        quintuples.append(parse_poly_list(text, VARS, field))
    singular_with_dee = 0
    for qs in quintuples:
        rep = five_quadrics_certificate(qs)
        delta, dee = five_quadrics_by_cofactors(qs)
        assert (rep.delta, rep.dee) == (delta, dee), [str(q) for q in qs]
        assert rep.as_dict()["delta"] == str(delta)
        assert rep.as_dict()["dee"] == str(dee)
        singular_with_dee += field.is_zero(delta) and not field.is_zero(dee)
    assert singular_with_dee == 3


def test_five_quadrics_takes_one_determinant_and_no_adjugate(monkeypatch):
    """delta and d_1..d_5 come from linalg.maximal_minors, so the only
    ExactMatrix determinant is the 3 x 3 one, dee; the span takes a rank
    only when delta * dee = 0."""
    import gor3.criteria
    from gor3.linalg import ExactMatrix

    calls, ranks = [], []
    det, rank = ExactMatrix.det, gor3.criteria.row_rank

    def counted(self):
        calls.append((self.rows, self.cols))
        return det(self)

    def no_adjugate(self):
        raise AssertionError("adjugate called")

    def counted_rank(*args):
        ranks.append(args[1:])
        return rank(*args)

    monkeypatch.setattr(ExactMatrix, "det", counted)
    monkeypatch.setattr(ExactMatrix, "adjugate", no_adjugate)
    monkeypatch.setattr(gor3.criteria, "row_rank", counted_rank)
    for text, nonzero in (("x^2+z^2, x*y+z^2, x*z, y^2, y*z", True),
                          ("x^2, y^2, z^2, x*y, x*z", False),
                          ("x^2, x*y, x*z, y^2, y*z", False)):
        calls.clear()
        ranks.clear()
        five_quadrics_certificate(parse_poly_list(text, VARS))
        assert calls == [(3, 3)]
        assert len(ranks) == (0 if nonzero else 1)


@pytest.mark.parametrize("field", [QQ, GF(32003), GF(2), GF(3)], ids=str)
def test_nonzero_certificate_determinants_give_the_span(field):
    """delta * dee != 0 proves R_1 * I_2 = R_3 over every field (I_2 is
    F^perp and rank Cat_1(F) = 3), so the certificate reports spans without
    a rank; spans_target agrees on every seeded quintuple, and the report's
    spans is its value on the others too."""
    from gor3.cases import random_quadrics

    nonzero = 0
    for seed in range(200):
        qs = random_quadrics(seed, field)
        rep = five_quadrics_certificate(qs)
        spans = spans_target(qs, 1).spans
        assert rep.spans == spans, seed
        if not field.is_zero(rep.delta) and not field.is_zero(rep.dee):
            nonzero += 1
            assert spans, seed
    assert nonzero >= 20


def test_five_quadrics_rejects_bad_input():
    with pytest.raises(ValueError):
        five_quadrics_certificate([P("x^2")] * 4)
    with pytest.raises(ValueError):
        five_quadrics_certificate([P("x^2")] * 4 + [P("x^3")])


def test_degenerate_quintuple_is_inconclusive():
    # all five quadrics share the factor x: certificate must not fire
    qs = parse_poly_list("x^2, x*y, x*z, x^2+x*y, x^2-x*z", VARS)
    rep = five_quadrics_certificate(qs)
    assert rep.verdict == "INCONCLUSIVE"


def test_non_gorenstein_artinian_quintuple_is_inconclusive():
    """An m-primary but non-Gorenstein quintuple: the certificate must stay
    on the safe side (its top block is singular here)."""
    qs = parse_poly_list("x^2, y^2, z^2, x*y, x*z", VARS)
    I = GradedIdeal(3, qs, QQ)
    rep = I.socle_report()
    assert not rep.is_gorenstein  # socle has a degree-1 piece
    cert = five_quadrics_certificate(qs)
    assert cert.verdict == "INCONCLUSIVE"
    assert cert.delta == 0


def test_monomial_complement_quintuple_is_inconclusive():
    """Five monomial quadrics spanning everything except z^2: not Artinian,
    so a GORENSTEIN verdict would be a false positive; the symmetric
    determinant vanishes although the top block is the identity.  They are
    F^perp for F = Z^[2], but rank Cat_1(F) = 1, so delta != 0 alone does
    not give the span: their degree-1 multiples miss z^3."""
    qs = parse_poly_list("x^2, x*y, x*z, y^2, y*z", VARS)
    cert = five_quadrics_certificate(qs)
    assert cert.delta == 1
    assert cert.dee == 0
    assert cert.spans is False
    assert cert.verdict == "INCONCLUSIVE"
