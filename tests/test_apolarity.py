import random

import pytest

from gor3 import GradedIdeal, MultiPoly
from gor3.apolarity import (
    InverseForm,
    NotGorensteinError,
    annihilator,
    contract,
    directrix_form,
    macaulay_inverse,
    newton_dual,
    socle_newton_dual,
)
from gor3.cli import main
from gor3.fields import QQ
from gor3.ideals import variable_power_ideal
from gor3.monomials import monomial_count, monomials_of_degree
from gor3.parsing import parse_poly
from oracles import mono_divides

VARS = ["x", "y", "z"]


def P(text):
    return parse_poly(text, VARS)


def dual(terms):
    return InverseForm(3, {e: QQ.of(c) for e, c in terms.items()})


def random_form(rng, degree, density=0.5):
    terms = {}
    for e in monomials_of_degree(3, degree):
        if rng.random() < density:
            c = rng.randint(-6, 6)
            if c:
                terms[e] = QQ.of(c)
    if not terms:
        terms[next(iter(monomials_of_degree(3, degree)))] = QQ.one
    return MultiPoly(3, terms, QQ)


def random_dual(rng, degree, density=0.5):
    f = random_form(rng, degree, density)
    return InverseForm(3, dict(f.terms), QQ)


def test_contract_definition():
    F = dual({(2, 0, 0): 1})
    out = contract(P("x"), F)
    assert out == dual({(1, 0, 0): 1})


def test_contract_drops_negative_exponents():
    F = dual({(0, 2, 0): 1})
    assert contract(P("x^2"), F).is_zero()


def test_contract_is_module_action():
    """(f*g) acting on F equals f acting on (g acting on F)."""
    rng = random.Random(21)
    for _ in range(30):
        f = random_form(rng, rng.randint(1, 2))
        g = random_form(rng, rng.randint(1, 2))
        F = random_dual(rng, rng.randint(3, 5), density=0.7)
        assert contract(f * g, F) == contract(f, contract(g, F))


def test_contract_bilinear():
    rng = random.Random(22)
    f = random_form(rng, 2)
    g = random_form(rng, 2)
    F = random_dual(rng, 4)
    assert contract(f + g, F) == contract(f, F) + contract(g, F)


def brute_force_annihilator_dim(F, t):
    """Catalecticant kernel dimension computed from scratch."""
    from gor3.linalg import kernel_rows

    n, s = F.n, F.degree()
    cols = []
    for alpha in monomials_of_degree(n, t):
        g = MultiPoly.monomial(alpha, 1, QQ)
        cols.append(contract(g, F).to_vector(s - t))
    rows = [QQ.integer_row([cols[j][i] for j in range(len(cols))])[0]
            for i in range(monomial_count(n, s - t))]
    return len(kernel_rows(QQ, rows, len(cols))[0])


def test_annihilator_of_sum_of_squares():
    F = dual({(2, 0, 0): 1, (0, 2, 0): 1, (0, 0, 2): 1})
    A = annihilator(F)
    assert A.minimal_generator_profile() == {2: 5}
    rep = A.socle_report()
    assert rep.is_gorenstein and rep.socle_degree == 2
    # cross-check against the brute-force catalecticant kernels
    for t in (0, 1, 2):
        assert A.graded_piece(t).dim == brute_force_annihilator_dim(F, t)


def test_annihilator_single_variable():
    F = InverseForm(1, {(4,): QQ.one})
    A = annihilator(F)
    assert [str(g) for g in A.generators] == ["x^5"]


def test_annihilator_rejects_zero():
    with pytest.raises(ValueError):
        annihilator(InverseForm.zero(3))


def test_macaulay_inverse_examples(ex_2_5, ex_3_7):
    F = macaulay_inverse(ex_2_5)
    assert F == dual({(2, 0, 0): 1, (0, 2, 0): 1, (0, 0, 2): 1})
    F7 = macaulay_inverse(ex_3_7)
    assert F7 == dual({(2, 2, 0): 1, (2, 0, 2): 1, (0, 2, 2): 1})


def test_macaulay_inverse_single_variable():
    I = GradedIdeal(1, [MultiPoly.variable(0, 1) ** 5], QQ)
    F = macaulay_inverse(I)
    assert F == InverseForm(1, {(4,): QQ.one})


def test_macaulay_inverse_rejects_non_gorenstein(tower_d3):
    with pytest.raises(NotGorensteinError):
        macaulay_inverse(tower_d3)


def test_annihilator_round_trip(ex_2_5, ex_3_7, ex_4_5, ex_4_9):
    for I in (ex_2_5, ex_3_7, ex_4_5, ex_4_9):
        assert annihilator(macaulay_inverse(I)).equals(I)


def test_catalecticant_symmetry(ex_3_7):
    """Kernel-complement dimensions mirror the Hilbert function symmetry."""
    F = macaulay_inverse(ex_3_7)
    s = F.degree()
    for t in range(s + 1):
        rank_t = monomial_count(3, t) - brute_force_annihilator_dim(F, t)
        rank_mirror = monomial_count(3, s - t) - \
            brute_force_annihilator_dim(F, s - t)
        assert rank_t == rank_mirror == ex_3_7.hilbert_function(t)


def test_newton_dual_plain():
    f = P("x*y + z^2")
    assert newton_dual(f) == P("z^2 + x*y")
    g = P("x^2*y + y^2*z")
    # directrix (2, 2, 1)
    assert newton_dual(g) == P("y*z + x^2")


def test_newton_dual_involution_without_monomial_factor():
    rng = random.Random(31)
    count = 0
    while count < 25:
        f = random_form(rng, rng.randint(2, 4), density=0.6)
        if any(min(e[i] for e in f.terms) > 0 for i in range(3)):
            continue  # monomial factor: involutivity not promised
        count += 1
        assert newton_dual(newton_dual(f)) == f


def test_socle_dual_examples():
    f = P("x^2*y^2 + x^2*z^2 + y^2*z^2")
    F = socle_newton_dual(f, 3)
    assert F == dual({(0, 0, 2): 1, (0, 2, 0): 1, (2, 0, 0): 1})


def test_socle_dual_involution():
    rng = random.Random(33)
    for _ in range(50):
        m = rng.randint(2, 4)
        deg = rng.randint(1, min(3 * (m - 1), 5))
        f = random_form(rng, deg, density=0.6)
        if any(max(e) > m - 1 for e in f.terms):
            with pytest.raises(ValueError):
                socle_newton_dual(f, m)
            continue
        F = socle_newton_dual(f, m)
        assert isinstance(F, InverseForm)
        assert socle_newton_dual(F, m) == f


def test_socle_dual_rejects_terms_inside_pure_powers():
    with pytest.raises(ValueError):
        socle_newton_dual(P("x^3 + y*z"), 3)


def test_directrix_form_examples(ex_2_5, ex_3_7):
    f = directrix_form(ex_2_5, 3)
    assert f == P("x^2*y^2 + x^2*z^2 + y^2*z^2")
    f37 = directrix_form(ex_3_7, 3)
    assert f37 == P("x^2 + y^2 + z^2")
    f37_5 = directrix_form(ex_3_7, 5)
    assert f37_5 == P("x^4*y^2*z^2 + x^2*y^4*z^2 + x^2*y^2*z^4")
    assert f37_5.homogeneous_degree() == 3 * 4 - 4


def test_directrix_colon_identity(ex_2_5, ex_3_7):
    for I, m in ((ex_2_5, 3), (ex_3_7, 3), (ex_3_7, 5)):
        f = directrix_form(I, m)
        assert all(not mono_divides((m, 0, 0), e) and
                   not mono_divides((0, m, 0), e) and
                   not mono_divides((0, 0, m), e) for e in f.terms)
        assert variable_power_ideal(3, m).colon(f).equals(I)


def test_directrix_precondition_errors(ex_3_7, tower_d3):
    with pytest.raises(ValueError):
        directrix_form(ex_3_7, 2)  # x^2 is not inside the ideal
    with pytest.raises(NotGorensteinError):
        directrix_form(tower_d3, 4)


def test_inverse_form_printing():
    F = dual({(2, 0, 0): 1, (0, 1, 1): -2})
    assert str(F) == "X^2 - 2*Y*Z"
    assert repr(F) == "InverseForm('X^2 - 2*Y*Z')"
    assert repr(InverseForm.zero(3)) == "InverseForm('0')"


def test_polynomials_and_dual_forms_do_not_mix():
    f, F = P("x"), dual({(1, 0, 0): 1})
    assert f.terms == F.terms
    assert f != F and F != f
    for a, b in ((f, F), (F, f)):
        with pytest.raises(TypeError):
            a + b
    with pytest.raises(TypeError):
        f * F
    with pytest.raises(TypeError):
        f - F
    assert F + F == F.scale(2) == dual({(1, 0, 0): 2})
    assert type(F + F) is InverseForm and type(F.scale(0)) is InverseForm
    assert not isinstance(F, MultiPoly)
    with pytest.raises(TypeError, match="generators must be MultiPoly"):
        GradedIdeal(3, [F])


def test_inverse_form_rejects_inhomogeneous_terms(capsys):
    with pytest.raises(ValueError, match="^inverse forms must be homogeneous$"):
        InverseForm(3, {(1, 0, 0): 1, (0, 0, 2): 1})
    with pytest.raises(ValueError, match="^inverse forms must be homogeneous$"):
        dual({(2, 0, 0): 1}) + dual({(0, 1, 0): 1})
    assert main(["ann", "--dual=X^2+Y"]) == 1
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == "error: inverse forms must be homogeneous\n"


def test_random_directrix_round_trip():
    """Start from a random form with no term inside the pure powers, colon,
    and recover it (up to scalar) through the inverse-system route."""
    rng = random.Random(123)
    done = 0
    while done < 10:
        m = 3
        deg = rng.choice([2, 3, 4])
        terms = {}
        for e in monomials_of_degree(3, deg):
            if max(e) <= m - 1 and rng.random() < 0.6:
                c = rng.randint(-5, 5)
                if c:
                    terms[e] = QQ.of(c)
        if not terms:
            continue
        f = MultiPoly(3, terms, QQ)
        I = variable_power_ideal(3, m).colon(f)
        rep = I.socle_report()
        assert rep.is_gorenstein
        assert rep.socle_degree == 3 * (m - 1) - deg
        g = directrix_form(I, m)
        e0 = next(iter(f.terms))
        ratio = QQ.div(g.terms[e0], f.terms[e0])
        assert g == f.scale(ratio)
        done += 1
