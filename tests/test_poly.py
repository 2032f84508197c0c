import random
from fractions import Fraction

import pytest

from gor3 import rewrite_in_linear_forms
from gor3.fields import GF, QQ
from gor3.monomials import monomials_of_degree
from gor3.parsing import PolyParseError, parse_poly
from gor3.poly import MultiPoly, power_substitution
from oracles import leading_monomial, substitute_by_objects

VARS = ["x", "y", "z"]


def P(text, field=QQ):
    return parse_poly(text, VARS, field)


def random_form(rng, n, degree, field=QQ, density=0.6):
    terms = {}
    for e in monomials_of_degree(n, degree):
        if rng.random() < density:
            c = field.of(rng.randint(-9, 9))
            if not field.is_zero(c):
                terms[e] = c
    if not terms:
        e = list(monomials_of_degree(n, degree))[0]
        terms[e] = field.one
    return MultiPoly(n, terms, field)


def test_parse_simple():
    f = P("x^2 + y^2 + z^2")
    assert len(f.terms) == 3
    assert f.homogeneous_degree() == 2


def test_parse_cancellation():
    assert P("x*y - y*x").is_zero()


def test_parse_binomial_power():
    f = P("(x+y+z)^2")
    assert len(f.terms) == 6
    assert f.coefficient((1, 1, 0)) == 2
    assert f.coefficient((2, 0, 0)) == 1


def test_parse_rational_coefficients():
    f = P("1/2*x - 3/4*y + 2*z")
    assert f.coefficient((1, 0, 0)) == Fraction(1, 2)
    assert f.coefficient((0, 1, 0)) == Fraction(-3, 4)


def test_integral_rational_coefficients_are_ints():
    f = P("(x + 2*y - z)^3 + 4/2*x*y*z")
    assert f.terms and all(type(c) is int for c in f.terms.values())
    assert f.coefficient((1, 1, 1)) == -10
    one = MultiPoly.constant(1, True)
    assert str(one) == "1" and type(one.terms[(0,)]) is int
    g = P("1/2*x + 3*y - 4/2*z")
    assert [type(c) for _, c in g.sorted_terms()] == [Fraction, int, int]
    assert g.format() == "1/2*x + 3*y - 2*z"


def test_parse_errors_carry_position():
    with pytest.raises(PolyParseError):
        P("x +* y")
    with pytest.raises(PolyParseError):
        P("x + w")
    with pytest.raises(PolyParseError):
        P("x / y")
    with pytest.raises(PolyParseError) as exc_info:
        P("x + $")
    assert exc_info.value.pos == 4


def test_print_parse_round_trip():
    rng = random.Random(1)
    for _ in range(40):
        f = random_form(rng, 3, rng.randint(0, 4))
        assert P(f.format()) == f


def test_round_trip_mod_p():
    F = GF(13)
    rng = random.Random(2)
    for _ in range(20):
        f = random_form(rng, 3, rng.randint(1, 3), field=F)
        assert parse_poly(f.format(), VARS, F) == f


def test_product_of_homogeneous_is_homogeneous():
    rng = random.Random(3)
    for _ in range(20):
        a, b = rng.randint(1, 3), rng.randint(1, 3)
        f = random_form(rng, 3, a)
        g = random_form(rng, 3, b)
        h = f * g
        assert not h.is_zero()
        assert h.homogeneous_degree() == a + b


def test_substitute_square_map():
    f = P("x + y")
    images = [MultiPoly.variable(i, 3) ** 2 for i in range(3)]
    assert f.substitute(images) == P("x^2 + y^2")
    assert power_substitution(f, 2) == P("x^2 + y^2")


def test_substitute_linear():
    f = P("x*z")
    x, y, z = (MultiPoly.variable(i, 3) for i in range(3))
    assert f.substitute([x, y, x + y]) == P("x^2 + x*y")


@pytest.mark.parametrize("field", [QQ, GF(32003)], ids=repr)
def test_substitute_matches_term_by_term_polynomials(field):
    """The image and the order of its terms are those of building every
    term as a MultiPoly and adding it to a MultiPoly total."""
    rng = random.Random(6)
    for _ in range(40):
        n, m = rng.randint(1, 4), rng.randint(1, 4)
        f = random_form(rng, n, 0, field)
        for degree in range(1, 4):
            f = f + random_form(rng, n, degree, field)
        images = [random_form(rng, m, rng.randint(0, 2), field)
                  for _ in range(n)]
        got, want = f.substitute(images), substitute_by_objects(f, images)
        assert got == want and list(got.terms) == list(want.terms)
    # the y*z terms of (y + z)(y - z) cancel, and the constant 3 stays
    x, y, z = (MultiPoly.variable(i, 3, field) for i in range(3))
    f = P("x*y + 3", field)
    images = [y + z, y - z, x]
    got = f.substitute(images)
    assert got == P("y^2 - z^2 + 3", field)
    assert list(got.terms) == list(substitute_by_objects(f, images).terms)


def test_substitution_ambient_mismatch():
    f = P("x + y")
    with pytest.raises(ValueError):
        f.substitute([MultiPoly.variable(0, 3)])


def test_exponent_scaling_commutes_with_leading_monomial():
    """The leading monomial of the image under x_i -> x_i^p is the image of
    the leading monomial, in deg-lex order."""
    rng = random.Random(4)
    for trial in range(100):
        n = rng.choice([2, 3, 4])
        f = random_form(rng, n, rng.randint(1, 4), density=0.5)
        p = rng.randint(2, 4)
        lifted = power_substitution(f, p)
        expected = tuple(e * p for e in leading_monomial(f))
        assert leading_monomial(lifted) == expected


def test_general_substitution_matches_power_substitution():
    rng = random.Random(5)
    for _ in range(10):
        f = random_form(rng, 3, rng.randint(1, 3))
        images = [MultiPoly.variable(i, 3) ** 2 for i in range(3)]
        assert f.substitute(images) == power_substitution(f, 2)


def test_rewrite_in_linear_forms_inverts():
    """Over QQ, with integer and Fraction coefficients, and over GF(32003),
    g(l_1, ..., l_n) = f; the forms [x + 32003*y, x, z] are independent over
    QQ alone."""
    for field in (QQ, GF(32003)):
        for texts, f_text in (
            (["x + y", "y", "z - x"], "x^2*z + y^3"),
            (["1/2*x + 2/3*y", "y - 3/4*z", "x - z"], "x^2*z - 5/7*y^3 + x*y"),
            (["z", "x", "y"], "x^3 + 2*x*y*z"),
        ):
            lines = [P(t, field) for t in texts]
            f = P(f_text, field)
            g = rewrite_in_linear_forms(f, lines)
            assert g.field == field
            assert g.substitute(lines) == f
    lines = [P("x + 32003*y"), P("x"), P("z")]
    f = P("x*y*z + y^3")
    assert rewrite_in_linear_forms(f, lines).substitute(lines) == f


def test_rewrite_rejects_dependent_lines():
    for field in (QQ, GF(32003)):
        with pytest.raises(ValueError):
            rewrite_in_linear_forms(P("x^2", field),
                                    [P("x", field), P("y", field), P("x + y", field)])
        with pytest.raises(ValueError):
            rewrite_in_linear_forms(P("x^2", field),
                                    [P("1/2*x - y", field), P("z", field),
                                     P("2*y - x", field)])
    # dependent mod 32003 only: [x + 32003*y, x, z] reads [x, x, z] there
    F = GF(32003)
    with pytest.raises(ValueError):
        rewrite_in_linear_forms(P("x^2", F), [P("x + 32003*y", F), P("x", F), P("z", F)])


def test_scale_and_pow():
    f = P("x - y")
    assert f.scale(0).is_zero()
    assert f ** 0 == P("1")
    assert f ** 3 == f * f * f


def _value_at(f, point):
    field = f.field
    total = field.zero
    for exps, c in f.terms.items():
        for x, e in zip(point, exps):
            c = field.mul(c, field.of(x) if e == 1 else field.of(x ** e))
        total = field.add(total, c)
    return total


@pytest.mark.parametrize("field", [QQ, GF(32003)], ids=["QQ", "GF32003"])
def test_ring_operations_agree_with_evaluation(field):
    # the term-map sum, product and power (shared with the parser) against
    # values at points, which use no polynomial arithmetic at all
    rng = random.Random(17)
    for _ in range(30):
        f = sum((random_form(rng, 3, d, field, 0.4) for d in range(3)),
                MultiPoly.zero(3, field))
        g = sum((random_form(rng, 3, d, field, 0.4) for d in range(3)),
                MultiPoly.zero(3, field))
        k = rng.randint(0, 5)
        point = [rng.randint(-5, 5) for _ in range(3)]
        fv, gv = _value_at(f, point), _value_at(g, point)
        assert _value_at(f + g, point) == field.add(fv, gv)
        assert _value_at(f * g, point) == field.mul(fv, gv)
        power = field.one
        for _ in range(k):
            power = field.mul(power, fv)
        assert _value_at(f ** k, point) == power
        assert (f - f).is_zero() and (f * (g - g)).is_zero()


def test_vector_round_trip():
    f = P("x^2 - 2*x*y + z^2")
    vec = f.to_vector(2)
    assert MultiPoly.from_vector(3, 2, vec) == f


def test_polynomial_sums_reject_dual_forms():
    from gor3.apolarity import InverseForm

    f = P("x^2 - 3*y*z")
    F = InverseForm(3, dict(f.terms))
    assert f != F
    assert len({f, F}) == 2
    for a, b in ((f, F), (F, f)):
        with pytest.raises(TypeError):
            a + b
    assert repr(f) == "MultiPoly('x^2 - 3*y*z')"
    assert str(F) == "X^2 - 3*Y*Z"
    assert type(f.scale(0)) is MultiPoly and f.scale(0).is_zero()
