"""The term-map parser against the MultiPoly-arithmetic reference parser:
equal polynomials on random texts, equal errors on malformed ones, and no
polynomial arithmetic while parsing."""

import random

import pytest

from gor3.fields import GF, QQ, FieldError
from gor3.parsing import PolyParseError, is_name, parse_poly, parse_poly_list
from gor3.poly import MultiPoly
from oracles import parse_poly_by_arithmetic

VARS = ["x", "y", "z"]
FIELDS = [QQ, GF(32003)]


def _space(rng):
    return rng.choice(["", "", " ", "  ", "\t"])


def _factor(rng, depth):
    r = rng.random()
    if depth > 0 and r < 0.3:
        text = "(" + _expr(rng, depth - 1) + ")"
    elif r < 0.65:
        text = rng.choice(VARS)
    elif r < 0.85:
        text = str(rng.randint(0, 12))
    else:
        text = f"{rng.randint(0, 12)}/{rng.randint(1, 9)}"
    if rng.random() < 0.35:
        text += _space(rng) + "^" + _space(rng) + str(rng.randint(0, 3))
    return text


def _term(rng, depth):
    glue = _space(rng) + "*" + _space(rng)
    return glue.join(_factor(rng, depth) for _ in range(rng.randint(1, 3)))


def _expr(rng, depth):
    parts = []
    for i in range(rng.randint(1, 3)):
        sign = rng.choice(["", "", "-", "+"]) if i == 0 else rng.choice("+-")
        parts.append(sign + _space(rng) + _term(rng, depth))
    return _space(rng).join(parts)


def random_texts(seed, count):
    rng = random.Random(seed)
    texts = []
    for _ in range(count):
        text = _expr(rng, 2)
        if rng.random() < 0.15:
            # the same text subtracted from itself cancels to 0
            text = f"{text} - ({text})"
        texts.append(_space(rng) + text + _space(rng))
    return texts


def outcome(parse, text, field):
    """(polynomial, None) or (None, (error type, message, position))."""
    try:
        return parse(text, VARS, field), None
    except (PolyParseError, FieldError) as exc:
        return None, (type(exc), str(exc), getattr(exc, "pos", None))


@pytest.mark.parametrize("field", FIELDS, ids=str)
def test_random_texts_parse_to_the_arithmetic_answer(field):
    texts = random_texts(20, 300)
    zeros = 0
    for text in texts:
        got = parse_poly(text, VARS, field)
        want = parse_poly_by_arithmetic(text, VARS, field)
        assert got == want, text
        # same term order too, so callers that iterate terms see no change
        assert list(got.terms) == list(want.terms), text
        zeros += got.is_zero()
    assert zeros >= 30


@pytest.mark.parametrize("field", FIELDS, ids=str)
def test_mangled_texts_fail_like_the_arithmetic_parser(field):
    rng = random.Random(21)
    alphabet = "xyzw0123/^*+-() $"
    failures = 0
    for text in random_texts(22, 150):
        chars = list(text)
        for _ in range(rng.randint(1, 2)):
            i = rng.randrange(len(chars) + 1)
            if chars and rng.random() < 0.5:
                del chars[min(i, len(chars) - 1)]
            else:
                chars.insert(i, rng.choice(alphabet))
        mangled = "".join(chars)
        got = outcome(parse_poly, mangled, field)
        assert got == outcome(parse_poly_by_arithmetic, mangled, field), mangled
        failures += got[1] is not None
    assert failures >= 50


MALFORMED = [
    ("x + $", "unexpected character '$'", 4),
    ("x^²", "unexpected character '²'", 2),
    ("x + w", "unknown variable 'w'", 4),
    ("(x + y", "expected ')', found None", 6),
    ("((x)", "expected ')', found None", 4),
    ("x + y)", "unexpected ')'", 5),
    ("x +", "unexpected None", 3),
    ("", "unexpected None", 0),
    ("x / y", "unexpected '/'", 2),
    ("/2", "'/' is only allowed inside a rational coefficient", 0),
    ("2/x", "expected 'int', found 'x'", 2),
    ("1/0*x", "zero denominator", 2),
    ("x*-y", "unexpected '-'", 2),
    ("x++y", "unexpected '+'", 2),
    ("x^-1", "expected 'int', found '-'", 2),
    ("x^2^3", "unexpected '^'", 3),
    ("3 4", "unexpected 4", 2),
]


@pytest.mark.parametrize("field", FIELDS, ids=str)
@pytest.mark.parametrize("text,message,pos", MALFORMED,
                         ids=[repr(row[0]) for row in MALFORMED])
def test_malformed_text_errors(field, text, message, pos):
    expected = (PolyParseError, f"{message} (at position {pos})", pos)
    assert outcome(parse_poly, text, field) == (None, expected)
    assert outcome(parse_poly_by_arithmetic, text, field) == (None, expected)


def test_denominator_divisible_by_the_prime():
    field = GF(32003)
    got = outcome(parse_poly, "x + 1/32003*y", field)
    assert got == outcome(parse_poly_by_arithmetic, "x + 1/32003*y", field)
    assert got[1][0] is FieldError


def test_parsing_makes_one_polynomial_per_generator(monkeypatch):
    built = []
    mul_calls = []
    init, mul = MultiPoly.__init__, MultiPoly.__mul__

    def counting_init(self, *args, **kwargs):
        built.append(1)
        init(self, *args, **kwargs)

    def counting_mul(self, other):
        mul_calls.append(1)
        return mul(self, other)

    monkeypatch.setattr(MultiPoly, "__init__", counting_init)
    monkeypatch.setattr(MultiPoly, "__mul__", counting_mul)
    gens = parse_poly_list(
        "x^3, y^3, z^3, x^2*y - 2*x*y*z, (x+y+z)^2*z, 1/2*x*y^2 + 3*y*z^2,"
        " -(x - y)^3", VARS)
    assert len(gens) == 7
    assert len(built) == 7
    assert mul_calls == []


@pytest.mark.parametrize("text", ["x", "_", "x_1", "Y2", "abc", "x²", "é"])
def test_a_name_is_read_as_its_variable(text):
    assert is_name(text)
    assert parse_poly(text, [text]) == MultiPoly.variable(0, 1, QQ)


@pytest.mark.parametrize("text", ["", " x", "x ", "a b", "2", "2x", "z*", "x^2",
                                  "x-y", "(x)", "x.y", "²"])
def test_a_non_name_is_never_read_as_one_variable(text):
    assert not is_name(text)
    try:
        parsed = parse_poly(text, [text])
    except (PolyParseError, ValueError):
        return
    assert parsed != MultiPoly.variable(0, 1, QQ)
