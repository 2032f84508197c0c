from fractions import Fraction

import pytest

from gor3.fields import GF, QQ, FieldError, field_from_spec


def test_rational_basics():
    a = QQ.of(Fraction(3, 6))
    assert a == Fraction(1, 2)
    assert a.denominator > 0
    assert QQ.add(a, QQ.of(1)) == Fraction(3, 2)
    assert QQ.inv(Fraction(-2, 3)) == Fraction(-3, 2)
    assert QQ.is_zero(QQ.sub(a, a))


def test_prime_field_residues():
    F = GF(7)
    assert F.of(-1) == 6
    assert F.of(Fraction(1, 2)) == 4  # 2 * 4 = 8 = 1 mod 7
    assert F.mul(3, 5) == 1
    assert F.inv(3) == 5
    assert all(0 <= F.of(k) < 7 for k in range(-20, 20))


def test_primality_enforced():
    with pytest.raises(FieldError):
        GF(6)
    with pytest.raises(FieldError):
        GF(1)
    GF(2)
    GF(2147483629)  # largest prime below 2^31


def test_denominator_divisible_by_p():
    F = GF(5)
    with pytest.raises(FieldError):
        F.of(Fraction(1, 5))


def test_field_spec_parsing():
    assert field_from_spec("q") == QQ
    assert field_from_spec("fp:97") == GF(97)
    with pytest.raises(FieldError):
        field_from_spec("fp:10")
    with pytest.raises(FieldError):
        field_from_spec("real")


def test_equality_and_hash():
    assert GF(5) == GF(5)
    assert GF(5) != GF(7)
    assert QQ != GF(5)
    assert hash(GF(5)) == hash(GF(5))


def test_rational_inverse_and_quotient_are_fractions():
    # int arguments must not fall through to float division
    for value, expected in ((QQ.inv(2), Fraction(1, 2)), (QQ.div(1, 3), Fraction(1, 3)),
                            (QQ.div(-4, 6), Fraction(-2, 3)), (QQ.inv(-7), Fraction(-1, 7)),
                            (QQ.div(Fraction(1, 2), 3), Fraction(1, 6)),
                            (QQ.div(5, Fraction(2, 3)), Fraction(15, 2))):
        assert type(value) is Fraction and value == expected
    assert type(QQ.div(6, 3)) is Fraction
    with pytest.raises(ZeroDivisionError):
        QQ.inv(0)
    with pytest.raises(ZeroDivisionError):
        QQ.div(1, Fraction(0))


def test_integral_rationals_are_ints():
    for value in (QQ.of(3), QQ.of(Fraction(4, 2)), QQ.of(True), QQ.of(Fraction(-6, 3)),
                  QQ.one, QQ.zero):
        assert type(value) is int
    assert QQ.of(True) == 1 and QQ.of(False) == 0
    assert QQ.of(Fraction(4, 2)) == 2 and QQ.of(Fraction(-6, 3)) == -2
    assert type(QQ.of(Fraction(1, 2))) is Fraction
    assert (QQ.one, QQ.zero) == (1, 0)
    # sums and products of ints stay ints
    assert type(QQ.add(QQ.mul(QQ.of(2), QQ.of(3)), QQ.one)) is int
    with pytest.raises(FieldError):
        QQ.of(0.5)


def test_rational_rows_stay_fractions():
    rows = QQ.scalar_rows([0, 2], [[2, 0, 0, 1], [0, 0, 3, 6]])
    assert rows == [[1, 0, 0, Fraction(1, 2)], [0, 0, 1, 2]]
    assert all(type(v) is Fraction for row in rows for v in row)
