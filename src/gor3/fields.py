"""Exact coefficient fields: the rationals and prime fields.

Field objects carry the arithmetic; the scalars themselves are unboxed:
over QQ ints and ``fractions.Fraction`` values, over GF(p) ints in
``[0, p)``.  QQ.of gives an int for every integral value and ints stay ints
under +, - and *, so integral coefficients never pay for Fraction
arithmetic; ints and Fractions mix exactly and print alike.  QQ's inverse
and quotient are always Fractions, never floats.  Graded pieces hold
integer rows and ``linalg`` reduces only integer rows; each field converts
its own scalars to them (integer_row) and an integer RREF back to leading-1
rows (scalar_rows).
"""

from __future__ import annotations

from fractions import Fraction
from math import gcd


class FieldError(ValueError):
    pass


def _is_prime(p: int) -> bool:
    if p < 2:
        return False
    if p % 2 == 0:
        return p == 2
    d = 3
    while d * d <= p:
        if p % d == 0:
            return False
        d += 2
    return True


class RationalField:
    """Arbitrary-precision rational arithmetic (characteristic 0)."""

    name = "QQ"
    characteristic = 0

    def __init__(self):
        self.zero = 0
        self.one = 1

    def of(self, value):
        """Coerce an int or Fraction into the field: an int when the value
        is integral (int(), so that a bool becomes 1 or 0), else the
        Fraction."""
        if isinstance(value, int):
            return int(value)
        if isinstance(value, Fraction):
            return value.numerator if value.denominator == 1 else value
        raise FieldError(f"cannot coerce {value!r} into QQ")

    def add(self, a, b):
        return a + b

    def sub(self, a, b):
        return a - b

    def mul(self, a, b):
        return a * b

    def neg(self, a):
        return -a

    def inv(self, a):
        if a == 0:
            raise ZeroDivisionError("inverse of zero")
        return Fraction(1, a)

    def div(self, a, b):
        if b == 0:
            raise ZeroDivisionError("division by zero")
        return Fraction(a, b)

    def is_zero(self, a) -> bool:
        return a == 0

    def integer_row(self, vec):
        """(ints, lcm): the vector of Fractions or ints times the lcm of
        its denominators."""
        lcm = 1
        for v in vec:
            d = v.denominator
            if d != 1:
                lcm = lcm // gcd(lcm, d) * d
        return [v.numerator * (lcm // v.denominator) if v else 0 for v in vec], lcm

    def scalar_rows(self, pivots, rows):
        """The leading-1 Fraction rows of an integer RREF."""
        zero = Fraction(0)
        return [[Fraction(v, row[p]) if v else zero for v in row]
                for p, row in zip(pivots, rows)]

    def fmt(self, a) -> str:
        return str(a)

    def __eq__(self, other):
        return isinstance(other, RationalField)

    def __hash__(self):
        return hash("QQ")

    def __repr__(self):
        return "QQ"


class PrimeField:
    """Arithmetic modulo a prime p; residues stored in [0, p)."""

    characteristic: int

    def __init__(self, p: int):
        if not isinstance(p, int) or not _is_prime(p):
            raise FieldError(f"modulus {p!r} is not prime")
        if p >= 1 << 31:
            raise FieldError("modulus too large (must fit in 31 bits)")
        self.p = p
        self.characteristic = p
        self.name = f"GF({p})"
        self.zero = 0
        self.one = 1 % p

    def of(self, value):
        if isinstance(value, int):
            return value % self.p
        if isinstance(value, Fraction):
            den = value.denominator % self.p
            if den == 0:
                raise FieldError(
                    f"denominator {value.denominator} is divisible by {self.p}")
            return value.numerator * pow(den, self.p - 2, self.p) % self.p
        raise FieldError(f"cannot coerce {value!r} into {self.name}")

    def add(self, a, b):
        return (a + b) % self.p

    def sub(self, a, b):
        return (a - b) % self.p

    def mul(self, a, b):
        return a * b % self.p

    def neg(self, a):
        return -a % self.p

    def inv(self, a):
        a %= self.p
        if a == 0:
            raise ZeroDivisionError("inverse of zero")
        return pow(a, self.p - 2, self.p)

    def div(self, a, b):
        return a * self.inv(b) % self.p

    def is_zero(self, a) -> bool:
        return a % self.p == 0

    def integer_row(self, vec):
        """(ints, 1): residues are integers already."""
        return list(vec), 1

    def scalar_rows(self, pivots, rows):
        """An integer RREF over GF(p) is its leading-1 rows already."""
        return rows

    def fmt(self, a) -> str:
        return str(a % self.p)

    def __eq__(self, other):
        return isinstance(other, PrimeField) and other.p == self.p

    def __hash__(self):
        return hash(("GF", self.p))

    def __repr__(self):
        return self.name


QQ = RationalField()


def GF(p: int) -> PrimeField:
    return PrimeField(p)


def field_from_spec(spec: str):
    """Parse a field given on the command line: ``q`` or ``fp:<prime>``."""
    spec = spec.strip().lower()
    if spec in ("q", "qq", "rational"):
        return QQ
    if spec.startswith("fp:"):
        try:
            p = int(spec[3:])
        except ValueError:
            raise FieldError(f"bad prime in field spec {spec!r}")
        return GF(p)
    raise FieldError(f"unknown field spec {spec!r} (expected 'q' or 'fp:<prime>')")
