"""Text grammar for polynomials.

Terms are separated by + and -; a term is a coefficient, coeff*monomial or
a bare monomial; monomials are var(^exp)? factors joined by *.  Coefficients
are integers or a/b rationals; parenthesized subexpressions may be raised to
integer powers.  The printer in MultiPoly.format round-trips through this
grammar up to term order.

The evaluator works on one term map, {exponent tuple: nonzero scalar}, per
subexpression, combined by the same term-map sum, product and power that
MultiPoly's own +, * and ** use, and builds one MultiPoly per text at the
end: no polynomial objects while parsing.
"""

from __future__ import annotations

from fractions import Fraction

from .fields import QQ
from .poly import MultiPoly, _add_terms, _term_power, _term_product


class PolyParseError(ValueError):
    def __init__(self, message, pos):
        super().__init__(f"{message} (at position {pos})")
        self.pos = pos


_OPS = set("+-*^/()")


def _tokenize(text):
    tokens = []
    i = 0
    while i < len(text):
        ch = text[i]
        if ch.isspace():
            i += 1
            continue
        if ch in _OPS:
            tokens.append((ch, ch, i))
            i += 1
            continue
        if ch.isdecimal():
            j = i
            while j < len(text) and text[j].isdecimal():
                j += 1
            tokens.append(("int", int(text[i:j]), i))
            i = j
            continue
        if ch.isalpha() or ch == "_":
            j = i
            while j < len(text) and (text[j].isalnum() or text[j] == "_"):
                j += 1
            tokens.append(("name", text[i:j], i))
            i = j
            continue
        raise PolyParseError(f"unexpected character {ch!r}", i)
    tokens.append(("end", None, len(text)))
    return tokens


class _Parser:
    """Recursive descent over the tokens.  Every subexpression evaluates to
    a fresh term map {exponent tuple: nonzero scalar} owned by its caller;
    only ``parse`` builds a MultiPoly."""

    def __init__(self, text, var_names, field):
        self.tokens = _tokenize(text)
        self.pos = 0
        self.n = len(var_names)
        self.vars = {name: i for i, name in enumerate(var_names)}
        self.field = field

    def peek(self):
        return self.tokens[self.pos]

    def next(self):
        tok = self.tokens[self.pos]
        self.pos += 1
        return tok

    def expect(self, kind):
        tok = self.next()
        if tok[0] != kind:
            raise PolyParseError(f"expected {kind!r}, found {tok[1]!r}", tok[2])
        return tok

    def parse(self):
        terms = self.expr()
        tok = self.peek()
        if tok[0] != "end":
            raise PolyParseError(f"unexpected {tok[1]!r}", tok[2])
        return MultiPoly(self.n, terms, self.field)

    def expr(self):
        neg = self.field.neg
        sign = self.peek()[0]
        if sign in "+-":
            self.next()
        acc = self.term()
        if sign == "-":
            acc = {e: neg(c) for e, c in acc.items()}
        while True:
            kind = self.peek()[0]
            if kind != "+" and kind != "-":
                return acc
            self.next()
            terms = self.term()
            if kind == "-":
                terms = {e: neg(c) for e, c in terms.items()}
            _add_terms(acc, terms, self.field)

    def term(self):
        acc = self.factor()
        while self.peek()[0] == "*":
            self.next()
            acc = _term_product(acc, self.factor(), self.field)
        return acc

    def factor(self):
        base = self.base()
        if self.peek()[0] != "^":
            return base
        self.next()
        return _term_power(base, self.expect("int")[1], self.n, self.field)

    def base(self):
        tok = self.next()
        kind, value, pos = tok
        if kind == "int":
            if self.peek()[0] == "/":
                self.next()
                den = self.expect("int")
                if den[1] == 0:
                    raise PolyParseError("zero denominator", den[2])
                coeff = self.field.of(Fraction(value, den[1]))
            else:
                coeff = self.field.of(value)
            if self.field.is_zero(coeff):
                return {}
            return {(0,) * self.n: coeff}
        if kind == "name":
            idx = self.vars.get(value)
            if idx is None:
                raise PolyParseError(f"unknown variable {value!r}", pos)
            e = [0] * self.n
            e[idx] = 1
            return {tuple(e): self.field.one}
        if kind == "(":
            inner = self.expr()
            self.expect(")")
            return inner
        if kind == "/":
            raise PolyParseError(
                "'/' is only allowed inside a rational coefficient", pos)
        raise PolyParseError(f"unexpected {value!r}", pos)


def is_name(text: str) -> bool:
    """Whether the text is read as exactly one name token (a letter or _,
    then letters, digits or _), the only way a variable can be written."""
    try:
        tokens = _tokenize(text)
    except PolyParseError:
        return False
    return len(tokens) == 2 and tokens[0][:2] == ("name", text)


def parse_poly(text: str, var_names, field=QQ) -> MultiPoly:
    """Parse a polynomial over the given variables."""
    return _Parser(text, list(var_names), field).parse()


def parse_poly_list(text: str, var_names, field=QQ):
    """Polynomials separated by commas or newlines, so that a file may hold
    one per line; each item is stripped and empty items are skipped."""
    items = (part.strip() for part in text.replace("\n", ",").split(","))
    return [parse_poly(item, var_names, field) for item in items if item]
