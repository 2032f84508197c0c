"""Sparse multivariate polynomials with exact coefficients.

A polynomial is a mapping from exponent tuples to nonzero field scalars.
Graded pieces of ideals are handled as dense vectors over the canonical
monomial basis, so MultiPoly only needs ring arithmetic, substitution and
conversion to/from coefficient vectors.  Sums, products and powers are
module-level functions on bare term maps, so that the text parser and
substitution evaluate a whole expression before they build one polynomial;
the ideals module multiplies its integer terms with the same product.  The
storage, validation, vectors and printing live in one sparse-form base that
the dual forms of apolarity.InverseForm share; only MultiPoly has ring
operations, and the two kinds of form never mix.
"""

from __future__ import annotations

from .fields import QQ
from .monomials import (
    default_var_names,
    deglex_key,
    mono_mul,
    monomials_of_degree,
)


def _add_terms(acc, terms, field):
    """Add the term map ``terms`` into the term map ``acc`` in place.  A new
    exponent goes to the end of ``acc``; a cancelled one is removed."""
    add, is_zero, zero = field.add, field.is_zero, field.zero
    for e, c in terms.items():
        c = add(acc.get(e, zero), c)
        if is_zero(c):
            acc.pop(e, None)
        else:
            acc[e] = c


def _term_product(a, b, field):
    """Product of two term maps {exponent tuple: nonzero scalar}, as a new
    term map whose exponents appear in the order their products are first
    met; a cancelled exponent is removed and, if met again, goes last."""
    add, mul, is_zero = field.add, field.mul, field.is_zero
    out = {}
    for e1, c1 in a.items():
        for e2, c2 in b.items():
            e = mono_mul(e1, e2)
            c = mul(c1, c2)     # nonzero: a field has no zero divisors
            if e in out:
                c = add(out[e], c)
                if is_zero(c):
                    del out[e]
                    continue
            out[e] = c
    return out


def _term_power(terms, k, n, field):
    """terms ** k (k >= 0) by square-and-multiply; for k >= 1 the result
    may be ``terms`` itself, so the caller must not mutate it."""
    if k == 0:
        return {(0,) * n: field.one}
    result = None
    while k:
        if k & 1:
            result = terms if result is None else _term_product(result, terms, field)
        if k > 1:
            terms = _term_product(terms, terms, field)
        k >>= 1
    return result


class _SparseForm:
    """A map from exponent tuples to nonzero field scalars: the storage,
    validation, sums, vectors, equality and printing that polynomials and
    dual forms share.  Subclasses differ in how R acts on them."""

    __slots__ = ("n", "field", "terms")
    dual = False        # default variable names: x, y, z or X, Y, Z

    def __init__(self, n, terms=None, field=QQ):
        self.n = n
        self.field = field
        clean = {}
        if terms:
            for exps, coeff in terms.items():
                if len(exps) != n:
                    raise ValueError(
                        f"exponent vector {exps} has wrong length (ambient n={n})")
                if any(e < 0 for e in exps):
                    raise ValueError(f"negative exponent in {exps}")
                if not field.is_zero(coeff):
                    clean[tuple(exps)] = coeff
        self.terms = clean

    @classmethod
    def zero(cls, n, field=QQ):
        return cls(n, {}, field)

    def is_zero(self) -> bool:
        return not self.terms

    def degree(self) -> int:
        """Total degree; -1 for the zero form."""
        if not self.terms:
            return -1
        return max(sum(e) for e in self.terms)

    def is_homogeneous(self) -> bool:
        degs = {sum(e) for e in self.terms}
        return len(degs) <= 1

    def homogeneous_degree(self) -> int:
        """Degree of a nonzero homogeneous form."""
        degs = {sum(e) for e in self.terms}
        if len(degs) != 1:
            raise ValueError("polynomial is zero or not homogeneous")
        return degs.pop()

    def _check_compatible(self, other):
        if type(other) is not type(self):
            raise TypeError(f"cannot combine {type(self).__name__} "
                            f"with {type(other).__name__}")
        if self.n != other.n:
            raise ValueError("ambient variable counts differ")
        if self.field != other.field:
            raise ValueError("coefficient fields differ")

    def __add__(self, other):
        self._check_compatible(other)
        terms = dict(self.terms)
        _add_terms(terms, other.terms, self.field)
        return type(self)(self.n, terms, self.field)

    def scale(self, scalar):
        c = self.field.of(scalar)
        field = self.field
        return type(self)(self.n,
                          {e: field.mul(v, c) for e, v in self.terms.items()},
                          field)

    def to_vector(self, t=None):
        """Dense coefficient vector over the canonical degree-t basis."""
        if t is None:
            t = self.homogeneous_degree()
        elif self.terms and not all(sum(e) == t for e in self.terms):
            raise ValueError(f"polynomial is not homogeneous of degree {t}")
        zero = self.field.zero
        return [self.terms.get(e, zero) for e in monomials_of_degree(self.n, t)]

    @classmethod
    def from_vector(cls, n, t, vec, field=QQ):
        basis = monomials_of_degree(n, t)
        if len(vec) != len(basis):
            raise ValueError("vector length does not match the graded basis")
        return cls(n, {e: c for e, c in zip(basis, vec)}, field)

    def sorted_terms(self):
        """Terms in display order: highest degree first, deg-lex within."""
        return sorted(self.terms.items(),
                      key=lambda item: deglex_key(item[0]), reverse=True)

    def __eq__(self, other):
        return (type(other) is type(self) and self.n == other.n
                and self.field == other.field and self.terms == other.terms)

    def __hash__(self):
        return hash((self.n, self.field, frozenset(self.terms.items())))

    def format(self, var_names=None) -> str:
        if var_names is None:
            var_names = default_var_names(self.n, dual=self.dual)
        if not self.terms:
            return "0"
        field = self.field
        parts = []
        for exps, coeff in self.sorted_terms():
            factors = []
            for name, e in zip(var_names, exps):
                if e == 1:
                    factors.append(name)
                elif e > 1:
                    factors.append(f"{name}^{e}")
            text = field.fmt(coeff)
            negative = text.startswith("-")
            if negative:
                text = text[1:]
            if factors:
                mono = "*".join(factors)
                body = mono if text == "1" else f"{text}*{mono}"
            else:
                body = text
            if not parts:
                parts.append(f"-{body}" if negative else body)
            else:
                parts.append(f"- {body}" if negative else f"+ {body}")
        return " ".join(parts)

    def __str__(self):
        return self.format()

    def __repr__(self):
        return f"{type(self).__name__}({self.format()!r})"


class MultiPoly(_SparseForm):
    """A polynomial of R = k[x_1..x_n]: a sparse form with ring operations."""

    __slots__ = ()

    @classmethod
    def constant(cls, n, value, field=QQ):
        return cls(n, {(0,) * n: field.of(value)}, field)

    @classmethod
    def variable(cls, i, n, field=QQ):
        e = [0] * n
        e[i] = 1
        return cls(n, {tuple(e): field.one}, field)

    @classmethod
    def monomial(cls, exps, coeff=1, field=QQ):
        return cls(len(exps), {tuple(exps): field.of(coeff)}, field)

    def coefficient(self, exps):
        return self.terms.get(tuple(exps), self.field.zero)

    def __neg__(self):
        field = self.field
        return MultiPoly(self.n,
                         {e: field.neg(c) for e, c in self.terms.items()},
                         field)

    def __sub__(self, other):
        return self + (-other)

    def __mul__(self, other):
        if not isinstance(other, _SparseForm):
            return self.scale(other)
        self._check_compatible(other)
        return MultiPoly(self.n, _term_product(self.terms, other.terms, self.field),
                         self.field)

    def __rmul__(self, other):
        return self.scale(other)

    def __pow__(self, k):
        if k < 0:
            raise ValueError("negative power")
        return MultiPoly(self.n, _term_power(self.terms, k, self.n, self.field),
                         self.field)

    def substitute(self, images):
        """Ring-homomorphism image: variable i goes to images[i].  Each term
        is a product of cached powers of the images, all on term maps."""
        if len(images) != self.n:
            raise ValueError(
                f"need {self.n} images, got {len(images)}")
        if not images:
            raise ValueError("empty image list")
        m = images[0].n
        field = self.field
        for g in images:
            if g.n != m or g.field != field:
                raise ValueError("images live in incompatible rings")
        out = {}
        powers = [{} for _ in range(self.n)]
        one = (0,) * m
        for exps, coeff in self.terms.items():
            term = {one: field.of(coeff)}
            for i, e in enumerate(exps):
                if e:
                    cache = powers[i]
                    if e not in cache:
                        cache[e] = _term_power(images[i].terms, e, m, field)
                    term = _term_product(term, cache[e], field)
            _add_terms(out, term, field)
        return MultiPoly(m, out, field)


def power_substitution(f: MultiPoly, p: int) -> MultiPoly:
    """Image of f under x_i -> x_i^p (exponent scaling, coefficients kept)."""
    if p < 1:
        raise ValueError("power must be >= 1")
    return MultiPoly(f.n,
                     {tuple(e * p for e in exps): c
                      for exps, c in f.terms.items()},
                     f.field)
