"""Polynomial text for the query stream: generation and an independent reader.

The reader parses the printed form gor3 reports use (``3/2*x^2*y - z^3``)
into a dict from exponent tuples to Fractions, and the helpers below do the
little arithmetic the cross-checks need.  None of it calls gor3, so a check
built on it is a second route to the answer, not the same code run twice.
"""

from __future__ import annotations

import re
from fractions import Fraction
from itertools import combinations_with_replacement

P = 32003
_TERM = re.compile(r"\s*([+-])?\s*([^+-]+)")


def monomials(n, t):
    """All exponent tuples of degree t in n variables."""
    out = []
    for combo in combinations_with_replacement(range(n), t):
        e = [0] * n
        for i in combo:
            e[i] += 1
        out.append(tuple(e))
    return out


# ----------------------------------------------------------------------
# generation

def format_poly(terms, names):
    """Text in gor3's input grammar, terms in a fixed order."""
    parts = []
    for e, c in sorted(terms.items(), reverse=True):
        factors = [n if k == 1 else f"{n}^{k}" for n, k in zip(names, e) if k]
        mono = "*".join(factors)
        mag = abs(c)
        if not mono:
            body = str(mag)
        elif mag == 1:
            body = mono
        else:
            body = f"{mag}*{mono}"
        sign = "-" if c < 0 else "+"
        parts.append((sign, body))
    if not parts:
        return "0"
    first_sign, first = parts[0]
    text = ("-" if first_sign == "-" else "") + first
    for sign, body in parts[1:]:
        text += f" {sign} {body}"
    return text


def random_form(rng, n, degree, nterms):
    """A nonzero form with nterms terms and coefficients in [-5, 5]."""
    chosen = rng.sample(monomials(n, degree), nterms)
    terms = {}
    for e in chosen:
        c = 0
        while c == 0:
            c = rng.randint(-5, 5)
        terms[e] = Fraction(c)
    return terms


# ----------------------------------------------------------------------
# reading gor3's printed polynomials

def parse(text, names):
    """Parse gor3's printed form back into {exponents: Fraction}."""
    index = {name: i for i, name in enumerate(names)}
    text = text.strip()
    terms = {}
    if text == "0":
        return terms
    pos = 0
    while pos < len(text):
        m = _TERM.match(text, pos)
        if not m:
            raise ValueError(f"cannot read {text!r}")
        sign, body = m.group(1), m.group(2).strip()
        pos = m.end()
        coeff = Fraction(1)
        exps = [0] * len(names)
        for factor in body.split("*"):
            factor = factor.strip()
            if factor[0].isdigit():
                coeff *= Fraction(factor)
                continue
            name, _, power = factor.partition("^")
            exps[index[name]] += int(power) if power else 1
        if sign == "-":
            coeff = -coeff
        e = tuple(exps)
        terms[e] = terms.get(e, 0) + coeff
    return {e: c for e, c in terms.items() if c}


# ----------------------------------------------------------------------
# arithmetic for the checks; mod is None over QQ, else a prime

def reduce(terms, mod):
    if mod is None:
        return {e: c for e, c in terms.items() if c}
    out = {}
    for e, c in terms.items():
        v = c.numerator * pow(c.denominator, -1, mod) % mod
        if v:
            out[e] = Fraction(v)
    return out


def mul(a, b, mod):
    out = {}
    for e1, c1 in a.items():
        for e2, c2 in b.items():
            e = tuple(x + y for x, y in zip(e1, e2))
            out[e] = out.get(e, 0) + c1 * c2
    return reduce(out, mod)


def add(a, b, mod):
    out = dict(a)
    for e, c in b.items():
        out[e] = out.get(e, 0) + c
    return reduce(out, mod)


def proportional(a, b, mod):
    """Is a a nonzero scalar multiple of b?"""
    a, b = reduce(a, mod), reduce(b, mod)
    if not a or set(a) != set(b):
        return False
    e0 = next(iter(b))
    if mod is None:
        ratio = a[e0] / b[e0]
        return all(a[e] == ratio * b[e] for e in b)
    ratio = int(a[e0]) * pow(int(b[e0]), -1, mod) % mod
    return all(int(a[e]) == ratio * int(b[e]) % mod for e in b)


def inside_pure_powers(terms, m):
    """Does every term lie in (x_1^m, ..., x_n^m)?"""
    return all(max(e) >= m for e in terms)


def rank(rows, mod):
    """Rank by plain Gaussian elimination over QQ (mod None) or GF(mod)."""
    work = [reduce_row(r, mod) for r in rows]
    rk = 0
    ncols = len(work[0]) if work else 0
    for col in range(ncols):
        pivot = next((i for i in range(rk, len(work)) if work[i][col]), None)
        if pivot is None:
            continue
        work[rk], work[pivot] = work[pivot], work[rk]
        prow = work[rk]
        for i in range(rk + 1, len(work)):
            f = work[i][col]
            if f:
                if mod is None:
                    f = f / prow[col]
                    work[i] = [v - f * w for v, w in zip(work[i], prow)]
                else:
                    f = f * pow(prow[col], -1, mod) % mod
                    work[i] = [(v - f * w) % mod for v, w in zip(work[i], prow)]
        rk += 1
    return rk


def reduce_row(row, mod):
    if mod is None:
        return [Fraction(v) for v in row]
    return [Fraction(v).numerator * pow(Fraction(v).denominator, -1, mod) % mod
            for v in row]


def contract(g, F, mod):
    """g acting on the divided-power form F: x^a sends X^[b] to X^[b-a],
    dropping terms with a negative exponent, with no binomial factors."""
    out = {}
    for a, c in g.items():
        for b, d in F.items():
            e = tuple(y - x for x, y in zip(a, b))
            if min(e) >= 0:
                out[e] = out.get(e, 0) + c * d
    return reduce(out, mod)
