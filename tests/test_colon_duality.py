"""Colons of pure powers: the Macaulay-duality route against the kernel route.

``base.colon(f)`` on a base of pure powers c_i * x_i^{m_i} returns
Ann(f o X^[m-1]), with or without t_max; ``oracles.colon_by_kernel`` on the
same base goes through the kernel of multiplication by f into R/I, the
route of every other base.  The two must give the same generator strings,
not just the same ideal.
"""

import random

import pytest

import gor3.ideals
from gor3 import GradedIdeal, MultiPoly, NotArtinianError, parse_poly
from gor3.cli import _ideal_report
from gor3.fields import GF, QQ
from gor3.monomials import monomials_of_degree

from oracles import colon_by_kernel

FIELDS = [QQ, GF(32003)]


def _pure_power_base(n, m, field, rng):
    gens = [MultiPoly.monomial(tuple(m[i] if j == i else 0 for j in range(n)),
                               rng.choice([1, -1, 2, -3, 7]), field)
            for i in range(n)]
    rng.shuffle(gens)
    return GradedIdeal(n, gens, field)


def _random_form(n, m, e, field, rng, inside=True):
    """A form of degree e with a few random terms, one of them inside the
    pure powers when inside is set and such a monomial exists."""
    monos = list(monomials_of_degree(n, e))
    outside = [a for a in monos if all(x < mi for x, mi in zip(a, m))]
    powers = [a for a in monos if any(x >= mi for x, mi in zip(a, m))]
    chosen = rng.sample(outside, min(len(outside), rng.randint(1, 4)))
    if inside and powers:
        chosen.append(rng.choice(powers))
    if not chosen:
        chosen = [rng.choice(monos)]
    terms = {a: field.of(rng.choice([1, -1, 2, 3, -5, 11])) for a in chosen}
    return MultiPoly(n, terms, field)


def _cases():
    """(n, m, e) with unequal exponents, m_i = 1 included."""
    return [
        (2, [3, 5], 2), (2, [1, 4], 2), (2, [4, 4], 3), (2, [2, 6], 4),
        (3, [3, 3, 3], 2), (3, [2, 3, 4], 3), (3, [1, 3, 3], 2),
        (3, [2, 4, 3], 4), (3, [3, 2, 2], 1),
        (4, [2, 2, 2, 2], 2), (4, [1, 2, 3, 2], 2), (4, [2, 3, 2, 2], 3),
    ]


def _assert_routes_agree(base, f):
    fast = base.colon(f)
    slow = colon_by_kernel(base, f)
    assert [str(g) for g in fast.generators] == [str(g) for g in slow.generators]
    assert fast.truncated_at is None
    assert slow.truncated_at is None
    assert fast.equals(slow)
    return fast


@pytest.mark.parametrize("field", FIELDS, ids=str)
@pytest.mark.parametrize("n,m,e", _cases())
def test_duality_route_matches_kernel_route(field, n, m, e):
    rng = random.Random(f"{n}-{m}-{e}-{field}")
    for inside in (False, True, True):
        base = _pure_power_base(n, m, field, rng)
        _assert_routes_agree(base, _random_form(n, m, e, field, rng, inside))


@pytest.mark.parametrize("field", FIELDS, ids=str)
def test_form_inside_the_pure_powers_gives_the_unit_ideal(field):
    rng = random.Random(7)
    for n, m, e in [(2, [3, 5], 3), (3, [2, 3, 4], 4), (4, [1, 2, 3, 2], 2)]:
        base = _pure_power_base(n, m, field, rng)
        monos = [a for a in monomials_of_degree(n, e)
                 if any(x >= mi for x, mi in zip(a, m))]
        f = MultiPoly(n, {a: field.of(rng.randint(1, 9)) for a in monos[:3]}, field)
        unit = _assert_routes_agree(base, f)
        assert [str(g) for g in unit.generators] == ["1"]


@pytest.mark.parametrize("field", FIELDS, ids=str)
def test_pure_powers_skip_the_kernel_route(field, monkeypatch):
    def no_kernel(*args):
        raise AssertionError("kernel route taken")

    monkeypatch.setattr(GradedIdeal, "_colon_piece", no_kernel)
    base = GradedIdeal.from_strings(["-2*z^3", "x^3", "5*y^2"], field=field)
    f = parse_poly("x^2*y + y*z^2 + z^3", ["x", "y", "z"], field)
    assert base.colon(f).generators
    # t_max only truncates: it never picks the route
    for t_max in (2, 7):
        assert base.colon(f, t_max).generators


SWEEP_FORMS = {
    (3, 3, 3): ["x^2+y^2+z^2", "x*y*z - 2*x^2*y + 1/3*y*z^2", "x^4 + 5*y^3*z - z^4"],
    (2, 3, 4): ["x*y + 3*z^2", "y^2*z^2 - x*y*z^2 + 7*z^4", "x^2*y + y^3"],
    (5, 5, 5): ["x^2*y^2*z - 3*x*z^4", "x^3*y*z - 2*y^5"],
    (3, 2, 2): ["x^2 - y*z", "x^3*y - 4*x^2*y*z"],
}


@pytest.mark.parametrize("field", FIELDS + [GF(7)], ids=str)
@pytest.mark.parametrize("m", sorted(SWEEP_FORMS), ids=str)
def test_truncated_pure_power_colons_match_the_kernel_route(field, m):
    """colon(f, t_max) on pure powers against the kernel route for every
    t_max from -1 to sum(m) + 2, forms inside the pure powers included
    (the last ones of (3,3,3) and (2,3,4))."""
    vars_ = ["x", "y", "z"]
    base = GradedIdeal.from_strings([f"{v}^{k}" for v, k in zip(vars_, m)], field=field)
    seen_unit = False
    for text in SWEEP_FORMS[m]:
        f = parse_poly(text, vars_, field)
        for t_max in range(-1, sum(m) + 3):
            fast = base.colon(f, t_max)
            slow = colon_by_kernel(base, f, t_max)
            assert _ideal_report(fast) == _ideal_report(slow), (text, t_max)
            assert fast._pieces == slow._pieces
            assert fast.truncated_at == slow.truncated_at
            assert fast._walk.bound == slow._walk.bound
            seen_unit |= [str(g) for g in fast.generators] == ["1"]
    assert seen_unit == (m in {(3, 3, 3), (2, 3, 4)})


NEAR_MISS = {
    ("x^3,y^3,z^3,x*y*z", "x^2+y^2+z^2"):
        ["x*y", "x*z", "y*z", "x^3", "y^3", "z^3"],
    ("x^3,y^3,z^3,x*y*z", "x*y - 2*z^2"):
        ["z", "x^3", "x^2*y", "x*y^2", "y^3"],
    ("x^3,x^2,y^3,z^3", "x^2+y^2+z^2"):
        ["x^2", "y^2 - z^2", "y*z"],
    ("x^3,x^2,y^3,z^3", "x*y - 2*z^2"):
        ["x^2", "x*y + 2*z^2", "x*z", "y^3", "y^2*z"],
    ("x^3+y^3,y^3,z^3", "x^2+y^2+z^2"):
        ["x^3", "x^2*y - y*z^2", "x^2*z - y^2*z", "x*y^2 - x*z^2", "x*y*z",
         "y^3", "z^3"],
    ("x^3+y^3,y^3,z^3", "x*y - 2*z^2"):
        ["x^3", "x^2*y + 2*x*z^2", "x^2*z", "x*y^2 + 2*y*z^2", "y^3", "y^2*z",
         "z^3"],
}


@pytest.mark.parametrize("base_text,f_text", sorted(NEAR_MISS))
def test_near_miss_bases_take_the_kernel_route(base_text, f_text, monkeypatch):
    def no_duality(*args, **kwargs):
        raise AssertionError("duality route taken")

    monkeypatch.setattr(gor3.ideals, "annihilator_pieces", no_duality)
    base = GradedIdeal.from_strings(base_text.split(","))
    colon = base.colon(parse_poly(f_text, ["x", "y", "z"]))
    assert [str(g) for g in colon.generators] == NEAR_MISS[base_text, f_text]
    assert colon.truncated_at is None


@pytest.mark.parametrize("base_text", ["x^3,y^3", "x^3,x^2,z^3"])
def test_non_artinian_pure_powers_still_raise(base_text):
    # the exact Artinian decision stops at degree n(D-1)+1 = 7 over either field
    for field in FIELDS:
        base = GradedIdeal.from_strings(base_text.split(","), field=field)
        with pytest.raises(NotArtinianError):
            base.colon(parse_poly("x*y + z^2", ["x", "y", "z"], field))
