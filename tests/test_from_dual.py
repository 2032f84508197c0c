"""Ann(F) built from F: certified by construction, pieces on demand.

``GradedIdeal.from_dual`` (reached through ``annihilator`` and the complete
colon of pure powers) eliminates Cat_t(F) for t <= s/2 only, mirrors each
Hilbert value to s - t, and builds a piece above s/2 the first time it is
read.  Over QQ, GF(32003), GF(7) and GF(2), for n = 2, 3, 4 and s = 2..6:
- every piece, read in any order, equals the eager kernel of Cat_t(F) built
  from oracles.catalecticant_rows_by_tuples, and the piece at s + 1 is full;
- every Hilbert value equals dim R_t minus the dimension of that kernel;
- the minimal generators, which read no piece above s + 2 - d0, equal those
  of the scan through the bound and the first column of
  oracles.betti_table_by_koszul.
pure_power_index reads the index off F wherever F is kept, and must give
the index of the membership loop.
"""

import random

import pytest

from gor3 import GradedIdeal, InverseForm, annihilator, parse_poly
from gor3.fields import GF, QQ
from gor3.ideals import pure_power_index, variable_lines, variable_power_ideal
from gor3.linalg import kernel_rref
from gor3.monomials import monomial_count, monomials_of_degree
from gor3.pieces import GradedPiece, full_piece, integer_terms

from oracles import (betti_table_by_koszul, catalecticant_rows_by_tuples,
                     minimal_generators_through_the_bound, registry_colons)

FIELDS = [QQ, GF(32003), GF(7), GF(2)]
SHAPES = [(n, s) for n in (2, 3, 4) for s in range(2, 7)]


def _random_duals(n, s, field):
    """Three seeded dual forms of degree s: a few terms, and a dense one."""
    rng = random.Random(f"from-dual-{n}-{s}-{field}")
    monos = list(monomials_of_degree(n, s))
    out = []
    for k in (2, 4, len(monos)):
        terms = {a: field.of(rng.choice([1, -1, 2, 3, -5, 6]))
                 for a in rng.sample(monos, min(k, len(monos)))}
        terms = {a: c for a, c in terms.items() if not field.is_zero(c)}
        out.append(InverseForm(n, terms or {monos[0]: field.one}, field))
    return out


def _eager_kernels(F):
    """Ann(F)_t for t = 0..s+1, each the kernel of its catalecticant built
    by exponent-tuple arithmetic, all of R_{s+1} last."""
    n, s, field = F.n, F.degree(), F.field
    terms = integer_terms(F)
    cats = [catalecticant_rows_by_tuples(n, s, terms, t) for t in range(s + 1)]
    pieces = [GradedPiece(n, t, field, *kernel_rref(field, cat, monomial_count(n, t)))
              for t, cat in enumerate(cats)]
    return pieces + [full_piece(n, s + 1, field)]


def _initial_degree(J):
    return next(t for t in range(J.artinian_bound() + 1)
                if J.hilbert_function(t) < monomial_count(J.n, t))


@pytest.mark.parametrize("field", FIELDS, ids=str)
@pytest.mark.parametrize("n,s", SHAPES)
def test_lazy_pieces_equal_the_eager_kernels(field, n, s):
    rng = random.Random(f"order-{n}-{s}-{field}")
    for F in _random_duals(n, s, field):
        eager = _eager_kernels(F)
        J = annihilator(F)
        assert sorted(J._pieces) == list(range(s // 2 + 1))
        assert J._walk.bound == s + 1
        order = list(range(s + 2))
        rng.shuffle(order)
        for t in order:
            assert J.graded_piece(t) == eager[t], (str(F), t)


@pytest.mark.parametrize("field", FIELDS, ids=str)
@pytest.mark.parametrize("n,s", SHAPES)
def test_mirrored_hilbert_values_equal_the_kernel_dimensions(field, n, s):
    for F in _random_duals(n, s, field):
        eager = _eager_kernels(F)
        J = annihilator(F)
        expected = [monomial_count(n, t) - eager[t].dim for t in range(s + 1)]
        # the values above s/2 are mirrored, with no piece built for them
        assert J.hilbert_series_table() == expected, str(F)
        assert J.artinian_bound() == s + 1
        assert sorted(J._pieces) == list(range(s // 2 + 1))
        assert J.socle_report().socle_dims == {s: 1}


@pytest.mark.parametrize("field", FIELDS, ids=str)
@pytest.mark.parametrize("n,s", SHAPES)
def test_generators_under_the_stop(field, n, s):
    for F in _random_duals(n, s, field):
        J = annihilator(F)
        stop = s + 2 - _initial_degree(J)
        gens = [str(g) for g in J.minimal_generators()]
        assert max(J._pieces) <= stop, str(F)
        scan = minimal_generators_through_the_bound(annihilator(F))
        assert gens == [str(g) for g in scan], str(F)
        betti = betti_table_by_koszul(annihilator(F))
        assert J.minimal_generator_profile() == betti.column_shifts(1), str(F)


def _index_by_membership(I, lines):
    """Least m with every l_i^m in I, one membership test per degree."""
    result = 1
    for ell in lines:
        m, power = 1, ell
        while not I.contains(power):
            m, power = m + 1, power * ell
        result = max(result, m)
    return result


def _index_ideals(field):
    """(label, ideal) for the registry's links, the sum-power colons and
    seeded Ann(F), each with F kept unless it is the unit ideal, and each
    again given by its generators, whose walk or socle report proves F or
    not."""
    out = [(label, build()) for label, build in registry_colons(field)]
    ell = parse_poly("x + y + z", ["x", "y", "z"], field)
    out += [(f"sum-power m={m} e={e}", variable_power_ideal(3, m, field).colon(ell ** e))
            for m in range(1, 6) for e in range(7)]
    out += [(str(F), annihilator(F)) for n, s in [(2, 4), (3, 3), (3, 5), (4, 3)]
            for F in _random_duals(n, s, field)[:2]]
    for label, J in list(out):
        I = GradedIdeal(J.n, J.generators, field)
        if I.artinian_bound():
            I.socle_report()
        out.append((f"{label} by generators", I))
    return out


def _lines(n, field):
    """The variables, and the lines x_i + x_{i+1} + ... + x_n, independent
    over every field."""
    x = variable_lines(n, field)
    suffix_sums = [sum(x[i + 1:], x[i]) for i in range(n)]
    return [x, suffix_sums]


@pytest.mark.parametrize("field", FIELDS, ids=str)
def test_pure_power_index_read_off_F_equals_membership(field):
    kept = 0
    for label, I in _index_ideals(field):
        for lines in _lines(I.n, field):
            expected = _index_by_membership(GradedIdeal(I.n, I.generators, field), lines)
            kept += I.certified_dual is not None
            assert pure_power_index(I, lines) == expected, label
    assert kept >= 20


def test_lines_in_another_ring_are_rejected_on_both_routes():
    """Lines over another field or in another number of variables are
    refused whether the index is read off F or found by membership."""
    kept = annihilator(_random_duals(3, 4, QQ)[0])
    loop = GradedIdeal.from_strings(["x^2", "y^2", "z^2", "x*y"])   # no F
    for I in (kept, loop):
        for lines in (variable_lines(3, GF(7)), variable_lines(4, QQ)):
            with pytest.raises(ValueError, match="different ring"):
                pure_power_index(I, lines)
    assert kept.certified_dual is not None and loop.certified_dual is None


@pytest.mark.parametrize("field", [QQ, GF(32003)], ids=str)
def test_variables_index_is_one_past_the_largest_exponent(field):
    for label, build in registry_colons(field):
        I = build()
        monos = monomials_of_degree(3, I.artinian_bound() - 1)
        support = [beta for beta, c in zip(monos, I.certified_dual)
                   if not field.is_zero(field.of(c))]
        largest = max(max(beta) for beta in support)
        assert pure_power_index(I, variable_lines(3, field)) == 1 + largest, label
