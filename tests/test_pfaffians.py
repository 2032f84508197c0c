import random
from fractions import Fraction

import pytest

from gor3 import GradedIdeal, MultiPoly
from gor3.fields import GF, QQ
from gor3.ideals import NotArtinianError
from gor3.monomials import monomials_of_degree
from gor3.parsing import parse_poly, parse_poly_list
from gor3.pfaffians import (
    SkewPolyMatrix,
    generic_power_model,
    generic_skew_matrix,
    maximal_pfaffians,
    pfaffian,
    pfaffian_ideal,
)
from oracles import det_by_minors, generic_power_model_capped, random_alternating

VARS = ["x", "y", "z"]


def test_two_by_two():
    a = MultiPoly.variable(0, 1)
    A = SkewPolyMatrix.from_upper(1, [[a]])
    assert pfaffian(A) == a


def test_four_by_four_classical():
    vs = [MultiPoly.variable(i, 6) for i in range(6)]
    A = SkewPolyMatrix.from_upper(6, [[vs[0], vs[1], vs[2]],
                                      [vs[3], vs[4]],
                                      [vs[5]]])
    # a12*a34 - a13*a24 + a14*a23
    expected = vs[0] * vs[5] - vs[1] * vs[4] + vs[2] * vs[3]
    assert pfaffian(A) == expected


def test_pfaffian_rejects_odd_and_non_alternating():
    x = MultiPoly.variable(0, 2)
    with pytest.raises(ValueError):
        pfaffian(SkewPolyMatrix.from_upper(2, [[x, x], [x]]))
    zero = MultiPoly.zero(2)
    with pytest.raises(ValueError):
        SkewPolyMatrix([[zero, x], [x, zero]])
    with pytest.raises(ValueError):
        SkewPolyMatrix([[x, x], [-x, zero]])


def test_pfaffian_squared_is_determinant():
    rng = random.Random(99)
    for size in (2, 4, 6, 8):
        for _ in range(50):
            A = random_alternating(rng, size)
            scalar_rows = [[v.coefficient((0,)) for v in row]
                           for row in A.entries]
            pf = pfaffian(A).coefficient((0,))
            assert pf * pf == det_by_minors(scalar_rows)


def test_odd_scalar_alternating_is_singular():
    rng = random.Random(5)
    for size in (3, 5, 7):
        raw = random_alternating(rng, size, as_poly=False)
        assert det_by_minors(raw) == 0


def test_congruence_covariance():
    """Pf(P^T A P) = det(P) Pf(A) as an exact polynomial identity."""
    rng = random.Random(17)
    for size in (2, 4, 6):
        # even-size generic alternating matrix, one variable per entry
        n = size * (size - 1) // 2
        upper = []
        v = 0
        for i in range(size - 1):
            row = []
            for _ in range(i + 1, size):
                row.append(MultiPoly.variable(v, n))
                v += 1
            upper.append(row)
        A = SkewPolyMatrix.from_upper(n, upper)
        P = [[Fraction(rng.randint(-3, 3)) for _ in range(size)]
             for _ in range(size)]
        conj = [[MultiPoly.zero(n) for _ in range(size)] for _ in range(size)]
        for i in range(size):
            for j in range(size):
                acc = MultiPoly.zero(n)
                for a in range(size):
                    for b in range(size):
                        c = P[a][i] * P[b][j]
                        if c:
                            acc = acc + A.entries[a][b].scale(c)
                conj[i][j] = acc
        det_p = det_by_minors(P)
        lhs = pfaffian(SkewPolyMatrix(conj))
        rhs = pfaffian(A).scale(Fraction(det_p))
        assert lhs == rhs


def test_three_by_three_maximal_pfaffians():
    a = MultiPoly.variable(0, 3)
    b = MultiPoly.variable(1, 3)
    c = MultiPoly.variable(2, 3)
    A = SkewPolyMatrix.from_upper(3, [[a, b], [c]])
    assert maximal_pfaffians(A) == [c, -b, a]


def test_maximal_pfaffians_need_odd_size():
    x = MultiPoly.variable(0, 1)
    with pytest.raises(ValueError):
        maximal_pfaffians(SkewPolyMatrix.from_upper(1, [[x]]))


def test_five_by_five_monomial_matrix():
    """Alternating 5x5 with cubic monomial entries: five sextics whose
    ideal is Gorenstein with invariants (6, 5, 3), and which matches its
    colon-form presentation."""
    upper = [
        parse_poly_list("x*y*z, y^3, x^3, x^2*y", VARS),
        parse_poly_list("z^3, y^3, z^3", VARS),
        parse_poly_list("z^3, x^3", VARS),
        parse_poly_list("z^3", VARS),
    ]
    A = SkewPolyMatrix.from_upper(3, upper)
    pfs = maximal_pfaffians(A)
    assert len(pfs) == 5
    assert all(p.homogeneous_degree() == 6 for p in pfs)
    I = pfaffian_ideal(A)
    assert I.minimal_generator_profile() == {6: 5}
    assert I.virtual_datum().as_tuple() == (6, 5, 3)
    rep = I.socle_report()
    assert rep.is_gorenstein and rep.socle_degree == 12
    # colon-form presentation (characteristic != 2)
    ci = GradedIdeal.from_strings([
        "x^6 - x^2*y*z^3 - y^3*z^3",
        "y^6 - x^3*z^3 - x*y*z^4",
        "z^6 - 1/2*x^3*y^3",
    ])
    assert ci.colon(parse_poly("z^3", VARS)).equals(I)


def _random_form(rng, n, d, field):
    """A nonzero form of degree d with up to three terms."""
    monos = list(monomials_of_degree(n, d))
    return MultiPoly(n, {a: field.of(rng.choice([-3, -2, -1, 1, 2, 3]))
                         for a in rng.sample(monos, min(3, len(monos)))}, field)


def test_maximal_pfaffian_degrees_follow_entry_degree():
    # entries of degree d' give maximal Pfaffians of degree (r-1)d'/2
    # (Buchsbaum-Eisenbud 1977)
    for r, dp in ((3, 1), (5, 1), (5, 2), (7, 1)):
        A = generic_skew_matrix(r, dp)
        pfs = maximal_pfaffians(A)
        d = (r - 1) * dp // 2
        assert all(p.homogeneous_degree() == d for p in pfs if not p.is_zero())
    rng = random.Random(50)
    for field in (QQ, GF(32003)):
        for r in (3, 5, 7):
            for dp in (1, 2):
                upper = [[_random_form(rng, 3, dp, field) for _ in range(r - 1 - i)]
                         for i in range(r - 1)]
                A = SkewPolyMatrix.from_upper(3, upper, field)
                pfs = [p for p in maximal_pfaffians(A) if not p.is_zero()]
                d = (r - 1) * dp // 2
                assert pfs, (field, r, dp)
                assert all(p.is_homogeneous() and p.homogeneous_degree() == d
                           for p in pfs), (field, r, dp)


def test_generic_model_small_cases():
    I = generic_power_model(5, 1, 3, seed=7)
    assert I.virtual_datum().as_tuple() == (2, 5, 1)
    rep = I.socle_report()
    assert rep.is_gorenstein and rep.socle_degree == 2

    I2 = generic_power_model(5, 2, 3, seed=7)
    assert I2.virtual_datum().as_tuple() == (4, 5, 2)
    rep2 = I2.socle_report()
    assert rep2.is_gorenstein and rep2.socle_degree == 7


def test_generic_model_r3_gives_linear_complete_intersection():
    I = generic_power_model(3, 1, 3, seed=1)
    assert I.minimal_generator_profile() == {1: 3}
    assert I.socle_report().socle_degree == 0


def test_generic_model_socle_degree_formula():
    """Socle degree 2d + d' - 3 for the specialized models.

    The (7, 2) case runs over a prime field: its composite specialization
    coefficients are 18 products deep, far past desk scale over QQ."""
    from gor3.fields import GF

    big = GF(1000003)
    for r, dp, seed, field in ((5, 1, 3, QQ), (5, 2, 3, QQ),
                               (7, 1, 3, QQ), (7, 2, 3, big)):
        I = generic_power_model(r, dp, 3, seed=seed, field=field)
        d = (r - 1) * dp // 2
        rep = I.socle_report()
        assert rep.is_gorenstein
        assert rep.socle_degree == 2 * d + dp - 3


@pytest.mark.parametrize("field", [QQ, GF(32003), GF(7), GF(3)], ids=repr)
def test_generic_model_matches_the_capped_retry_loop(field):
    """The exact Artinian decision accepts the same draw, with the same
    generators and bound, as a loop that searched only up to 2d + d': an
    Artinian specialization vanishes from 2d + d' - 2 on."""
    for r, dp in ((3, 1), (3, 2), (5, 1), (5, 2)):
        for seed in range(10):
            try:
                J, bound = generic_power_model_capped(r, dp, seed, field)
            except NotArtinianError:
                with pytest.raises(RuntimeError):
                    generic_power_model(r, dp, 3, seed, field)
                continue
            I = generic_power_model(r, dp, 3, seed, field)
            assert ([list(g.terms.items()) for g in I.generators]
                    == [list(g.terms.items()) for g in J.generators])
            assert I.artinian_bound() == bound


def test_generic_model_intermediate_dimension():
    I = generic_power_model(5, 1, 4, seed=2)
    assert I.n == 4
    assert len(I.generators) == 5


def test_generic_model_validates_arguments():
    with pytest.raises(ValueError):
        generic_power_model(4, 1, 3, seed=0)
    with pytest.raises(ValueError):
        generic_power_model(5, 0, 3, seed=0)
    with pytest.raises(ValueError):
        generic_power_model(5, 1, 11, seed=0)
