"""Integer pieces against Fraction routes built in the test.

A QQ graded piece keeps the primitive integer rows of ``rref_int`` (content
1, positive pivot) and the maps of ``multiplication_maps`` are integer
vectors over one scale per degree.  Here every kind of piece is checked
against ``oracles.fraction_rref`` of its own shifted-generator rows, built
with polynomial arithmetic, and socle dimensions and Betti tables against
multiplication maps written in field scalars through
``oracles.reduce_vector``.
"""

import itertools
import random
from fractions import Fraction
from math import gcd

import pytest

import gor3.linalg
from gor3 import GradedIdeal, InverseForm, MultiPoly, annihilator, parse_poly
from gor3.betti import betti_table
from gor3.cases import ex_2_5_ideal, five_gen_monomial_ideal
from gor3.fields import GF, QQ
from gor3.linalg import CERTIFICATE_PRIME, kernel_rows, normal_form, row_rank
from gor3.monomials import monomial_count, monomials_of_degree
from gor3.pieces import GradedPiece, degree_one_multiples, integer_span

from oracles import (Span, colon_by_kernel, fraction_rref, piece_rows, reduce_vector,
                     span_of_vectors)

FIELDS = [QQ, GF(32003)]
VARS = ["x", "y", "z"]


def _random_form(n, d, field, rng):
    monos = list(monomials_of_degree(n, d))
    chosen = rng.sample(monos, min(len(monos), rng.randint(2, 5)))
    coeffs = [Fraction(rng.choice([1, -1, 2, -3, 5]), rng.choice([1, 1, 2, 3, 7]))
              for _ in chosen]
    return MultiPoly(n, {a: field.of(c) for a, c in zip(chosen, coeffs)}, field)


def _random_ideals(field):
    rng = random.Random(1414)
    shapes = [(2, [2, 3]), (2, [3, 3, 4]), (3, [2, 2, 2]), (3, [1, 2, 3]),
              (3, [2, 2, 3, 3]), (4, [2, 2, 2, 2])]
    return [GradedIdeal(n, [_random_form(n, d, field, rng) for d in degrees], field)
            for n, degrees in shapes]


def _shifted_rows(n, t, forms):
    """Coefficient vectors of x^alpha * g for the forms g of degree <= t,
    by polynomial multiplication."""
    rows = []
    for g in forms:
        d = g.homogeneous_degree()
        if d <= t:
            for alpha in monomials_of_degree(n, t - d):
                rows.append((MultiPoly.monomial(alpha, 1, g.field) * g).to_vector(t))
    return rows


def _assert_canonical(piece, rows):
    """piece is primitive with positive pivots and its Fraction view is the
    Fraction Gauss-Jordan of rows."""
    for p, row in zip(piece.pivots, piece.int_rows):
        assert all(type(v) is int for v in row)
        assert row[p] > 0 and gcd(*row) == 1
        assert all(v == 0 for v in row[:p])
        assert all(row[q] == 0 for q in piece.pivots if q != p)
    expected = fraction_rref(rows) if rows else ([], [])
    assert (piece.pivots, piece_rows(piece)) == expected
    assert all(type(v) is Fraction for row in piece_rows(piece) for v in row)


def _top(I):
    try:
        return I.artinian_bound()
    except gor3.NotArtinianError:
        return I.n * (I.max_generator_degree - 1) + 1


def test_pieces_of_random_ideals():
    for I in _random_ideals(QQ):
        for t in range(_top(I) + 1):
            _assert_canonical(I.graded_piece(t), _shifted_rows(I.n, t, I.generators))


def test_pieces_of_both_colon_routes_and_annihilators():
    base = GradedIdeal.from_strings(["-2*z^3", "x^3", "5*y^2"])
    near = GradedIdeal.from_strings(["x^3+y^3", "y^3", "z^3"])
    f = parse_poly("1/2*x^2*y + y*z^2 - 3/7*z^3", VARS)
    g = parse_poly("x^2 + 2/3*y^2 + z^2", VARS)
    colons = [base.colon(f),                                 # duality route
              colon_by_kernel(base, f),                      # kernel route
              near.colon(g)]                                 # kernel route
    F = InverseForm(3, {(2, 1, 0): Fraction(1, 2), (0, 1, 2): Fraction(-5, 3),
                        (1, 1, 1): Fraction(7)})
    for J in colons + [annihilator(F)]:
        for t in sorted(J._pieces):
            _assert_canonical(J.graded_piece(t), _shifted_rows(J.n, t, J.generators))
    assert colons[0].equals(colons[1])


def test_power_pieces_and_product_spans():
    I = ex_2_5_ideal()
    gens = I.generators
    # asked in ascending t, so each piece above a full one is read as full;
    # (I^2)_4 and (I^2)_5 of the complete intersection are not full, and
    # (x, y^2, z^2) is generated in two degrees
    ci = GradedIdeal.from_strings(["x^2", "y^2", "z^2"])
    mixed = GradedIdeal.from_strings(["x", "y^2", "z^2"])
    for ideal in (I, ci, mixed):
        for k in (2, 3):
            combos = itertools.combinations_with_replacement(range(len(ideal.generators)), k)
            products = [_product(ideal.generators, combo) for combo in combos]
            for t in range(2 * k + 4):
                _assert_canonical(ideal.power_piece(k, t),
                                  _shifted_rows(ideal.n, t, products))
    rng = random.Random(5)
    J = GradedIdeal(3, [sum((g.scale(rng.randint(-4, 4)) for g in gens), MultiPoly.zero(3))
                        for _ in range(3)])
    pairs = list(itertools.combinations_with_replacement(gens, 2))
    # J * I in degree 4 takes rows; J * I^2 in degree 6, over a full (I^2)_4, is J_6
    for factors, t, lower in (([(g,) for g in gens], 4, I.graded_piece),
                              (pairs, 6, lambda u: I.power_piece(2, u))):
        combos = [(j, *f) for j in J.generators for f in factors]
        products = [_product(combo, range(len(combo))) for combo in combos]
        rows = J._rows_times(t, lower)
        assert (rows is None) == (t == 6)
        piece = J.graded_piece(t) if rows is None else integer_span(I.n, t, rows, I.field)
        _assert_canonical(piece, [p.to_vector(t) for p in products if not p.is_zero()])


def _product(gens, combo):
    prod = gens[combo[0]]
    for j in combo[1:]:
        prod = prod * gens[j]
    return prod


def test_integer_and_fraction_vectors_give_equal_pieces():
    rng = random.Random(11)
    for I in _random_ideals(QQ):
        for t in range(1, _top(I) + 1):
            piece = I.graded_piece(t)
            ints = [list(r) for r in piece.int_rows]
            scaled = [[Fraction(v, d) * c for v in row]
                      for row, d, c in zip(piece_rows(piece), itertools.cycle([3, 5, 7]),
                                           itertools.cycle([Fraction(-2, 9), 4]))]
            rng.shuffle(scaled)
            n = I.n
            assert span_of_vectors(n, t, ints, QQ) == piece
            assert span_of_vectors(n, t, scaled, QQ) == piece
            assert GradedPiece(n, t, QQ, piece.pivots,
                               [QQ.integer_row(r)[0] for r in piece_rows(piece)]) == piece
            assert GradedPiece(n, t, QQ, piece.pivots, ints) == piece
            # the multiples of the rows span the same piece in either form
            grown = span_of_vectors(n, t + 1, degree_one_multiples(piece), QQ)
            as_fractions = [[Fraction(v) for v in vec]
                            for vec in degree_one_multiples(piece)]
            assert span_of_vectors(n, t + 1, as_fractions, QQ) == grown


@pytest.mark.parametrize("field", FIELDS, ids=str)
def test_reduce_vector_is_the_exact_residual(field):
    rng = random.Random(3)
    for I in _random_ideals(field):
        for t in range(_top(I) + 1):
            piece = I.graded_piece(t)
            dim = monomial_count(I.n, t)
            for _ in range(3):
                vec = [field.of(Fraction(rng.randint(-6, 6), rng.randint(1, 4)))
                       for _ in range(dim)]
                residual = list(vec)
                for p, row in zip(piece.pivots, piece_rows(piece)):
                    c = vec[p]
                    residual = [field.sub(a, field.mul(c, b))
                                for a, b in zip(residual, row)]
                assert reduce_vector(piece, vec) == residual
                assert piece.contains_vector(vec) == all(field.is_zero(v) for v in residual)
            for row in piece_rows(piece):
                assert piece.contains_vector(row)
                assert not any(reduce_vector(piece, row))


@pytest.mark.parametrize("field", FIELDS, ids=str)
def test_pieces_read_one_normal_form(field):
    """The kernel of a piece's rows is the transposed normal form of the
    piece and kills every row; a vector lies in the piece exactly when the
    Fraction oracle puts it in the span of the rows."""
    rng = random.Random(29)
    seen = set()
    for I in _random_ideals(field):
        for t in range(_top(I) + 1):
            piece = I.graded_piece(t)
            dim = piece.ambient_dim
            L, free, nf = normal_form(piece.pivots, piece.int_rows, dim)
            assert free == piece.standard_columns
            basis, kernel_lcm = kernel_rows(field, piece.int_rows, dim)
            assert (basis, kernel_lcm) == ([list(col) for col in zip(*nf)], L)
            for vec in basis:
                for row in piece.int_rows:
                    assert field.is_zero(sum(a * b for a, b in zip(row, vec)))
            span = Span(field, dim)
            for row in piece_rows(piece):
                span.add(row)
            candidates = [[field.of(rng.randint(-3, 3)) for _ in range(dim)]]
            for _ in range(2):
                combo = [field.zero] * dim
                for row in piece_rows(piece):
                    c = field.of(Fraction(rng.randint(-6, 6), rng.randint(1, 4)))
                    combo = [field.add(a, field.mul(c, b)) for a, b in zip(combo, row)]
                moved = list(combo)
                j = rng.randrange(dim)
                moved[j] = field.add(moved[j], field.one)
                candidates += [combo, moved]
            for vec in candidates:
                in_span = span.residual(vec)[1] is None
                assert piece.contains_vector(vec) == in_span
                seen.add(in_span)
    assert seen == {True, False}


@pytest.mark.parametrize("field", FIELDS, ids=str)
def test_contains_vector_refuses_a_vector_of_another_length(field):
    """The degree-2 piece of (x^2, y^2) lies in R_2 of dimension 6: a vector
    of 4, 7 or 3 entries is refused with both lengths, never truncated."""
    piece = GradedIdeal.from_strings(["x^2", "y^2"], VARS, field).graded_piece(2)
    assert piece.ambient_dim == 6
    for vec in ([0, 0, 0, 1], [0] * 7, [1, 0, 0]):
        with pytest.raises(ValueError, match=rf"length {len(vec)} .* dimension 6"):
            piece.contains_vector([field.of(v) for v in vec])
    assert piece.contains_vector([field.of(v) for v in [0, 0, 0, 1, 0, 0]])
    assert not piece.contains_vector([field.of(v) for v in [0, 0, 0, 0, 0, 1]])


def _scalar_maps(I, t):
    """x_k : (R/I)_t -> (R/I)_{t+1} in field scalars: the residual of x_k m
    by oracles.reduce_vector, read on the standard columns of degree t + 1."""
    n, field = I.n, I.field
    above = I.graded_piece(t + 1)
    std_above = above.standard_columns
    index = {e: i for i, e in enumerate(monomials_of_degree(n, t + 1))}
    maps = []
    for k in range(n):
        images = []
        for c in I.graded_piece(t).standard_columns:
            e = list(monomials_of_degree(n, t)[c])
            e[k] += 1
            vec = [field.zero] * len(index)
            vec[index[tuple(e)]] = field.one
            residual = reduce_vector(above, vec)
            images.append([residual[s] for s in std_above])
        maps.append(images)
    return maps


def _rank(field, rows):
    """Rank of nonempty rows of field scalars, through their integer rows."""
    return row_rank(field, [field.integer_row(r)[0] for r in rows], len(rows[0]))


def _scalar_socle_dims(I):
    dims = {}
    for t in range(I.artinian_bound()):
        sdim = I.hilbert_function(t)
        if sdim and I.hilbert_function(t + 1):
            stacked = [list(row) for m in _scalar_maps(I, t) for row in zip(*m)]
            sdim -= _rank(I.field, stacked)
        if sdim:
            dims[t] = sdim
    return dims


def _scalar_betti(I):
    """beta_{i,j} from Koszul differentials assembled from _scalar_maps."""
    n, field = I.n, I.field
    top = I.socle_report().socle_degree + n
    hilbert = [I.hilbert_function(t) for t in range(top + 2)]
    maps = [_scalar_maps(I, t) for t in range(top + 1)]
    subsets = [list(itertools.combinations(range(n), i)) for i in range(n + 1)]

    def rank(i, j):
        t = j - i
        if not 1 <= i <= n or t < 0 or t + 1 > top or not (hilbert[t] and hilbert[t + 1]):
            return 0
        position = {S: a for a, S in enumerate(subsets[i - 1])}
        h, h1 = hilbert[t], hilbert[t + 1]
        rows = [[field.zero] * (len(subsets[i]) * h)
                for _ in range(len(subsets[i - 1]) * h1)]
        for b, S in enumerate(subsets[i]):
            for pos, k in enumerate(S):
                a = position[tuple(x for x in S if x != k)]
                for c, image in enumerate(maps[t][k]):
                    for r, v in enumerate(image):
                        rows[a * h1 + r][b * h + c] = field.neg(v) if pos % 2 else v
        return _rank(field, rows)

    table = {}
    for j in range(top + 1):
        ranks = [rank(i, j) for i in range(n + 2)]
        for i in range(n + 1):
            t = j - i
            chain = len(subsets[i]) * hilbert[t] if 0 <= t <= top else 0
            beta = chain - ranks[i] - ranks[i + 1]
            if beta:
                table[(i, j)] = beta
    return table


@pytest.mark.parametrize("field", FIELDS, ids=str)
def test_socle_and_betti_equal_the_scalar_map_route(field):
    ideals = [ex_2_5_ideal(field), five_gen_monomial_ideal(2, field),
              GradedIdeal.from_strings(["x^2 - 1/3*y*z", "7/2*y^2", "z^3 + 2*x*z^2"],
                                       field=field)]
    ideals += [I for I in _random_ideals(field) if I.is_artinian()]
    assert len(ideals) >= 5
    for I in ideals:
        assert I.socle_report().socle_dims == _scalar_socle_dims(I)
        assert betti_table(I).entries == _scalar_betti(I)


def test_unlucky_prime_still_gives_the_exact_piece(monkeypatch):
    P = CERTIFICATE_PRIME
    calls = []
    rref_int = gor3.linalg.rref_int
    monkeypatch.setattr(gor3.linalg, "rref_int",
                        lambda rows, pivots=None:
                        calls.append(len(rows)) or rref_int(rows, pivots))
    x, y = MultiPoly.variable(0, 2), MultiPoly.variable(1, 2)
    # modulo P the second generator is the first and the fourth the third:
    # the rows kept mod P miss x^2*y, and all four rows are eliminated
    gens = [x ** 3, x ** 3 + (x * x * y).scale(P), x * y * y, (x * y * y).scale(2)]
    I = GradedIdeal(2, gens)
    piece = I.graded_piece(3)
    assert calls == [2, 4]
    _assert_canonical(piece, _shifted_rows(2, 3, gens))
    assert piece.pivots == [0, 1, 2] and not piece.is_full
    # a piece full over QQ though singular mod P
    J = GradedIdeal(2, [x, y.scale(P)])
    _assert_canonical(J.graded_piece(1), _shifted_rows(2, 1, J.generators))
    assert J.graded_piece(1).is_full
