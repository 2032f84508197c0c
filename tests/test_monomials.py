from math import comb

from gor3.monomials import (
    deglex_key,
    mono_mul,
    mono_sub,
    monomial_count,
    monomial_index,
    monomials_of_degree,
    product_table,
)
from oracles import mono_divides


def test_degree_two_in_three_vars():
    basis = monomials_of_degree(3, 2)
    assert list(basis) == [
        (2, 0, 0), (1, 1, 0), (1, 0, 1), (0, 2, 0), (0, 1, 1), (0, 0, 2)]
    assert len(basis) == 6


def test_single_variable():
    assert list(monomials_of_degree(1, 5)) == [(5,)]


def test_counts_match_binomials():
    for n in range(1, 5):
        for t in range(0, 7):
            basis = monomials_of_degree(n, t)
            assert len(basis) == comb(t + n - 1, n - 1) == monomial_count(n, t)
            assert len(set(basis)) == len(basis)


def test_order_is_descending_lex():
    for n, t in [(2, 3), (3, 4), (4, 3)]:
        basis = monomials_of_degree(n, t)
        assert list(basis) == sorted(basis, reverse=True)


def test_degree_zero():
    assert list(monomials_of_degree(4, 0)) == [(0, 0, 0, 0)]


def test_index_map():
    idx = monomial_index(3, 3)
    for i, e in enumerate(monomials_of_degree(3, 3)):
        assert idx[e] == i


def test_mono_helpers():
    assert mono_sub((1, 0, 2), (2, 0, 3)) == (1, 0, 1)
    assert mono_sub((1, 1, 0), (0, 2, 0)) is None
    assert mono_divides((1, 0, 0), (2, 1, 0))
    assert not mono_divides((0, 2, 0), (1, 1, 3))
    assert deglex_key((2, 0, 0)) > deglex_key((1, 1, 0))
    assert deglex_key((0, 0, 3)) > deglex_key((2, 0, 0))


def test_mono_mul_adds_exponents():
    assert mono_mul((1, 0, 2), (2, 3, 0)) == (3, 3, 2)
    assert mono_mul((4,), (0,)) == (4,)
    assert mono_mul((0, 0, 0, 0), (1, 2, 0, 5)) == (1, 2, 0, 5)
    assert type(mono_mul((1, 1), (1, 1))) is tuple


def test_product_table_matches_tuple_arithmetic():
    for n in range(1, 5):
        for s in range(6):
            for t in range(6):
                table = product_table(n, s, t)
                target = list(monomials_of_degree(n, s + t))
                left = monomials_of_degree(n, s)
                right = monomials_of_degree(n, t)
                assert len(table) == len(left)
                for a, row in zip(left, table):
                    assert len(row) == len(right)
                    for b, pos in zip(right, row):
                        assert pos == target.index(
                            tuple(x + y for x, y in zip(a, b)))


def test_product_table_rows_are_immutable():
    # the table is shared through the cache: a list row could be changed
    # by one caller under every other
    table = product_table(3, 2, 1)
    assert type(table) is tuple
    assert all(type(row) is tuple for row in table)
    assert product_table(3, 2, 1) is table
