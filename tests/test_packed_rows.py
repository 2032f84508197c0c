"""The packed GF(p) forward pass against the list-based pass it replaced.

``rank_profile_mod`` packs each row into one int, a w-bit slot per column
with w = (nc * p^2 + p).bit_length(), and updates a row at a pivot with one
multiply-add by the pivot row's negated tail.  ``oracles.rank_profile_by_lists``
is the pass on list rows that it replaced; the two must return the same
(profile, basis), the echelon form in the same insertion order, on dense,
sparse (monomial), tall and wide rows, for primes from 2 to 2^31 - 1, and
on rows that drive a slot to its largest value before it is read.
"""

import random

import pytest

from gor3._rowred_py import rank_profile_mod

from oracles import random_product, rank_profile_by_lists

PRIMES = [2, 3, 7, 32003, 32749, 2 ** 31 - 1]


def _same_pass(rows, p, limit):
    packed = rank_profile_mod(rows, p, limit)
    lists = rank_profile_by_lists(rows, p, limit)
    assert packed == lists
    assert list(packed[1]) == list(lists[1])
    return packed


def _shapes(rng, p):
    """Seeded (name, rows): dense, sparse monomial, tall, wide, and rows of
    all p - 1 entries mixed with dense ones."""
    for _ in range(12):
        nc = rng.randint(1, 14)
        nr = rng.randint(1, 14)
        yield "dense", [[rng.randrange(p) for _ in range(nc)] for _ in range(nr)]
        yield "signed", [[rng.randint(-5 * p, 5 * p) if rng.random() < 0.7 else 0
                          for _ in range(nc)] for _ in range(nr)]
        # a shifted monomial is one nonzero entry; a few make a sparse row
        yield "monomial", [[rng.choice([1, p - 1, rng.randrange(p)])
                            if c in cols else 0 for c in range(nc)]
                           for cols in (rng.sample(range(nc), rng.randint(1, min(3, nc)))
                                        for _ in range(nr))]
        yield "tall", random_product(rng, nc + rng.randint(5, 20), nc,
                                     rng.randint(1, nc), 20)
        yield "wide", random_product(rng, nr, nr + rng.randint(5, 30),
                                     rng.randint(1, nr), 20)
        all_top = [[p - 1] * nc for _ in range(rng.randint(1, 3))]
        dense = [[rng.randrange(p) for _ in range(nc)] for _ in range(nr)]
        mixed = all_top + dense
        rng.shuffle(mixed)
        yield "p-1", mixed


@pytest.mark.parametrize("p", PRIMES)
def test_packed_pass_equals_the_list_pass(p):
    rng = random.Random(p)
    deficient = set()
    for name, rows in _shapes(rng, p):
        nc = len(rows[0])
        full = _same_pass(rows, p, nc)[0]
        for k in range(len(full)):
            assert _same_pass(rows, p, k)[0] == full[:k]
        if len(full) < min(len(rows), nc):
            deficient.add(name)
    # rows dependent mod p, which the pass reduces to zero, come up in the
    # sparse, tall and wide shapes for every prime
    assert deficient >= {"monomial", "tall", "wide"}


@pytest.mark.parametrize("p", PRIMES)
def test_slots_at_their_maximal_lazy_growth(p):
    """Pivot rows 0..nc-2 of ones from their own column on are stored as
    tails of ones, packed negated as p - 1 in every slot.  The last row,
    p - 1 - j in column j, then reads p - 1 at every leading column, so each
    of its later slots gains (p - 1)^2, the largest an update adds, at each
    of the nc - 1 pivots before it is read, and it lands on column nc - 1."""
    for nc in (2, 12, 40):
        rows = [[0] * c + [1] * (nc - c) for c in range(nc - 1)]
        rows.append([(p - 1 - j) % p for j in range(nc)])
        profile, basis = _same_pass(rows, p, nc)
        assert profile == list(range(nc))
        assert basis[nc - 1] == []
