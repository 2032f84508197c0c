"""linalg.kernel_rref against the two-elimination route it replaces.

kernel_rref reads the canonical RREF of ker A off one elimination of A with
its columns reversed.  It must equal rref_rows of the kernel_rows basis, row
for row, over QQ and GF(p): on seeded random integer matrices of every shape
and on every catalecticant of the dual forms of the registry's colons, whose
kernels are the pieces of Ann(F).
"""

import random

import pytest

import gor3.ideals
import gor3.linalg
import gor3.pieces
from gor3 import annihilator, macaulay_inverse
from gor3.fields import GF, QQ
from gor3.linalg import kernel_rows, kernel_rref, rref_rows
from gor3.monomials import monomial_count, monomial_index
from gor3.pieces import catalecticant, integer_terms

from oracles import random_product, registry_colons

FIELDS = [QQ, GF(32003)]


def _two_eliminations(field, rows, nc):
    return rref_rows(field, kernel_rows(field, rows, nc)[0], nc)


def _matrices():
    """(label, rows, nc): wide, tall, rank 0, full column rank and one-row
    integer matrices, several of each, from one seed."""
    rng = random.Random(3217)
    out = []
    for k in range(6):
        nc = rng.randint(4, 9)
        wide = random_product(rng, nc - 2, nc, rng.randint(1, nc - 2), 12)
        tall = random_product(rng, nc + 3, nc, rng.randint(1, nc - 1), 12)
        out += [(f"wide {k}", wide, nc), (f"tall {k}", tall, nc),
                (f"rank 0 {k}", [[0] * nc for _ in range(rng.randint(1, 4))], nc),
                (f"full column rank {k}", random_product(rng, nc + 1, nc, nc, 12), nc),
                (f"1 x nc {k}", [[rng.randint(-50, 50) for _ in range(nc)]], nc)]
    out.append(("no rows", [], 5))
    out.append(("no columns", [[], []], 0))
    return out


@pytest.mark.parametrize("field", FIELDS, ids=str)
def test_random_matrices(field):
    for label, rows, nc in _matrices():
        got = kernel_rref(field, rows, nc)
        assert got == _two_eliminations(field, rows, nc), label
        if label.startswith("full column rank"):
            assert got == ([], [])
        if label.startswith(("rank 0", "no rows")):
            assert got[0] == list(range(nc))


def _dual_vector(F):
    """The integer coefficient vector of a dual form over the monomials of
    its degree, as annihilator_pieces lays it out."""
    s = F.degree()
    idx = monomial_index(F.n, s)
    vec = [0] * len(idx)
    for beta, c in integer_terms(F).items():
        vec[idx[beta]] = c
    return s, vec


@pytest.mark.parametrize("field", FIELDS, ids=str)
def test_registry_catalecticants(field):
    for label, build in registry_colons(field):
        F = macaulay_inverse(build())
        s, vec = _dual_vector(F)
        for t in range(s + 1):
            cat = catalecticant(F.n, s, vec, t)
            nc = monomial_count(F.n, t)
            assert kernel_rref(field, cat, nc) == _two_eliminations(field, cat, nc), \
                (label, t)


@pytest.mark.parametrize("field", FIELDS, ids=str)
def test_annihilator_makes_one_elimination_per_degree(field, monkeypatch):
    calls = []
    original = gor3.linalg.rref_rows

    def counted(*args, **kwargs):
        calls.append(args[2])
        return original(*args, **kwargs)

    for module in (gor3.linalg, gor3.pieces, gor3.ideals):
        monkeypatch.setattr(module, "rref_rows", counted)
    for label, build in registry_colons(field):
        F = macaulay_inverse(build())
        calls.clear()
        annihilator(F)
        assert len(calls) == F.degree() + 1, label
