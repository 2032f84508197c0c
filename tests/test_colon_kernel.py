"""The kernel colon route against a field-arithmetic oracle.

Every base but pure powers of the variables takes ``GradedIdeal._colon_piece``:
(I : f)_t is the left kernel of the residuals of the rows x^gamma * f modulo
I_{t+e}.  ``oracles.colon_piece_by_field_rref`` computes the same piece from
the definition, {g in R_t : g * f in I_{t+e}}, by Gauss-Jordan in the
field's own arithmetic, so the two share no elimination.  The white-box
guard pins the cost: one ``rref_rows`` call per colon degree, of
H(t+e) rows by dim R_t columns.
"""

import pytest

import gor3.ideals
import gor3.linalg
import gor3.pieces
from gor3 import GradedIdeal, parse_poly
from gor3.fields import GF, QQ
from gor3.ideals import pure_power_ideal
from gor3.monomials import monomial_count
from gor3.pfaffians import generic_power_model

from oracles import colon_piece_by_field_rref, piece_rows

FIELDS = [QQ, GF(32003)]
VARS = ["x", "y", "z"]
# independent over QQ and GF(32003): their determinant is -37
LINES = ["x + 2*y - z", "3*x - y + 2*z", "x + y + 5*z"]


def _colons(field):
    """(label, base, f) for bases that take the kernel route."""
    def P(text):
        return parse_poly(text, VARS, field)

    lines = [P(text) for text in LINES]
    out = []
    for exponents, texts in (([3, 3, 3], ["(x + y + z)^2", "x*y", "x^3 - 2*y*z^2"]),
                             ([2, 3, 4], ["x + y", "x*y*z - z^3"])):
        base = pure_power_ideal(lines, exponents)
        out += [(f"powers of lines {exponents} : {text}", base, P(text))
                for text in texts]
    base = GradedIdeal.from_strings(["x^3", "y^3", "z^3", "x*y*z"], VARS, field)
    out += [(f"(x^3, y^3, z^3, xyz) : {text}", base, P(text))
            for text in ("x + y + z", "x^2 - y*z", "x*y")]
    return out


def _assert_colon_matches_oracle(label, base, f):
    J = base.colon(f)
    assert J.truncated_at is None
    for t in range(J.artinian_bound() + 1):
        piece = J.graded_piece(t)
        assert (piece.pivots, piece_rows(piece)) == \
            colon_piece_by_field_rref(base, f, t), (label, t)


@pytest.mark.parametrize("field", FIELDS, ids=str)
def test_kernel_route_matches_the_field_oracle(field):
    for label, base, f in _colons(field):
        _assert_colon_matches_oracle(label, base, f)


@pytest.mark.parametrize("seed", [24, 25])
def test_pfaffian_model_colon_by_a_line_matches_the_field_oracle(seed):
    """A (5, 2) Pfaffian model, generated in degree 4, by x + 2y - 3z."""
    field = GF(32003)
    base = generic_power_model(5, 2, 3, seed, field)
    _assert_colon_matches_oracle(f"model seed {seed}", base,
                                 parse_poly("x + 2*y - 3*z", VARS, field))


@pytest.mark.parametrize("field", FIELDS, ids=str)
def test_one_elimination_per_colon_degree(field, monkeypatch):
    """With every piece of I built, the colon makes one rref_rows call per
    degree t it reads, on H(t+e) rows of dim R_t entries: zero rows where
    I_{t+e} is full, and no second elimination of a kernel basis."""
    cases = _colons(field) + [(
        "model seed 24", generic_power_model(5, 2, 3, 24, field),
        parse_poly("x + 2*y - 3*z", VARS, field))]
    original = gor3.linalg.rref_rows
    calls = []

    def rref_rows(fld, rows, nc, echelon=None):
        calls.append((len(rows), nc, {len(row) for row in rows} <= {nc}))
        return original(fld, rows, nc, echelon)

    for label, base, f in cases:
        e = f.homogeneous_degree()
        for t in range(base.artinian_bound() + e + 1):
            base.graded_piece(t)
        calls.clear()
        with monkeypatch.context() as patch:
            for module in (gor3.linalg, gor3.pieces, gor3.ideals):
                patch.setattr(module, "rref_rows", rref_rows)
            J = base.colon(f)
        assert calls == [(base.hilbert_function(t + e), monomial_count(3, t), True)
                         for t in range(J.artinian_bound() + 1)], label
