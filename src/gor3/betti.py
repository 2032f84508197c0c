"""Graded Betti numbers of Artinian quotients via Koszul homology.

beta_{i,j} is the degree-j dimension of the i-th homology of the Koszul
complex on the variables tensored with R/I; the quotient is handled through
its standard monomials per degree.  The differentials are integer rows
built from the integer multiplication maps of ``ideals`` (one common scale
per degree), and each rank is one linalg.row_rank call.  Everything is
bounded because the quotient is Artinian: the top twist is socle degree +
n.  The exterior basis is ordered lexicographically on index subsets,
frozen for determinism.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass, field as dc_field

from .ideals import GradedIdeal, NotEquigeneratedError
from .linalg import row_rank


@dataclass
class BettiTable:
    n: int
    entries: dict = dc_field(default_factory=dict)

    def beta(self, i, j) -> int:
        return self.entries.get((i, j), 0)

    def nonzero(self):
        return sorted(self.entries.items())

    def triples(self):
        return [(i, j, v) for (i, j), v in self.nonzero()]

    def column_shifts(self, i) -> dict:
        """shift -> multiplicity in homological position i."""
        return {j: v for (k, j), v in self.entries.items() if k == i}

    def staircase(self) -> str:
        """Text layout with rows j - i and columns i."""
        if not self.entries:
            return "(empty)"
        imax = max(i for (i, _) in self.entries)
        rows = sorted({j - i for (i, j) in self.entries})
        width = max(len(str(v)) for v in self.entries.values())
        width = max(width, len(str(imax)), 1)
        lines = []
        header = "      " + " ".join(f"{i:>{width}}" for i in range(imax + 1))
        lines.append(header)
        for r in range(rows[0], rows[-1] + 1):
            cells = []
            for i in range(imax + 1):
                v = self.beta(i, i + r)
                cells.append(f"{v if v else '.':>{width}}")
            lines.append(f"{r:>4}: " + " ".join(cells))
        return "\n".join(lines)

    def as_dict(self):
        return {"n": self.n,
                "triples": [[i, j, v] for i, j, v in self.triples()]}


def betti_table(I: GradedIdeal) -> BettiTable:
    """Exact graded Betti numbers of R/I (I Artinian), through the top twist
    s + n, s = artinian_bound() - 1 being the socle degree."""
    n, field = I.n, I.field
    bound = I.artinian_bound()
    if bound == 0:
        raise ValueError("the unit ideal has no socle (R/I = 0)")
    top = bound - 1 + n
    # standard-monomial dimensions through top + 1, and the maps x_k :
    # (R/I)_t -> (R/I)_{t+1} as column lists; R/I is 0 from the bound on,
    # so no piece above it is built
    dims = [I.hilbert_function(t) for t in range(bound)] + [0] * (n + 1)
    mult = [I.multiplication_maps(t) for t in range(bound - 1)]
    subsets = {i: list(itertools.combinations(range(n), i))
               for i in range(n + 1)}

    def chain_dim(i, j):
        t = j - i
        if i < 0 or i > n or t < 0 or t > top:
            return 0
        return len(subsets[i]) * dims[t]

    def differential_rank(i, j):
        """Rank of K_i(j) -> K_{i-1}(j)."""
        t = j - i
        if i < 1 or i > n or t < 0 or t + 1 > top:
            return 0
        rows_dim = chain_dim(i - 1, j)
        cols_dim = chain_dim(i, j)
        if rows_dim == 0 or cols_dim == 0:
            return 0
        src = subsets[i]
        tgt_pos = {S: a for a, S in enumerate(subsets[i - 1])}
        d_src = dims[t]
        d_tgt = dims[t + 1]
        rows = [[0] * cols_dim for _ in range(rows_dim)]
        for b, S in enumerate(src):
            for pos, k in enumerate(S):
                T = tuple(x for x in S if x != k)
                a = tgt_pos[T]
                block = mult[t][k]
                negate = pos % 2 == 1
                for cc in range(d_src):
                    col_vals = block[cc]
                    col_index = b * d_src + cc
                    base = a * d_tgt
                    for rr in range(d_tgt):
                        v = col_vals[rr]
                        if v:
                            rows[base + rr][col_index] = -v if negate else v
        return row_rank(field, rows, cols_dim)

    table = {}
    for j in range(top + 1):
        ranks = [differential_rank(i, j) for i in range(n + 2)]
        for i in range(n + 1):
            beta = chain_dim(i, j) - ranks[i] - ranks[i + 1]
            if beta:
                table[(i, j)] = beta
    return BettiTable(n=n, entries=table)


def has_linear_resolution(table: BettiTable) -> bool:
    """Linear resolution: syzygies in degree d+i-1 and a single top twist
    at 2d+n-2, for an ideal equigenerated in degree d, the one shift of
    column 1 (the minimal generators)."""
    shifts = table.column_shifts(1)
    if len(shifts) != 1:
        raise NotEquigeneratedError(
            "linear resolution is defined for equigenerated ideals")
    d, = shifts
    n = table.n
    for (i, j), v in table.entries.items():
        if i == 0:
            continue
        if 1 <= i <= n - 1 and j != d + i - 1:
            return False
        if i == n and (j != 2 * d + n - 2 or v != 1):
            return False
    return table.beta(n, 2 * d + n - 2) == 1


def socle_decomposition_from_betti(table: BettiTable) -> dict:
    """Socle degrees with multiplicities, read off the top Betti shifts."""
    return {j - table.n: v for (i, j), v in table.entries.items() if i == table.n}
