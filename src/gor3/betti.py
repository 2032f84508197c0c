"""Graded Betti numbers of Artinian quotients via Koszul homology.

beta_{i,j} = dim Tor_i(k, R/I)_j is the degree-j homology of the Koszul
complex on the variables tensored with R/I (Eisenbud, Commutative Algebra,
17.4): dim K_i(j) - rank d_i(j) - rank d_{i+1}(j), dim K_i(j) = C(n, i)
H(j - i).  In every characteristic rank d_1(j) = H(j) - [j = 0], the image
being m(R/I); rank d_2(j) = dim K_1(j) - rank d_1(j) - beta_{1,j}, beta_{1,j}
counting the minimal generators of degree j; and rank d_n(j) = dim K_n(j) -
beta_{n,j}, the top homology being the socle shifted by n (socle_report
builds no map for a certified Gorenstein ideal).  So for n <= 3 no
differential is built.  For n >= 4 the middle ranks d_3 .. d_{n-1} come
from integer rows over the multiplication maps of ``ideals`` (one scale per
degree, exterior basis in lex order on index subsets), one linalg.row_rank
call each.  The top twist is socle degree + n.
"""

from __future__ import annotations

import itertools
from math import comb

from .ideals import GradedIdeal, NotEquigeneratedError
from .linalg import row_rank


class BettiTable:
    """beta_{i,j} of R/I over n variables: entries maps (i, j) to each
    nonzero beta_{i,j}."""
    __slots__ = ("n", "entries")

    def __init__(self, n, entries=None):
        self.n = n
        self.entries = {} if entries is None else entries

    def __eq__(self, other):
        if other.__class__ is not self.__class__:
            return NotImplemented
        return (self.n, self.entries) == (other.n, other.entries)

    def __repr__(self):
        return f"BettiTable(n={self.n!r}, entries={self.entries!r})"

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
    # H(t) through the top twist + 1; R/I is 0 from the bound on
    dims = [I.hilbert_function(t) for t in range(bound)] + [0] * (n + 1)
    generators = I.minimal_generator_profile()
    socle = I.socle_report().socle_dims
    # the maps x_k : (R/I)_t -> (R/I)_{t+1} as column lists, for d_3 .. d_{n-1}
    mult = [I.multiplication_maps(t) for t in range(bound - 1)] if n > 3 else []

    def chain_dim(i, j):
        return comb(n, i) * dims[j - i] if j >= i else 0

    def koszul_rank(i, j):
        """Rank of d_i(j) from its dense matrix, one row per basis vector
        of K_{i-1}(j); zero unless (R/I)_t and (R/I)_{t+1} are nonzero."""
        t = j - i
        if not 0 <= t < len(mult):
            return 0
        target = {S: a for a, S in enumerate(itertools.combinations(range(n), i - 1))}
        rows = [[0] * chain_dim(i, j) for _ in range(chain_dim(i - 1, j))]
        for b, S in enumerate(itertools.combinations(range(n), i)):
            for pos, k in enumerate(S):
                base, sign = target[S[:pos] + S[pos + 1:]] * dims[t + 1], (-1) ** pos
                for c, image in enumerate(mult[t][k]):
                    for r, v in enumerate(image):
                        if v:
                            rows[base + r][b * dims[t] + c] = sign * v
        return row_rank(field, rows, chain_dim(i, j))

    table = {}
    for j in range(bound + n):
        # the ranks of d_0 = 0, d_1, d_2, d_3 .. d_{n-1}, d_n and d_{n+1} = 0
        ranks = [0, dims[j] - (j == 0)]
        ranks.append(chain_dim(1, j) - ranks[1] - generators.get(j, 0))
        ranks += [koszul_rank(i, j) for i in range(3, n)]
        last = chain_dim(n, j) - socle.get(j - n, 0)
        if n >= 3:
            ranks.append(last)
        else:   # d_n is d_1 or d_2: both identities must give its rank
            assert ranks[n] == last, (j, ranks, last)
        ranks.append(0)
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
