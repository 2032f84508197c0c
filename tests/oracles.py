"""Independent reference computations used by the test suite only.

These deliberately avoid the library's own elimination and Pfaffian
recursions so that the checks stay dual-route.
"""

from fractions import Fraction
from math import gcd

from gor3 import MultiPoly
from gor3.fields import RationalField
from gor3.ideals import degree_one_multiples
from gor3.pfaffians import SkewPolyMatrix


def det_by_minors(rows):
    """Determinant via expansion along the first remaining row, memoized on
    the active column subset; exact for scalar and polynomial entries."""
    n = len(rows)
    memo = {}

    def rec(cols):
        if not cols:
            return 1
        if cols in memo:
            return memo[cols]
        r = n - len(cols)
        total = 0
        for k, c in enumerate(cols):
            a = rows[r][c]
            if isinstance(a, MultiPoly):
                if a.is_zero():
                    continue
            elif a == 0:
                continue
            term = a * rec(tuple(x for x in cols if x != c))
            total = total - term if k % 2 else total + term
        memo[cols] = total
        return total

    return rec(tuple(range(n)))


def random_alternating(rng, size, as_poly=True):
    """Scalar alternating matrix; entries wrapped as constant polynomials
    when asked so the Pfaffian routines accept them."""
    entries = [[0] * size for _ in range(size)]
    for i in range(size):
        for j in range(i + 1, size):
            v = rng.randint(-9, 9)
            entries[i][j] = v
            entries[j][i] = -v
    if not as_poly:
        return entries
    wrapped = [[MultiPoly.constant(1, Fraction(v)) for v in row]
               for row in entries]
    return SkewPolyMatrix(wrapped)


def random_product(rng, nr, nc, rank, bits):
    """An nr x nc integer matrix of rank at most rank: the product of random
    nr x rank and rank x nc factors with entries of up to bits bits."""
    left = [[rng.randint(-2 ** bits, 2 ** bits) for _ in range(rank)] for _ in range(nr)]
    right = [[rng.randint(-2 ** bits, 2 ** bits) for _ in range(nc)] for _ in range(rank)]
    return [[sum(a * b for a, b in zip(row, col)) for col in zip(*right)] for row in left]


def fraction_rref(rows):
    """Independent Gauss-Jordan over Fraction: (pivots, leading-1 rows)."""
    m = [[Fraction(v) for v in r] for r in rows]
    nr = len(m)
    nc = len(m[0]) if nr else 0
    pivots = []
    r = 0
    for c in range(nc):
        sel = next((i for i in range(r, nr) if m[i][c] != 0), None)
        if sel is None:
            continue
        m[r], m[sel] = m[sel], m[r]
        m[r] = [v / m[r][c] for v in m[r]]
        for i in range(nr):
            if i != r and m[i][c] != 0:
                k = m[i][c]
                m[i] = [a - k * b for a, b in zip(m[i], m[r])]
        pivots.append(c)
        r += 1
        if r == nr:
            break
    return pivots, m[:r]


def gcd_rref_int(rows):
    """Integer Gauss-Jordan that divides every updated row by its content:
    the kernel gor3 used before its Bareiss elimination, kept as an oracle
    with the same output contract as gor3._rowred_py.rref_int."""
    work = [list(r) for r in rows]
    nr = len(work)
    nc = len(work[0]) if nr else 0
    pivots = []
    piv = 0
    for col in range(nc):
        sel = -1
        for i in range(piv, nr):
            if work[i][col] != 0:
                sel = i
                break
        if sel < 0:
            continue
        if sel != piv:
            work[piv], work[sel] = work[sel], work[piv]
        prow = work[piv]
        a = prow[col]
        for r in range(nr):
            if r == piv:
                continue
            row = work[r]
            b = row[col]
            if b == 0:
                continue
            g = gcd(a, b)
            ma = a // g
            mb = b // g
            cg = 0
            for c in range(nc):
                v = ma * row[c] - mb * prow[c]
                row[c] = v
                if v:
                    cg = gcd(cg, v)
            if cg > 1:
                for c in range(nc):
                    row[c] //= cg
        pivots.append(col)
        piv += 1
        if piv == nr:
            break
    out = []
    for k, col in enumerate(pivots):
        row = work[k]
        cg = 0
        for v in row:
            if v:
                cg = gcd(cg, v)
        if row[col] < 0:
            cg = -cg
        out.append([v // cg for v in row])
    return pivots, out


def row_rank_profile(rows, p):
    """Rows independent mod p of the rows before them, by a row-at-a-time
    elimination of their own: each row is reduced against whole pivot rows,
    and every row is read."""
    basis = {}
    profile = []
    for i, row in enumerate(rows):
        v = [x % p for x in row]
        for c in range(len(v)):
            if not v[c]:
                continue
            if c not in basis:
                inv = pow(v[c], -1, p)
                basis[c] = [x * inv % p for x in v]
                profile.append(i)
                break
            k = v[c]
            v = [(x - k * y) % p for x, y in zip(v, basis[c])]
    return profile


class Span:
    """Incremental echelon span: the greedy gor3 used for minimal-generator
    extraction before it read fresh generators off one coordinate RREF."""

    def __init__(self, field, length):
        self.field = field
        self.length = length
        self.rows = {}

    def residual(self, vec):
        field = self.field
        v = list(vec)
        i = 0
        while i < self.length:
            c = v[i]
            if field.is_zero(c):
                i += 1
                continue
            row = self.rows.get(i)
            if row is None:
                return v, i
            for j in range(i, self.length):
                w = row[j]
                if not field.is_zero(w):
                    v[j] = field.sub(v[j], field.mul(c, w))
            i += 1
        return v, None

    def add(self, vec) -> bool:
        """Insert vec; returns True if it enlarged the span."""
        v, lead = self.residual(vec)
        if lead is None:
            return False
        field = self.field
        inv = field.inv(v[lead])
        self.rows[lead] = [field.mul(inv, x) for x in v]
        return True


def primitive_poly(n, t, vec, field):
    """Coefficient vector -> polynomial, scaled primitive over QQ, through
    Fraction arithmetic (int(v * lcm)) rather than gor3's integer boundary."""
    if isinstance(field, RationalField):
        lcm = 1
        for v in vec:
            d = v.denominator
            lcm = lcm // gcd(lcm, d) * d
        ints = [int(v * lcm) for v in vec]
        g = 0
        for v in ints:
            if v:
                g = gcd(g, v)
        if g:
            lead = next(v for v in ints if v)
            if lead < 0:
                g = -g
            vec = [Fraction(v // g) for v in ints]
    return MultiPoly.from_vector(n, t, vec, field)


def greedy_fresh_generators(piece, below):
    """The rows of piece outside R_1 * below, as forms: the degree-one
    multiples of below enter a Span first, then the rows of piece in order,
    and a row is kept when it enlarges the span."""
    if not piece.dim:
        return []
    field = piece.field
    span = Span(field, piece.ambient_dim)
    if below is not None:
        for vec in degree_one_multiples(below, field):
            span.add(vec)
    return [primitive_poly(piece.n, piece.t, row, field)
            for row in piece.rows if span.add(row)]
