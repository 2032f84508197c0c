"""Independent reference computations used by the test suite only.

These deliberately avoid the library's own elimination and Pfaffian
recursions so that the checks stay dual-route.
"""

from fractions import Fraction
from math import gcd

from gor3 import MultiPoly
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
