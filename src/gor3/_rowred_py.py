"""Row-reduction kernels.

The reduced forms below are canonical (unique for a given row space), which
makes every result bit-for-bit deterministic.  They live in a module of
their own, apart from ``linalg``, so that the perfbench tracer times them as
the kernel layer and not as ``linalg`` functions.
"""

from math import gcd


def rref_int(rows):
    """Integer reduced row echelon form.

    rows: list of lists of int (a matrix over QQ with denominators cleared;
    per-row scaling does not change the row space).

    Returns (pivots, out) where out[k] is a primitive integer vector
    (content 1, positive pivot) with its first nonzero entry in column
    pivots[k] and zeros in every other pivot column.  Dividing row k by
    out[k][pivots[k]] gives the canonical rational RREF.
    """
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


def rref_mod(rows, p):
    """Reduced row echelon form over GF(p), rows with leading 1s.

    rows: list of lists of int with entries in [0, p).  Returns
    (pivots, out) with out fully reduced (zeros above and below pivots).
    """
    work = [[v % p for v in r] for r in rows]
    nr = len(work)
    nc = len(work[0]) if nr else 0
    pivots = []
    piv = 0
    for col in range(nc):
        sel = -1
        for i in range(piv, nr):
            if work[i][col]:
                sel = i
                break
        if sel < 0:
            continue
        if sel != piv:
            work[piv], work[sel] = work[sel], work[piv]
        prow = work[piv]
        inv = pow(prow[col], p - 2, p)
        if inv != 1:
            for c in range(col, nc):
                prow[c] = prow[c] * inv % p
        for r in range(nr):
            if r == piv:
                continue
            row = work[r]
            b = row[col]
            if b == 0:
                continue
            for c in range(col, nc):
                row[c] = (row[c] - b * prow[c]) % p
        pivots.append(col)
        piv += 1
        if piv == nr:
            break
    return pivots, [work[k] for k in range(len(pivots))]
