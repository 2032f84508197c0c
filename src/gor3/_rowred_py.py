"""Row-reduction kernels.

The reduced forms below are canonical (unique for a given row space), which
makes every result bit-for-bit deterministic.  rank_profile_mod is the
forward-only pass: it names the rows a reduction keeps and reduces nothing
above a pivot, for callers that need a rank or a choice of rows and no
reduced form.  The kernels live in a module of their own, apart from
``linalg``, so that the perfbench tracer times them as the kernel layer and
not as ``linalg`` functions.
"""

from math import gcd


def _bareiss(work):
    """Fraction-free forward elimination (Bareiss 1968) on the list work,
    whose rows are replaced, never mutated.

    Each row update divides exactly by the previous pivot, so every entry
    stays a minor of the input and no gcd is taken.  Rows 0..rank-1 of work
    end in echelon form and the rows below them zero.  Returns (pivots,
    sign): the pivot columns and the parity of the row swaps.
    """
    nr = len(work)
    nc = len(work[0]) if nr else 0
    pivots = []
    sign = 1
    prev = 1
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
            sign = -sign
        prow = work[piv]
        a = prow[col]
        for i in range(piv + 1, nr):
            row = work[i]
            b = row[col]
            if b:
                work[i] = [(a * x - b * y) // prev for x, y in zip(row, prow)]
            elif a != prev:
                # rows with a zero in the pivot column are rescaled too, or
                # the next exact division fails
                work[i] = [a * x // prev for x in row]
        prev = a
        pivots.append(col)
        piv += 1
        if piv == nr:
            break
    return pivots, sign


def rref_int(rows):
    """Integer reduced row echelon form.

    rows: list of lists of int (a matrix over QQ with denominators cleared;
    per-row scaling does not change the row space).

    Returns (pivots, out) where out[k] is a primitive integer vector
    (content 1, positive pivot) with its first nonzero entry in column
    pivots[k] and zeros in every other pivot column.  Dividing row k by
    out[k][pivots[k]] gives the canonical rational RREF.

    Bareiss forward elimination, then fraction-free back-substitution of the
    free columns against d = |last pivot| (Nakos, Turner and Williams 1997):
    row k becomes d times the RREF row, which is integral by Cramer's rule.
    """
    work = list(rows)
    pivots, _ = _bareiss(work)
    rank = len(pivots)
    if not rank:
        return [], []
    nc = len(work[0])
    free = [c for c in range(nc) if c not in pivots]
    d = abs(work[rank - 1][pivots[-1]])
    solved = [None] * rank     # solved[k]: d * RREF row k on the free columns
    for k in range(rank - 1, -1, -1):
        row = work[k]
        acc = [d * row[f] for f in free]
        for j in range(k + 1, rank):
            u = row[pivots[j]]
            if u:
                acc = [s - u * x for s, x in zip(acc, solved[j])]
        pk = row[pivots[k]]
        solved[k] = [s // pk for s in acc]
    out = []
    for col, vals in zip(pivots, solved):
        g = gcd(d, *vals)
        line = [0] * nc
        line[col] = d // g
        for f, v in zip(free, vals):
            line[f] = v // g
        out.append(line)
    return pivots, out


def rref_mod(rows, p):
    """Reduced row echelon form over GF(p), rows with leading 1s.

    rows: sequences of int, reduced mod p on entry.  Returns (pivots, out)
    with out fully reduced (zeros above and below pivots).
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


def rank_profile_mod(rows, p, limit):
    """Row rank profile over GF(p): the indices, in order, of the rows that
    are independent mod p of the rows before them, at most limit of them.

    Each row is reduced mod p against the pivot rows kept so far, the
    earliest pivot column first; a row that stays nonzero is kept and its
    leading entry becomes a new pivot.  The pass stops once limit rows are
    kept and never reduces above a pivot.  The result equals the pivots of
    rref_mod on the transposed rows.
    """
    basis = {}      # pivot column -> the pivot row from that column on, leading 1
    profile = []
    for i, row in enumerate(rows):
        if len(profile) == limit:
            break
        v = [x % p for x in row]
        for c in range(len(v)):
            x = v[c]
            if not x:
                continue
            tail = basis.get(c)
            if tail is None:
                inv = pow(x, -1, p)
                basis[c] = [y * inv % p for y in v[c:]]
                profile.append(i)
                break
            v[c:] = [(a - x * b) % p for a, b in zip(v[c:], tail)]
    return profile
