"""Row-reduction kernels: one elimination over QQ and one over GF(p).

The reduced forms below are canonical (unique for a given row space), which
makes every result bit-for-bit deterministic.  Each field has one forward
pass, finished into an RREF by back-substituting the free columns: _bareiss
and rref_int over QQ, rank_profile_mod and rref_mod over GF(p).
rank_profile_mod names the rows a reduction keeps and reduces nothing above
a pivot; rref_mod back-substitutes the echelon form it kept, so a rank, a
profile and an RREF mod p all come from one pass.  Both forward passes are
lazy.  In _bareiss a row holds minors at its own level, the pivot of the
step that last updated it, and is divided by that level's pivot when it is
next updated; a row with a zero in the pivot column is left as it is, and a
pivot row is brought up to date when it is chosen.  In rank_profile_mod
entries are reduced mod p only when they are read.  The kernels live in a
module of their own, apart from ``linalg``, so that the perfbench tracer
times them as the kernel layer and not as ``linalg`` functions.
"""

from math import gcd


def _bareiss(work):
    """Fraction-free forward elimination (Bareiss 1968) on the list work,
    whose rows are replaced, never mutated.

    Each row keeps a level, the pivot of the step that last updated it (1
    before any step), and holds the minors of that step.  It is divided by
    its level's pivot when it is next updated: (a * x - b * y) // level is
    exact, the standard update of the row rescaled to the current step.  A
    row with a zero in the pivot column is left as it is, and a pivot row
    is brought up to date, once, when it is chosen.  No gcd is taken.  Rows
    0..rank-1 of work end in the echelon form of the standard elimination
    and the rows below them zero.  Returns (pivots, sign): the pivot
    columns and the parity of the row swaps.
    """
    nr = len(work)
    nc = len(work[0]) if nr else 0
    level = [1] * nr
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
            level[piv], level[sel] = level[sel], level[piv]
            sign = -sign
        prow = work[piv]
        if level[piv] != prev:
            lv = level[piv]
            prow = work[piv] = [prev * x // lv for x in prow]
        a = prow[col]
        for i in range(piv + 1, nr):
            row = work[i]
            b = row[col]
            if b:
                lv = level[i]
                work[i] = [(a * x - b * y) // lv for x, y in zip(row, prow)]
                level[i] = a
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


def rref_mod(rows, p, basis=None):
    """Reduced row echelon form over GF(p): (pivots, out), out the rows
    with leading 1s and zeros above and below each pivot.

    rows: sequences of int, reduced mod p as they are read.  The forward
    pass is rank_profile_mod's, finished by _back_substitute.  basis, when
    given, is the echelon form that pass kept when it chose these rows as
    its profile, and no entry of rows is read.
    """
    nc = len(rows[0]) if rows else 0
    if basis is None:
        basis = {}
        rank_profile_mod(rows, p, nc, (), basis)
    return _back_substitute(basis, nc, p)


def _back_substitute(basis, nc, p):
    """The RREF over GF(p), as rref_mod returns it, of the row echelon form
    basis (pivot column -> the pivot row after its leading 1, mod p) of rows
    with nc columns.

    As in rref_int only the free columns are solved, last pivot first:
    reduced row k is echelon row k minus u_j times reduced row j for every
    later pivot j, u_j being echelon row k's entry at pivot j, which no
    reduced row changes, since each is 0 at every other pivot.  That is
    O(rank^2 * free) updates; entries are reduced mod p once per row.
    """
    pivots = sorted(basis)
    free = [c for c in range(nc) if c not in basis]
    solved = {}
    for k in range(len(pivots) - 1, -1, -1):
        c = pivots[k]
        tail = basis[c]
        acc = [tail[f - c - 1] if f > c else 0 for f in free]
        for j in pivots[k + 1:]:
            u = tail[j - c - 1]
            if u:
                acc = [a - u * x for a, x in zip(acc, solved[j])]
        solved[c] = [a % p for a in acc]
    out = []
    for c in pivots:
        line = [0] * nc
        line[c] = 1
        for f, v in zip(free, solved[c]):
            line[f] = v
        out.append(line)
    return pivots, out


def rank_profile_mod(rows, p, limit, skip=(), basis=None):
    """Row rank profile over GF(p): the indices, in order, of the rows that
    are independent mod p of the rows before them, at most limit of them.

    Each row is reduced mod p against the pivot rows kept so far, the
    earliest pivot column first; a row that stays nonzero is kept and its
    leading entry becomes a new pivot.  The pass stops once limit rows are
    kept and never reduces above a pivot.  The result equals the pivot
    columns of the RREF of the transposed rows.

    skip holds indices of rows the caller knows to depend mod p on the rows
    before them; they are passed over unread, which changes neither the
    profile nor the echelon form.  basis, when the caller passes a dict,
    keeps that echelon form: pivot column -> the pivot row after its
    leading 1, mod p, which rref_mod finishes into the RREF of the profile
    rows.

    Entries are reduced mod p only when they are read: a pivot row is
    stored reduced and without its leading 1, and the update of the row
    being reduced takes no remainder, so its entries stay below about
    ncols * p^2 in absolute value.
    """
    if basis is None:
        basis = {}
    profile = []
    for i, row in enumerate(rows):
        if len(profile) == limit:
            break
        if i in skip:
            continue
        v = [x % p for x in row]
        for c in range(len(v)):
            x = v[c] % p
            if not x:
                continue
            tail = basis.get(c)
            if tail is None:
                inv = pow(x, -1, p)
                basis[c] = [y * inv % p for y in v[c + 1:]]
                profile.append(i)
                break
            v[c + 1:] = [a - x * b for a, b in zip(v[c + 1:], tail)]
    return profile
