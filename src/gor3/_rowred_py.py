"""Row-reduction kernels: one elimination over QQ and one over GF(p).

The reduced forms below are canonical (unique for a given row space), which
makes every result bit-for-bit deterministic.  Each field has one forward
pass, finished into an RREF by back-substituting the free columns: _bareiss
and rref_int over QQ, whose _back_substitute also gives linalg its maximal
minors, and rank_profile_mod and rref_mod over GF(p).
rank_profile_mod names the rows a reduction keeps and reduces nothing above
a pivot; rref_mod back-substitutes the echelon form it kept, so a rank, a
profile and an RREF mod p all come from one pass.  Over QQ the pass is
left to right unless the caller proved pivot columns mod p: then it pivots
inside them, on the smallest entry of each pivot row, since every Bareiss
entry is a minor of the rows and columns pivoted so far.  The kernels keep
no prime policy: whether the result is the RREF, and what to do when the
prime was unlucky, is decided by linalg.rref_rows.  Both forward passes
are lazy.  In _bareiss a row holds minors at its own level, the pivot of
the step that last updated it, and is divided by that level's pivot when
it is next updated; a row with a zero in the pivot column is left as it
is, and a pivot row is brought up to date when it is chosen.  In
rank_profile_mod a row is one Python int with a slot per column
(Kronecker substitution); a slot is reduced mod p only when it is read,
and a row is updated at a pivot by one multiply-add of ints, with no
per-entry loop and no remainder (delayed reduction, as in Dumas, Fousse
and Salvy, J. Symb. Comput. 46, 2011).  The kernels live in a module of
their own, apart from ``linalg``, so that the perfbench tracer times them
as the kernel layer and not as ``linalg`` functions.
"""

from math import gcd


def _bareiss(work, columns=None):
    """Fraction-free forward elimination (Bareiss 1968) on the list work,
    whose rows are replaced, never mutated.

    Each row keeps a level, the pivot of the step that last updated it (1
    before any step), and holds the minors of that step.  It is divided by
    its level's pivot when it is next updated: (a * x - b * y) // level is
    exact, the standard update of the row rescaled to the current step.  A
    row with a zero in the pivot column is left as it is, and a pivot row
    is brought up to date, once, when it is chosen.  No gcd is taken.

    Without columns the pivots are taken left to right: the pivot of each
    column is its first nonzero row at or below the current step, swapped
    up.  columns lists pivot columns whose block in work is nonsingular,
    one per row (those of the mod-p profile in linalg.rref_rows, which
    checks the result, since they need not be the pivot columns over QQ).
    Then row k is the pivot row of step k, with no swap, since the Schur
    complement of a nonsingular block has no zero row, and its pivot is its
    entry of least absolute value in a column of columns not yet used.
    After k steps every entry is a (k+1) x (k+1) minor of the rows and
    columns pivoted so far, so small pivots keep the minors that follow
    small.

    Rows 0..rank-1 of work end in echelon form, each zero at the pivot
    columns before its own, and the rows below them zero.  Returns
    (pivots, sign): the pivot columns in the order taken and the parity of
    the row swaps.
    """
    nr = len(work)
    nc = len(work[0]) if nr else 0
    level = [1] * nr
    pivots = []
    unused = list(columns or ())
    sign = 1
    prev = 1
    col = -1
    for piv in range(nr):
        if columns is None:
            sel = -1
            while sel < 0:
                col += 1
                if col == nc:
                    return pivots, sign
                for i in range(piv, nr):
                    if work[i][col]:
                        sel = i
                        break
            if sel != piv:
                work[piv], work[sel] = work[sel], work[piv]
                level[piv], level[sel] = level[sel], level[piv]
                sign = -sign
        prow = work[piv]
        if level[piv] != prev:
            lv = level[piv]
            prow = work[piv] = [prev * x // lv for x in prow]
        if columns is not None:
            least = 0
            for c in unused:
                v = abs(prow[c])
                if v and (not least or v < least):
                    least, col = v, c
            unused.remove(col)
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
    return pivots, sign


def _back_substitute(work, pivots, free, d):
    """Fraction-free back-substitution (Nakos, Turner and Williams 1997) of
    the echelon rows work[:len(pivots)] that _bareiss leaves, pivots their
    pivot columns in the order it took them, which may be any order.
    Returns solved, solved[k] the list of d times RREF row k at the columns
    free, worked out last row first.  d is the last pivot or its negative, the
    determinant of the pivot block up to sign, so every entry is integral
    by Cramer's rule and each division by a pivot is exact.
    """
    rank = len(pivots)
    solved = [None] * rank
    for k in range(rank - 1, -1, -1):
        row = work[k]
        acc = [d * row[f] for f in free]
        for j in range(k + 1, rank):
            u = row[pivots[j]]
            if u:
                acc = [s - u * x for s, x in zip(acc, solved[j])]
        pk = row[pivots[k]]
        solved[k] = [s // pk for s in acc]
    return solved


def rref_int(rows, pivots=None):
    """Integer reduced row echelon form.

    rows: list of lists of int (a matrix over QQ with denominators cleared;
    per-row scaling does not change the row space).

    Returns (pivots, out) where out[k] is a primitive integer vector
    (content 1, positive pivot) with its first nonzero entry in column
    pivots[k] and zeros in every other pivot column.  Dividing row k by
    out[k][pivots[k]] gives the canonical rational RREF.

    Bareiss forward elimination, then fraction-free back-substitution of the
    free columns against d = |last pivot| (_back_substitute): row k becomes
    d times the RREF row.

    pivots, when given, are columns P, one per row, whose block A_P is
    nonsingular: the pivot columns of these rows modulo a prime, which
    linalg.rref_rows has.  _bareiss then pivots inside P on small entries,
    and out is A_P^-1 * rows, with content 1 and a positive pivot, sorted
    by pivot column: the RREF when P is the column profile over QQ, and
    otherwise nonzero in some free column left of a pivot, which
    linalg.rref_rows checks.
    """
    work = list(rows)
    order, _ = _bareiss(work, pivots)
    if not order:
        return [], []
    nc = len(work[0])
    free = [c for c in range(nc) if c not in order]
    d = abs(work[len(order) - 1][order[-1]])
    out = []
    solved = _back_substitute(work, order, free, d)
    for col, vals in sorted(zip(order, solved)):
        g = gcd(d, *vals)
        line = [0] * nc
        line[col] = d // g
        for f, v in zip(free, vals):
            line[f] = v // g
        out.append(line)
    return sorted(order), out


def rref_mod(rows, p, basis):
    """Reduced row echelon form over GF(p): (pivots, out), out the rows
    with leading 1s and zeros above and below each pivot.

    rows: the rows rank_profile_mod chose as its profile, and basis the
    echelon form that pass kept (pivot column -> the pivot row after its
    leading 1, mod p).  No entry of rows is read, only their number of
    columns: the echelon form is finished by back-substitution alone.

    As in rref_int only the free columns are solved, last pivot first:
    reduced row k is echelon row k minus u_j times reduced row j for every
    later pivot j, u_j being echelon row k's entry at pivot j, which no
    reduced row changes, since each is 0 at every other pivot.  That is
    O(rank^2 * free) updates; entries are reduced mod p once per row.
    """
    nc = len(rows[0]) if rows else 0
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


def rank_profile_mod(rows, p, limit):
    """(profile, basis): the row rank profile over GF(p), the indices, in
    order, of the rows that are independent mod p of the rows before them,
    at most limit of them, and the echelon form that pass kept.

    Each row is reduced mod p against the pivot rows kept so far, the
    earliest pivot column first; a row that stays nonzero is kept and its
    leading entry becomes a new pivot.  The pass stops once limit rows are
    kept, reading no row after the last of them, and never reduces above a
    pivot.  The profile equals the pivot columns of the RREF of the
    transposed rows.  basis maps each pivot column to its pivot row after
    the leading 1, mod p, which rref_mod finishes into the RREF of the
    profile rows.

    A row is packed into one int v with a w-bit slot per column, column 0
    in the top slot; nc and w are taken from the first row read.  The
    leading column is read off v.bit_length(), so zero columns cost
    nothing, and the leading slot is reduced mod p and masked off.  A
    pivot row is stored twice: in basis, and packed negated as neg[c],
    p - a in the slot of each nonzero tail entry a, so that one
    multiply-add v += y * neg[c] updates the whole row.  Every term it adds
    is nonnegative, so no slot borrows.  A slot starts below p and gains
    less than p^2 per update, at most once per pivot column left of it, so
    it stays below nc * p^2 + p < 2^w and never carries into its neighbour.
    """
    profile = []
    basis = {}
    neg = {}
    for i, row in enumerate(rows):
        if len(profile) == limit:
            break
        if not i:
            nc = len(row)
            w = (nc * p * p + p).bit_length()
        v = 0
        for x in row:
            v <<= w
            if x:
                v |= x % p
        while v:
            s = (v.bit_length() - 1) // w     # the slot of the leading column
            off = s * w
            y = (v >> off) % p
            v &= (1 << off) - 1
            if not y:
                continue
            c = nc - 1 - s
            negated = neg.get(c)
            if negated is None:
                # a new pivot: unpack the nonzero slots of the rest of v
                inv = pow(y, -1, p)
                scaled = [0] * s
                packed = 0
                while v:
                    k = (v.bit_length() - 1) // w
                    o = k * w
                    a = (v >> o) % p
                    v &= (1 << o) - 1
                    if a:
                        a = a * inv % p
                        scaled[s - 1 - k] = a
                        packed |= (p - a) << o
                basis[c] = scaled
                neg[c] = packed
                profile.append(i)
                break
            v += y * negated
    return profile, basis
