"""Independent reference computations used by the test suite only.

These deliberately avoid the library's own elimination and Pfaffian
recursions so that the checks stay dual-route.
"""

import itertools
import random
from fractions import Fraction
from math import gcd

from gor3 import GradedIdeal, MultiPoly
from gor3.apolarity import directrix_form
from gor3.betti import BettiTable
from gor3.cases import ex_2_5_ideal, ex_3_7_ideal, ex_4_5_ideal, ex_4_9_ideal
from gor3.fields import RationalField
from gor3.ideals import (REDUCTION_RETRIES, NotArtinianError, pure_power_index,
                         variable_lines, variable_power_ideal)
from gor3.linalg import normal_form, row_rank
from gor3.monomials import deglex_key, monomials_of_degree
from gor3.parsing import PolyParseError, _tokenize, parse_poly
from gor3.pfaffians import (
    SkewPolyMatrix,
    _composite_images,
    generic_skew_matrix,
    maximal_pfaffians,
)
from gor3.pieces import degree_one_multiples, fresh_generators, integer_span


def piece_rows(piece):
    """The RREF of a piece in field scalars: leading-1 rows, Fractions over
    QQ (field.scalar_rows of its integer rows)."""
    return piece.field.scalar_rows(piece.pivots, piece.int_rows)


def span_of_vectors(n, t, vectors, field):
    """The piece spanned by vectors of field scalars (over QQ, Fractions or
    integers), through their integer rows."""
    return integer_span(n, t, [field.integer_row(v)[0] for v in vectors], field)


def reduce_vector(piece, vec):
    """The residual of a vector of field scalars modulo a piece, in field
    scalars: sum(v[x] * nf[x]) over the piece's normal form, placed on its
    free columns and divided by the pivot lcm and the row's multiplier."""
    field = piece.field
    ints, den = field.integer_row(vec)
    lcm, free, nf = normal_form(piece.pivots, piece.int_rows, len(ints))
    out = [field.zero] * len(ints)
    for j, c in enumerate(free):
        out[c] = field.div(sum(v * nf[x][j] for x, v in enumerate(ints)), lcm * den)
    return out


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


def five_quadrics_by_cofactors(quadrics):
    """(delta, dee) of the five-quadrics certificate by cofactor expansion:
    delta = det(top), the vector last * adj(top) with adj(top)[k][i] the
    signed 4 x 4 minor of top without row i and column k, and dee the
    determinant of the symmetric arrangement of that vector and -delta.
    Integer arithmetic is reduced into the field at the end."""
    field = quadrics[0].field
    cols = [q.to_vector(2) for q in quadrics]
    top = [[cols[j][i] for j in range(5)] for i in range(5)]
    last = [cols[j][5] for j in range(5)]

    def cofactor(i, k):
        minor = [[v for c, v in enumerate(row) if c != k]
                 for r, row in enumerate(top) if r != i]
        return (-1) ** (i + k) * det_by_minors(minor)

    delta = det_by_minors(top)
    d1, d2, d3, d4, d5 = (sum(last[k] * cofactor(i, k) for k in range(5))
                          for i in range(5))
    dee = det_by_minors([[d1, d2, d3], [d2, d4, d5], [d3, d5, -delta]])
    return field.of(delta), field.of(dee)


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



def rank_profile_by_lists(rows, p, limit):
    """The GF(p) forward pass on list rows, as the kernel took it before
    its rows were packed into ints: (profile, basis) of the same contract
    as _rowred_py.rank_profile_mod.  Entries are reduced mod p only when
    read as a pivot candidate, and a row is updated at a pivot by one list
    comprehension over the pivot row's tail."""
    profile = []
    basis = {}
    for i, row in enumerate(rows):
        if len(profile) == limit:
            break
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
    return profile, basis

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
        for vec in degree_one_multiples(below):
            span.add(vec)
    return [primitive_poly(piece.n, piece.t, row, field)
            for row in piece_rows(piece) if span.add(row)]


def minimal_generators_through_the_bound(ideal):
    """The minimal generators read off every piece through the top generator
    degree, for a from_pieces ideal truncated_at or its bound, whatever the
    Hilbert function: GradedIdeal.minimal_generators' loop before it
    stopped at the socle degree of a certified Gorenstein ideal."""
    top = (ideal.max_generator_degree if ideal._gens is not None
           else ideal._walk.bound if ideal.truncated_at is None
           else ideal.truncated_at)
    return [g for t in range(top + 1) for g in fresh_generators(
        ideal.graded_piece(t), ideal.graded_piece(t - 1) if t else None)]


def colon_by_kernel(base, f, t_max=None):
    """(base : f) through the kernel of multiplication by f into R/base,
    degree by degree (GradedIdeal._colon_piece), whatever the base: the
    route GradedIdeal.colon takes for every base but pure powers, with its
    rule for t_max (the pieces through t_max, or through the Artinian bound
    of the Artinian base; from_pieces labels the result truncated unless
    one of them is full)."""
    e = f.homogeneous_degree()
    if t_max is None:
        t_max = base.artinian_bound()
    return GradedIdeal.from_pieces(
        base.n, (base._colon_piece(t, f, e) for t in range(t_max + 1)),
        base.field)


def registry_colons(field):
    """(label, build) for every colon the case registry takes, build()
    returning a fresh ideal over field: the four examples, the
    non-equigenerated one, the colons of sum-power by powers of x + y + z,
    and the colons of duality-roundtrip by directrix forms."""
    names = ["x", "y", "z"]
    examples = [("ex-2-5", ex_2_5_ideal), ("ex-3-7", ex_3_7_ideal),
                ("ex-4-5", ex_4_5_ideal), ("ex-4-9", ex_4_9_ideal)]
    out = [(name, lambda build=build: build(field)) for name, build in examples]
    cubes = parse_poly("x^3 + y^3 + z^3", names, field)
    out.append(("non-equigen-xyz",
                lambda: variable_power_ideal(3, 4, field).colon(cubes)))
    ell = parse_poly("x + y + z", names, field)
    for m in range(1, 6):
        for e in range(7):
            s = 3 * (m - 1) - e
            if s >= 0 and s % 2 == 0 and m >= s // 2 + 1:
                out.append((f"sum-power m={m} e={e}",
                            lambda m=m, e=e: variable_power_ideal(3, m, field)
                            .colon(ell ** e)))
    for name, build in examples:
        I = build(field)
        s = I.socle_report().socle_degree
        for m in sorted({pure_power_index(I, variable_lines(3, field)), s + 1}):
            f = directrix_form(I, m)
            out.append((f"{name} directrix m={m}",
                        lambda m=m, f=f: variable_power_ideal(3, m, field).colon(f)))
    return out


# ----------------------------------------------------------------------
# Dense builders by exponent-tuple arithmetic.  Each position is found by
# adding or subtracting exponent tuples and searching the basis list, the
# route gor3 took before it read positions off monomials.product_table.


def _tuple_sum(a, b):
    return tuple(x + y for x, y in zip(a, b))


def _tuple_difference(a, b):
    """b - a, or None if a coordinate goes negative."""
    out = tuple(y - x for x, y in zip(a, b))
    return None if any(v < 0 for v in out) else out


def shifted_rows_by_tuples(n, t, gens_with_terms):
    """Coefficient vectors of x^alpha * g for the (degree, term map) pairs of
    degree at most t, alpha running over the degree-(t - deg g) basis."""
    basis = list(monomials_of_degree(n, t))
    out = []
    for d, terms in gens_with_terms:
        if d > t:
            continue
        for alpha in monomials_of_degree(n, t - d):
            vec = [0] * len(basis)
            for e, c in terms.items():
                vec[basis.index(_tuple_sum(alpha, e))] = c
            out.append(vec)
    return out


def multiplication_maps_by_tuples(I, t):
    """x_k : (R/I)_t -> (R/I)_{t+1} as GradedIdeal.multiplication_maps
    writes them: the image of x^c * x_k over the standard monomials of the
    piece above, all scaled by the lcm L of its pivot entries."""
    n = I.n
    std = I.graded_piece(t).standard_columns
    above = I.graded_piece(t + 1)
    std_above = list(above.standard_columns)
    lcm = 1
    for p, row in zip(above.pivots, above.int_rows):
        lcm = lcm * row[p] // gcd(lcm, row[p])

    def image(q):
        if q in std_above:
            vec = [0] * len(std_above)
            vec[std_above.index(q)] = lcm
            return vec
        row = above.int_rows[above.pivots.index(q)]
        return [-(lcm // row[q]) * row[c] for c in std_above]

    src = monomials_of_degree(n, t)
    basis = list(monomials_of_degree(n, t + 1))
    units = [tuple(int(i == k) for i in range(n)) for k in range(n)]
    return [[image(basis.index(_tuple_sum(src[c], u))) for c in std]
            for u in units]


def catalecticant_rows_by_tuples(n, s, terms, t):
    """Contraction R_t -> D_{s-t} against the degree-s dual form with the
    given term map: row gamma, column alpha holds the coefficient at beta
    whenever beta - alpha = gamma."""
    rows_basis = list(monomials_of_degree(n, s - t))
    cols_basis = monomials_of_degree(n, t)
    rows = [[0] * len(cols_basis) for _ in rows_basis]
    for col, alpha in enumerate(cols_basis):
        for beta, b in terms.items():
            gamma = _tuple_difference(alpha, beta)
            if gamma is not None:
                rows[rows_basis.index(gamma)][col] = b
    return rows


def field_rref(rows, field):
    """Gauss-Jordan in the field's own arithmetic: (pivots, leading-1 rows)."""
    m = [[field.of(v) for v in r] for r in rows]
    nr = len(m)
    nc = len(m[0]) if nr else 0
    pivots = []
    r = 0
    for c in range(nc):
        sel = next((i for i in range(r, nr) if not field.is_zero(m[i][c])), None)
        if sel is None:
            continue
        m[r], m[sel] = m[sel], m[r]
        inv = field.inv(m[r][c])
        m[r] = [field.mul(inv, v) for v in m[r]]
        for i in range(nr):
            if i != r and not field.is_zero(m[i][c]):
                k = m[i][c]
                m[i] = [field.sub(a, field.mul(k, b)) for a, b in zip(m[i], m[r])]
        pivots.append(c)
        r += 1
    return pivots, m[:r]


def reduction_by_products(I, seed):
    """check_reduction_two's report as a dict, from MultiPoly products and
    field_rref ranks.  J is redrawn with the same random.Random(seed) calls
    and the same retry rule: a draw with a zero combination, or whose three
    forms of degree d leave R_{3d-2} outside J, is drawn again.  J*I = I^2
    and J*I^2 = I^3 are compared by the ranks of every product of
    generators in degrees 2d and 3d."""
    n, field, gens = I.n, I.field, I.generators
    d = gens[0].homogeneous_degree()
    rng = random.Random(seed)

    def rank(products, t):
        return len(field_rref([p.to_vector(t) for p in products], field)[0])

    def products(*factor_lists):
        return [a * b for a, b in itertools.product(*factor_lists)]

    pairs = [g * h for g, h in itertools.combinations_with_replacement(gens, 2)]
    triples = [f * g * h for f, g, h in itertools.combinations_with_replacement(gens, 3)]
    for attempts in range(1, REDUCTION_RETRIES + 1):
        combos = []
        for _ in range(3):
            combo = MultiPoly.zero(n, field)
            for g in gens:
                c = rng.randint(-10, 10)
                if c:
                    combo = combo + g.scale(c)
            combos.append(combo)
        if any(c.is_zero() for c in combos):
            continue
        top = n * (d - 1) + 1
        shifts = [MultiPoly.monomial(a, 1, field) for a in monomials_of_degree(n, top - d)]
        if rank(products(combos, shifts), top) < len(list(monomials_of_degree(n, top))):
            continue
        ji = rank(products(combos, gens), 2 * d) == rank(pairs, 2 * d)
        ji2 = rank(products(combos, pairs), 3 * d) == rank(triples, 3 * d)
        return {"reduction_number_is_two": ji2 and not ji, "ji_equals_i2": ji,
                "ji2_equals_i3": ji2, "seed": seed, "attempts": attempts}
    raise RuntimeError("no height-3 reduction in the seeded attempts")


def colon_piece_by_field_rref(base, f, t):
    """(base : f)_t = {g in R_t : g * f in base_{t+e}}, e = deg f, in field
    arithmetic: the kernel of the matrix whose columns are the vectors
    x^gamma * f, gamma of degree t, then a basis of base_{t+e}, all built by
    exponent-tuple arithmetic and reduced by field_rref.  A kernel vector
    restricted to its first dim R_t entries lies in the colon, and every
    element arises so.  Returns the (pivots, leading-1 rows) of their span:
    no integer row, no normal form and no library elimination."""
    n, field = base.n, base.field
    e = f.homogeneous_degree()
    gens = [(g.homogeneous_degree(), dict(g.terms)) for g in base.generators]
    _, target = field_rref(shifted_rows_by_tuples(n, t + e, gens), field)
    cols = shifted_rows_by_tuples(n, t + e, [(e, dict(f.terms))]) + target
    pivots, red = field_rref([list(r) for r in zip(*cols)], field)
    dim_t = len(monomials_of_degree(n, t))
    kernel = []
    for c in range(len(cols)):
        if c in pivots:
            continue
        vec = [field.one if x == c else field.zero for x in range(len(cols))]
        for p, row in zip(pivots, red):
            vec[p] = field.neg(row[c])
        kernel.append(vec[:dim_t])
    return field_rref(kernel, field)


def socle_by_field_rref(I):
    """(bound, hilbert, socle) of R/I from a Gauss-Jordan of every piece in
    field arithmetic, degree by degree up to the first full one, and the
    ranks of the stacked maps x_1..x_n : (R/I)_t -> (R/I)_{t+1}^n read on
    standard monomials: no modular rank, no integer kernel and no
    certificate.  (None, None, None) when no piece up to n(D-1)+1 is full."""
    n, field = I.n, I.field
    gens = [(g.homogeneous_degree(), dict(g.terms)) for g in I.generators]
    top = n * (max(d for d, _ in gens) - 1) + 1
    pieces = []
    for t in range(top + 1):
        rows = shifted_rows_by_tuples(n, t, gens)
        pieces.append(field_rref(rows, field) if rows else ([], []))
        if len(pieces[-1][0]) == len(monomials_of_degree(n, t)):
            break
    else:
        return None, None, None
    bound = len(pieces) - 1
    hilbert = [len(monomials_of_degree(n, t)) - len(pieces[t][0])
               for t in range(bound)]
    units = [tuple(int(i == k) for i in range(n)) for k in range(n)]
    socle = {}
    for t in range(bound):
        pivots, _ = pieces[t]
        above, rows_above = pieces[t + 1]
        basis_above = list(monomials_of_degree(n, t + 1))
        free_above = [c for c in range(len(basis_above)) if c not in above]
        images = []     # one row per standard monomial: its n images, joined
        for c, mono in enumerate(monomials_of_degree(n, t)):
            if c in pivots:
                continue
            row = []
            for u in units:
                q = basis_above.index(_tuple_sum(mono, u))
                if q in above:
                    red = rows_above[above.index(q)]
                    row.extend(field.neg(red[f]) for f in free_above)
                else:
                    row.extend(field.one if f == q else field.zero
                               for f in free_above)
            images.append(row)
        rank = len(field_rref(images, field)[0]) if free_above else 0
        if hilbert[t] - rank:
            socle[t] = hilbert[t] - rank
    return bound, hilbert, socle


def macaulay_inverse_by_tuples(I):
    """The degree-s dual generator of the Gorenstein ideal I as a dense
    vector: the one kernel vector of the blocks x^alpha * g, found by
    subtracting exponent tuples and a Gauss-Jordan in field arithmetic, its
    first nonzero entry scaled to 1."""
    n, field = I.n, I.field
    s = I.socle_report().socle_degree
    basis = monomials_of_degree(n, s)
    rows = []
    for g in I.generators:
        d = g.homogeneous_degree()
        if d > s:
            continue
        block_basis = list(monomials_of_degree(n, s - d))
        block = [[field.zero] * len(basis) for _ in block_basis]
        for col, beta in enumerate(basis):
            for alpha, a in g.terms.items():
                e = _tuple_difference(alpha, beta)
                if e is not None:
                    block[block_basis.index(e)][col] = a
        rows.extend(block)
    pivots, red = field_rref(rows, field)
    free = [c for c in range(len(basis)) if c not in pivots]
    assert len(free) == 1
    vec = [field.one if c == free[0] else field.zero for c in range(len(basis))]
    for p, row in zip(pivots, red):
        vec[p] = field.neg(row[free[0]])
    lead = next(v for v in vec if not field.is_zero(v))
    inv = field.inv(lead)
    return [field.mul(inv, v) for v in vec]


def spans_rank_by_tuples(forms, e):
    """Rank of the degree-e multiples of forms of one degree d in R_{d+e}."""
    field = forms[0].field
    n = forms[0].n
    d = forms[0].homogeneous_degree()
    rows = shifted_rows_by_tuples(
        n, d + e, [(d, f.terms) for f in forms])
    return len(field_rref(rows, field)[0]), len(rows)


def linres_rows_by_tuples(f, m, e_prime):
    """linres_matrix entries: row gamma outside the pure powers x_i^m,
    column beta, the coefficient of f at gamma - beta."""
    field = f.field
    e = f.homogeneous_degree()
    rows = []
    for gamma in monomials_of_degree(f.n, e + e_prime):
        if max(gamma) >= m:
            continue
        row = []
        for beta in monomials_of_degree(f.n, e_prime):
            alpha = _tuple_difference(beta, gamma)
            row.append(field.zero if alpha is None
                       else f.terms.get(alpha, field.zero))
        rows.append(row)
    return rows


class _PolyArithmeticParser:
    """The polynomial grammar evaluated with MultiPoly arithmetic: every
    number and variable becomes a MultiPoly, combined with +, -, * and **.
    Same tokens, grammar and error messages as gor3.parsing, so the library
    parser must agree with it on every text, values and errors alike."""

    def __init__(self, text, var_names, field):
        self.tokens = _tokenize(text)
        self.pos = 0
        self.n = len(var_names)
        self.vars = {name: i for i, name in enumerate(var_names)}
        self.field = field

    def peek(self):
        return self.tokens[self.pos]

    def next(self):
        tok = self.tokens[self.pos]
        self.pos += 1
        return tok

    def expect(self, kind):
        tok = self.next()
        if tok[0] != kind:
            raise PolyParseError(f"expected {kind!r}, found {tok[1]!r}", tok[2])
        return tok

    def parse(self):
        poly = self.expr()
        tok = self.peek()
        if tok[0] != "end":
            raise PolyParseError(f"unexpected {tok[1]!r}", tok[2])
        return poly

    def expr(self):
        sign = 1
        tok = self.peek()
        if tok[0] in "+-":
            self.next()
            sign = -1 if tok[0] == "-" else 1
        acc = self.term()
        if sign < 0:
            acc = -acc
        while True:
            tok = self.peek()
            if tok[0] == "+":
                self.next()
                acc = acc + self.term()
            elif tok[0] == "-":
                self.next()
                acc = acc - self.term()
            else:
                return acc

    def term(self):
        acc = self.factor()
        while self.peek()[0] == "*":
            self.next()
            acc = acc * self.factor()
        return acc

    def factor(self):
        base = self.base()
        if self.peek()[0] == "^":
            self.next()
            tok = self.expect("int")
            return base ** tok[1]
        return base

    def base(self):
        kind, value, pos = self.next()
        if kind == "int":
            if self.peek()[0] == "/":
                self.next()
                den = self.expect("int")
                if den[1] == 0:
                    raise PolyParseError("zero denominator", den[2])
                coeff = self.field.of(Fraction(value, den[1]))
            else:
                coeff = self.field.of(value)
            return MultiPoly(self.n, {(0,) * self.n: coeff}, self.field)
        if kind == "name":
            idx = self.vars.get(value)
            if idx is None:
                raise PolyParseError(f"unknown variable {value!r}", pos)
            return MultiPoly.variable(idx, self.n, self.field)
        if kind == "(":
            inner = self.expr()
            self.expect(")")
            return inner
        if kind == "/":
            raise PolyParseError(
                "'/' is only allowed inside a rational coefficient", pos)
        raise PolyParseError(f"unexpected {value!r}", pos)


def parse_poly_by_arithmetic(text, var_names, field):
    """parse_poly's answer, built from MultiPoly arithmetic token by token."""
    return _PolyArithmeticParser(text, list(var_names), field).parse()


# ----------------------------------------------------------------------
# Small helpers that only the tests use.


def mono_divides(a, b):
    """Does x^a divide x^b?"""
    return all(x <= y for x, y in zip(a, b))


def leading_monomial(f):
    """Deg-lex leading exponent vector (x1 > ... > xn) of a nonzero f."""
    if not f.terms:
        raise ValueError("zero polynomial has no leading monomial")
    return max(f.terms, key=deglex_key)


def betti_table_by_koszul(I):
    """Graded Betti numbers of R/I (I Artinian) from every Koszul
    differential K_i(j) -> K_{i-1}(j), each built as a dense integer matrix
    from the multiplication maps and ranked by linalg.row_rank."""
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


def is_gorenstein_symmetric(table):
    """beta_{i,j} == beta_{n-i, D-j} in a Betti table, D its top shift."""
    top = table.column_shifts(table.n)
    if len(top) != 1:
        return False
    D = next(iter(top))
    return all(table.beta(table.n - i, D - j) == v
               for (i, j), v in table.entries.items())


# ----------------------------------------------------------------------
# Substitution through MultiPoly objects, and the Pfaffian model's retry
# loop with a search cap: the routes substitute and generic_power_model are
# checked against.


def substitute_by_objects(f, images):
    """f(images): each term built as a MultiPoly, the constant 1 scaled by
    the coefficient and multiplied by cached MultiPoly powers of the images,
    then added to a MultiPoly total."""
    m, field = images[0].n, f.field
    out = MultiPoly.zero(m, field)
    powers = [{} for _ in range(f.n)]
    for exps, coeff in f.terms.items():
        term = MultiPoly.constant(m, 1, field).scale(coeff)
        for i, e in enumerate(exps):
            if e:
                if e not in powers[i]:
                    powers[i][e] = images[i] ** e
                term = term * powers[i][e]
        out = out + term
    return out


def generic_power_model_capped(r, d_prime, seed, field, retries=5):
    """(ideal, Artinian bound) of the pure-power Pfaffian model specialized
    to 3 variables, by the retry loop with a search cap: a draw is accepted
    when some Hilbert value up to 2d + d' vanishes."""
    rng = random.Random(seed)
    base = maximal_pfaffians(generic_skew_matrix(r, d_prime, field))
    big_n = r * (r - 1) // 2
    cap = 2 * ((r - 1) * d_prime // 2) + d_prime
    for _ in range(retries):
        images = _composite_images(big_n, 3, field, rng)
        gens = [g for g in (substitute_by_objects(p, images) for p in base)
                if not g.is_zero()]
        ideal = GradedIdeal(3, gens, field)
        for t in range(cap + 1):
            if ideal.hilbert_function(t) == 0:
                return ideal, t
    raise NotArtinianError(f"no Artinian draw in {retries} attempts")
