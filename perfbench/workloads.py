"""The three workloads: the case registry over QQ and GF(32003), and a seeded
stream of CLI queries.

Each workload is run pass by pass.  A pass is a fixed list of operations
made from the workload seed, and every pass of a run repeats it; every
operation is timed on its own and its canonical output is fed into the pass
digest.  Checks run between operations, outside the timed calls.  An operation fails when it
raises, exits with the wrong code, or gives an answer a check rejects; the
fail count over the attempted count is the fail ratio.
"""

from __future__ import annotations

import hashlib
import io
import json
import random
import time
from contextlib import redirect_stderr, redirect_stdout
from fractions import Fraction
from itertools import combinations

import gor3.cases
import gor3.cli
import gor3.fields

import polytext as pt

FP_SPEC = "fp:32003"


class Pass:
    """Timings, failures and the output digest of one pass."""

    def __init__(self):
        self.times = []          # seconds, one per attempted operation
        self.spans = []          # (start, end) of each operation
        self.failed = set()      # indices of failed operations
        self.reasons = []        # (label, reason) per failure
        self.labels = []
        self._digest = hashlib.sha256()

    @property
    def attempted(self):
        return len(self.times)

    @property
    def wall_s(self):
        return sum(self.times)

    def digest(self):
        return self._digest.hexdigest()

    def _record(self, label, t0, t1, canonical):
        self.labels.append(label)
        self.times.append(t1 - t0)
        self.spans.append((t0, t1))
        self._digest.update(canonical.encode())
        self._digest.update(b"\n")

    def fail(self, reason):
        """Mark the latest operation failed."""
        index = len(self.times) - 1
        self.failed.add(index)
        self.reasons.append((self.labels[index], reason))

    def check(self, ok, reason):
        if not ok:
            self.fail(reason)
        return ok

    def case(self, case_id, field, seed):
        """Run one registry case."""
        clock = time.perf_counter
        t0 = clock()
        try:
            result = gor3.cases.run_case(case_id, field, seed)
        except Exception as exc:  # any crash is a failed operation
            self._record(case_id, t0, clock(), f"{case_id} raised {exc!r}")
            self.fail(f"raised {exc!r}")
            return
        t1 = clock()
        self._record(case_id, t0, t1, json.dumps(result.as_dict(), sort_keys=True))
        if not result.passed:
            bad = [label for label, ok, _ in result.checks if not ok]
            self.fail(f"registry FAIL: {bad}")

    def cli(self, argv, expect=0):
        """Run gor3.cli.main in-process; returns (code, stdout, stderr)."""
        label = argv[0] if expect == 0 else f"{argv[0]} (exit {expect})"
        out, err = io.StringIO(), io.StringIO()
        clock = time.perf_counter
        with redirect_stdout(out), redirect_stderr(err):
            t0 = clock()
            try:
                code = gor3.cli.main(argv)
            except Exception as exc:  # main must turn errors into exit codes
                code = f"raised {exc!r}"
            t1 = clock()
        stdout, stderr = out.getvalue(), err.getvalue()
        self._record(label, t0, t1, json.dumps([argv, code, stdout, stderr]))
        self.check(code == expect, f"exit {code!r}, expected {expect}: {stderr.strip()[:200]}")
        return code, stdout, stderr

    def cli_json(self, argv):
        """Run a query that must succeed; returns its report or None."""
        code, stdout, _ = self.cli(argv + ["--json"])
        if code != 0:
            return None
        try:
            return json.loads(stdout)
        except ValueError:
            self.fail("report is not JSON")
            return None


# ----------------------------------------------------------------------
# registry workloads

def registry(field_spec):
    field = gor3.fields.field_from_spec(field_spec)

    def make_pass(run, seed):
        for case_id in gor3.cases.case_ids():
            run.case(case_id, field, seed)

    return make_pass

# ----------------------------------------------------------------------
# query stream
#
# Every scenario is one of the CLI examples in the project README (section
# "CLI"), with the same subcommand, field, variables and sizes and only the
# coefficients, supports and seeds drawn from the workload seed.  A round
# holds each example of the eleven subcommands once; a pass is ROUNDS
# rounds plus a fixed handful of inputs the CLI must reject.

ROUNDS = 20
NAMES = ["x", "y", "z"]
UPPER = ["X", "Y", "Z"]
PURE_CUBES = "x^3,y^3,z^3"       # the README's colon and directrix base, m = 3


class Query:
    """Field and randomness of one generated query."""

    def __init__(self, rng, over_fp):
        self.rng = rng
        self.mod = pt.P if over_fp else None
        self.flags = ["--field=" + (FP_SPEC if over_fp else "q")]

    def text(self, terms, names=NAMES):
        return pt.format_poly(terms, names)

    def quadric(self, nterms):
        return pt.random_form(self.rng, 3, 2, nterms)


def _socle_dims(report):
    return {int(k): v for k, v in report["socle"]["socle_dims"].items()}


def _reflect(terms, m):
    return {tuple(m - 1 - a for a in exps): c for exps, c in terms.items()}


def _first_catalecticant_rank(Q, mod):
    """h(1) of R/Ann(Q): rank of the 3x3 matrix of Q's second-order
    coefficients (the contraction action has no binomial factors)."""
    rows = [[Q.get(tuple(int(k == i) + int(k == j) for k in range(3)), 0)
             for j in range(3)] for i in range(3)]
    return pt.rank(rows, mod)


def dual_quadric(run, q):
    """The README's ann, socle, inverse and directrix examples, which all
    use Ann(X^2+Y^2+Z^2) = (xy, xz, yz, x^2-z^2, y^2-z^2): ann of a random
    3-term dual quadric Q, then socle, betti, inverse and directrix (m = 3)
    of the ideal it prints."""
    Q = q.quadric(3)
    rep = run.cli_json(["ann"] + q.flags + ["--dual=" + q.text(Q, UPPER)])
    if rep is None:
        return
    gens = rep["generators"]
    run.check(all(not pt.contract(pt.parse(g, NAMES), Q, q.mod) for g in gens),
              "a generator of Ann(Q) does not annihilate Q")
    r = _first_catalecticant_rank(Q, q.mod)
    run.check(rep["hilbert_function"] == [1, r, 1, 0],
              f"Hilbert function {rep['hilbert_function']}, expected [1, {r}, 1, 0]")
    ideal = "--ideal=" + ",".join(gens)
    rep2 = run.cli_json(["socle"] + q.flags + [ideal])
    if rep2 is None:
        return
    run.check(rep2["socle"]["is_gorenstein"] and _socle_dims(rep2) == {2: 1},
              f"socle {rep2['socle']} is not one-dimensional in degree 2")
    rep3 = run.cli_json(["betti"] + q.flags + [ideal])
    if rep3 is not None:
        from_betti = {j - 3: v for i, j, v in rep3["betti"]["triples"] if i == 3}
        run.check(from_betti == _socle_dims(rep2),
                  f"socle from Betti {from_betti} != socle report {_socle_dims(rep2)}")
    rep4 = run.cli_json(["inverse"] + q.flags + [ideal])
    if rep4 is not None:
        run.check(pt.proportional(pt.parse(rep4["generator"], UPPER), Q, q.mod),
                  f"inverse generator {rep4['generator']!r} is not a multiple of Q")
    rep5 = run.cli_json(["directrix"] + q.flags + [ideal, "--m=3"])
    if rep5 is not None:
        f = pt.parse(rep5["directrix"], NAMES)
        run.check(rep5["colon_identity_verified"], "colon identity not verified")
        run.check(pt.proportional(f, _reflect(Q, 3), q.mod),
                  f"directrix {rep5['directrix']!r} is not the reflection of Q")
        run.check(all(pt.inside_pure_powers(pt.mul(pt.parse(g, NAMES), f, q.mod), 3)
                      for g in gens), "g * directrix outside the pure cubes")


def colon_gap(run, q):
    """The README's colon (x^3,y^3,z^3) : (x^2+y^2+z^2) with a random 3-term
    quadric, then its gap example, which is that colon's seven cubics."""
    f = q.quadric(3)
    rep = run.cli_json(["colon"] + q.flags + [f"--ci={PURE_CUBES}", "--f=" + q.text(f)])
    if rep is None:
        return
    gens = rep["generators"]
    run.check(rep["complete"] and rep["socle"]["is_gorenstein"],
              "colon of the pure cubes is not Gorenstein")
    run.check(rep["socle"]["socle_degree"] == 4,
              f"socle degree {rep['socle']['socle_degree']} != 4")
    run.check(all(pt.inside_pure_powers(pt.mul(pt.parse(g, NAMES), f, q.mod), 3)
                  for g in gens), "g * f outside the pure cubes")
    rep2 = run.cli_json(["gap"] + q.flags + ["--ideal=" + ",".join(gens)])
    if rep2 is not None:
        index = rep2["pure_power_index"]
        run.check(rep2["socle_degree"] == 4, "gap and colon disagree on s")
        run.check(1 <= index <= 3, f"pure power index {index}")
        run.check(rep2["gap"] == 5 - index, "gap != s + 1 - index")


def pure_power_betti(run, q):
    """The README's betti of x^2,y^2,z^2, exponents drawn from 2 and 3: a
    complete intersection, whose Koszul Betti table is known in closed form."""
    exps = [q.rng.choice((2, 3)) for _ in NAMES]
    ideal = ",".join(f"{v}^{a}" for v, a in zip(NAMES, exps))
    rep = run.cli_json(["betti"] + q.flags + [f"--ideal={ideal}"])
    if rep is None:
        return
    expected = {}
    for i in range(4):
        for subset in combinations(exps, i):
            key = (i, sum(subset))
            expected[key] = expected.get(key, 0) + 1
    got = {(i, j): v for i, j, v in rep["betti"]["triples"] if v}
    run.check(got == expected, f"Betti table {got}, Koszul gives {expected}")


def linres_square(run, q):
    """The README's linres-test of (x+y+z)^2 at m = 3 with a random linear
    form: s = 4, and over QQ the verdict is YES since m >= s/2 + 1."""
    coeffs = [q.rng.choice((-3, -2, -1, 1, 2, 3)) for _ in NAMES]
    ell = q.text({tuple(int(i == k) for i in range(3)): c for k, c in enumerate(coeffs)})
    rep = run.cli_json(["linres-test"] + q.flags + [f"--f=({ell})^2", "--m=3"])
    if rep is None:
        return
    run.check(rep["s"] == 4, f"s = {rep['s']}, expected 4")
    if q.mod is None:
        run.check(rep["verdict"] == "YES", f"verdict {rep['verdict']}, expected YES")
    if rep["verdict"] == "YES":
        run.check(rep["d"] == 3 and rep["rank"] == rep["required_rank"], "YES without full rank")


def spans(run, q):
    """The README's spans of five quadrics with e = 1; the rank is
    recomputed by plain elimination."""
    forms = [q.quadric(q.rng.randint(1, 2)) for _ in range(5)]
    forms_text = ",".join(q.text(f) for f in forms)
    rep = run.cli_json(["spans"] + q.flags + [f"--forms={forms_text}", "--e=1"])
    if rep is None:
        return
    target = pt.monomials(3, 3)
    index = {mono: i for i, mono in enumerate(target)}
    rows = []
    for f in forms:
        for alpha in pt.monomials(3, 1):
            row = [0] * len(target)
            for exps, c in f.items():
                row[index[tuple(a + b for a, b in zip(alpha, exps))]] = c
            rows.append(row)
    rank = pt.rank(rows, q.mod)
    run.check(rep["target_dim"] == len(target) and rep["cols"] == len(rows),
              "matrix shape")
    run.check(rep["rank"] == rank, f"rank {rep['rank']}, elimination gives {rank}")
    run.check(rep["spans"] == (rank == len(target)), "spans verdict")


def certify_quadrics(run, q):
    """The README's certify-quadrics --seed 42 with a random seed; a
    GORENSTEIN certificate is confirmed by a socle query."""
    rep = run.cli_json(["certify-quadrics"] + q.flags + [f"--seed={q.rng.randint(0, 10**6)}"])
    if rep is None or rep["verdict"] != "GORENSTEIN":
        return
    run.check(rep["socle_confirms"] and rep["spans"], "certificate not confirmed")
    rep2 = run.cli_json(["socle"] + q.flags + ["--ideal=" + ",".join(rep["quadrics"])])
    if rep2 is not None:
        run.check(rep2["socle"]["is_gorenstein"] and rep2["socle"]["socle_degree"] == 2,
                  "certified quadrics are not Gorenstein with socle degree 2")


# Strict upper triangle of a 5x5 alternating matrix of linear forms, as
# coefficient vectors, whose maximal Pfaffians generate an Artinian
# Gorenstein ideal with Hilbert function (1, 3, 1): the five quadrics of the
# README's socle example come out of such a matrix.  A congruence P A P^T
# and an invertible change of variables keep the Pfaffian ideal Artinian, so
# the stream never asks for the slow non-Artinian report by accident.
_PFAFFIAN_BASE = (((1, 0, 0), (0, 0, 1), (0, 0, 0), (0, 1, 0)),
                  ((0, 1, 0), (0, 0, 1), (1, 0, 0)),
                  ((0, 0, 1), (0, 0, 1)),
                  ((1, 0, 0),))


def _invertible(rng, size):
    while True:
        m = [[rng.randint(-2, 2) for _ in range(size)] for _ in range(size)]
        if pt.rank(m, None) == size and pt.rank(m, pt.P) == size:
            return m


def _pfaffian_matrix(rng):
    """Strict upper triangle of linear forms, as {exponents: coeff} dicts."""
    vec = [[(0, 0, 0)] * 5 for _ in range(5)]
    for i, row in enumerate(_PFAFFIAN_BASE):
        for k, c in enumerate(row):
            vec[i][i + 1 + k] = c
            vec[i + 1 + k][i] = tuple(-v for v in c)
    p, g = _invertible(rng, 5), _invertible(rng, 3)
    upper = []
    for i in range(4):
        row = []
        for j in range(i + 1, 5):
            c = [sum(p[i][k] * p[j][l] * vec[k][l][v] for k in range(5) for l in range(5))
                 for v in range(3)]
            lin = [sum(c[k] * g[k][v] for k in range(3)) for v in range(3)]
            row.append({tuple(int(w == v) for w in range(3)): Fraction(lin[v])
                        for v in range(3) if lin[v]})
        upper.append(row)
    return upper


def pfaffian(run, q):
    """The README's pfaffian example: maximal Pfaffians of a 5x5 alternating
    matrix of linear forms, given as its strict upper triangle."""
    upper = _pfaffian_matrix(q.rng)
    text = "\n".join(",".join(q.text(f) for f in row) for row in upper)
    rep = run.cli_json(["pfaffian"] + q.flags + [f"--matrix={text}"])
    if rep is None:
        return

    def entry(i, j):
        if i == j:
            return {}
        if i < j:
            return upper[i][j - i - 1]
        return {k: -c for k, c in entry(j, i).items()}

    pfs = [pt.parse(p, NAMES) for p in rep["maximal_pfaffians"]]
    for i in range(5):
        acc = {}
        for j in range(5):
            acc = pt.add(acc, pt.mul(entry(i, j), pfs[j], q.mod), q.mod)
        if not run.check(not acc, f"row {i} of A times the Pfaffian vector is not 0"):
            break
    run.check(rep["socle"].get("is_gorenstein") and rep["hilbert_function"] == [1, 3, 1, 0],
              "Pfaffian ideal is not Gorenstein with Hilbert function (1, 3, 1)")


def not_artinian(run, q, sub):
    """The README's socle ideal (xy, xz, yz, x^2-z^2, y^2-z^2) without
    y^2-z^2, variables permuted: four quadrics with a common zero at a
    coordinate point.  The CLI climbs the Artinian cap to 4 * 2 * 3 = 24
    before it exits 1, as for any non-Artinian ideal of quadrics in three
    variables."""
    names = q.rng.sample(NAMES, 3)
    x, y, z = names
    ideal = f"{x}*{y},{x}*{z},{y}*{z},{x}^2-{z}^2"
    _, _, stderr = run.cli([sub] + q.flags + [f"--ideal={ideal}"], expect=1)
    run.check("not Artinian" in stderr, f"stderr {stderr.strip()!r}")


# README examples with one defect each; gor3 must exit 2
_MALFORMED = (
    ["socle", "--ideal=x*y,x*z,y*z,x^2-z^2,y^2-#z^2"],          # stray character
    ["betti", "--ideal=x^2,y^2,w^2"],                           # unknown variable
    ["colon", "--ci=x^3,(y^3,z^3", "--f=x^2+y^2+z^2"],          # unbalanced parenthesis
    ["gap", "--ideal=x^3,y^3,z^3,x*y*z +"],                     # dangling operator
    ["inverse", "--ideal=x*y,x*z,y*z,x^2-z^2,y^2-z^2/"],        # '/' outside a coefficient
    ["ann", "--dual=X^2+Y^2+z^2"],                              # lower case in a dual form
    ["spans", "--forms=x^2+z^2,x*y+z^2,x*z,y^2,y*z", "--e=one"],  # bad integer option
    ["directrix", "--ideal=x*y,x*z,y*z,x^2-z^2,y^2-z^2"],       # missing --m
    ["linres-test", "--f=(x+y+z)^2", "--m=3", "--field=fp:32004"],  # not a prime
    ["certify-quadrics", "--seed=forty-two"],                   # bad integer option
)


def malformed(run, q):
    """A README example with a defect in its text or options: exit 2."""
    _, _, stderr = run.cli(list(q.rng.choice(_MALFORMED)), expect=2)
    run.check(stderr.strip() != "", "no message on stderr")


# one round: each README example of the eleven subcommands once
ROUND = (dual_quadric, colon_gap, pure_power_betti, linres_square, spans,
         certify_quadrics, pfaffian)
# Once per pass: the non-Artinian ideal asked of socle and of gap, and two
# malformed queries.  The non-Artinian queries run over GF(32003), where
# the climb to the cap takes about 0.4 s.  Over QQ the same climb takes
# 4-7 s, nearly all of it converting scalars, and a single such query
# would be three fifths of the pass; its time varies by a fifth between
# repeats on a shared host, more than the whole pass may vary.
REJECTED = ((not_artinian, True, dict(sub="socle")), (not_artinian, True, dict(sub="gap")),
            (malformed, False, {}), (malformed, False, {}))


def query_stream(run, seed):
    """One pass of the stream, in an order drawn from the seed.  Every
    fourth round runs over GF(32003), the rest over QQ."""
    rng = random.Random(f"query-stream:{seed}")
    plan = [(scenario, k % 4 == 3, {}) for k in range(ROUNDS) for scenario in ROUND]
    plan += REJECTED
    plan = [(scenario, over_fp, params, rng.getrandbits(64))
            for scenario, over_fp, params in plan]
    rng.shuffle(plan)
    for scenario, over_fp, params, content in plan:
        scenario(run, Query(random.Random(content), over_fp), **params)


WORKLOADS = {
    "registry-qq": registry("q"),
    "registry-fp": registry(FP_SPEC),
    "query-stream": query_stream,
}

# Passes in a run of RUN_SECONDS, the run_seconds of BENCHMARK.json.  The
# count is fixed, so that every commit is measured over the same number of
# repeats however fast it runs; another --seconds scales it, to at least
# one pass.  At the commit that defined the benchmark (Python 3.11,
# pure-Python kernel, a shared 2-core VM) these passes took about 31-48 s,
# 16-28 s and 20-28 s.
RUN_SECONDS = 24
PASSES = {
    "registry-qq": 2,
    "registry-fp": 12,
    "query-stream": 5,
}


def pass_count(workload, seconds):
    return max(1, round(PASSES[workload] * seconds / RUN_SECONDS))
