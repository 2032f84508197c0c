"""Re-run the hand-made mutants of gor3's fast paths and report survivors.

Every fast path in gor3 is exact only by an argument: the echelon form the
GF(p) forward pass keeps, the back-substitution that finishes it, the
modular front end of QQ elimination, the Gorenstein certificate, the
descending Artinian bound and the five-quadrics certificate.  Each entry
of MUTANTS breaks one of them with one exact source edit and names the
tests that must then fail.  For each mutant the script copies src/ to a
temporary directory, applies the edit there (the working tree is never
touched), runs the listed tests against the copy, and counts the mutant
killed only when pytest reports failing tests.  A mutant whose tests pass, or cannot be run (a deleted test is
"not found"), survives.

Usage, from anywhere (stdlib only; pytest must be importable):

    python3 tools/mutants.py            # every mutant
    python3 tools/mutants.py 3 12       # mutants 3 and 12 only

Exit status: 0 when every mutant run is killed, 1 when any survives, 2 when
the listed tests fail without any mutant or an edit no longer matches the
source exactly once.  A change that adds a fast path adds its mutants here.
"""

import os
import shutil
import subprocess
import sys
import tempfile
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent

KERNEL = "src/gor3/_rowred_py.py"
LINALG = "src/gor3/linalg.py"
IDEALS = "src/gor3/ideals.py"
CRITERIA = "src/gor3/criteria.py"

# (what the mutant breaks, file, old text, new text, tests that must fail)
MUTANTS = [
    ("back-substitution skips the next later pivot",
     KERNEL, "for j in pivots[k + 1:]:", "for j in pivots[k + 2:]:",
     ["tests/test_walk_echelon.py::test_back_substitution_equals_gauss_jordan",
      "tests/test_linalg.py::test_kernel_contract"]),
    ("back-substitution leaves its entries unreduced mod p",
     KERNEL, "solved[c] = [a % p for a in acc]", "solved[c] = acc",
     ["tests/test_walk_echelon.py::test_back_substitution_equals_gauss_jordan"]),
    ("the forward pass reads an entry without reducing it mod p",
     KERNEL, "x = v[c] % p", "x = v[c]",
     ["tests/test_rank_profile.py::test_dense_rows_with_unreduced_growth"]),
    ("socle_report takes the certified branch without _certify holding",
     IDEALS, "or self._certify(self.hilbert_series_table(s)):",
     "or self._certify(self.hilbert_series_table(s)) is not None:",
     ["tests/test_duality_certificate.py::test_non_gorenstein_ideals_fall_back"]),
    ("_certify without its symmetry check",
     IDEALS, "if s < 0 or upper[s] != 1 or upper != upper[::-1]:",
     "if s < 0 or upper[s] != 1:",
     ["tests/test_duality_certificate.py::test_an_asymmetric_walk_builds_no_exact_piece"]),
    ("_certify accepts a catalecticant rank one below h",
     IDEALS, "if len(row_profile(self.field, cat, h)[0]) != h:",
     "if len(row_profile(self.field, cat, h)[0]) < h - 1:",
     ["tests/test_duality_certificate.py"]),
    ("the QQ front end skips the residual check of the other rows",
     LINALG, "    if any(any(_residual(r, nf, len(free)))",
     "    if False and any(any(_residual(r, nf, len(free)))",
     ["tests/test_modular_front_end.py"]),
    ("the QQ fallback returns the profile rows' RREF, not rref_int(rows)",
     LINALG, "        return rref_int(rows)\n", "        return pivots, red\n",
     ["tests/test_modular_front_end.py"]),
    ("a profile one short of full rank is taken for the identity",
     LINALG, "if len(profile) == nc:", "if len(profile) >= nc - 1:",
     ["tests/test_modular_front_end.py", "tests/test_rank_profile.py"]),
    ("the walk caches an empty echelon form with its profile",
     IDEALS, "entry = self._profiles[t] = rows, row_profile(self.field, rows, dim)",
     "entry = self._profiles[t] = rows, (row_profile(self.field, rows, dim)[0], {})",
     ["tests/test_walk_echelon.py::test_the_walk_gives_the_answers_of_exact_pieces"]),
    ("graded_piece takes the walk's profile of degree t - 1",
     IDEALS, "self._profiles.pop(t, (None, None))",
     "self._profiles.pop(t - 1, (None, None))",
     ["tests/test_walk_echelon.py::test_the_walk_gives_the_answers_of_exact_pieces"]),
    ("the descending Artinian bound steps down at most one degree",
     IDEALS, "while not exact and t and self.hilbert_function(t - 1) == 0:",
     "if not exact and t and self.hilbert_function(t - 1) == 0:",
     ["tests/test_walk_echelon.py::test_the_bound_steps_down_past_an_unlucky_prime"]),
    ("the five-quadrics span shortcut tests delta only",
     CRITERIA, "spans=nonzero or spans_target(quadrics, 1).spans,",
     "spans=not field.is_zero(delta) or spans_target(quadrics, 1).spans,",
     ["tests/test_criteria.py::test_monomial_complement_quintuple_is_inconclusive"]),
    ("a maximal minor takes the wrong sign parity",
     LINALG, "minors[p] = sign * s if (p + f) % 2 else -sign * s",
     "minors[p] = sign * s if (p + f + 1) % 2 else -sign * s",
     ["tests/test_criteria.py::test_five_quadrics_matches_cofactor_reference"]),
]


# why a mutant survived, by pytest exit code
WHY = {0: "its tests pass", 4: "a listed test is not found", 5: "no test collected"}


def _pytest(src, tests):
    """Return code of pytest on tests (paths under ROOT), importing gor3 from
    the directory src; -x stops at the first failure."""
    env = dict(os.environ, PYTHONPATH=str(src), PYTHONDONTWRITEBYTECODE="1")
    cmd = [sys.executable, "-m", "pytest", "-q", "-x", "-p", "no:cacheprovider", *tests]
    return subprocess.run(cmd, cwd=ROOT, env=env, stdout=subprocess.DEVNULL,
                          stderr=subprocess.DEVNULL).returncode


def _mutated_copy(tmp, path, old, new):
    """Copy src/ into tmp with one edit applied; the src directory to import."""
    src = Path(tmp) / "src"
    shutil.copytree(ROOT / "src", src, ignore=shutil.ignore_patterns("__pycache__"))
    target = src / Path(path).relative_to("src")
    text = target.read_text(encoding="utf-8")
    target.write_text(text.replace(old, new), encoding="utf-8")
    return src


def main(argv):
    chosen = [int(a) for a in argv] or range(1, len(MUTANTS) + 1)
    stale = [k for k in chosen
             if (ROOT / MUTANTS[k - 1][1]).read_text(encoding="utf-8")
             .count(MUTANTS[k - 1][2]) != 1]
    if stale:
        print(f"mutants {stale}: the old text no longer occurs exactly once")
        return 2
    tests = sorted({t for k in chosen for t in MUTANTS[k - 1][4]})
    if _pytest(ROOT / "src", tests) == 1:
        print("the listed tests fail without any mutant")
        return 2
    survivors = []
    for k in chosen:
        what, path, old, new, kill = MUTANTS[k - 1]
        with tempfile.TemporaryDirectory(prefix="gor3-mutant-") as tmp:
            code = _pytest(_mutated_copy(tmp, path, old, new), kill)
        if code == 1:
            print(f"{k:2d} killed   {what}")
        else:
            survivors.append(k)
            print(f"{k:2d} SURVIVED {what} ({WHY.get(code, f'pytest exit {code}')})")
    print(f"{len(chosen) - len(survivors)} of {len(chosen)} mutants killed"
          + (f"; survivors: {survivors}" if survivors else ""))
    return 1 if survivors else 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
