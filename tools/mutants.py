"""Re-run the hand-made mutants of gor3's fast paths and report survivors.

Every fast path in gor3 is exact only by an argument: the packed rows of
the GF(p) forward pass and the echelon form it keeps, the back-substitution
that finishes it, the modular front end of QQ elimination, the Gorenstein
certificate and the answer it remembers, the walk's rows and the full
pieces at its bound, the descending Artinian bound, the lightest-first
generator order over QQ, from_pieces' truncation rule, the five-quadrics
certificate, the product rule that reads I's own piece for a power,
J*I or J*I^2, the fraction-free back-substitution that rref_int and
maximal_minors share, the Betti ranks of d_2 and d_n read off the minimal
generators and the socle, minimal generators that stop at s + 2 - d0 or
at the socle degree of a certified Gorenstein colon or Ann(F), the Hilbert
values from_dual mirrors above s/2 and its bound, the index
pure_power_index reads off F, the field test that sends GF(p) rows to
rref_mod, the pure powers directrix_form reads off the exponents of F,
and the socle degree below the full piece at the bound, which
socle_report counts with no branch of its own, and the QQ pivots taken
inside the columns the mod-p profile proved, with the one check in
rref_rows (no row nonzero left of its pivot, no other row outside the
span) that proves the result the RREF of all rows.  Each
entry of MUTANTS breaks one of them with one exact source edit and names
the tests that must then fail.
For each mutant the script copies src/ to a temporary directory, applies
the edit there (the working tree is never touched), runs the listed tests
against the copy, and counts the mutant killed only when pytest reports
failing tests.  A mutant whose tests pass, or cannot be run (a deleted
test is "not found"), survives.

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
BETTI = "src/gor3/betti.py"
APOLARITY = "src/gor3/apolarity.py"

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
     KERNEL, "y = (v >> off) % p", "y = v >> off",
     ["tests/test_rank_profile.py::test_dense_rows_with_unreduced_growth"]),
    ("socle_report takes the certified branch without _certify holding",
     IDEALS, "if self._certify(self.hilbert_series_table(s)):",
     "if self._certify(self.hilbert_series_table(s)) is not None:",
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
     LINALG, "or any(any(_residual(r, nf, len(free)))",
     "or False and any(any(_residual(r, nf, len(free)))",
     ["tests/test_modular_front_end.py"]),
    ("the QQ fallback returns the profile rows' RREF, not rref_int(rows)",
     LINALG, "        return rref_int(rows)\n", "        return pivots, red\n",
     ["tests/test_modular_front_end.py"]),
    ("a profile one short of full rank is taken for the identity",
     LINALG, "if len(profile) == nc:", "if len(profile) >= nc - 1:",
     ["tests/test_modular_front_end.py", "tests/test_rank_profile.py"]),
    ("the walk caches an empty echelon form with its profile",
     IDEALS, "entry = self._walk.rows[t] = rows, row_profile(self.field, rows, dim)",
     "entry = self._walk.rows[t] = rows, (row_profile(self.field, rows, dim)[0], {})",
     ["tests/test_walk_echelon.py::test_the_walk_gives_the_answers_of_exact_pieces"]),
    ("graded_piece takes the walk's rows of degree t - 1",
     IDEALS, "self._walk.rows.pop(t, (None, None))",
     "self._walk.rows.pop(t - 1, (None, None))",
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
    ("_certify's remembered answer answers for other values",
     IDEALS, "if self._walk.tried[0] == upper:",
     "if self._walk.tried[0] is not None:",
     ["tests/test_duality_certificate.py::"
      "test_certify_remembers_an_answer_only_for_its_values"]),
    ("the walk drops its rows one degree below the bound too",
     IDEALS, "self._walk.rows = {u: rows for u, rows in self._walk.rows.items() if u < t}",
     "self._walk.rows = {u: rows for u, rows in self._walk.rows.items() if u < t - 1}",
     ["tests/test_walk_echelon.py::test_no_walk_rows_at_or_above_the_bound"]),
    ("graded_piece builds the piece at a known bound from rows",
     IDEALS, "if bound is not None and t >= bound:",
     "if bound is not None and t > bound:",
     ["tests/test_walk_echelon.py::test_no_walk_rows_at_or_above_the_bound"]),
    ("the QQ walk shifts the heaviest generators first",
     IDEALS, "gen_data.sort(key=lambda gd: sum(c * c for c in gd[1].values()))",
     "gen_data.sort(key=lambda gd: -sum(c * c for c in gd[1].values()))",
     ["tests/test_generator_order.py::"
      "test_qq_socle_elimination_gets_its_rows_lightest_first"]),
    ("from_pieces labels an ideal truncated though a piece it read is full",
     IDEALS, "        else:\n            ideal.truncated_at = top\n",
     "        ideal.truncated_at = top\n",
     ["tests/test_from_pieces.py::test_a_cut_colon_is_truncated_only_below_its_own_bound"]),
    ("power_piece reads (I^k)_t as full above any built (I^k)_{t-1}",
     IDEALS, "if below is not None and below.is_full:", "if below is not None:",
     ["tests/test_integer_pieces.py::test_power_pieces_and_product_spans"]),
    ("the product rule reads I_t when any one B_{t-d} is full",
     IDEALS, "if all(B.is_full for B in lowers.values()):",
     "if any(B.is_full for B in lowers.values()):",
     ["tests/test_integer_pieces.py::test_power_pieces_and_product_spans"]),
    ("the product rule reads I_t over B_{t-d} that are nonzero, not full",
     IDEALS, "if all(B.is_full for B in lowers.values()):",
     "if all(B.dim for B in lowers.values()):",
     ["tests/test_power_reduction.py::test_reduction_check_matches_products"]),
    ("the packed slots are one term short of their growth, so they carry",
     KERNEL, "w = (nc * p * p + p).bit_length()", "w = (p * p).bit_length()",
     ["tests/test_packed_rows.py::test_slots_at_their_maximal_lazy_growth"]),
    ("a pivot's tail is packed unnegated",
     KERNEL, "(p - a) << o", "a << o",
     ["tests/test_packed_rows.py::test_packed_pass_equals_the_list_pass"]),
    ("rank d_n leaves out the socle",
     BETTI, "ranks.append(chain_dim(n, j) - socle.get(j - n, 0))",
     "ranks.append(chain_dim(n, j))",
     ["tests/test_betti.py::test_koszul_complete_intersection",
      "tests/test_betti_oracle.py::test_betti_table_equals_the_koszul_route"]),
    ("rank d_2 leaves out the minimal generators",
     BETTI, "ranks.append(chain_dim(1, j) - ranks[1] - generators.get(j, 0))",
     "ranks.append(chain_dim(1, j) - ranks[1])",
     ["tests/test_betti.py::test_koszul_complete_intersection",
      "tests/test_betti_oracle.py::test_betti_table_equals_the_koszul_route"]),
    ("the fraction-free back-substitution adds the later rows",
     KERNEL, "acc = [s - u * x for s, x in zip(acc, solved[j])]",
     "acc = [s + u * x for s, x in zip(acc, solved[j])]",
     ["tests/test_linalg.py::test_kernel_against_both_oracles",
      "tests/test_linalg.py::test_maximal_minors_equal_the_column_deleted_determinants"]),
    ("minimal generators stop at the socle degree though H(1) = 1",
     IDEALS, "if self.hilbert_function(1) >= 2:\n", "if True:\n",
     ["tests/test_socle_degree_generators.py"]),
    ("minimal generators stop early in an uncertified ideal",
     IDEALS, "if top and self._certify(self.hilbert_series_table(top - 1)):",
     "if top:",
     ["tests/test_socle_degree_generators.py"]),
    ("minimal generators of a certified ideal stop at s + 1 - d0",
     IDEALS, "top = min(top, s + 2 - d0)", "top = min(top, s + 1 - d0)",
     ["tests/test_socle_degree_generators.py::"
      "test_generators_equal_the_loop_through_the_bound",
      "tests/test_from_dual.py::test_generators_under_the_stop"]),
    ("from_dual leaves the Hilbert values above s/2 unmirrored",
     IDEALS, "values[t] = values[s - t] = piece.ambient_dim - piece.dim",
     "values[t] = piece.ambient_dim - piece.dim",
     ["tests/test_from_dual.py::"
      "test_mirrored_hilbert_values_equal_the_kernel_dimensions"]),
    ("from_dual gives Ann(F) the bound s",
     IDEALS, "walk.values, walk.bound, walk.tried, walk.dual = values, s + 1,",
     "walk.values, walk.bound, walk.tried, walk.dual = values, s,",
     ["tests/test_from_dual.py::test_lazy_pieces_equal_the_eager_kernels"]),
    ("pure_power_index reads the index off F one too low",
     IDEALS, "while m < bound:", "while m < bound - 1:",
     ["tests/test_from_dual.py::test_pure_power_index_read_off_F_equals_membership"]),
    ("rref_rows takes a QQ matrix for a GF(p) one",
     LINALG, "    if field.characteristic:\n        return rref_mod(",
     "    if not field.characteristic:\n        return rref_mod(",
     ["tests/test_modular_front_end.py"]),
    ("directrix_form takes x_i^m inside Ann(F) when F has a term x_i^[m]",
     APOLARITY, "if any(beta[i] >= m for beta in F.terms):",
     "if any(beta[i] > m for beta in F.terms):",
     ["tests/test_apolarity.py::test_directrix_form_rejects_a_pure_power_outside"]),
    ("socle_report leaves out the degree below the full piece at the bound",
     IDEALS, "for t in range(bound):", "for t in range(bound - 1):",
     ["tests/test_socle_dims.py::test_squared_tower",
      "tests/test_socle_dims.py::test_socle_dims_equal_the_kernel_route"]),
    ("rref_rows keeps a pass inside the profile's columns that is not the RREF",
     LINALG, "if (any(any(row[:c]) for c, row in zip(pivots, red))",
     "if (False and any(any(row[:c]) for c, row in zip(pivots, red))",
     ["tests/test_modular_front_end.py::test_column_profile_mismatch",
      "tests/test_linalg.py::test_pivots_inside_the_profile_give_the_same_rref"]),
    ("the QQ pivot search ranges over every column, not the profile's",
     KERNEL, "unused = list(columns or ())", "unused = list(range(nc))",
     ["tests/test_linalg.py::test_pivots_inside_the_profile_take_the_least_entry"]),
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
