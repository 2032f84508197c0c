"""Command-line front end.

main resolves --field and --vars once and calls the subcommand with the
parsed options, the field and the variable names.  Every polynomial or
matrix option may be given as @file, and polynomial lists (--ideal, --ci,
--forms, --lines) all go through parsing.parse_poly_list: items separated
by commas or newlines.  Every subcommand builds one structured report (a
plain dict) and hands it to _emit, the one switch between --json, which
prints it verbatim, and a human rendering of the same structure.
Exit codes: 0 on success, 1 when an assertion-style check fails (reproduce,
verification mismatches) or the input has no answer (not Artinian, no
seeded draw that works), 2 on parse or usage errors.
"""

from __future__ import annotations

import argparse
import functools
import json
import sys

from .apolarity import (
    InverseForm,
    annihilator,
    directrix_form,
    macaulay_inverse,
    newton_dual,
    socle_newton_dual,
)
from .betti import betti_table, has_linear_resolution
from .cases import CaseResult, case_ids, random_quadrics, run_case
from .criteria import five_quadrics_certificate, is_equigen_linres, spans_target
from .fields import FieldError, field_from_spec
from .ideals import (
    DatumViolationError,
    GradedIdeal,
    NotArtinianError,
    NotEquigeneratedError,
    check_reduction_two,
    pure_power_index,
    variable_lines,
    variable_power_ideal,
)
from .monomials import default_var_names, monomial_count
from .parsing import PolyParseError, is_name, parse_poly, parse_poly_list
from .pfaffians import SkewPolyMatrix, generic_power_model, maximal_pfaffians, pfaffian


class CliError(Exception):
    def __init__(self, message, code=2):
        super().__init__(message)
        self.code = code


def _read_source(text):
    if text.startswith("@"):
        try:
            with open(text[1:], "r", encoding="utf-8") as fh:
                return fh.read()
        except OSError as exc:
            raise CliError(f"cannot read {text[1:]!r}: {exc}")
    return text


def _vars(args):
    if args.vars is None:
        return default_var_names(3)
    names = [v.strip() for v in args.vars.split(",")]
    for i, name in enumerate(names):
        if not name:
            raise CliError(f"--vars {args.vars!r}: variable {i + 1} has an empty name")
        if not is_name(name):
            raise CliError(f"--vars {args.vars!r}: variable {name!r} is not a name "
                           f"(a letter or _, then letters, digits or _)")
        if name in names[:i]:
            raise CliError(f"--vars {args.vars!r}: variable {name!r} is repeated")
    return names


def _field(args):
    try:
        return field_from_spec(args.field)
    except FieldError as exc:
        raise CliError(str(exc))


def _ideal_from_arg(text, names, field) -> GradedIdeal:
    gens = parse_poly_list(_read_source(text), names, field)
    if not gens:
        raise CliError("empty generator list")
    return GradedIdeal(len(names), gens, field)


def _dual_names(names):
    dual = [v.upper() for v in names]
    if len(set(dual)) < len(dual):
        raise CliError(f"--vars {','.join(names)!r}: dual forms are written in "
                       f"the names upper-cased, and two of them then coincide")
    return dual


def _ideal_report(I: GradedIdeal, names=None):
    report = {
        "generators": [g.format(names) for g in I.generators],
        "minimal_profile": {str(k): v
                            for k, v in sorted(I.minimal_generator_profile().items())},
    }
    if I.truncated_at is not None:
        report["through_degree"] = I.truncated_at
        report["complete"] = False
        return report
    report["complete"] = True
    if I.hilbert_function(0) == 0:
        # the unit ideal: R/I = 0 has no socle and no datum
        return report
    try:
        socle = I.socle_report()
    except NotArtinianError as exc:
        report["socle"] = {"error": str(exc)}
        return report
    report["hilbert_function"] = I.hilbert_series_table(socle.artinian_bound)
    report["socle"] = socle.as_dict()
    try:
        report["datum"] = I.virtual_datum().as_dict()
    except (NotEquigeneratedError, DatumViolationError) as exc:
        report["datum"] = {"error": str(exc)}
    return report


def _render(value, indent=0):
    pad = "  " * indent
    lines = []
    if isinstance(value, dict):
        for k, v in value.items():
            if isinstance(v, (dict, list)) and v:
                lines.append(f"{pad}{k}:")
                lines.extend(_render(v, indent + 1))
            else:
                lines.append(f"{pad}{k}: {v}")
    elif isinstance(value, list):
        for v in value:
            if isinstance(v, (dict, list)):
                lines.extend(_render(v, indent + 1))
            else:
                lines.append(f"{pad}- {v}")
    else:
        lines.append(f"{pad}{value}")
    return lines


def _emit(args, report) -> None:
    if args.json:
        print(json.dumps(report, indent=2))
    else:
        print("\n".join(_render(report)))


def _common(parser, seed=False):
    parser.add_argument("--field", default="q",
                        help="coefficient field: q or fp:<prime> (default q)")
    parser.add_argument("--vars", default=None,
                        help="comma-separated distinct variable names (default x,y,z)")
    parser.add_argument("--json", action="store_true",
                        help="emit the report as JSON")
    if seed:
        parser.add_argument("--seed", type=int, default=0)


def cmd_colon(args, field, names):
    base = _ideal_from_arg(args.ci, names, field)
    f = parse_poly(_read_source(args.f), names, field)
    if args.t_max is not None and args.t_max < 0:
        raise CliError(f"--t-max {args.t_max} is below 0, the least degree of "
                       f"a piece: no piece to report")
    result = base.colon(f, args.t_max)
    report = {"field": field.name, "base": [g.format(names) for g in base.generators],
              "form": f.format(names)}
    report.update(_ideal_report(result, names))
    _emit(args, report)
    return 0


def cmd_socle(args, field, names):
    I = _ideal_from_arg(args.ideal, names, field)
    socle = I.socle_report()
    report = {
        "field": field.name,
        "generators": [g.format(names) for g in I.generators],
        "hilbert_function": I.hilbert_series_table(socle.artinian_bound),
        "socle": socle.as_dict(),
    }
    _emit(args, report)
    return 0


def cmd_betti(args, field, names):
    I = _ideal_from_arg(args.ideal, names, field)
    table = betti_table(I)
    report = {
        "field": field.name,
        "betti": table.as_dict(),
    }
    shifts = table.column_shifts(1)
    if len(shifts) == 1:
        report["equigenerated_degree"] = next(iter(shifts))
        report["linear_resolution"] = has_linear_resolution(table)
    _emit(args, report)
    if not args.json:
        print(table.staircase())
    return 0


def cmd_datum(args, field, names):
    I = _ideal_from_arg(args.ideal, names, field)
    try:
        datum = I.virtual_datum()
    except (NotEquigeneratedError, DatumViolationError) as exc:
        _emit(args, {"field": field.name, "error": str(exc)})
        return 1
    _emit(args, {"field": field.name, "datum": datum.as_dict()})
    return 0


def _parse_matrix(text, names, field) -> SkewPolyMatrix:
    lines = [ln.strip() for ln in text.splitlines() if ln.strip()]
    rows = [[parse_poly(cell, names, field)
             for cell in ln.split(",")] for ln in lines]
    lengths = [len(r) for r in rows]
    n = len(names)
    if lengths == list(range(len(rows), 0, -1)):
        return SkewPolyMatrix.from_upper(n, rows, field)
    if len(set(lengths)) == 1 and lengths[0] == len(rows):
        return SkewPolyMatrix(rows)
    raise CliError("matrix text must be square (full rows) or a strictly "
                   "upper triangle (rows of decreasing length)")


def cmd_pfaffian(args, field, names):
    A = _parse_matrix(_read_source(args.matrix), names, field)
    report = {"field": field.name, "size": A.r}
    if A.r % 2 == 0:
        report["pfaffian"] = pfaffian(A).format(names)
    else:
        pfs = maximal_pfaffians(A)
        report["maximal_pfaffians"] = [p.format(names) for p in pfs]
        gens = [p for p in pfs if not p.is_zero()]
        if gens:
            ideal = GradedIdeal(A.n, gens, field)
            report.update(_ideal_report(ideal, names))
    _emit(args, report)
    return 0


def cmd_model(args, field, names):
    I = generic_power_model(args.r, args.dp, args.n, args.seed, field)
    report = {"field": field.name, "seed": args.seed,
              "r": args.r, "entry_degree": args.dp, "variables": args.n}
    # the model's own ring of --n variables, in its default names
    report.update(_ideal_report(I))
    _emit(args, report)
    return 0


def cmd_inverse(args, field, names):
    dual_names = _dual_names(names)
    I = _ideal_from_arg(args.ideal, names, field)
    F = macaulay_inverse(I)
    _emit(args, {
        "field": field.name,
        "kind": "inverse-system element (divided powers)",
        "dual_degree": F.degree(),
        "generator": F.format(dual_names),
    })
    return 0


def cmd_ann(args, field, names):
    dual_names = _dual_names(names)
    proxy = parse_poly(_read_source(args.dual), dual_names, field)
    F = InverseForm(proxy.n, dict(proxy.terms), field)
    ideal = annihilator(F)
    report = {"field": field.name, "dual_form": F.format(dual_names)}
    report.update(_ideal_report(ideal, names))
    _emit(args, report)
    return 0


def cmd_newton_dual(args, field, names):
    f = parse_poly(_read_source(args.f), names, field)
    if args.socle_m is None:
        _emit(args, {"field": field.name, "dual": newton_dual(f).format(names)})
        return 0
    dual_names = _dual_names(names)
    F = socle_newton_dual(f, args.socle_m)
    _emit(args, {
        "field": field.name,
        "kind": "inverse-system element (divided powers)",
        "directrix_exponent": args.socle_m,
        "dual": F.format(dual_names),
    })
    return 0


def cmd_directrix(args, field, names):
    I = _ideal_from_arg(args.ideal, names, field)
    f = directrix_form(I, args.m)
    colon = variable_power_ideal(I.n, args.m, field).colon(f)
    report = {
        "field": field.name,
        "m": args.m,
        "directrix": f.format(names),
        "degree": f.homogeneous_degree(),
        "colon_identity_verified": colon.equals(I),
    }
    _emit(args, report)
    return 0 if report["colon_identity_verified"] else 1


def cmd_linres_test(args, field, names):
    f = parse_poly(_read_source(args.f), names, field)
    rep = is_equigen_linres(f, args.m)
    report = {"field": field.name, "form": f.format(names), "m": args.m}
    report.update(rep.as_dict())
    if field.characteristic != 0:
        report["warning"] = ("sum-of-powers guarantees hold in characteristic "
                             "0 only; this field has characteristic "
                             f"{field.characteristic}")
    if rep.matrix_shape is not None:
        report["matrix_shape"] = list(rep.matrix_shape)
    _emit(args, report)
    return 0


def cmd_spans(args, field, names):
    forms = parse_poly_list(_read_source(args.forms), names, field)
    rep = spans_target(forms, args.e)
    report = {"field": field.name, "e": args.e}
    report.update(rep.as_dict())
    _emit(args, report)
    return 0


def cmd_certify_quadrics(args, field, names):
    if args.forms:
        quadrics = parse_poly_list(_read_source(args.forms), names, field)
    else:
        # seeded quadrics in their own ring of three variables, default names
        quadrics = random_quadrics(args.seed, field)
        names = None
    rep = five_quadrics_certificate(quadrics)
    report = {
        "field": field.name,
        "seed": args.seed if not args.forms else None,
        "quadrics": [q.format(names) for q in quadrics],
    }
    report.update(rep.as_dict())
    if rep.verdict == "GORENSTEIN":
        report["socle_confirms"] = \
            GradedIdeal(3, quadrics, field).socle_report().is_gorenstein
    _emit(args, report)
    return 0


def cmd_gap(args, field, names):
    I = _ideal_from_arg(args.ideal, names, field)
    if args.lines:
        lines = parse_poly_list(_read_source(args.lines), names, field)
    else:
        lines = variable_lines(I.n, field)
    m = pure_power_index(I, lines)
    socle = I.socle_report()
    report = {
        "field": field.name,
        "lines": [l.format(names) for l in lines],
        "socle_degree": socle.socle_degree,
        "pure_power_index": m,
        "gap": socle.socle_degree + 1 - m,
    }
    _emit(args, report)
    return 0


def cmd_power_check(args, field, names):
    if args.k < 1:
        raise CliError(f"--k {args.k} is below 1: I^k is compared for k >= 1")
    I = _ideal_from_arg(args.ideal, names, field)
    eq = I.is_equigenerated()
    if eq is None:
        raise CliError("power check needs an equigenerated ideal")
    d, _ = eq
    k = args.k
    t_max = args.t_max if args.t_max is not None else d * k + 2
    if t_max < d * k:
        raise CliError(f"--t-max {t_max} is below d*k = {d * k}, the least "
                       f"degree of I^{k}: no piece to compare")
    rows = []
    all_match = True
    for t in range(d * k, t_max + 1):
        dim = I.power_piece(k, t).dim
        full = monomial_count(I.n, t)
        rows.append({"t": t, "dim": dim, "max_ideal_power_dim": full,
                     "match": dim == full})
        all_match = all_match and dim == full
    rep = check_reduction_two(I, args.seed)
    report = {
        "field": field.name,
        "seed": args.seed,
        "k": k,
        "pieces": rows,
        "power_equals_max_ideal_power": all_match,
        "reduction": rep.as_dict(),
    }
    _emit(args, report)
    return 0


def cmd_reproduce(args, field, names):
    ids = case_ids() if args.all else [args.case]
    if not args.all and args.case is None:
        raise CliError("give --case <id> or --all")
    if not args.json:
        print(f"field: {field.name}  seed: {args.seed}")
    failures = 0
    results = []
    for cid in ids:
        try:
            res = run_case(cid, field, args.seed)
        except KeyError as exc:
            raise CliError(str(exc))
        except (ValueError, RuntimeError) as exc:
            # a case that raises fails alone; the cases after it still run
            detail = f"{type(exc).__name__}: {exc}"
            res = CaseResult(cid, False, [("raised", False, detail)])
        results.append(res)
        status = "SKIP" if res.skipped else ("PASS" if res.passed else "FAIL")
        if not res.passed:
            failures += 1
        if args.json:
            continue
        note = f" ({res.note})" if res.note else ""
        print(f"{status} {res.case_id}{note}")
        if status == "FAIL":
            for label, ok, detail in res.checks:
                if not ok:
                    print(f"     failed: {label} -- {detail}")
    if args.json:
        _emit(args, {"field": field.name, "seed": args.seed,
                     "results": [r.as_dict() for r in results]})
    else:
        print(f"{len(results)} case(s), {failures} failure(s)")
    return 1 if failures else 0


@functools.lru_cache(maxsize=None)
def build_parser():
    """The argument parser, built once per process and shared by every
    ``main`` call; argparse reads stdout, stderr and the terminal width
    when it prints, not here."""
    parser = argparse.ArgumentParser(
        prog="gor3",
        description="Exact computations with codimension-3 Gorenstein ideals: "
                    "colon constructions, Pfaffian models, inverse systems, "
                    "Betti tables and rank certificates.")
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("colon", help="colon ideal (I : f)")
    p.add_argument("--ci", required=True,
                   help="base ideal generators, comma or newline separated "
                        "(or @file)")
    p.add_argument("--f", required=True, help="the form to colon by")
    p.add_argument("--t-max", type=int, default=None, dest="t_max",
                   help="truncate the colon ideal above this degree "
                        "(required for a non-Artinian base)")
    _common(p)
    p.set_defaults(func=cmd_colon)

    p = sub.add_parser("socle", help="socle decomposition and Hilbert data")
    p.add_argument("--ideal", required=True)
    _common(p)
    p.set_defaults(func=cmd_socle)

    p = sub.add_parser("betti", help="graded Betti table")
    p.add_argument("--ideal", required=True)
    _common(p)
    p.set_defaults(func=cmd_betti)

    p = sub.add_parser("datum", help="(d, r, d') of an equigenerated ideal")
    p.add_argument("--ideal", required=True)
    _common(p)
    p.set_defaults(func=cmd_datum)

    p = sub.add_parser("pfaffian",
                       help="Pfaffian / maximal Pfaffians of an alternating matrix")
    p.add_argument("--matrix", required=True,
                   help="rows of comma-separated polynomials (or @file); "
                        "a strictly upper triangle is accepted")
    _common(p)
    p.set_defaults(func=cmd_pfaffian)

    p = sub.add_parser("model", help="specialized pure-power alternating model")
    p.add_argument("--r", type=int, required=True, help="odd matrix size")
    p.add_argument("--dp", type=int, required=True, help="entry degree")
    p.add_argument("--n", type=int, default=3, help="target variable count")
    _common(p, seed=True)
    p.set_defaults(func=cmd_model)

    p = sub.add_parser("inverse", help="Macaulay inverse generator")
    p.add_argument("--ideal", required=True)
    _common(p)
    p.set_defaults(func=cmd_inverse)

    p = sub.add_parser("ann", help="annihilator ideal of a dual form")
    p.add_argument("--dual", required=True,
                   help="dual form in capitalized variables, e.g. X^2+Y^2+Z^2")
    _common(p)
    p.set_defaults(func=cmd_ann)

    p = sub.add_parser("newton-dual", help="Newton dual of a form")
    p.add_argument("--f", required=True)
    p.add_argument("--socle-m", type=int, default=None, dest="socle_m",
                   help="use the fixed directrix (m-1, ..., m-1)")
    _common(p)
    p.set_defaults(func=cmd_newton_dual)

    p = sub.add_parser("directrix",
                       help="directrix form of a Gorenstein ideal at exponent m")
    p.add_argument("--ideal", required=True)
    p.add_argument("--m", type=int, required=True)
    _common(p)
    p.set_defaults(func=cmd_directrix)

    p = sub.add_parser("linres-test",
                       help="equigenerated-with-linear-resolution rank test")
    p.add_argument("--f", required=True)
    p.add_argument("--m", type=int, required=True)
    _common(p)
    p.set_defaults(func=cmd_linres_test)

    p = sub.add_parser("spans", help="do degree-e multiples fill R_{d+e}?")
    p.add_argument("--forms", required=True)
    p.add_argument("--e", type=int, required=True)
    _common(p)
    p.set_defaults(func=cmd_spans)

    p = sub.add_parser("certify-quadrics",
                       help="open-set Gorenstein certificate for five quadrics")
    p.add_argument("--forms", default=None,
                   help="five quadrics, comma or newline separated; omit "
                        "for seeded random")
    _common(p, seed=True)
    p.set_defaults(func=cmd_certify_quadrics)

    p = sub.add_parser("gap", help="pure power index and gap")
    p.add_argument("--ideal", required=True)
    p.add_argument("--lines", default=None,
                   help="independent linear forms (default: the variables)")
    _common(p)
    p.set_defaults(func=cmd_gap)

    p = sub.add_parser("power-check",
                       help="compare (I^k)_t with the matching power of the "
                            "maximal ideal; seeded reduction-number check")
    p.add_argument("--ideal", required=True)
    p.add_argument("--k", type=int, default=2)
    p.add_argument("--t-max", type=int, default=None, dest="t_max",
                   help="last degree compared (default d*k + 2)")
    _common(p, seed=True)
    p.set_defaults(func=cmd_power_check)

    p = sub.add_parser("reproduce", help="re-run registered worked examples")
    p.add_argument("--case", default=None, help="case id")
    p.add_argument("--all", action="store_true")
    _common(p, seed=True)
    p.set_defaults(func=cmd_reproduce)

    return parser


def main(argv=None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return exc.code if exc.code is not None else 2
    try:
        return args.func(args, _field(args), _vars(args))
    except CliError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return exc.code
    except PolyParseError as exc:
        print(f"parse error: {exc}", file=sys.stderr)
        return 2
    except (ValueError, RuntimeError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
