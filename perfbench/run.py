#!/usr/bin/env python3
"""Benchmark for gor3, driven from outside through its public calls.

    python3 perfbench/run.py --workload registry-qq --seed 1 --seconds 24 --trace 0

Run from the root of a source checkout: gor3 is imported from ``src/``.  One
client runs a closed loop with no threads: the next operation starts when
the previous one has returned.  The workloads are described in
``perfbench/README.md``.

With ``--trace 0`` the run makes a fixed number of passes over the
workload (``PASSES`` in ``workloads.py``) and prints the end-to-end
metrics, with times put on one host speed by ``hostspeed.py``.  With
``--trace 1`` it runs the pass untraced and traced, in half as many pairs,
prints the per-layer metrics, and fails if any two passes' output digests
differ.  The last line of standard output is a JSON object with the keys
``correct``, ``attempted``, ``failed`` and ``metrics``.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import platform
import resource
import statistics
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"

# A fresh interpreter imports gor3 and builds the CLI parser, as every
# invocation of the gor3 command does.  Timed inside the child, so the
# interpreter's own start-up is not counted; the child then times the host
# speed loop, which it imports only after the timed part.
SETUP_CODE = ("import time; t0 = time.perf_counter(); import gor3, gor3.cli; "
              "gor3.cli.build_parser(); t = time.perf_counter() - t0; "
              "import hostspeed; print(t, *(hostspeed.loop_s() for _ in range(5)))")
SETUP_REPEATS = 15


def measure_setup():
    """Median set-up time of fresh interpreters, at the nominal host speed."""
    from hostspeed import NOMINAL_S

    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        [str(SRC), str(HERE)] + ([env["PYTHONPATH"]] if env.get("PYTHONPATH") else []))
    samples = []
    for i in range(SETUP_REPEATS + 1):
        done = subprocess.run([sys.executable, "-c", SETUP_CODE], cwd=ROOT, env=env,
                              capture_output=True, text=True, timeout=120, check=True)
        if i:   # the first start compiles bytecode; users pay that once
            t, *loops = map(float, done.stdout.split())
            samples.append(t * NOMINAL_S / statistics.median(loops))
    return statistics.median(samples)


def environment():
    """What a result must carry so that numbers from different kernel
    backends, interpreters or sources are never compared."""
    import gor3

    commit = "unknown (not a git checkout)"
    if (ROOT / ".git").exists():
        try:
            commit = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT, text=True,
                                    capture_output=True, timeout=30).stdout.strip()
        except OSError:
            pass
    source = hashlib.sha256()
    for path in sorted((SRC / "gor3").rglob("*.py")):
        source.update(path.relative_to(SRC).as_posix().encode() + b"\0")
        source.update(path.read_bytes())
    return {
        "backend": getattr(gor3, "BACKEND", "absent"),
        "python": platform.python_version(),
        "nproc": len(os.sched_getaffinity(0)),
        "commit": commit,
        "source_sha256": source.hexdigest(),
        "GOR3_PURE": os.environ.get("GOR3_PURE"),
    }


def op_times(passes):
    """Each operation's mean time over the passes, which all repeat the
    same operations.  Over runs on the same code the mean of a fixed number
    of repeats varies less than their least or their median."""
    labels = passes[0].labels
    if any(run.labels != labels for run in passes):
        raise RuntimeError("passes of one run did not repeat the same operations")
    return [statistics.fmean(column) for column in zip(*(run.times for run in passes))]


def timed_passes(make_pass, seed, count):
    """The passes, each operation's time put at the nominal host speed;
    returns them with the mean measured pass time and every loop sample."""
    from hostspeed import HostSpeed
    from layertrace import clear_lru_caches
    from workloads import Pass

    passes, measured, loops = [], [], []
    for _ in range(count):
        clear_lru_caches()
        run = Pass()
        with HostSpeed() as speed:
            make_pass(run, seed)
        measured.append(run.wall_s)
        run.times = [speed.at_nominal(t0, t1) for t0, t1 in run.spans]
        loops += speed.loops
        passes.append(run)
    return passes, statistics.fmean(measured), loops


def end_to_end(passes, setup_s):
    times = op_times(passes)
    p90 = statistics.quantiles(times, n=10)[8] if len(times) > 1 else times[0]
    rss_kb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    return {
        "wall_s": (statistics.fmean(run.wall_s for run in passes), "s"),
        "op_p50_ms": (statistics.median(times) * 1e3, "ms"),
        "op_p90_ms": (p90 * 1e3, "ms"),
        "peak_rss_mb": (rss_kb / 1024, "MB"),
        "setup_s": (setup_s, "s"),
    }, {
        "passes": len(passes),
        "ops_per_pass": len(times),
        "ops_beyond_p90": sum(t > p90 for t in times),
    }


def shares(passes):
    """Each kind of operation's share of the ops and of the time of a pass;
    a kind is a registry case, or a subcommand with its expected exit code."""
    times = op_times(passes)
    total = sum(times)
    kinds = {}
    for label, t in zip(passes[0].labels, times):
        ops, spent = kinds.get(label, (0, 0.0))
        kinds[label] = (ops + 1, spent + t)
    return {label: {"ops": round(ops / len(times), 4), "time": round(spent / total, 4)}
            for label, (ops, spent) in sorted(kinds.items())}


def traced_passes(make_pass, seed, pairs):
    """The pass untraced and traced, in pairs whose order alternates.
    Returns the untraced passes and (pass, tracer, cache
    counts) for each traced one."""
    import gor3.monomials
    from layertrace import Tracer, clear_lru_caches, lru_cache_totals
    from workloads import Pass

    def plain():
        clear_lru_caches()
        run = Pass()
        make_pass(run, seed)
        plain_runs.append(run)

    def traced():
        tracer = Tracer().install()
        try:
            clear_lru_caches()
            before = lru_cache_totals(gor3.monomials)
            run = Pass()
            tracer.enabled = True
            try:
                make_pass(run, seed)
            finally:
                tracer.enabled = False
            after = lru_cache_totals(gor3.monomials)
        finally:
            tracer.uninstall()
        cache = None if before is None else (after[0] - before[0], after[1] - before[1])
        traced_runs.append((run, tracer, cache))

    plain_runs, traced_runs = [], []
    steps = [plain, traced]

    for _ in range(pairs):
        for step in steps:
            step()
        steps.reverse()
    return plain_runs, traced_runs


def layer_metrics(run, tracer, cache, case_ids):
    """Per-layer metrics of one traced pass; a metric whose target is gone
    is None."""
    calls, self_s, outer_s, c = tracer.calls, tracer.self_s, tracer.outer_s, tracer.counters
    kernel = [k for k in ("kernel.rref_int", "kernel.rref_mod") if k in calls]
    gi = "ideals.GradedIdeal."
    em = "linalg.ExactMatrix."
    det = [em + name for name in ("det", "adjugate", "minor")]
    m = {
        "kernel.calls": (sum(calls[k] for k in kernel) if kernel else None, "count"),
        "kernel.self_s": (tracer.layer_self_s("kernel"), "s"),
        "kernel.entries": (c.get("kernel.entries"), "count"),
        "kernel.out_bits_max": (c.get("kernel.out_bits_max"), "bits"),
        "linalg.rref_calls": (calls.get(em + "rref"), "count"),
        "linalg.convert_s": (self_s.get(em + "rref"), "s"),
        "linalg.det_s": (sum(self_s[k] for k in det) if all(k in self_s for k in det) else None,
                         "s"),
        "linalg.kernel_basis_s": (self_s.get(em + "kernel_basis"), "s"),
        "ideals.pieces_built": (c.get("ideals.pieces_built"), "count"),
        "ideals.piece_cache_hits": (c.get("ideals.piece_cache_hits"), "count"),
        "ideals.pieces_above_full": (c.get("ideals.pieces_above_full"), "count"),
        "ideals.colon_s": (outer_s.get(gi + "colon"), "s"),
        "ideals.socle_s": (outer_s.get(gi + "socle_report"), "s"),
        "ideals.artinian_s": (outer_s.get(gi + "artinian_bound"), "s"),
        "ideals.self_s": (tracer.layer_self_s("ideals"), "s"),
        "parsing.calls": (calls.get("parsing.parse_poly"), "count"),
        "parsing.self_s": (tracer.layer_self_s("parsing"), "s"),
        "poly.mul_calls": (calls.get("poly.MultiPoly.__mul__"), "count"),
        "poly.self_s": (tracer.layer_self_s("poly"), "s"),
        "pfaffians.self_s": (tracer.layer_self_s("pfaffians"), "s"),
        "monomials.cache_hits": (None if cache is None else cache[0], "count"),
        "monomials.cache_misses": (None if cache is None else cache[1], "count"),
        "cli.self_s": (tracer.layer_self_s("cli"), "s"),
        "betti.self_s": (tracer.layer_self_s("betti"), "s"),
        "apolarity.self_s": (tracer.layer_self_s("apolarity"), "s"),
        "criteria.self_s": (tracer.layer_self_s("criteria"), "s"),
    }
    per_case = dict.fromkeys(case_ids, 0.0)
    for label, t in zip(run.labels, run.times):
        if label in per_case:
            per_case[label] += t
    for case_id, t in per_case.items():
        m[f"cases.{case_id}_s"] = (t, "s")
    return m


def per_layer(plain_runs, traced_runs, case_ids):
    """Counts from the first traced pass, times as medians over all of them,
    and the tracing overhead as traced minus untraced wall_s."""
    each = [layer_metrics(run, tracer, cache, case_ids)
            for run, tracer, cache in traced_runs]
    metrics = {}
    for name, (value, unit) in each[0].items():
        if value is not None and unit == "s":
            value = statistics.median(m[name][0] for m in each)
        metrics[name] = (value, unit)
    counts = [name for name, (_, unit) in each[0].items() if unit != "s"]
    unsteady = [name for name in counts if any(m[name] != each[0][name] for m in each)]
    metrics["trace.overhead_s"] = (
        statistics.fmean(run.wall_s for run, _, _ in traced_runs)
        - statistics.fmean(run.wall_s for run in plain_runs), "s")
    return metrics, unsteady


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    if not (SRC / "gor3" / "__init__.py").is_file():
        print(f"error: no gor3 sources under {SRC}; run from a source checkout",
              file=sys.stderr)
        return 2
    sys.path[:0] = [str(SRC), str(HERE)]
    import gor3

    if Path(gor3.__file__).resolve().parent != (SRC / "gor3").resolve():
        print(f"error: imported gor3 from {gor3.__file__}, not from {SRC}",
              file=sys.stderr)
        return 2
    from workloads import WORKLOADS, pass_count

    make_pass = WORKLOADS.get(args.workload)
    if make_pass is None:
        print(f"error: unknown workload {args.workload!r}; "
              f"known: {', '.join(WORKLOADS)}", file=sys.stderr)
        return 2

    print("env " + json.dumps(environment(), sort_keys=True))
    passes_wanted = pass_count(args.workload, args.seconds)
    if args.trace:
        import gor3.cases

        plain_runs, traced_runs = traced_passes(make_pass, args.seed,
                                                max(1, passes_wanted // 2))
        passes = plain_runs + [run for run, _, _ in traced_runs]
        metrics, unsteady = per_layer(plain_runs, traced_runs, gor3.cases.case_ids())
        bookkeeping = statistics.median(tracer.bookkeeping_s for _, tracer, _ in traced_runs)
        print(f"pairs {len(plain_runs)}; tracer bookkeeping {bookkeeping:.4f} s per traced pass")
        if unsteady:
            print("counts that differ between traced passes: " + ", ".join(unsteady))
        missing = traced_runs[0][1].missing
        if missing:
            print("missing targets: " + ", ".join(missing))
        absent = sorted(name for name, (value, _) in metrics.items() if value is None)
        if absent:
            print("absent metrics: " + ", ".join(absent))
        built = metrics["ideals.pieces_built"][0]
        if built:
            print(f"pieces above a full piece: {metrics['ideals.pieces_above_full'][0]}"
                  f" of {built} built")
    else:
        from hostspeed import NOMINAL_S

        setup_s = measure_setup()
        passes, measured_s, loops = timed_passes(make_pass, args.seed, passes_wanted)
        metrics, info = end_to_end(passes, setup_s)
        print("samples " + json.dumps(info, sort_keys=True))
        print("shares " + json.dumps(shares(passes)))
        quartiles = statistics.quantiles(loops, n=4) if len(loops) > 1 else loops * 3
        print(f"host speed loop {len(loops)} samples, quartiles "
              + " ".join(f"{q:.6f}" for q in quartiles) + f" s, nominal {NOMINAL_S} s; "
              f"measured wall_s {measured_s:.4f} s")

    # every pass repeats the same operations, so every digest must agree;
    # with tracing on this shows that the tracer changes no output
    digests = {run.digest() for run in passes}
    same = len(digests) == 1
    print(f"digest {passes[0].digest()}")
    if not same:
        print(f"FAILED: {len(digests)} different output digests in one run", file=sys.stderr)

    attempted = sum(run.attempted for run in passes)
    failed = sum(len(run.failed) for run in passes)
    for run in passes:
        for label, reason in run.reasons[:20]:
            print(f"FAILED {label}: {reason}", file=sys.stderr)
    print(f"fail_ratio {failed / attempted:.6f} ({failed} of {attempted} ops)")
    width = max(len(name) for name in metrics)
    for name, (value, unit) in metrics.items():
        if value is not None:
            print(f"{name:<{width}}  {value!r} {unit}")
    result = {
        "correct": failed == 0 and same,
        "attempted": attempted,
        "failed": failed,
        "metrics": {name: {"value": value, "unit": unit}
                    for name, (value, unit) in metrics.items() if value is not None},
    }
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
