"""Tests of the benchmark itself.

    python3 -m pytest -q perfbench/tests

They run the benchmark with a small --seconds; a run always completes at
least one pass, so each takes a few seconds.
"""

from __future__ import annotations

import json
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

BENCH = Path(__file__).resolve().parent.parent
ROOT = BENCH.parent
sys.path[:0] = [str(ROOT / "src"), str(BENCH)]

import gor3.cases  # noqa: E402
import gor3.ideals  # noqa: E402
import hostspeed  # noqa: E402
import layertrace  # noqa: E402
import run  # noqa: E402
import workloads  # noqa: E402

# metrics that count work rather than time it; they must repeat exactly
EXACT = ("kernel.calls", "kernel.entries", "kernel.out_bits_max", "linalg.rref_calls",
         "ideals.pieces_built", "ideals.piece_cache_hits", "ideals.pieces_above_full",
         "parsing.calls", "poly.mul_calls", "monomials.cache_hits",
         "monomials.cache_misses")


def bench(*args, cwd=ROOT):
    return subprocess.run([sys.executable, str(BENCH / "run.py"), *args], cwd=cwd,
                          capture_output=True, text=True, timeout=170)


def result(done):
    assert done.returncode == 0, done.stderr
    lines = done.stdout.strip().splitlines()
    digest = next(line for line in lines if line.startswith("digest "))
    return json.loads(lines[-1]), digest


@pytest.mark.parametrize("workload", ["registry-fp", "query-stream"])
def test_traced_counts_and_digest_repeat(workload):
    args = ("--workload", workload, "--seed", "5", "--seconds", "1", "--trace", "1")
    (first, digest1), (second, digest2) = result(bench(*args)), result(bench(*args))
    assert first["correct"] and second["correct"]
    assert first["failed"] == 0
    assert digest1 == digest2
    for name in EXACT:
        assert first["metrics"][name]["value"] == second["metrics"][name]["value"], name
    assert first["metrics"]["kernel.calls"]["value"] > 0


def test_untraced_run_reports_every_end_to_end_metric():
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    out, _ = result(bench("--workload", "registry-fp", "--seed", "2", "--seconds", "3"))
    passes = workloads.pass_count("registry-fp", 3)
    assert out["correct"] and out["attempted"] == passes * len(gor3.cases.case_ids())
    assert {m["name"] for m in spec["end_to_end"]} == set(out["metrics"])
    assert all(m["value"] > 0 for m in out["metrics"].values())


def test_seed_fixes_the_stream():
    def digest(seed):
        p = workloads.Pass()
        workloads.query_stream(p, seed)
        assert not p.failed, p.reasons
        return p.labels, p.digest()

    assert digest(4) == digest(4)
    assert digest(4)[1] != digest(9)[1]


def test_wrong_answers_are_counted(monkeypatch):
    report = gor3.ideals.SocleReport.as_dict

    def off_by_one(self):
        out = report(self)
        out["socle_degree"] += 1
        return out

    monkeypatch.setattr(gor3.ideals.SocleReport, "as_dict", off_by_one)
    p = workloads.Pass()
    workloads.query_stream(p, 1)
    assert p.failed
    assert any("socle degree" in reason for _, reason in p.reasons)


def test_wrong_exit_code_and_registry_fail_are_counted(monkeypatch):
    p = workloads.Pass()
    p.cli(["socle", "--ideal=x^2,y^2,z^2", "--json"], expect=2)
    assert p.failed == {0}

    def failing(case_id, field=None, seed=None):
        return gor3.cases.CaseResult(case_id, False, [("forced", False, "")])

    monkeypatch.setattr(gor3.cases, "run_case", failing)
    p = workloads.Pass()
    workloads.WORKLOADS["registry-fp"](p, 0)
    assert len(p.failed) == p.attempted == len(gor3.cases.case_ids())


def test_missing_targets_are_absent_not_fatal(monkeypatch):
    monkeypatch.setattr(layertrace, "KERNEL_TARGETS", ("linalg.rref_gone",))
    monkeypatch.setattr(layertrace, "LAYER_MODULES",
                        layertrace.LAYER_MODULES + ("no_such_module",))
    tracer = layertrace.Tracer().install()
    try:
        tracer.enabled = True
        p = workloads.Pass()
        workloads.WORKLOADS["registry-fp"](p, 0)
        tracer.enabled = False
    finally:
        tracer.uninstall()
    assert not p.failed
    assert "linalg.rref_gone" in tracer.missing
    assert "no_such_module (module)" in tracer.missing
    metrics = run.layer_metrics(p, tracer, None, gor3.cases.case_ids())
    assert metrics["kernel.calls"][0] is None
    assert metrics["kernel.entries"][0] is None
    assert metrics["monomials.cache_hits"][0] is None
    assert metrics["ideals.pieces_built"][0] > 0


def test_tracer_uninstall_restores_the_package():
    before = (gor3.cli.main, gor3.linalg.rref_int, gor3.ideals.GradedIdeal.colon)
    tracer = layertrace.Tracer().install()
    assert gor3.cli.main is not before[0]
    tracer.uninstall()
    assert (gor3.cli.main, gor3.linalg.rref_int, gor3.ideals.GradedIdeal.colon) == before


def test_refuses_to_run_without_the_sources(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(BENCH, tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("__pycache__"))
    done = subprocess.run([sys.executable, "perfbench/run.py", "--workload", "registry-fp",
                           "--seed", "1", "--seconds", "1", "--trace", "0"],
                          cwd=tmp_path, capture_output=True, text=True, timeout=170)
    assert done.returncode != 0
    assert "{" not in done.stdout


def test_host_speed_scales_and_drops_its_own_samples():
    speed = hostspeed.HostSpeed()
    # samples at 1.0 and 1.5 s, the loop at half and at the nominal speed
    speed.starts = [1.0, 1.5]
    speed.loops = [2 * hostspeed.NOMINAL_S, hostspeed.NOMINAL_S]
    speed.costs = [0.01, 0.01]
    # 0.9 to 1.2 s holds one sample; only the first is within the window
    assert speed.at_nominal(0.9, 1.2) == pytest.approx(0.29 / 2)
    # 1.0 to 1.6 s holds both: scaled by their median
    assert speed.at_nominal(1.0, 1.6) == pytest.approx(0.58 / 1.5)
    # far from every sample: the one just before
    assert speed.at_nominal(3.0, 3.1) == pytest.approx(0.1)


def test_host_speed_samples_while_in_use():
    with hostspeed.HostSpeed() as speed:
        t0 = hostspeed.clock()
        while hostspeed.clock() - t0 < 0.3:
            pass
        t1 = hostspeed.clock()
    assert len(speed.loops) >= 3
    assert 0 < speed.at_nominal(t0, t1) < 10 * (t1 - t0)
