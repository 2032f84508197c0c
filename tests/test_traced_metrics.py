"""The benchmark's tracer still finds every target its metrics read.

perfbench/layertrace.py binds gor3 functions and methods by name and
perfbench/run.py builds its per-layer metrics from them; a target that no
longer exists is reported as missing and its metric as absent (None), which
a traced benchmark run only prints.  This test makes such a loss fail the
suite: it traces one small case and reads the metrics as run.py does.
"""

import sys
import time
from pathlib import Path
from types import SimpleNamespace

import gor3.cases
import gor3.monomials
from gor3.fields import GF

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "perfbench"))

import layertrace  # noqa: E402
import run  # noqa: E402


def test_traced_five_quadrics_unit_reports_every_metric():
    case = "five-quadrics-unit"
    tracer = layertrace.Tracer().install()
    try:
        before = layertrace.lru_cache_totals(gor3.monomials)
        tracer.enabled = True
        t0 = time.perf_counter()
        try:
            result = gor3.cases.run_case(case, GF(32003))
        finally:
            tracer.enabled = False
        elapsed = time.perf_counter() - t0
        after = layertrace.lru_cache_totals(gor3.monomials)
    finally:
        tracer.uninstall()
    assert result.passed
    assert tracer.missing == []
    cache = (after[0] - before[0], after[1] - before[1])
    traced_pass = SimpleNamespace(labels=[case], times=[elapsed])
    metrics = run.layer_metrics(traced_pass, tracer, cache, gor3.cases.case_ids())
    assert [name for name, (value, _) in metrics.items() if value is None] == []
    assert metrics["linalg.det_s"][0] > 0
    assert metrics["kernel.calls"][0] > 0
