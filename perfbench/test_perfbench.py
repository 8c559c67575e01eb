"""Self-tests of the benchmark: time ledgers reconcile, counts repeat.

Run from the repository root (a few minutes: every workload is traced
twice at each of two seeds)::

    python3 -m pytest perfbench -q
"""

from __future__ import annotations

import json
import math
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(ROOT / "src"))

from perfbench import batch, common, run, service_mix, tracing  # noqa: E402

#: The seed the benchmark is tuned on, and one it never saw.
SEEDS = (1, 7)
#: Reconciliation tolerance: layers + remainder must equal the traced
#: wall time within this share of it, plus a fixed slack for the
#: wrappers' own clock reads.
EPSILON_FRAC = 0.005
EPSILON_S = 0.002
#: Counts that must repeat exactly across traced runs of one seed.
EXACT = sorted(tracing.CALLS) + [
    "queueing.matrix_reuse_frac",
    "service.http_requests",
    "service.sse_reconnects",
    "service.rejected",
]


def _bench(workload: str, seed: int):
    if workload == service_mix.WORKLOAD:
        return service_mix.ServiceBench(seed)
    return batch.BatchBench(workload, seed)


_CACHE: dict = {}


def traced(workload: str, seed: int, attempt: int) -> dict:
    key = (workload, seed, attempt)
    if key not in _CACHE:
        bench = _bench(workload, seed)
        out = bench.trace()
        out["failed"] = bench.ledger.failed
        out["errors"] = bench.ledger.errors
        _CACHE[key] = out
    return _CACHE[key]


@pytest.mark.parametrize("workload", run.WORKLOADS)
def test_layers_reconcile_with_traced_wall(workload):
    out = traced(workload, SEEDS[0], 0)
    assert out["failed"] == 0, out["errors"]
    metrics, ledger = out["metrics"], out["ledger"]
    tolerance = EPSILON_FRAC * ledger["wall"] + EPSILON_S

    # The span ledger: layer self times plus the remainder are the wall.
    assert ledger["remainder"] >= 0
    assert abs(ledger["layers"] + ledger["remainder"] - ledger["wall"]) <= tolerance
    # The same sum over the reported metrics.  Worker-side spans run
    # beside the parent's epoch wait, so they are not part of it when
    # the workload has worker processes.
    workers = workload in batch.WORKLOADS
    reported = sum(
        value for name, value in metrics.items()
        if name in tracing.SELF_TIME
        and not (workers and name in tracing.WORKER_SIDE)
    )
    total = reported + metrics["trace.unattributed_s"]
    assert abs(total - metrics["trace.wall_s"]) <= tolerance
    # For the batch workloads the root span is the run itself, so the
    # ledger's wall is the externally timed wall of the traced run.
    if workload != service_mix.WORKLOAD:
        assert abs(ledger["wall"] - out["wall"]) <= tolerance
    for name in tracing.SELF_TIME:
        assert metrics[name] >= 0, name
    assert math.isfinite(metrics["trace.overhead_frac"])


@pytest.mark.parametrize("seed", SEEDS)
@pytest.mark.parametrize("workload", run.WORKLOADS)
def test_counts_repeat_exactly(workload, seed):
    first, second = traced(workload, seed, 0), traced(workload, seed, 1)
    assert first["failed"] == 0 and second["failed"] == 0
    counts = {name: first["metrics"][name] for name in EXACT}
    assert counts == {name: second["metrics"][name] for name in EXACT}


def test_benchmark_json_matches_the_harness():
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    assert [w["name"] for w in spec["workloads"]] == list(run.WORKLOADS)
    assert [(m["name"], m["unit"]) for m in spec["end_to_end"]] == list(
        common.END_TO_END
    )
    assert [(m["name"], m["unit"]) for m in spec["per_layer"]] == list(
        tracing.PER_LAYER
    )
