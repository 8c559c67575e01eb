"""The batch workloads: one engine run after another, in this process.

* ``catalog-flash`` -- 200-channel uniform client-server catalog with a
  correlated flash crowd, 8 shards on 2 worker processes;
* ``geo-flash`` -- the same catalog over the ``us-eu-ap`` topology
  (600 engine slots), same workers.

Each run goes ``open_run`` -> ``Run.advance()`` per epoch ->
``result()``, and its canonical artifact is hashed and compared with a
reference computed once per engine seed by an independent path (see
:func:`reference_run`) and, when the engine seed is in
``reference.json``, with the recorded hash too.  One benchmark seed
runs two engine seeds (:func:`engine_seeds`).
"""

from __future__ import annotations

import shutil
import time
from statistics import mean, median
from time import perf_counter
from typing import Dict, List, Optional

from perfbench import common, tracing

#: Catalog shape shared by the two catalog workloads (the perf-smoke
#: headline: 200 channels, 12 chunks, 170 arrivals/s, 8 shards).
CATALOG = {
    "num_channels": 200,
    "chunks_per_channel": 12,
    "horizon_hours": 1.0,
    "arrival_rate": 170.0,
    "num_shards": 8,
    "dt": 30.0,
    "interval_minutes": 15.0,
    "mode": "client-server",
}
CATALOG_WORKERS = 2
#: Engine seeds per benchmark seed (see :func:`engine_seeds`).
SEEDS_PER_RUN = 2

WORKLOADS = ("catalog-flash", "geo-flash")


def engine_config(workload: str, seed: int, workers: Optional[int] = None):
    """The :class:`repro.api.EngineConfig` a workload runs for ``seed``."""
    from repro.api import EngineConfig
    from repro.workload.catalog import (
        CATALOG_VARIANTS,
        catalog_config,
        geo_catalog_config,
    )

    flash = CATALOG_VARIANTS["flash"]
    if workload == "catalog-flash":
        spec = catalog_config(seed=seed, name=workload, **CATALOG, **flash)
    elif workload == "geo-flash":
        spec = geo_catalog_config(
            seed=seed, name=workload, topology="us-eu-ap", **CATALOG, **flash
        )
    else:
        raise ValueError(f"unknown batch workload {workload!r}")
    return EngineConfig(
        spec=spec, workers=CATALOG_WORKERS if workers is None else workers
    )


def user_steps(result) -> int:
    """Simulated user-steps of a run: population summed over steps."""
    return int(result.populations.sum())


def reference_run(workload: str, seed: int) -> Dict:
    """The artifact hash and first snapshot of the workload by a second
    path the engine promises is byte-identical: a serial run
    (``workers=1``, no IPC or shared memory)."""
    from repro.api import open_run

    config = engine_config(workload, seed, workers=1)
    with open_run(config) as run:
        first = run.advance()
        result = run.result()
    return {
        "sha": common.artifact_sha(config.kind, result),
        "first": first,
    }


def timed_run(config) -> Dict:
    """One run, timed phase by phase; returns its measurements."""
    from repro.api import open_run

    started = perf_counter()
    run = open_run(config)
    try:
        first_snapshot = run.advance()
        first = perf_counter()
        epochs: List[float] = []
        previous = first
        while run.advance() is not None:
            now = perf_counter()
            epochs.append(now - previous)
            previous = now
        result = run.result()
        finished = perf_counter()
        sha = common.artifact_sha(config.kind, result)
        verified = perf_counter()
    finally:
        run.close()
    return {
        "setup": first - started,
        "first": first_snapshot,
        "epochs": epochs,
        "wall": finished - started,
        "roundtrip": verified - started,
        "elapsed": perf_counter() - started,
        "sha": sha,
        "user_steps": user_steps(result),
    }


def setup_probe(config) -> Dict:
    """``open_run`` -> first ``EpochSnapshot``, then close: one more
    set-up sample at a third of a run's cost."""
    from repro.api import open_run

    started = perf_counter()
    run = open_run(config)
    try:
        first_snapshot = run.advance()
        first = perf_counter()
    finally:
        run.close()
    return {"setup": first - started, "first": first_snapshot}


def engine_seeds(seed: int) -> List[int]:
    """The engine seeds one benchmark seed runs, alternately.

    The flash crowd picks its channels by seed, so the user-steps of a
    run vary by about a tenth from seed to seed; two seeds per
    invocation halve the variance that adds to each figure."""
    return [SEEDS_PER_RUN * seed + j for j in range(SEEDS_PER_RUN)]


def mean_of_medians(samples: Dict[int, List[float]]) -> float:
    """The mean over engine seeds of each seed's median, so the figure
    does not depend on how many samples each seed happened to get."""
    return mean(median(values) for values in samples.values())


class BatchBench:
    """One workload at one seed: timed (or traced) runs, each checked
    against the reference of its engine seed."""

    def __init__(self, workload: str, seed: int) -> None:
        self.workload = workload
        self.seeds = engine_seeds(seed)
        self.configs = {s: engine_config(workload, s) for s in self.seeds}
        #: The traced mode runs the first engine seed only.
        self.config = self.configs[self.seeds[0]]
        self.ledger = common.Ledger()
        self.scratch = common.work_dir(f"batch-{workload}")
        self.guard = common.LeakGuard()
        self.references: Dict[int, Dict] = {}

    def reference(self, seed: int) -> Dict:
        """The reference of one engine seed, made on first use and
        checked against the recorded hash."""
        if seed not in self.references:
            reference = reference_run(self.workload, seed)
            recorded = common.reference_sha(self.workload, seed)
            self.ledger.record(
                recorded is None or recorded == reference["sha"],
                f"{self.workload} engine seed {seed}: reference artifact "
                f"{reference['sha']} != recorded {recorded}",
            )
            self.references[seed] = reference
        return self.references[seed]

    def check(self, seed: int, what: str, first=None, sha=None) -> None:
        """Record whether a first snapshot and an artifact hash, where
        given, equal the reference's."""
        reference = self.reference(seed)
        if first is not None:
            self.ledger.record(
                first == reference["first"],
                f"{self.workload} engine seed {seed} {what}: first epoch "
                f"{first} != reference {reference['first']}",
            )
        if sha is not None:
            self.ledger.record(
                sha == reference["sha"],
                f"{self.workload} engine seed {seed} {what}: artifact "
                f"{sha} != reference {reference['sha']}",
            )

    def run_once(self, seed: int, probe: bool = False) -> Optional[Dict]:
        """A timed run (or set-up probe) of one engine seed; ``None`` if
        it raised."""
        try:
            return (setup_probe if probe else timed_run)(self.configs[seed])
        except Exception as exc:  # noqa: BLE001 - counted, then reported
            what = "probe" if probe else "run"
            self.ledger.record(False, f"{self.workload} {what} raised {exc!r}")
            return None

    def finish(self) -> None:
        self.guard.check(self.ledger)
        shutil.rmtree(self.scratch, ignore_errors=True)

    # ------------------------------------------------------------------
    def measure(self, seconds: float) -> Dict[str, float]:
        """Runs of each engine seed, then set-up probes of each, in turn,
        until ``seconds`` have passed (at least two runs of each seed).

        A run yields one set-up sample and a probe one more at a third
        of the cost, so the set-up median rests on twice the samples.
        Each figure is the mean over the engine seeds of the seed's
        median; an epoch sample is a run's mean ``Run.advance()``
        latency after the first, because the epochs of one run differ
        in load (the flash crowd builds up) and a median pooled over
        them would jump between those levels.

        The serial reference runs come after the peak RSS is read: the
        heap they leave behind would otherwise be the process's peak
        and would be copied into every forked worker.  Until then each
        seed keeps only its first snapshot (one holds the whole
        provisioning decision, about 1 MB pickled) and every later one
        is compared with it."""
        reps: Dict[int, List[Dict]] = {s: [] for s in self.seeds}
        setups: Dict[int, List[float]] = {s: [] for s in self.seeds}
        firsts: Dict[int, object] = {}
        shas: List[tuple] = []
        turns = [(s, probe) for probe in (False, True) for s in self.seeds]
        started = perf_counter()
        turn = 0
        while (
            min(len(r) for r in reps.values()) < 2
            or perf_counter() - started < seconds
        ):
            seed, probe = turns[turn % len(turns)]
            turn += 1
            rep = self.run_once(seed, probe)
            if rep is not None:
                first = rep.pop("first")
                if seed not in firsts:
                    firsts[seed] = first
                else:
                    self.ledger.record(
                        first == firsts[seed],
                        f"{self.workload} engine seed {seed}: first epoch "
                        f"{first} != first run's {firsts[seed]}",
                    )
                setups[seed].append(rep["setup"])
                if not probe:
                    reps[seed].append(rep)
                    shas.append((seed, rep["sha"]))
            elif self.ledger.failed > 3:
                break
        peak_rss_mb = common.peak_rss_mb(include_self=True)
        for seed, first in firsts.items():
            self.check(seed, "first run", first=first)
        for seed, sha in shas:
            self.check(seed, "run", sha=sha)
        self.finish()
        if not all(reps.values()):
            return {name: 0.0 for name, _ in common.END_TO_END}
        done = [r for runs in reps.values() for r in runs]
        setup_s = mean_of_medians(setups)
        return {
            "setup_s": setup_s,
            "user_steps_per_s": mean_of_medians({
                s: [r["user_steps"] / r["wall"] for r in runs]
                for s, runs in reps.items()
            }),
            "epoch_ms_p50": 1000.0 * mean_of_medians({
                s: [mean(r["epochs"]) for r in runs] for s, runs in reps.items()
            }),
            "first_epoch_ms_p50": 1000.0 * setup_s,
            "roundtrip_ms_p50": 1000.0 * mean_of_medians({
                s: [r["roundtrip"] for r in runs] for s, runs in reps.items()
            }),
            "runs_per_s": len(done) / sum(r["elapsed"] for r in done),
            "peak_rss_mb": peak_rss_mb,
            "ok_frac": self.ledger.ok_frac,
        }

    def trace(self) -> Dict:
        """Untraced, traced, untraced: the per-layer metrics of the traced
        run, the tracing overhead, and the traced run's time ledger."""
        seed = self.seeds[0]
        self.reference(seed)  # before the runs, so all three start warm
        tracer = tracing.Tracer(self.scratch / "spans")
        untraced: List[float] = []
        cpu: List[float] = []
        for phase in ("untraced", "traced", "untraced"):
            if phase == "traced":
                tracer.install()
                timed = tracer.wrap(tracing.BENCH_PREFIX + "run", timed_run)
            else:
                timed = timed_run
            cpu0, wall0 = time.process_time(), perf_counter()
            try:
                rep = timed(self.config)
            finally:
                tracer.uninstall()
            wall = perf_counter() - wall0
            self.check(seed, f"{phase} run", first=rep["first"], sha=rep["sha"])
            if phase == "traced":
                traced_wall = wall
            else:
                untraced.append(wall)
                cpu.append((time.process_time() - cpu0) / wall)
        spans = tracer.collect()
        self.finish()
        ledger = tracing.reconcile(spans, tracer.pid)
        metrics = dict.fromkeys((name for name, _ in tracing.PER_LAYER), 0.0)
        metrics.update(tracing.layer_metrics(spans, traced_wall))
        metrics.update({
            "trace.wall_s": traced_wall,
            "trace.unattributed_s": ledger["remainder"],
            "trace.overhead_frac": traced_wall / mean(untraced) - 1.0,
            "loadgen.cpu_frac": mean(cpu),
        })
        return {"metrics": metrics, "ledger": ledger, "wall": traced_wall}
