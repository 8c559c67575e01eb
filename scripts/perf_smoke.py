"""Perf-smoke harness: time the step kernels and record a trajectory.

Times ``N`` steps of two raw kernels (no controller in the loop) --
``fig04`` (client-server at the small-scale population) and
``flash-crowd`` (p2p at the paper's 2500 concurrent users) -- plus the
``catalog`` headline (the sharded engine: 200 channels under one
provisioning loop, >500k aggregate concurrent users), the
``catalog-geo`` headline (the same catalog across 3 regions = 600
engine slots under the multi-region geo control plane) and one ``repro
sweep`` cell through the registry execution path, and writes the numbers
to ``BENCH_kernel.json``.  The catalog headlines (and the sweep cell,
via the registry) execute through ``repro.api`` -- the session surface
every production caller uses -- so the ``--check`` gate also catches
regressions introduced by that indirection:

* ``steps_per_sec`` -- timed kernel steps per wall-clock second;
* ``user_steps_per_sec`` -- steps/sec x mean concurrent population, the
  scale-independent throughput number;
* ``wall_seconds`` and the mean/max population over the timed window.

The file keeps two measurement blocks: ``baseline`` (recorded once, from
the pre-refactor scalar kernel; re-record only with ``--rebaseline``)
and ``current`` (overwritten on every run), plus the derived
``speedup`` ratios.

``--check`` turns the run into a regression gate: after measuring, each
kernel's fresh ``steps_per_sec`` is compared against the *committed*
``current`` block, and the process exits nonzero when any kernel dropped
by more than ``--check-threshold`` (default 30%).  CI runs this gating
and uploads the JSON; see docs/ci.md for how to refresh the committed
numbers legitimately.

Usage::

    PYTHONPATH=src python scripts/perf_smoke.py            # update current
    PYTHONPATH=src python scripts/perf_smoke.py --check    # CI gate
    PYTHONPATH=src python scripts/perf_smoke.py --rebaseline
"""

from __future__ import annotations

import argparse
import json
import platform
import sys
import time
from pathlib import Path

import numpy as np

REPO_ROOT = Path(__file__).resolve().parent.parent
DEFAULT_OUT = REPO_ROOT / "BENCH_kernel.json"

#: Schema 2 adds a ``phases`` dict to each catalog headline record —
#: the engine's cumulative per-phase breakdown (``start`` / ``kernel`` /
#: ``ipc`` / ``merge`` / ``controller`` wall seconds plus ``kernel_cpu``,
#: see ``Run.phase_seconds``).  The
#: addition is backward compatible: schema-1 files are still accepted as
#: the committed reference (every gated field is unchanged).
BENCH_SCHEMA = 2

#: The phases the catalog headlines print, in order.
PHASES = ("start", "kernel", "ipc", "merge", "controller", "kernel_cpu")

#: The timed kernels. ``fig04`` is the short-run client-server kernel at
#: the small-scale default population. ``flash-crowd`` is the sustained-
#: service stress: ONE surging channel (the paper's Section VI-A flash
#: crowd), a five-day trace with two daily crowds, timed during day
#: five's crowd at ~2500 concurrent users — long enough that any cost
#: that grows with *total arrivals* rather than live population (the
#: pre-refactor kernel's monotonic slot growth) shows up in the number.
#: The diurnal trace's *mean* population sits well below its target
#: parameter, so the trace target is set above 2500 and the recorded
#: ``mean_population`` over the timed window is the number the
#: "2500 concurrent users" acceptance criterion refers to.
KERNELS = (
    {"label": "fig04", "mode": "client-server", "channels": None,
     "population": 240, "hours": 12.0, "warmup": 360},
    {"label": "flash-crowd", "mode": "p2p", "channels": 1,
     "population": 3650, "hours": 120.0, "warmup": 23220},
)

#: The ``catalog`` headline: the sharded engine's acceptance-scale run —
#: 200 channels, a correlated flash crowd, the whole provisioning loop in
#: the measurement (this is the end-to-end number, not a raw kernel).
#: At these parameters the run admits ~840k sessions and peaks above
#: 500k aggregate concurrent users.  Timed over the full horizon, no
#: warmup (the ramp IS the workload).
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

#: The ``catalog-geo`` headline: the same acceptance-scale catalog under
#: the multi-region control plane — 3 regions x 200 channels = 600
#: engine slots, every epoch provisioned by the greedy geo allocator
#: (latency-discounted utility, per-GB egress pricing).  This is the
#: geo acceptance configuration: jobs-1-vs-4 sweep artifacts at these
#: parameters are byte-identical.
GEO_CATALOG = {
    **CATALOG,
    "topology": "us-eu-ap",
}


def build_kernel(mode: str, target_population: int, seed: int,
                 *, channels=None, hours: float = 12.0):
    """A raw ``VoDSimulator`` under a generous fixed capacity plan."""
    from repro.experiments.registry import closed_loop_config
    from repro.vod.simulator import VoDSimulator, VoDSystemConfig
    from repro.workload.trace import generate_trace

    config = closed_loop_config(
        mode=mode,
        scale="small",
        num_channels=channels,
        target_population=int(target_population),
        horizon_hours=float(hours),
        seed=seed,
    )
    trace = generate_trace(config.trace_config())
    sim = VoDSimulator(
        config.channels(),
        trace,
        VoDSystemConfig(
            mode=mode,
            dt=config.dt,
            user_rate_cap=config.constants.vm_bandwidth,
            seed=config.seed,
        ),
    )
    # Fixed capacity ~1.5x the equilibrium per-chunk streaming demand, so
    # downloads progress and the completion/transition path stays hot.
    per_chunk = (
        1.5
        * target_population
        / (config.num_channels * config.chunks_per_channel)
        * config.constants.streaming_rate
    )
    for spec in sim.channels:
        sim.set_cloud_capacity(
            spec.channel_id, np.full(spec.num_chunks, per_chunk)
        )
    return sim


def time_kernel(mode: str, target_population: int, *, warmup_steps: int,
                timed_steps: int, seed: int = 2011, channels=None,
                hours: float = 12.0) -> dict:
    """Warm the kernel to its working population, then time it."""
    sim = build_kernel(mode, target_population, seed, channels=channels,
                       hours=hours)
    for _ in range(warmup_steps):
        sim.step()
    populations = np.empty(timed_steps, dtype=float)
    started = time.perf_counter()
    for i in range(timed_steps):
        sim.step()
        populations[i] = sim.population()
    wall = time.perf_counter() - started
    steps_per_sec = timed_steps / wall if wall > 0 else float("inf")
    mean_pop = float(populations.mean()) if timed_steps else 0.0
    return {
        "mode": mode,
        "target_population": int(target_population),
        "num_channels": channels,
        "horizon_hours": float(hours),
        "warmup_steps": int(warmup_steps),
        "timed_steps": int(timed_steps),
        "wall_seconds": wall,
        "steps_per_sec": steps_per_sec,
        "mean_population": mean_pop,
        "max_population": float(populations.max()) if timed_steps else 0.0,
        "user_steps_per_sec": steps_per_sec * mean_pop,
        "store_slots": int(sum(len(s) for s in sim.stores.values())),
        "total_arrivals": int(sim.arrivals),
    }


def time_catalog(jobs: int, seed: int = 2011, *, geo: bool = False) -> dict:
    """Time the sharded catalog engine end to end (controller included).

    ``geo=True`` times the multi-region engine instead: same shard
    mechanics, the geo control plane in the loop.  Both headlines run
    through :mod:`repro.api` — the production surface — so the gate
    also guards the api indirection's overhead.
    """
    from repro.api import EngineConfig, open_run
    from repro.sim.shard import summarize_catalog
    from repro.workload.catalog import CATALOG_VARIANTS, catalog_config, \
        geo_catalog_config

    if geo:
        config = geo_catalog_config(
            seed=seed, name="catalog-geo-flash",
            **GEO_CATALOG, **CATALOG_VARIANTS["flash"],
        )
    else:
        config = catalog_config(
            seed=seed, name="catalog-flash",
            **CATALOG, **CATALOG_VARIANTS["flash"],
        )
    started = time.perf_counter()
    with open_run(EngineConfig(spec=config, workers=jobs)) as run:
        result = run.result()
        phases = run.phase_seconds()
    wall = time.perf_counter() - started
    metrics = summarize_catalog(result)
    steps = result.steps
    steps_per_sec = steps / wall if wall > 0 else float("inf")
    mean_pop = (
        float(result.populations.mean()) if result.populations.size else 0.0
    )
    record = {
        "mode": config.mode,
        "target_population": None,
        "num_channels": config.num_channels,
        "num_shards": config.effective_shards,
        "jobs": int(jobs),
        "horizon_hours": CATALOG["horizon_hours"],
        "warmup_steps": 0,
        "timed_steps": int(steps),
        "wall_seconds": wall,
        "steps_per_sec": steps_per_sec,
        "mean_population": mean_pop,
        "max_population": float(metrics["peak_population"]),
        "user_steps_per_sec": steps_per_sec * mean_pop,
        "total_arrivals": int(metrics["arrivals"]),
        "average_quality": float(metrics["average_quality"]),
        # Where the wall clock went: engine start-up, the shard-kernel
        # critical path, the rest of the worker round trip, the
        # parent-side epoch merge and the controller (bootstrap +
        # replans); plus the kernels' summed CPU time.
        "phases": {k: float(v) for k, v in phases.items()},
    }
    if geo:
        record.update({
            "topology": GEO_CATALOG["topology"],
            "num_regions": int(metrics["num_regions"]),
            "channel_slots": int(config.channel_slots),
            "mean_remote_fraction": float(metrics["mean_remote_fraction"]),
            "egress_cost_per_hour": float(metrics["egress_cost_per_hour"]),
            "latency_adjusted_quality": float(
                metrics["latency_adjusted_quality"]
            ),
        })
    return record


def time_sweep_cell(seed: int = 2011) -> dict:
    """One registry cell end to end (the `repro sweep` execution path)."""
    from repro.experiments import registry

    spec = registry.get("fig04")
    params = {"mode": "client-server", "horizon_hours": 2.0}
    started = time.perf_counter()
    metrics = spec.run_cell(params, seed=seed)
    wall = time.perf_counter() - started
    return {
        "scenario": "fig04",
        "params": params,
        "seed": seed,
        "wall_seconds": wall,
        "arrivals": metrics.get("arrivals"),
        "average_quality": metrics.get("average_quality"),
    }


def measure(warmup_scale: float, timed_steps: int, *,
            catalog_jobs: int = 4, skip_catalog: bool = False) -> dict:
    kernels = {}
    for spec in KERNELS:
        label = spec["label"]
        print(f"timing kernel {label!r} ({spec['mode']}, trace target "
              f"{spec['population']}) ...", flush=True)
        kernels[label] = time_kernel(
            spec["mode"], spec["population"],
            warmup_steps=max(1, int(round(spec["warmup"] * warmup_scale))),
            timed_steps=timed_steps,
            channels=spec["channels"],
            hours=spec["hours"],
        )
        k = kernels[label]
        print(f"  {k['steps_per_sec']:8.1f} steps/s  "
              f"{k['user_steps_per_sec']:12.0f} user-steps/s  "
              f"(mean population {k['mean_population']:.0f}, "
              f"{k['store_slots']} slots after "
              f"{k['total_arrivals']} arrivals)")
    if not skip_catalog:
        print(f"timing the sharded catalog ({CATALOG['num_channels']} "
              f"channels, {CATALOG['num_shards']} shards, "
              f"{catalog_jobs} worker(s)) ...", flush=True)
        kernels["catalog"] = time_catalog(catalog_jobs)
        k = kernels["catalog"]
        print(f"  {k['steps_per_sec']:8.1f} steps/s  "
              f"{k['user_steps_per_sec']:12.0f} user-steps/s  "
              f"(peak population {k['max_population']:.0f} over "
              f"{k['total_arrivals']} arrivals, "
              f"quality {k['average_quality']:.3f})")
        ph = k["phases"]
        print("  phases: " + "  ".join(
            f"{name}={ph.get(name, 0.0):.2f}s" for name in PHASES))
        print(f"timing the geo catalog ({GEO_CATALOG['topology']} x "
              f"{GEO_CATALOG['num_channels']} channels, "
              f"{GEO_CATALOG['num_shards']} shards, "
              f"{catalog_jobs} worker(s)) ...", flush=True)
        kernels["catalog-geo"] = time_catalog(catalog_jobs, geo=True)
        k = kernels["catalog-geo"]
        print(f"  {k['steps_per_sec']:8.1f} steps/s  "
              f"{k['user_steps_per_sec']:12.0f} user-steps/s  "
              f"(peak population {k['max_population']:.0f}, remote "
              f"fraction {k['mean_remote_fraction']:.3f}, egress "
              f"${k['egress_cost_per_hour']:.2f}/h)")
        ph = k["phases"]
        print("  phases: " + "  ".join(
            f"{name}={ph.get(name, 0.0):.2f}s" for name in PHASES))
    print("timing one sweep cell (fig04, client-server, 2h) ...", flush=True)
    cell = time_sweep_cell()
    print(f"  {cell['wall_seconds']:.2f} s")
    return {
        "recorded_unix": time.time(),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "kernels": kernels,
        "sweep_cell": cell,
    }


def check_regressions(committed: dict, measured: dict,
                      threshold: float) -> list:
    """Kernel labels whose fresh steps/s fell > threshold below committed.

    Compares only labels present in both measurement blocks, so adding a
    new kernel never fails the gate retroactively.
    """
    failures = []
    committed_kernels = (committed or {}).get("kernels", {})
    for label, fresh in measured.get("kernels", {}).items():
        reference = committed_kernels.get(label)
        if not reference:
            continue
        floor = (1.0 - threshold) * reference["steps_per_sec"]
        if fresh["steps_per_sec"] < floor:
            failures.append(
                (label, fresh["steps_per_sec"], reference["steps_per_sec"])
            )
    return failures


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--warmup-scale", type=float, default=1.0,
                        help="multiplier on each kernel's warm-up steps")
    parser.add_argument("--steps", type=int, default=200,
                        help="timed steps per kernel (default 200)")
    parser.add_argument("--out", type=Path, default=DEFAULT_OUT,
                        help=f"output JSON (default {DEFAULT_OUT.name})")
    parser.add_argument("--rebaseline", action="store_true",
                        help="record this run as the committed baseline")
    parser.add_argument("--catalog-jobs", type=int, default=4,
                        help="worker processes for the catalog headline "
                             "(default 4; results are jobs-invariant, "
                             "only the wall clock moves)")
    parser.add_argument("--skip-catalog", action="store_true",
                        help="skip the catalog headline (quick local runs)")
    parser.add_argument("--check", action="store_true",
                        help="fail (exit 1) when any kernel's steps/s "
                             "drops more than --check-threshold below "
                             "the committed numbers")
    parser.add_argument("--check-threshold", type=float, default=0.30,
                        help="allowed fractional steps/s drop for --check "
                             "(default 0.30)")
    args = parser.parse_args(argv)

    payload = {"schema": BENCH_SCHEMA, "baseline": None, "current": None,
               "speedup": {}}
    committed_current = None
    if args.out.is_file():
        try:
            previous = json.loads(args.out.read_text())
            # Schema 2 only *adds* fields (the catalog ``phases``
            # breakdown), so schema-1 files remain valid references.
            if previous.get("schema") in (1, BENCH_SCHEMA):
                payload["baseline"] = previous.get("baseline")
                committed_current = previous.get("current")
        except ValueError:
            pass

    measured = measure(args.warmup_scale, args.steps,
                       catalog_jobs=args.catalog_jobs,
                       skip_catalog=args.skip_catalog)
    if args.skip_catalog and committed_current is not None:
        # A quick run must not erase the committed gate reference for
        # the kernels it skipped: carry the old entries forward, marked.
        for label in ("catalog", "catalog-geo"):
            skipped = committed_current.get("kernels", {}).get(label)
            if skipped is not None:
                measured["kernels"][label] = {
                    **skipped, "carried_forward": True,
                }
    if args.rebaseline or payload["baseline"] is None:
        payload["baseline"] = measured
    payload["current"] = measured
    payload["speedup"] = {
        label: (
            payload["current"]["kernels"][label]["steps_per_sec"]
            / payload["baseline"]["kernels"][label]["steps_per_sec"]
        )
        for label in (spec["label"] for spec in KERNELS)
        if label in payload["baseline"].get("kernels", {})
    }

    # In --check mode the reference file is left untouched and the fresh
    # measurement goes to a side file: a gate must not replace the very
    # reference it compares against (repeated local --check runs would
    # otherwise ratchet regressions through 30% at a time). CI uploads
    # the side file; committing it as BENCH_kernel.json is the refresh
    # procedure (docs/ci.md).
    out_path = (
        args.out.with_name(args.out.stem + ".check.json")
        if args.check else args.out
    )
    out_path.write_text(json.dumps(payload, indent=2, sort_keys=True) + "\n")
    for label, ratio in payload["speedup"].items():
        print(f"speedup vs baseline [{label}]: {ratio:.2f}x")
    print(f"wrote {out_path}")

    if args.check:
        if committed_current is None:
            print("--check: no committed measurement to compare against; "
                  "treating this run as the reference", flush=True)
            return 0
        failures = check_regressions(
            committed_current, measured, args.check_threshold
        )
        for label, fresh, reference in failures:
            print(f"PERF REGRESSION [{label}]: {fresh:.1f} steps/s is "
                  f"{100 * (1 - fresh / reference):.0f}% below the "
                  f"committed {reference:.1f} steps/s "
                  f"(allowed: {100 * args.check_threshold:.0f}%)")
        if failures:
            print("see docs/ci.md for how to refresh BENCH_kernel.json "
                  "legitimately")
            return 1
        print(f"--check: all kernels within "
              f"{100 * args.check_threshold:.0f}% of committed steps/s")
    return 0


if __name__ == "__main__":
    sys.exit(main())
