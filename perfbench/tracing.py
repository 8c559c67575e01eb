"""Spans around each layer's public calls, recorded from benchmark code.

The benchmark never edits ``src/``: :class:`Tracer.install` replaces
the public functions and methods listed in :func:`patch_table` with
wrappers in the running process (and, through ``fork``, in the shard
worker processes it starts).  A span carries its name, start, end,
parent span and self time -- its duration minus the time its direct
child spans cover on the same thread.

Spans are kept in memory.  Shard workers leave through ``os._exit``,
which runs no exit hooks, so a worker appends the spans it has
recorded to ``<spill_dir>/worker-<pid>.jsonl`` at the end of every
wrapped ``ChannelShard.advance_epoch``; :meth:`Tracer.collect` reads
them back.

``perf_counter`` is ``CLOCK_MONOTONIC`` on Linux, one clock for every
process on the machine, so worker, server and client times compare
directly.
"""

from __future__ import annotations

import functools
import hashlib
import itertools
import json
import os
import threading
from collections import defaultdict
from pathlib import Path
from statistics import median
from time import perf_counter
from typing import Any, Callable, Dict, Iterable, List, NamedTuple

#: Span names that belong to the benchmark itself, not to a layer.
BENCH_PREFIX = "bench."


class Span(NamedTuple):
    sid: int
    parent: int  # 0 for a root span
    name: str
    start: float
    end: float
    self_s: float
    pid: int
    tid: int
    attrs: Any


# -- tags: small facts recorded with a span, taken after the call -------

def _tag_population(args, result):
    return args[0].population()


def _tag_t_end(args, result):
    return args[1]


def _tag_matrix(args, result):
    return hashlib.sha1(args[1].tobytes()).hexdigest()


def _tag_advance(args, result):
    return [id(args[0].config), result.index if result is not None else None]


def _tag_checkpoint(args, result):
    return os.path.getsize(result)


def _tag_submit(args, result):
    return [id(args[1]), result]


def patch_table() -> List[tuple]:
    """``(span name, owner, attribute, tag, spill)`` for every wrapped
    call.  Module-level functions are patched where the caller looks
    them up, which is the binding the layer table names."""
    import repro.core.demand as demand_mod
    import repro.core.provisioner as provisioner_mod
    import repro.experiments.runner as runner_mod
    import repro.geo.controller as geo_controller_mod
    import repro.service.host as host_mod
    import repro.sim.shard as shard_mod
    from repro.api import Run
    from repro.cloud.broker import Broker
    from repro.cloud.scheduler import CloudFacility
    from repro.core.controller import ProvisioningControllerBase
    from repro.core.demand import DemandEstimator
    from repro.geo.controller import GeoProvisioningController
    from repro.service.host import RunHost
    from repro.sim.shard import ChannelShard, ShardedSimulator
    from repro.vod.delivery import ClientServerDelivery, P2PDelivery
    from repro.vod.multi import MultiChannelSimulator
    from repro.vod.simulator import VoDSimulator
    from repro.vod.tracker import TrackingServer

    return [
        ("workload.trace", runner_mod, "generate_trace", None, False),
        ("sim.shard_build", ChannelShard, "__init__", None, False),
        ("sim.shard_advance", ChannelShard, "advance_epoch", _tag_t_end, True),
        ("vod.multi_step", MultiChannelSimulator, "step", _tag_population, False),
        ("vod.channel_step", VoDSimulator, "step", _tag_population, False),
        ("vod.deliver", ClientServerDelivery, "allocate", None, False),
        ("vod.deliver", P2PDelivery, "allocate", None, False),
        ("sim.epoch_wait", ShardedSimulator, "advance_epoch", None, False),
        ("sim.merge", shard_mod, "merge_epoch_reports", None, False),
        ("vod.tracker_absorb", TrackingServer, "absorb", None, False),
        ("core.controller", ProvisioningControllerBase, "bootstrap", None, False),
        ("core.controller", ProvisioningControllerBase, "run_interval", None, False),
        ("core.estimate", DemandEstimator, "estimate_all", None, False),
        ("queueing.solve", demand_mod, "solve_channel_capacity", _tag_matrix, False),
        ("core.pack", provisioner_mod, "pack_allocations", None, False),
        ("core.vm_alloc", provisioner_mod, "greedy_vm_allocation", None, False),
        ("core.storage", provisioner_mod, "greedy_storage_rental", None, False),
        ("core.storage", geo_controller_mod, "greedy_storage_rental", None, False),
        ("cloud.facility_build", CloudFacility, "__init__", None, False),
        ("cloud.broker", Broker, "request", None, False),
        ("geo.allocate", geo_controller_mod, "greedy_geo_allocation", None, False),
        ("geo.provision", GeoProvisioningController, "provision", None, False),
        ("api.advance", Run, "advance", _tag_advance, False),
        ("api.checkpoint", Run, "checkpoint", _tag_checkpoint, False),
        ("service.artifact", host_mod, "result_payload", None, False),
        ("service.artifact", host_mod, "artifact_bytes", None, False),
        ("bench.submit", RunHost, "submit", _tag_submit, False),
    ]


class Tracer:
    """Records spans for the wrapped calls of one process tree."""

    def __init__(self, spill_dir: Path) -> None:
        self.spill_dir = Path(spill_dir)
        self.spans: List[Span] = []
        self.pid = os.getpid()
        self._ids = itertools.count(1)
        self._local = threading.local()
        self._spilled = 0
        self._patches: List[tuple] = []
        # register_at_fork cannot be undone, and resetting the lists of
        # an uninstalled tracer is harmless.
        os.register_at_fork(after_in_child=self._forked)

    def _forked(self) -> None:
        # A forked child inherits the parent's spans and the forking
        # thread's open-span stack; it records only its own.
        self.spans = []
        self._spilled = 0
        self._local = threading.local()

    def _stack(self) -> list:
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    def wrap(self, name: str, fn: Callable, *, tag=None,
             spill: bool = False) -> Callable:
        """``fn`` recording one span per call."""
        tracer = self

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            stack = tracer._stack()
            sid = next(tracer._ids)
            parent = stack[-1][0] if stack else 0
            frame = [sid, 0.0]
            stack.append(frame)
            start = perf_counter()
            returned = False
            try:
                result = fn(*args, **kwargs)
                returned = True
                return result
            finally:
                end = perf_counter()
                stack.pop()
                duration = end - start
                if stack:
                    stack[-1][1] += duration
                attrs = (
                    tag(args, result) if tag is not None and returned
                    else None
                )
                tracer.spans.append(Span(
                    sid, parent, name, start, end, duration - frame[1],
                    os.getpid(), threading.get_ident(), attrs,
                ))
                if spill and os.getpid() != tracer.pid:
                    tracer._spill()

        return traced

    def _spill(self) -> None:
        fresh = self.spans[self._spilled:]
        write_spans(self.spill_dir / f"worker-{os.getpid()}.jsonl", fresh, "a")
        self._spilled += len(fresh)

    def install(self) -> "Tracer":
        """Wrap every call in :func:`patch_table` (idempotent per tracer)."""
        if self._patches:
            return self
        self.spill_dir.mkdir(parents=True, exist_ok=True)
        for name, owner, attr, tag, spill in patch_table():
            original = owner.__dict__[attr]
            setattr(owner, attr, self.wrap(name, original, tag=tag, spill=spill))
            self._patches.append((owner, attr, original))
        return self

    def uninstall(self) -> None:
        for owner, attr, original in reversed(self._patches):
            setattr(owner, attr, original)
        self._patches = []

    def collect(self) -> List[Span]:
        """This process's spans plus every spilled worker span."""
        spans = list(self.spans)
        for path in sorted(self.spill_dir.glob("worker-*.jsonl")):
            spans.extend(load_spans(path))
        return spans


def write_spans(path: Path, spans: Iterable[Span], mode: str = "w") -> None:
    """Spans as JSON lines."""
    with open(path, mode) as handle:
        for span in spans:
            handle.write(json.dumps(list(span)) + "\n")


def load_spans(path: Path) -> List[Span]:
    with open(path) as handle:
        return [Span(*json.loads(line)) for line in handle]


# ----------------------------------------------------------------------
# Per-layer metrics
# ----------------------------------------------------------------------

#: Self-time metrics: metric name -> span name.
SELF_TIME = {
    "workload.trace_s": "workload.trace",
    "sim.shard_build_s": "sim.shard_build",
    "cloud.facility_build_s": "cloud.facility_build",
    "vod.multi_step_s": "vod.multi_step",
    "vod.channel_step_s": "vod.channel_step",
    "vod.deliver_s": "vod.deliver",
    "sim.shard_advance_s": "sim.shard_advance",
    "sim.epoch_wait_s": "sim.epoch_wait",
    "sim.merge_s": "sim.merge",
    "vod.tracker_absorb_s": "vod.tracker_absorb",
    "core.controller_s": "core.controller",
    "core.estimate_s": "core.estimate",
    "queueing.solve_s": "queueing.solve",
    "core.pack_s": "core.pack",
    "core.vm_alloc_s": "core.vm_alloc",
    "core.storage_s": "core.storage",
    "cloud.broker_s": "cloud.broker",
    "geo.allocate_s": "geo.allocate",
    "geo.provision_s": "geo.provision",
    "api.advance_s": "api.advance",
    "api.checkpoint_s": "api.checkpoint",
    "service.artifact_s": "service.artifact",
}

#: Exact call counts: metric name -> span name.
CALLS = {
    "vod.multi_step_calls": "vod.multi_step",
    "vod.channel_step_calls": "vod.channel_step",
    "core.estimate_calls": "core.estimate",
    "queueing.solve_calls": "queueing.solve",
    "cloud.broker_requests": "cloud.broker",
    "api.checkpoint_calls": "api.checkpoint",
}

#: Every per-layer metric, in output order, with its unit.
PER_LAYER = (
    [(name, "s") for name in SELF_TIME]
    + [(name, "count") for name in CALLS]
    + [
        ("vod.multi_ns_per_user_step", "ns"),
        ("vod.channel_ns_per_user_step", "ns"),
        ("sim.straggler_s", "s"),
        ("core.controller_share", "ratio"),
        ("queueing.matrix_reuse_frac", "ratio"),
        ("api.checkpoint_bytes", "bytes"),
        ("service.queue_wait_ms_p50", "ms"),
        ("service.epoch_gap_ms_p50", "ms"),
        ("service.overhead_ms_p50", "ms"),
        ("service.result_ms_p50", "ms"),
        ("service.http_requests", "count"),
        ("service.rejected", "count"),
        ("service.sse_reconnects", "count"),
        ("trace.wall_s", "s"),
        ("trace.unattributed_s", "s"),
        ("trace.overhead_frac", "ratio"),
        ("loadgen.cpu_frac", "ratio"),
    ]
)

#: Metrics measured inside shard worker processes.  They run beside
#: the parent's ``sim.epoch_wait_s``, so they are not part of the
#: parent's wall-time reconciliation when workers exist.
WORKER_SIDE = ("vod.multi_step_s", "sim.shard_advance_s")


def _spans_named(spans: Iterable[Span], name: str) -> List[Span]:
    return [s for s in spans if s.name == name]


def straggler_seconds(spans: Iterable[Span]) -> float:
    """Sum over epochs of (slowest worker - mean worker) shard time.

    A worker runs its shards one after another, so the unit that makes
    the parent wait is a worker (a pid), not a single shard."""
    per_epoch: Dict[float, Dict[int, float]] = defaultdict(
        lambda: defaultdict(float)
    )
    for span in _spans_named(spans, "sim.shard_advance"):
        per_epoch[span.attrs][span.pid] += span.end - span.start
    total = 0.0
    for by_pid in per_epoch.values():
        times = list(by_pid.values())
        total += max(times) - sum(times) / len(times)
    return total


def matrix_reuse(spans: List[Span]) -> float:
    """1 - distinct behaviour matrices per estimation round / solves."""
    rounds: Dict[tuple, set] = defaultdict(set)
    calls = 0
    for span in _spans_named(spans, "queueing.solve"):
        rounds[(span.pid, span.parent)].add(span.attrs)
        calls += 1
    if not calls:
        return 0.0
    return 1.0 - sum(len(v) for v in rounds.values()) / calls


def layer_metrics(spans: List[Span], wall_s: float) -> Dict[str, float]:
    """Every span-derived per-layer metric (0 for layers not run).

    ``wall_s`` is the traced wall time the controller share is taken
    of."""
    self_time: Dict[str, float] = defaultdict(float)
    calls: Dict[str, int] = defaultdict(int)
    population: Dict[str, int] = defaultdict(int)
    for span in spans:
        self_time[span.name] += span.self_s
        calls[span.name] += 1
        if span.name in ("vod.multi_step", "vod.channel_step"):
            population[span.name] += span.attrs or 0
    out: Dict[str, float] = {
        metric: self_time[name] for metric, name in SELF_TIME.items()
    }
    out.update({metric: calls[name] for metric, name in CALLS.items()})
    for metric, name in (
        ("vod.multi_ns_per_user_step", "vod.multi_step"),
        ("vod.channel_ns_per_user_step", "vod.channel_step"),
    ):
        users = population[name]
        out[metric] = self_time[name] * 1e9 / users if users else 0.0
    controller = sum(
        s.end - s.start for s in _spans_named(spans, "core.controller")
    )
    out["sim.straggler_s"] = straggler_seconds(spans)
    out["core.controller_share"] = controller / wall_s if wall_s > 0 else 0.0
    out["queueing.matrix_reuse_frac"] = matrix_reuse(spans)
    out["api.checkpoint_bytes"] = sum(
        s.attrs or 0 for s in _spans_named(spans, "api.checkpoint")
    )
    return out


def reconcile(spans: List[Span], pid: int) -> Dict[str, float]:
    """One process's time ledger.

    ``wall`` is the summed duration of the root spans (spans without a
    parent), ``layers`` the summed self time of every layer span under
    them and ``remainder`` the self time of the benchmark's own spans
    -- time inside a root that no layer span covers.  Self times are
    durations minus covered child time, so ``layers + remainder`` must
    equal ``wall``; a layer metric that double-counted (an inclusive
    time, a span leaking across threads) would break the equality.
    """
    own = [s for s in spans if s.pid == pid]
    wall = sum(s.end - s.start for s in own if s.parent == 0)
    layers = sum(s.self_s for s in own if not s.name.startswith(BENCH_PREFIX))
    remainder = sum(s.self_s for s in own if s.name.startswith(BENCH_PREFIX))
    return {"wall": wall, "layers": layers, "remainder": remainder}


def median_ms(values: List[float]) -> float:
    return 1000.0 * median(values) if values else 0.0
