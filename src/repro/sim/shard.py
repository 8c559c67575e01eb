"""Sharded multi-channel execution: the catalog engine.

A catalog of hundreds of channels is partitioned into
:class:`ChannelShard`\\ s — each shard owns a fixed subset of channels and
runs them in its own :class:`~repro.vod.simulator.VoDSimulator`.  Shards
advance in **lock-step epochs** of one provisioning interval T: the
parent broadcasts the current per-channel cloud capacities, every shard
simulates its channels up to the epoch boundary, and returns an
:class:`EpochReport` (tracker statistics, per-step bandwidth and
population series, quality samples).  The parent merges the reports,
runs the shared predictor → provisioner → allocator loop
(:mod:`repro.core` + :mod:`repro.cloud`) on the merged demand, and
broadcasts the new capacities for the next epoch.

Determinism contract
--------------------
For a fixed :class:`~repro.workload.catalog.CatalogConfig` (which
includes the shard count), results are **byte-identical regardless of
the worker count**:

* every channel's trace and behaviour stream is keyed by its global
  channel id (stable spawn keys), so a channel simulates identically in
  whichever process its shard lands;
* channels only interact through the controller, which runs in the
  parent on merged statistics;
* reports are merged in **shard-index order** no matter the order in
  which workers finish, so every float reduction has a fixed order
  (:func:`merge_epoch_reports` is a pure function of the report *set*).

``tests/test_catalog_engine.py`` pins this down with a jobs-1-vs-4
byte-identity test and a merge-permutation property test.

The engine runs one epoch at a time (:meth:`ShardedSimulator.
advance_epoch`), which :mod:`repro.api` streams as ``EpochSnapshot``\\ s
and checkpoints between (:meth:`ShardedSimulator.snapshot_state` /
``restore_state`` — worker shard state is gathered/reinjected over the
process boundary); ``run()`` is the drain-everything convenience and
byte-identical to the historical monolithic loop.
``tests/test_api.py`` pins the streamed-vs-monolithic and
checkpoint/resume byte-parity.
"""

from __future__ import annotations

import math
import multiprocessing as mp
import signal
import time
import traceback
import weakref
from dataclasses import dataclass, field
from typing import Any, Dict, List, Optional, Sequence, Tuple

import numpy as np

from repro.cloud.billing import CostReport
from repro.cloud.broker import Broker
from repro.cloud.scheduler import CloudFacility
from repro.core.controller import controller_class
from repro.core.demand import DemandEstimator
from repro.core.predictor import ArrivalRatePredictor
from repro.core.provisioner import ProvisioningController, ProvisioningDecision
from repro.geo.controller import GeoProvisioningController
from repro.sim.shm import EpochShmLayout, ParentSegment, attach_segment
from repro.vod.metrics import latency_adjusted_quality
from repro.vod.multi import MultiChannelSimulator, channels_are_uniform
from repro.vod.simulator import VoDSimulator, VoDSystemConfig
from repro.vod.tracker import IntervalStats, TrackingServer
from repro.workload.catalog import (
    CatalogConfig,
    GeoCatalogConfig,
    build_shard_trace,
    build_shard_trace_arrays,
    channel_shapes,
    shard_channel_ids,
)

__all__ = [
    "ChannelShard",
    "EpochClock",
    "EpochReport",
    "MergedEpoch",
    "CatalogResult",
    "GeoCatalogResult",
    "ShardedSimulator",
    "GeoShardedSimulator",
    "ShardEngineError",
    "merge_epoch_reports",
    "report_to_views",
    "report_from_views",
    "make_engine",
    "summarize_catalog",
]


class EpochClock:
    """Picklable simulated-time source shared with the billing meter.

    The engine advances ``now`` at every epoch boundary; the cloud
    facility reads it through ``__call__``.  A plain attribute-holding
    callable (rather than a closure over the engine) keeps the whole
    control-plane state graph picklable for checkpointing.
    """

    __slots__ = ("now",)

    def __init__(self, now: float = 0.0) -> None:
        self.now = float(now)

    def __call__(self) -> float:
        return self.now

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"EpochClock({self.now})"


# ----------------------------------------------------------------------
# One shard
# ----------------------------------------------------------------------

class ChannelShard:
    """A fixed subset of the catalog's channels in one simulator.

    Client-server catalogs with a uniform channel set (every family
    :func:`make_uniform_channels` builds) run on the fused
    :class:`~repro.vod.multi.MultiChannelSimulator` kernel — one
    vectorized pass per phase over the whole channel set.  P2P mode and
    heterogeneous channels keep one :class:`VoDSimulator` over the
    shard's channels (the historical per-channel kernel); both kernels
    are byte-identical for any configuration both accept, and
    checkpoints restored from either keep their original kernel.
    """

    def __init__(
        self,
        config: CatalogConfig,
        shard_index: int,
        *,
        shapes: Optional[list] = None,
        all_channels: Optional[list] = None,
    ) -> None:
        self.config = config
        self.shard_index = shard_index
        self.channel_ids = shard_channel_ids(config, shard_index)
        # ``shapes``/``all_channels`` let a caller building several
        # shards of the same catalog compute the (identical) full-catalog
        # lists once instead of once per shard.
        if shapes is None:
            shapes = channel_shapes(config)
        owned_shapes = [shapes[c] for c in self.channel_ids]
        if all_channels is None:
            all_channels = config.channels()
        channels = [all_channels[c] for c in self.channel_ids]
        sim_config = VoDSystemConfig(
            mode=config.mode,
            dt=config.dt,
            user_rate_cap=config.constants.vm_bandwidth,
            seed=config.seed,
        )
        if config.mode == "client-server" and channels_are_uniform(channels):
            trace_arrays = build_shard_trace_arrays(
                config, self.channel_ids, shapes=owned_shapes
            )
            self.sim = MultiChannelSimulator(
                channels,
                trace_arrays,
                sim_config,
                interval_seconds=config.interval_seconds,
            )
        else:
            trace = build_shard_trace(
                config, self.channel_ids, shapes=owned_shapes
            )
            # The tracker is sized for the whole catalog's slot space so
            # global channel ids index it directly; only owned channels
            # ever receive observations, and reports carry only the
            # owned slice.  History is disabled: the owned slice ships
            # to the control plane every epoch, so retaining closed
            # intervals here would only grow memory linearly with the
            # horizon.
            tracker = TrackingServer(
                num_channels=config.channel_slots,
                chunks_per_channel=(
                    [config.chunks_per_channel] * config.channel_slots
                ),
                interval_seconds=config.interval_seconds,
                keep_history=False,
            )
            self.sim = VoDSimulator(
                channels, trace, sim_config, tracker=tracker
            )
        self._quality_cursor = 0
        self._retrievals = 0
        self._unsmooth = 0
        self._sojourn_sum = 0.0
        self._arrivals = 0
        self._departures = 0

    def set_capacities(self, capacities: Dict[int, np.ndarray]) -> None:
        """Install the owned channels' slice of a capacity broadcast."""
        for channel_id in self.channel_ids:
            capacity = capacities.get(channel_id)
            if capacity is not None:
                self.sim.set_cloud_capacity(channel_id, capacity)

    def advance_epoch(self, t_end: float) -> EpochReport:
        """Run lock-step to ``t_end`` and report this epoch's deltas."""
        sim = self.sim
        log_start = len(sim.bandwidth)
        populations: List[int] = []
        while sim.now + 1e-9 < t_end:
            sim.step()
            populations.append(sim.population())
        log = sim.bandwidth
        window = slice(log_start, len(log))

        quality = sim.quality
        samples = [
            (s.time, int(s.total_smooth), int(s.total_users))
            for s in quality.samples[self._quality_cursor:]
        ]
        self._quality_cursor = len(quality.samples)
        retrievals = quality.total_retrievals - self._retrievals
        unsmooth = quality.unsmooth_retrievals - self._unsmooth
        sojourn_sum = quality.sojourn_sum - self._sojourn_sum
        arrivals = sim.arrivals - self._arrivals
        departures = sim.departures - self._departures
        self._retrievals = quality.total_retrievals
        self._unsmooth = quality.unsmooth_retrievals
        self._sojourn_sum = quality.sojourn_sum
        self._arrivals = sim.arrivals
        self._departures = sim.departures

        if isinstance(sim, MultiChannelSimulator):
            stats = sim.close_interval()
        else:
            stats_all = sim.tracker.close_interval()
            stats = [stats_all[c] for c in self.channel_ids]
        upload_sum, upload_count = sim.peer_upload_totals()
        return EpochReport(
            shard_index=self.shard_index,
            t_end=t_end,
            stats=stats,
            step_times=log.time[window].copy(),
            cloud_used=log.cloud_used[window].copy(),
            peer_used=log.peer_used[window].copy(),
            provisioned=log.provisioned[window].copy(),
            shortfall=log.shortfall[window].copy(),
            populations=np.asarray(populations, dtype=np.int64),
            quality_samples=samples,
            arrivals=arrivals,
            departures=departures,
            retrievals=retrievals,
            unsmooth=unsmooth,
            sojourn_sum=sojourn_sum,
            upload_sum=upload_sum,
            upload_count=upload_count,
            peak_step_events=sim.peak_step_events,
            channel_populations=dict(sim.channel_populations()),
        )


@dataclass
class _EpochData:
    """The accumulator schema one epoch produces.

    Shared by :class:`EpochReport` (one shard's deltas) and
    :class:`MergedEpoch` (the catalog-wide merge) so a statistic added
    to one cannot silently go missing from the other — only
    :func:`merge_epoch_reports` then needs the matching accumulation.
    Everything is picklable (reports cross the worker boundary).
    """

    t_end: float
    stats: List[IntervalStats]
    step_times: np.ndarray
    cloud_used: np.ndarray
    peer_used: np.ndarray
    provisioned: np.ndarray
    shortfall: np.ndarray
    populations: np.ndarray
    quality_samples: List[Tuple[float, int, int]]
    arrivals: int
    departures: int
    retrievals: int
    unsmooth: int
    sojourn_sum: float
    upload_sum: float
    upload_count: int
    peak_step_events: int
    channel_populations: Dict[int, int]


@dataclass
class EpochReport(_EpochData):
    """One shard's deltas over one lock-step epoch (owned channels only)."""

    shard_index: int = -1


@dataclass
class MergedEpoch(_EpochData):
    """The whole catalog's view of one epoch, merged in shard order
    (``stats`` covers all channels, channel-id order)."""


def merge_epoch_reports(reports: Sequence[EpochReport]) -> MergedEpoch:
    """Merge one epoch's shard reports, independent of arrival order.

    Reports are first sorted by shard index, so every float reduction
    (bandwidth sums, upload accumulators) happens in a fixed order even
    when workers complete out of order — the property the engine's
    byte-determinism rests on.
    """
    if not reports:
        raise ValueError("need at least one shard report")
    ordered = sorted(reports, key=lambda r: r.shard_index)
    indices = [r.shard_index for r in ordered]
    if len(set(indices)) != len(indices):
        raise ValueError(f"duplicate shard reports: {indices}")
    first = ordered[0]
    steps = first.step_times.size
    for report in ordered[1:]:
        if report.step_times.size != steps or not np.array_equal(
            report.step_times, first.step_times
        ):
            raise ValueError(
                f"shard {report.shard_index} fell out of lock-step with "
                f"shard {first.shard_index}"
            )
        if len(report.quality_samples) != len(first.quality_samples):
            raise ValueError(
                f"shard {report.shard_index} quality sampling diverged"
            )

    cloud = np.zeros(steps)
    peer = np.zeros(steps)
    provisioned = np.zeros(steps)
    shortfall = np.zeros(steps)
    populations = np.zeros(steps, dtype=np.int64)
    quality = [
        [t, 0, 0] for (t, _, _) in first.quality_samples
    ]
    stats: List[IntervalStats] = []
    channel_populations: Dict[int, int] = {}
    arrivals = departures = retrievals = unsmooth = 0
    sojourn_sum = upload_sum = 0.0
    upload_count = 0
    peak_step_events = 0
    for report in ordered:
        cloud += report.cloud_used
        peer += report.peer_used
        provisioned += report.provisioned
        shortfall += report.shortfall
        populations += report.populations
        for i, (t, smooth, users) in enumerate(report.quality_samples):
            if t != quality[i][0]:
                raise ValueError(
                    f"shard {report.shard_index} sampled quality at {t}, "
                    f"expected {quality[i][0]}"
                )
            quality[i][1] += smooth
            quality[i][2] += users
        stats.extend(report.stats)
        channel_populations.update(report.channel_populations)
        arrivals += report.arrivals
        departures += report.departures
        retrievals += report.retrievals
        unsmooth += report.unsmooth
        sojourn_sum += report.sojourn_sum
        upload_sum += report.upload_sum
        upload_count += report.upload_count
        peak_step_events = max(peak_step_events, report.peak_step_events)
    stats.sort(key=lambda s: s.channel_id)
    return MergedEpoch(
        t_end=first.t_end,
        stats=stats,
        step_times=first.step_times.copy(),
        cloud_used=cloud,
        peer_used=peer,
        provisioned=provisioned,
        shortfall=shortfall,
        populations=populations,
        quality_samples=[(t, s, u) for t, s, u in quality],
        arrivals=arrivals,
        departures=departures,
        retrievals=retrievals,
        unsmooth=unsmooth,
        sojourn_sum=sojourn_sum,
        upload_sum=upload_sum,
        upload_count=upload_count,
        peak_step_events=peak_step_events,
        channel_populations=dict(sorted(channel_populations.items())),
    )


# ----------------------------------------------------------------------
# Shared-memory epoch blocks (see repro.sim.shm for the layout)
# ----------------------------------------------------------------------

def report_to_views(
    views: Dict[str, np.ndarray],
    report: EpochReport,
    owned_ids: Sequence[int],
    kernel_seconds: float,
) -> None:
    """Serialize one shard's epoch report into its shm block (in place).

    Every value is a plain int64/float64 store, so the block round-trips
    bit-exactly — the transport sits outside the determinism contract.
    """
    n = int(report.step_times.size)
    views["n_steps"][0] = n
    views["t_end"][0] = report.t_end
    views["arrivals"][0] = report.arrivals
    views["departures"][0] = report.departures
    views["retrievals"][0] = report.retrievals
    views["unsmooth"][0] = report.unsmooth
    views["sojourn_sum"][0] = report.sojourn_sum
    views["upload_sum"][0] = report.upload_sum
    views["upload_count"][0] = report.upload_count
    views["peak_step_events"][0] = report.peak_step_events
    views["kernel_seconds"][0] = kernel_seconds
    views["step_times"][:n] = report.step_times
    views["cloud_used"][:n] = report.cloud_used
    views["peer_used"][:n] = report.peer_used
    views["provisioned"][:n] = report.provisioned
    views["shortfall"][:n] = report.shortfall
    views["populations"][:n] = report.populations
    nq = len(report.quality_samples)
    views["n_quality"][0] = nq
    if nq:
        q_times, q_smooth, q_users = zip(*report.quality_samples)
        views["quality_times"][:nq] = q_times
        views["quality_smooth"][:nq] = q_smooth
        views["quality_users"][:nq] = q_users
    for k, stats in enumerate(report.stats):
        views["stat_arrivals"][k] = stats.arrivals
        views["stat_upload_sum"][k] = stats.upload_capacity_sum
        views["stat_upload_samples"][k] = stats.upload_capacity_samples
        views["stat_transitions"][k] = stats.transition_counts
        views["stat_departures"][k] = stats.departure_counts
        views["stat_starts"][k] = stats.start_chunk_counts
    views["channel_populations"][:] = [
        report.channel_populations[cid] for cid in owned_ids
    ]


def report_from_views(
    views: Dict[str, np.ndarray],
    shard_index: int,
    owned_ids: Sequence[int],
    interval_seconds: float,
) -> EpochReport:
    """Rebuild a shard's :class:`EpochReport` from its shm block.

    The step series are zero-copy numpy views — valid until the next
    epoch overwrites the block, which is fine because
    :func:`merge_epoch_reports` reduces them into fresh arrays right
    away.  The per-channel statistics arrays ARE copied: the merged
    epoch retains them (the control plane absorbs them after the merge).
    """
    n = int(views["n_steps"][0])
    nq = int(views["n_quality"][0])
    stats = [
        IntervalStats(
            channel_id=int(cid),
            interval_seconds=interval_seconds,
            arrivals=int(views["stat_arrivals"][k]),
            transition_counts=views["stat_transitions"][k].copy(),
            departure_counts=views["stat_departures"][k].copy(),
            upload_capacity_sum=float(views["stat_upload_sum"][k]),
            upload_capacity_samples=int(views["stat_upload_samples"][k]),
            start_chunk_counts=views["stat_starts"][k].copy(),
        )
        for k, cid in enumerate(owned_ids)
    ]
    quality_samples = list(
        zip(
            views["quality_times"][:nq].tolist(),
            views["quality_smooth"][:nq].tolist(),
            views["quality_users"][:nq].tolist(),
        )
    )
    return EpochReport(
        shard_index=shard_index,
        t_end=float(views["t_end"][0]),
        stats=stats,
        step_times=views["step_times"][:n],
        cloud_used=views["cloud_used"][:n],
        peer_used=views["peer_used"][:n],
        provisioned=views["provisioned"][:n],
        shortfall=views["shortfall"][:n],
        populations=views["populations"][:n],
        quality_samples=quality_samples,
        arrivals=int(views["arrivals"][0]),
        departures=int(views["departures"][0]),
        retrievals=int(views["retrievals"][0]),
        unsmooth=int(views["unsmooth"][0]),
        sojourn_sum=float(views["sojourn_sum"][0]),
        upload_sum=float(views["upload_sum"][0]),
        upload_count=int(views["upload_count"][0]),
        peak_step_events=int(views["peak_step_events"][0]),
        channel_populations={
            int(cid): int(views["channel_populations"][k])
            for k, cid in enumerate(owned_ids)
        },
    )


# ----------------------------------------------------------------------
# Worker processes
# ----------------------------------------------------------------------

#: Parent-side ends of every open worker pipe in this process.  A forked
#: worker inherits all of them -- its own pipe's and those of workers
#: (of any engine) started before it -- and closes them first thing, so
#: the parent's death is an EOF on the worker's ``recv()``.
_PARENT_ENDS: "weakref.WeakSet" = weakref.WeakSet()


def _detach_from_parent() -> None:
    """Drop what a forked worker inherits from its parent's process
    state: the parent ends of the worker pipes, and the signal setup of
    a host such as ``repro serve`` (whose asyncio handlers would make the
    worker ignore SIGTERM and write the signal into the parent's event
    loop wake-up pipe)."""
    for end in list(_PARENT_ENDS):
        end.close()
    signal.set_wakeup_fd(-1)
    signal.signal(signal.SIGTERM, signal.SIG_DFL)


def _worker_main(conn, config: CatalogConfig, shard_indices: List[int],
                 shard_states: Optional[List[ChannelShard]] = None,
                 shm_name: Optional[str] = None) -> None:
    """Long-lived worker: build (or adopt) the owned shards, serve epochs.

    ``shard_states`` carries checkpointed :class:`ChannelShard` objects
    into the worker on resume (they arrive pickled through the process
    spawn), skipping the trace rebuild.  Besides epochs, the worker
    answers ``("snapshot",)`` with its current shards — the parent-side
    checkpoint gathers them without interrupting the run.

    With ``shm_name`` the worker writes each epoch's reports into its
    shards' shared-memory blocks and acks ``("ok", None)``; without it
    (legacy/fallback) reports travel pickled over the pipe.  Either way
    the attachment is closed in ``finally`` — the parent owns the
    segment's unlink, so no worker exit path can leak ``/dev/shm``
    blocks or trip the resource tracker.
    """
    _detach_from_parent()
    segment = None
    try:
        if shard_states is not None:
            shards = shard_states
        else:
            # The full-catalog shape/spec lists are identical across
            # shards; compute them once per worker.
            shapes = channel_shapes(config)
            all_channels = config.channels()
            shards = [
                ChannelShard(
                    config, i, shapes=shapes, all_channels=all_channels
                )
                for i in shard_indices
            ]
        layout = None
        if shm_name is not None:
            layout = EpochShmLayout(config)
            segment = attach_segment(shm_name)
        conn.send(("ready", shard_indices))
        while True:
            message = conn.recv()
            if message[0] == "stop":
                break
            if message[0] == "snapshot":
                conn.send(("ok", shards))
                continue
            _, t_end, capacities = message
            if segment is not None:
                for shard in shards:
                    shard.set_capacities(capacities)
                    # CPU time, not wall: time-sliced workers sharing
                    # cores would otherwise count each other's compute.
                    started = time.process_time()
                    report = shard.advance_epoch(t_end)
                    kernel_seconds = time.process_time() - started
                    report_to_views(
                        layout.views(segment.buf, shard.shard_index),
                        report,
                        layout.owned_ids[shard.shard_index],
                        kernel_seconds,
                    )
                conn.send(("ok", None))
            else:
                reports = []
                for shard in shards:
                    shard.set_capacities(capacities)
                    reports.append(shard.advance_epoch(t_end))
                conn.send(("ok", reports))
    except EOFError:
        pass
    except BaseException:
        try:
            conn.send(("error", traceback.format_exc()))
        except (OSError, EOFError, BrokenPipeError):
            pass
    finally:
        if segment is not None:
            try:
                segment.close()
            except BufferError:  # pragma: no cover - defensive
                pass
        conn.close()


class ShardEngineError(RuntimeError):
    """A shard worker died or reported an exception."""


# ----------------------------------------------------------------------
# Results
# ----------------------------------------------------------------------

@dataclass
class CatalogResult:
    """Everything measured over one sharded catalog run."""

    config: CatalogConfig
    times: np.ndarray  # per step
    cloud_used: np.ndarray
    peer_used: np.ndarray
    provisioned: np.ndarray
    shortfall: np.ndarray
    populations: np.ndarray
    quality_times: np.ndarray
    quality: np.ndarray
    epoch_times: List[float]
    arrivals: int
    departures: int
    final_population: int
    peak_population: int
    total_retrievals: int
    unsmooth_retrievals: int
    mean_sojourn: float
    decisions: List[ProvisioningDecision] = field(default_factory=list)
    vm_cost_series: List[float] = field(default_factory=list)
    cost_report: Optional[CostReport] = None
    channel_populations: Dict[int, int] = field(default_factory=dict)
    steps: int = 0
    peak_step_events: int = 0

    @property
    def average_quality(self) -> float:
        if self.quality.size == 0:
            return 1.0
        return float(np.mean(self.quality))

    @property
    def smooth_retrieval_fraction(self) -> float:
        if self.total_retrievals == 0:
            return 1.0
        return 1.0 - self.unsmooth_retrievals / self.total_retrievals


@dataclass
class GeoCatalogResult(CatalogResult):
    """A multi-region catalog run: everything in :class:`CatalogResult`
    plus the geo layer's per-epoch allocation telemetry.

    ``epoch_discounts``/``epoch_remote_fractions`` align with
    ``epoch_times``: entry ``k`` describes the plan that was *in effect*
    during epoch ``k`` (the bootstrap plan for the first epoch, then
    each periodic decision for the epoch it capacitates).
    """

    region_names: List[str] = field(default_factory=list)
    epoch_discounts: List[float] = field(default_factory=list)
    epoch_remote_fractions: List[float] = field(default_factory=list)
    epoch_egress_rates: List[float] = field(default_factory=list)

    @property
    def mean_latency_discount(self) -> float:
        if not self.epoch_discounts:
            return 1.0
        return float(np.mean(self.epoch_discounts))

    def latency_adjusted_quality_series(self) -> np.ndarray:
        """Quality samples scaled by their epoch's utility discount."""
        return latency_adjusted_quality(
            self.quality_times,
            self.quality,
            np.asarray(self.epoch_times),
            np.asarray(self.epoch_discounts),
        )

    @property
    def latency_adjusted_quality(self) -> float:
        series = self.latency_adjusted_quality_series()
        if series.size == 0:
            return self.mean_latency_discount
        return float(np.mean(series))


def summarize_catalog(result: CatalogResult) -> Dict[str, float]:
    """Flatten a catalog run into the sweep's JSON metrics schema."""
    reserved = result.provisioned * 8.0 / 1e6
    used = result.cloud_used * 8.0 / 1e6
    peer = result.peer_used * 8.0 / 1e6
    coverage = (
        float(np.mean(result.provisioned >= result.cloud_used))
        if result.provisioned.size else 0.0
    )
    # Same basis as the closed-loop schema (`mean_vm_cost_per_hour`):
    # the billing meter's hourly rate, which covers the bootstrap
    # deployment too — `vm_cost_series` only has the periodic decisions
    # and is empty for single-epoch runs.
    vm_cost = (
        float(result.cost_report.hourly_vm_cost)
        if result.cost_report is not None else 0.0
    )
    metrics = {
        "arrivals": int(result.arrivals),
        "departures": int(result.departures),
        "final_population": int(result.final_population),
        "peak_population": int(result.peak_population),
        "average_quality": float(result.average_quality),
        "smooth_retrieval_fraction": float(result.smooth_retrieval_fraction),
        "mean_sojourn": float(result.mean_sojourn),
        "mean_reserved_mbps": float(reserved.mean()) if reserved.size else 0.0,
        "mean_used_mbps": float(used.mean()) if used.size else 0.0,
        "mean_peer_mbps": float(peer.mean()) if peer.size else 0.0,
        "mean_shortfall_mbps": (
            float(result.shortfall.mean()) * 8.0 / 1e6
            if result.shortfall.size else 0.0
        ),
        "coverage_fraction": coverage,
        "vm_cost_per_hour": vm_cost,
        "storage_cost_per_day": (
            float(result.cost_report.hourly_storage_cost * 24.0)
            if result.cost_report is not None else 0.0
        ),
        "epochs": int(len(result.epoch_times)),
        "steps": int(result.steps),
        "peak_step_events": int(result.peak_step_events),
        "num_channels": int(result.config.num_channels),
        "num_shards": int(result.config.effective_shards),
    }
    if isinstance(result, GeoCatalogResult):
        metrics.update({
            "num_regions": int(len(result.region_names)),
            "mean_latency_discount": float(result.mean_latency_discount),
            "latency_adjusted_quality": float(
                result.latency_adjusted_quality
            ),
            "mean_remote_fraction": (
                float(np.mean(result.epoch_remote_fractions))
                if result.epoch_remote_fractions else 0.0
            ),
            "egress_cost_per_hour": (
                float(result.cost_report.hourly_egress_cost)
                if result.cost_report is not None else 0.0
            ),
        })
    return metrics


# ----------------------------------------------------------------------
# The engine
# ----------------------------------------------------------------------

@dataclass
class _CatalogRunState:
    """Everything one in-flight catalog run has accumulated so far.

    Kept as one picklable object so a checkpoint is exactly this state
    plus the control-plane objects and the shard simulators.
    """

    capacities: Dict[int, np.ndarray]
    num_epochs: int
    epoch: int = 0
    done: bool = False
    epoch_times: List[float] = field(default_factory=list)
    step_chunks: List[MergedEpoch] = field(default_factory=list)
    arrivals: int = 0
    departures: int = 0
    retrievals: int = 0
    unsmooth: int = 0
    sojourn_sum: float = 0.0
    peak_step_events: int = 0
    channel_populations: Dict[int, int] = field(default_factory=dict)


class ShardedSimulator:
    """Lock-step epochs over channel shards + one provisioning loop.

    The engine advances one provisioning epoch at a time
    (:meth:`advance_epoch`), which is what :mod:`repro.api` streams;
    :meth:`run` is the drain-everything convenience and produces results
    byte-identical to the historical monolithic loop.

    Parameters
    ----------
    config:
        The catalog (including its fixed shard count).
    jobs:
        Worker processes; ``1`` runs every shard in-process.  Results are
        byte-identical for any value.
    predictor:
        Optional arrival-rate predictor override for the controller.
    controller:
        Registered provisioning-policy key
        (:func:`repro.core.controller.controller_names`); ``None`` means
        the paper controller.
    """

    kind = "catalog"

    def __init__(
        self,
        config: CatalogConfig,
        *,
        jobs: int = 1,
        predictor: Optional[ArrivalRatePredictor] = None,
        controller: Optional[str] = None,
    ) -> None:
        self.config = config
        self.jobs = max(1, min(int(jobs), config.effective_shards))
        self._controller_key = controller or "paper"
        self._clock = EpochClock(0.0)
        self._peer_upload: Optional[float] = None
        self.vm_cost_series: List[float] = []
        self._run_state: Optional[_CatalogRunState] = None
        self._restored_shards: Optional[List[ChannelShard]] = None

        self.tracker = TrackingServer(
            num_channels=config.channel_slots,
            chunks_per_channel=[config.chunks_per_channel]
            * config.channel_slots,
            interval_seconds=config.interval_seconds,
        )
        self.facility = CloudFacility(
            config.vm_clusters(),
            config.nfs_clusters(),
            clock=self._clock,
        )
        self.broker = Broker(self.facility)
        self._estimator = DemandEstimator(
            config.capacity_model(),
            mode=config.mode,
            default_prior=config.behaviour_matrix(),
        )
        self.controller = self._build_controller(predictor)

        self._shards: Optional[List[ChannelShard]] = None  # jobs == 1
        self._workers: List[mp.Process] = []
        self._conns: List = []
        self._started = False
        self._closed = False
        self._layout: Optional[EpochShmLayout] = None
        self._segment: Optional[ParentSegment] = None
        #: Cumulative phase breakdown of the run.  ``kernel`` is CPU
        #: seconds inside the shard kernels (summed across workers);
        #: ``merge`` and ``controller`` are parent wall clock; ``ipc``
        #: is the epoch round-trip's wall clock minus kernel CPU —
        #: serialization, pipe acks and scheduling (0 when workers
        #: genuinely overlap on spare cores).
        self.phase_seconds: Dict[str, float] = {
            "kernel": 0.0, "merge": 0.0, "controller": 0.0, "ipc": 0.0,
        }

    def _build_controller(
        self, predictor: Optional[ArrivalRatePredictor]
    ) -> ProvisioningController:
        """The control plane: single-region Eqn (6)/(7) provisioning,
        under the selected policy (the paper's by default)."""
        cls = controller_class(self._controller_key)
        return cls(
            self._estimator,
            self.tracker,
            self.broker,
            self.config.sla_terms(),
            predictor=predictor,
            min_capacity_per_chunk=self.config.constants.streaming_rate,
        )

    @property
    def _now(self) -> float:
        """Current control-plane time (the epoch clock's reading)."""
        return self._clock.now

    # ------------------------------------------------------------------
    def __enter__(self) -> "ShardedSimulator":
        return self

    def __exit__(self, *exc) -> None:
        self.close()

    def close(self) -> None:
        """Tear down worker processes and the shm segment (idempotent)."""
        if self._closed:
            return
        self._closed = True
        self._stop_workers()

    def _stop_workers(self) -> None:
        """Stop workers, close pipes and unlink the shm segment."""
        for conn in self._conns:
            try:
                conn.send(("stop",))
            except (OSError, BrokenPipeError):
                pass
        for worker in self._workers:
            worker.join(timeout=10.0)
            if worker.is_alive():  # pragma: no cover - defensive
                worker.terminate()
                worker.join(timeout=5.0)
        for conn in self._conns:
            conn.close()
        self._conns = []
        self._workers = []
        if self._segment is not None:
            self._segment.close()
            self._segment = None

    def suspend(self) -> None:
        """Park the run between epochs (idempotent; no-op when closed
        or not yet started).

        Gathers the live shard simulators into the parent and releases
        the worker processes and the shared-memory epoch plane — a
        paused run then holds no OS resources beyond its own heap.  The
        next :meth:`advance_epoch` (or :meth:`snapshot_state`)
        transparently respawns workers from the parked shards; results
        are byte-identical either way, exactly like a checkpoint/resume
        round-trip through :mod:`repro.api`.
        """
        if self._closed or not self._started:
            return
        shards = self._gather_shards()
        self._stop_workers()
        self._shards = None
        self._layout = None
        self._restored_shards = shards
        self._started = False

    @property
    def shm_segment_name(self) -> Optional[str]:
        """Name of the live ``/dev/shm`` epoch segment (``None`` when
        serial, suspended, unstarted or closed).

        A supervising host records this so the segment of a SIGKILLed
        parent — the one teardown ``close()`` cannot cover — can be
        reclaimed on restart via
        :func:`repro.sim.shm.unlink_stale_segment`.
        """
        return self._segment.name if self._segment is not None else None

    # ------------------------------------------------------------------
    def _start(self) -> None:
        if self._started:
            return
        self._started = True
        shards = self.config.effective_shards
        restored = self._restored_shards
        self._restored_shards = None
        # Build every shard in the parent, once: the catalog-wide
        # shape/spec lists are shared across all of them, and worker
        # processes inherit their shards through the fork (or adopt the
        # pickled copies under a spawn start method) instead of each
        # rebuilding the full channel list.
        if restored is not None:
            built = restored
        else:
            shapes = channel_shapes(self.config)
            all_channels = self.config.channels()
            built = [
                ChannelShard(
                    self.config, i,
                    shapes=shapes, all_channels=all_channels,
                )
                for i in range(shards)
            ]
        if self.jobs <= 1:
            self._shards = built
            return
        self._layout = EpochShmLayout(self.config)
        self._segment = ParentSegment(self._layout)
        assignments = [
            [i for i in range(shards) if i % self.jobs == w]
            for w in range(self.jobs)
        ]
        for owned in assignments:
            parent_conn, child_conn = mp.Pipe()
            _PARENT_ENDS.add(parent_conn)
            owned_states = [built[i] for i in owned]
            worker = mp.Process(
                target=_worker_main,
                args=(
                    child_conn, self.config, owned, owned_states,
                    self._segment.name,
                ),
                daemon=False,
            )
            worker.start()
            child_conn.close()
            self._workers.append(worker)
            self._conns.append(parent_conn)
        for conn in self._conns:
            self._expect(conn, "ready")

    @staticmethod
    def _send(conn, message) -> None:
        """Send a control message; a dead worker is an engine error, not
        a raw ``BrokenPipeError`` (close() still tears everything down)."""
        try:
            conn.send(message)
        except (BrokenPipeError, OSError):
            raise ShardEngineError("shard worker died unexpectedly") from None

    def _expect(self, conn, kind: str):
        try:
            message = conn.recv()
        except EOFError:
            raise ShardEngineError("shard worker died unexpectedly") from None
        if message[0] == "error":
            raise ShardEngineError(f"shard worker failed:\n{message[1]}")
        if message[0] != kind:
            raise ShardEngineError(f"unexpected worker message {message[0]!r}")
        return message[1]

    def _advance_all(
        self, t_end: float, capacities: Dict[int, np.ndarray]
    ) -> List[EpochReport]:
        self._start()
        started = time.perf_counter()  # lint: allow[DET002] phase timing
        kernel_seconds = 0.0
        if self._shards is not None:
            reports = []
            for shard in self._shards:
                shard.set_capacities(capacities)
                k0 = time.process_time()  # lint: allow[DET002] phase timing
                reports.append(shard.advance_epoch(t_end))
                # lint: allow[DET002] phase timing
                kernel_seconds += time.process_time() - k0
        else:
            for conn in self._conns:
                self._send(conn, ("epoch", t_end, capacities))
            for conn in self._conns:
                self._expect(conn, "ok")
            # Every worker has acked; map the blocks back in fixed shard
            # order (the merge's reduction-order contract).
            reports = []
            buf = self._segment.buf
            interval = self.config.interval_seconds
            for index in range(self.config.effective_shards):
                views = self._layout.views(buf, index)
                kernel_seconds += float(views["kernel_seconds"][0])
                reports.append(
                    report_from_views(
                        views, index, self._layout.owned_ids[index], interval
                    )
                )
        wall = time.perf_counter() - started  # lint: allow[DET002] phase timing
        self.phase_seconds["kernel"] += kernel_seconds
        self.phase_seconds["ipc"] += max(0.0, wall - kernel_seconds)
        return reports

    @staticmethod
    def _sorted_capacities(
        decision: ProvisioningDecision,
    ) -> Dict[int, np.ndarray]:
        return {
            channel_id: decision.per_channel_capacity[channel_id]
            for channel_id in sorted(decision.per_channel_capacity)
        }

    # ------------------------------------------------------------------
    # Control-plane hooks (the geo engine overrides these three)
    # ------------------------------------------------------------------
    def _bootstrap_capacities(self) -> Dict[int, np.ndarray]:
        """Initial deployment: expected per-slot rates -> capacities."""
        config = self.config
        rates = config.channel_rates()
        expected = {c: float(r) for c, r in enumerate(rates)}
        self._peer_upload = (
            config.upload_distribution().mean()
            if config.mode == "p2p" else None
        )
        decision = self.controller.bootstrap(
            0.0, expected, peer_upload=self._peer_upload
        )
        return self._sorted_capacities(decision)

    def _reprovision(
        self, t_end: float, merged: MergedEpoch
    ) -> Dict[int, np.ndarray]:
        """One periodic provisioning round on the merged statistics."""
        config = self.config
        live_upload = (
            merged.upload_sum / merged.upload_count
            if config.mode == "p2p" and merged.upload_count
            else self._peer_upload
        )
        decision = self.controller.run_interval(
            t_end,
            peer_upload=live_upload if config.mode == "p2p" else None,
        )
        self.vm_cost_series.append(decision.hourly_vm_cost)
        return self._sorted_capacities(decision)

    def _make_result(self, **kwargs) -> CatalogResult:
        return CatalogResult(**kwargs)

    # ------------------------------------------------------------------
    # Epoch-wise execution (the repro.api streaming protocol)
    # ------------------------------------------------------------------
    def start(self) -> None:
        """Bootstrap the run (idempotent): initial deployment + state."""
        if self._run_state is not None:
            return
        config = self.config
        started = time.perf_counter()  # lint: allow[DET002] phase timing
        capacities = self._bootstrap_capacities()
        # lint: allow[DET002] phase timing
        self.phase_seconds["controller"] += time.perf_counter() - started
        self._run_state = _CatalogRunState(
            capacities=capacities,
            num_epochs=int(
                math.ceil(config.horizon_seconds / config.interval_seconds)
            ),
        )

    @property
    def epoch(self) -> int:
        """Completed epochs so far (0 before the first)."""
        return self._run_state.epoch if self._run_state is not None else 0

    @property
    def epochs_total(self) -> int:
        config = self.config
        return int(math.ceil(config.horizon_seconds / config.interval_seconds))

    @property
    def done(self) -> bool:
        return self._run_state is not None and self._run_state.done

    def advance_epoch(self) -> Optional[Dict[str, Any]]:
        """Run one lock-step epoch; ``None`` once the horizon is reached.

        Returns the epoch's streaming payload (the flat summary
        :mod:`repro.api` wraps into an ``EpochSnapshot``).  The sequence
        of operations is exactly the historical monolithic loop's, so a
        fully drained engine yields byte-identical results.
        """
        self.start()
        state = self._run_state
        config = self.config
        if state.done:
            return None
        interval = config.interval_seconds
        horizon = config.horizon_seconds
        k = state.epoch + 1
        t_end = min(k * interval, horizon)
        reports = self._advance_all(t_end, state.capacities)
        merge_started = time.perf_counter()  # lint: allow[DET002] phase timing
        merged = merge_epoch_reports(reports)
        # lint: allow[DET002] phase timing
        self.phase_seconds["merge"] += time.perf_counter() - merge_started
        self._clock.now = t_end
        state.epoch = k
        state.epoch_times.append(t_end)
        state.step_chunks.append(merged)
        for stats in merged.stats:
            self.tracker.absorb(stats)
        state.arrivals += merged.arrivals
        state.departures += merged.departures
        state.retrievals += merged.retrievals
        state.unsmooth += merged.unsmooth
        state.sojourn_sum += merged.sojourn_sum
        state.peak_step_events = max(
            state.peak_step_events, merged.peak_step_events
        )
        state.channel_populations = merged.channel_populations

        decision = None
        if t_end + 1e-9 >= horizon or k >= state.num_epochs:
            state.done = True
        else:
            controller_started = time.perf_counter()  # lint: allow[DET002] phase timing
            state.capacities = self._reprovision(t_end, merged)
            self.phase_seconds["controller"] += (
                time.perf_counter() - controller_started  # lint: allow[DET002] phase timing
            )
            decision = self.controller.decisions[-1]
        return self._epoch_payload(k, t_end, merged, decision)

    def _epoch_payload(
        self, k: int, t_end: float, merged: MergedEpoch, decision,
    ) -> Dict[str, Any]:
        """Flat per-epoch summary for streaming consumers."""
        def mean_mbps(series: np.ndarray) -> float:
            return float(series.mean()) * 8.0 / 1e6 if series.size else 0.0

        ratios = [
            1.0 if users == 0 else smooth / users
            for _, smooth, users in merged.quality_samples
        ]
        return {
            "epoch": k,
            "t_end": float(t_end),
            "arrivals": int(merged.arrivals),
            "departures": int(merged.departures),
            "population": (
                int(merged.populations[-1]) if merged.populations.size else 0
            ),
            "peak_population": (
                int(merged.populations.max()) if merged.populations.size else 0
            ),
            "used_mbps": mean_mbps(merged.cloud_used),
            "peer_mbps": mean_mbps(merged.peer_used),
            "provisioned_mbps": mean_mbps(merged.provisioned),
            "shortfall_mbps": mean_mbps(merged.shortfall),
            "quality": float(np.mean(ratios)) if ratios else 1.0,
            "vm_cost_per_hour": (
                float(decision.hourly_vm_cost) if decision is not None else 0.0
            ),
            "decision": decision,
        }

    def result(self) -> CatalogResult:
        """The merged result of the (fully drained) run."""
        if self._run_state is None or not self._run_state.done:
            raise RuntimeError(
                "the run is not finished; drain advance_epoch() (or use "
                "run()) before asking for the result"
            )
        state = self._run_state
        step_chunks = state.step_chunks
        times = np.concatenate([m.step_times for m in step_chunks]) \
            if step_chunks else np.empty(0)
        populations = np.concatenate([m.populations for m in step_chunks]) \
            if step_chunks else np.empty(0, dtype=np.int64)
        quality_samples = [s for m in step_chunks for s in m.quality_samples]
        quality_times = np.asarray([t for t, _, _ in quality_samples])
        quality = np.asarray([
            1.0 if users == 0 else smooth / users
            for _, smooth, users in quality_samples
        ])
        return self._make_result(
            config=self.config,
            times=times,
            cloud_used=np.concatenate([m.cloud_used for m in step_chunks])
            if step_chunks else np.empty(0),
            peer_used=np.concatenate([m.peer_used for m in step_chunks])
            if step_chunks else np.empty(0),
            provisioned=np.concatenate([m.provisioned for m in step_chunks])
            if step_chunks else np.empty(0),
            shortfall=np.concatenate([m.shortfall for m in step_chunks])
            if step_chunks else np.empty(0),
            populations=populations,
            quality_times=quality_times,
            quality=quality,
            epoch_times=list(state.epoch_times),
            arrivals=state.arrivals,
            departures=state.departures,
            final_population=int(populations[-1]) if populations.size else 0,
            peak_population=int(populations.max()) if populations.size else 0,
            total_retrievals=state.retrievals,
            unsmooth_retrievals=state.unsmooth,
            mean_sojourn=(
                state.sojourn_sum / state.retrievals
                if state.retrievals else 0.0
            ),
            decisions=list(self.controller.decisions),
            vm_cost_series=list(self.vm_cost_series),
            cost_report=self.facility.billing.report(self._now),
            channel_populations=state.channel_populations,
            steps=int(times.size),
            peak_step_events=state.peak_step_events,
        )

    def run(self) -> CatalogResult:
        """Execute the whole horizon and return the merged result."""
        while self.advance_epoch() is not None:
            pass
        return self.result()

    # ------------------------------------------------------------------
    # Checkpoint support (repro.api's checkpoint()/resume())
    # ------------------------------------------------------------------
    def _gather_shards(self) -> List[ChannelShard]:
        """The current shard simulators, in shard-index order."""
        if self._closed:
            # Workers (and their shard state) are gone; writing a
            # checkpoint now would silently produce an unresumable file.
            raise RuntimeError(
                "cannot snapshot a closed engine (checkpoint before "
                "close()/the end of the `with` block)"
            )
        self._start()
        if self._shards is not None:
            return list(self._shards)
        for conn in self._conns:
            self._send(conn, ("snapshot",))
        shards: List[ChannelShard] = []
        for conn in self._conns:
            shards.extend(self._expect(conn, "ok"))
        shards.sort(key=lambda shard: shard.shard_index)
        return shards

    def snapshot_state(self) -> Dict[str, Any]:
        """One picklable object graph capturing the whole run.

        The control-plane objects go in together so shared references
        (controller -> tracker/broker -> facility) survive a pickle
        round-trip as one consistent graph.
        """
        self.start()
        return {
            "run": self._run_state,
            "clock": self._clock,
            "tracker": self.tracker,
            "facility": self.facility,
            "broker": self.broker,
            "estimator": self._estimator,
            "controller": self.controller,
            "vm_cost_series": self.vm_cost_series,
            "peer_upload": self._peer_upload,
            "shards": self._gather_shards(),
        }

    def restore_state(self, state: Dict[str, Any]) -> None:
        """Adopt a :meth:`snapshot_state` graph (before any epoch ran)."""
        if self._started or self._run_state is not None:
            raise RuntimeError("can only restore into a fresh engine")
        self._run_state = state["run"]
        self._clock = state["clock"]
        self.tracker = state["tracker"]
        self.facility = state["facility"]
        self.broker = state["broker"]
        self._estimator = state["estimator"]
        self.controller = state["controller"]
        self.vm_cost_series = state["vm_cost_series"]
        self._peer_upload = state["peer_upload"]
        self._restored_shards = list(state["shards"])


class GeoShardedSimulator(ShardedSimulator):
    """The multi-region catalog engine.

    Shards and the epoch loop are inherited unchanged — a
    :class:`~repro.workload.catalog.GeoCatalogConfig` presents its
    (region, channel) pairs as channel *slots*, so every worker-side
    mechanism (stable traces, lock-step epochs, shard-order merge)
    applies verbatim, and slot ids are region-major: the merged stats'
    channel-id sort IS the fixed region-then-channel reduction order.

    Only the control plane differs: each epoch the merged per-slot
    statistics are grouped by viewer region and fed to the multi-region
    VM configuration problem (:mod:`repro.geo.allocation`), any region's
    clusters may serve any region's viewers, the plan's cross-region
    egress is metered into billing, and its capacity-weighted latency
    discounts flow into the quality metrics.
    """

    def __init__(
        self,
        config: GeoCatalogConfig,
        *,
        jobs: int = 1,
        predictor: Optional[ArrivalRatePredictor] = None,
        controller: Optional[str] = None,
    ) -> None:
        if not isinstance(config, GeoCatalogConfig):
            raise TypeError(
                "GeoShardedSimulator needs a GeoCatalogConfig "
                "(use geo_catalog_config(...))"
            )
        super().__init__(
            config, jobs=jobs, predictor=predictor, controller=controller
        )

    def _build_controller(
        self, predictor: Optional[ArrivalRatePredictor]
    ) -> GeoProvisioningController:
        config = self.config
        cls = controller_class(self._controller_key, geo=True)
        return cls(
            self._estimator,
            self.tracker,
            self.broker,
            config.geo_topology(),
            config.sla_terms(),
            config.slot_region,
            config.slot_channel,
            predictor=predictor,
            exact=config.exact,
            min_capacity_per_chunk=config.constants.streaming_rate,
        )

    def _make_result(self, **kwargs) -> GeoCatalogResult:
        # Decision k capacitates epoch k+1 (the bootstrap capacitates
        # epoch 1), so the decision list truncated to the epoch count is
        # exactly the per-epoch in-effect telemetry.
        decisions = self.controller.decisions
        epochs = len(kwargs["epoch_times"])
        telemetry = [d.epoch_telemetry() for d in decisions[:epochs]]
        return GeoCatalogResult(
            **kwargs,
            region_names=list(self.config.region_names),
            epoch_discounts=[t["discount"] for t in telemetry],
            epoch_remote_fractions=[t["remote_fraction"] for t in telemetry],
            epoch_egress_rates=[
                t["egress_rate_per_hour"] for t in telemetry
            ],
        )


def make_engine(
    config: CatalogConfig,
    *,
    jobs: int = 1,
    predictor: Optional[ArrivalRatePredictor] = None,
    controller: Optional[str] = None,
) -> ShardedSimulator:
    """The right engine for the config: geo configs get the multi-region
    control plane, plain catalogs the single-region one."""
    cls = (
        GeoShardedSimulator if isinstance(config, GeoCatalogConfig)
        else ShardedSimulator
    )
    return cls(config, jobs=jobs, predictor=predictor, controller=controller)
