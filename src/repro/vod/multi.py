"""Fused structure-of-arrays kernel for one shard's whole channel set.

:class:`MultiChannelSimulator` advances every channel of a shard in one
vectorized pass per phase, instead of looping Python-side over one
:class:`~repro.vod.simulator.VoDSimulator` store per channel.  All users
of all channels live in one dense **row table** in admission order — a
structure-of-arrays column per attribute (channel, current chunk,
delivery cell, received bytes, enter time, hold state, alive flag) with
a tail cursor for O(1) appends.  Departures only flip the alive flag and
move the row out of delivery; the table is re-packed by one stable
``flatnonzero`` gather, *lazily* — once per epoch at the report
boundary, or mid-epoch only when dead rows exceed half the table.
Per-channel state the delivery model needs is a ``(channels, chunks)``
capacity matrix, and each step runs:

1. fused admissions from the shard's arrival-sorted trace arrays;
2. fused hold releases across every channel (one scan of the hold
   deadlines);
3. one ``(channels, chunks)`` client-server delivery solve (bincount of
   the delivery cells, elementwise rate shares, row sums);
4. fused download advance and completion detection (one gather, one
   in-place add, one threshold scan);
5. per-channel completion handling in ascending channel order (the only
   phase that must stay a loop: behaviour-stream draws and the sojourn
   accumulator are per-channel ordered state), then fused transition
   application;
6. fused quality sampling on the 5-minute grid.

Byte-identity contract
----------------------
The kernel's fixed-seed trajectories are byte-identical to running one
``VoDSimulator`` per channel (the configuration the golden traces and
the jobs-1-vs-N sweeps pin down).  The invariants that make this true:

* channels only interact within a step through integer counters and
  integer-valued ``bincount`` accumulations (exact in any grouping), so
  phases can be fused across channels;
* every float reduction either stays per-channel in arrival order (the
  upload-capacity accumulator, summed per channel at the interval close
  over the trace entries admitted since the last one, and the sojourn
  accumulator, element-by-element or one pairwise ``np.add.reduce`` per
  channel segment), or is a row-wise ``.sum(axis=1)`` over a
  C-contiguous matrix (bitwise equal to the per-channel 1-D ``.sum()``),
  or a sequential Python add over channels in ascending id order (the
  step's bandwidth totals);
* per-channel RNG streams are keyed by global channel id and consumed
  in the same order and batch sizes as the per-channel kernel,
  including its ``<= 4`` completions scalar path;
* row numbering is unobservable — every reported quantity derives from
  per-channel *arrival order*, which the row table maintains
  structurally: admissions append in trace order at the tail, and the
  compaction gather is an ascending index pick, so each channel's
  subsequence of the table is always its arrival order;
* dead and held rows mask out of delivery through sentinels that are
  set only where a row's state changes: their delivery cell is the
  spill bin ``C * J`` (dropped from the counts, gathering a trailing
  ``0.0`` rate), their received bytes are ``-inf`` (never reaching the
  completion threshold), and every row that is not held has a hold
  deadline of ``+inf`` (never released) — so the per-step passes need
  no masks, and deferring compaction never perturbs a float.

The fused kernel covers the client-server mode with a uniform channel
set (what every catalog family built by
:func:`~repro.vod.channel.make_uniform_channels` produces).  P2P mode
and heterogeneous channels keep the per-channel kernel — see
:meth:`repro.sim.shard.ChannelShard`.
"""

from __future__ import annotations

from typing import Dict, List, NamedTuple, Tuple

import numpy as np

from repro.sim.rng import RandomStreams
from repro.vod.channel import ChannelSpec
from repro.vod.simulator import BandwidthLog, BandwidthSample, VoDSystemConfig
from repro.vod.tracker import IntervalStats
from repro.vod.user import HOLDING
from repro.workload.catalog import ShardTraceArrays

__all__ = ["MultiChannelSimulator", "channels_are_uniform"]

_GROW = 256


class _QualitySampleLite(NamedTuple):
    """One quality sample, aggregate counts only (what the shard ships)."""

    time: float
    total_smooth: int
    total_users: int


class _ShardQuality:
    """Aggregate-only stand-in for :class:`~repro.vod.metrics.QualityTracker`.

    The shard report only ships totals (retrievals, unsmooth count, the
    sojourn accumulator, per-sample smooth/user counts), so the fused
    kernel skips the per-channel dictionaries the full tracker keeps.
    The float accumulation order of ``sojourn_sum`` is owned by
    :meth:`MultiChannelSimulator._sample_transitions` and matches the
    per-channel kernel's scalar/batch split exactly.
    """

    def __init__(self, window_seconds: float) -> None:
        self.window_seconds = float(window_seconds)
        self.samples: List[_QualitySampleLite] = []
        self.total_retrievals = 0
        self.unsmooth_retrievals = 0
        self.sojourn_sum = 0.0


def channels_are_uniform(channels) -> bool:
    """True iff every channel shares chunk count, rate, duration and
    behaviour matrix (the precondition for the fused kernel)."""
    first = channels[0]
    for spec in channels[1:]:
        if (
            spec.num_chunks != first.num_chunks
            or spec.streaming_rate != first.streaming_rate
            or spec.chunk_duration != first.chunk_duration
            or not (
                spec.behaviour is first.behaviour
                or np.array_equal(spec.behaviour, first.behaviour)
            )
        ):
            return False
    return True


class MultiChannelSimulator:
    """All channels of one shard in a single structure-of-arrays kernel.

    Drop-in for the shard's per-channel :class:`VoDSimulator` loop: the
    external surface (``step``/``population``/``set_cloud_capacity``/
    ``bandwidth``/``quality``/...) matches what
    :class:`repro.sim.shard.ChannelShard` consumes in client-server
    mode, and :meth:`close_interval` plays the tracker's role for the
    owned channels.
    """

    def __init__(
        self,
        channels: List[ChannelSpec],
        trace: ShardTraceArrays,
        config: VoDSystemConfig,
        *,
        interval_seconds: float = 3600.0,
    ) -> None:
        if not channels:
            raise ValueError("need at least one channel")
        if config.mode != "client-server":
            raise ValueError(
                "MultiChannelSimulator only implements client-server "
                "delivery; use the per-channel kernel for p2p"
            )
        if not channels_are_uniform(channels):
            raise ValueError(
                "MultiChannelSimulator needs a uniform channel set"
            )
        ids = [ch.channel_id for ch in channels]
        if any(b <= a for a, b in zip(ids, ids[1:])):
            raise ValueError("channel ids must be strictly increasing")
        self.channels = list(channels)
        self.config = config
        self.interval_seconds = float(interval_seconds)
        first = channels[0]
        self.num_channels = len(channels)
        self.num_chunks = first.num_chunks
        self.chunk_size = first.chunk_size_bytes
        self.t0 = first.chunk_duration
        # Precomputed scalar thresholds, same expressions as the
        # per-channel kernel evaluates inline.
        self._smooth_after = config.sojourn_slack * self.t0 + 1e-9
        self._overdue_after = config.sojourn_slack * self.t0
        self.channel_ids = np.asarray(ids, dtype=np.int64)
        self._local_of: Dict[int, int] = {cid: i for i, cid in enumerate(ids)}
        # The next-chunk rule ``-1 if u >= cum[-1] else (cum <= u).sum()``
        # (cum: the finished chunk's cumulative behaviour row) as a
        # lookup table.  Every entry of every row is one of the sorted
        # distinct values ``cuts``, so how each compares with a draw u
        # is decided by r = the number of cuts <= u: tabulating the rule
        # at each r in 0..len(cuts) reproduces it exactly.
        cumulative = np.cumsum(np.asarray(first.behaviour, dtype=float), axis=1)
        cuts = np.unique(cumulative)
        below = cumulative[:, :, None] <= cuts  # [j, k, r-1]: cum[j, k] <= cuts[r-1]
        table = np.zeros((cumulative.shape[0], cuts.size + 1), dtype=np.int64)
        table[:, 1:] = below.sum(axis=1)
        table[:, 1:][below[:, -1, :]] = -1
        self._next_cuts = cuts
        self._next_table = table.ravel()
        self._next_width = cuts.size + 1
        self._streams = RandomStreams(config.seed)
        # One persistent generator per channel (RandomStreams caches by
        # label, so these are the same objects scalar lookups would hit).
        self._gens = [
            self._streams.get("behaviour", str(cid)) for cid in ids
        ]

        self.now = 0.0
        self.arrivals = 0
        self.departures = 0
        self.steps = 0
        self.peak_step_events = 0
        self.quality = _ShardQuality(config.quality_window)
        self.bandwidth = BandwidthLog()
        self._next_quality_sample = config.quality_sample_interval

        # Trace (already (time, channel)-sorted); unknown channels are
        # skipped exactly like the per-channel admit loop skips them.
        known = np.isin(trace.channels, self.channel_ids)
        channels_arr = trace.channels[known]
        lookup = np.searchsorted(self.channel_ids, channels_arr)
        self._trace_times = trace.times[known]
        self._trace_channel = lookup.astype(np.int64)
        self._trace_start = trace.start_chunks[known]
        self._trace_upload = trace.upload_capacities[known]
        self._cursor = 0

        # Provisioned capacity: (C, J) matrix + per-channel sums whose
        # ascending-id ordered dict mirrors the per-channel kernel's
        # total reduction order.
        C, J = self.num_channels, self.num_chunks
        # Channel-major stable orderings sort this narrow copy of the
        # local channel ids: a stable sort of <= 16-bit integers is a
        # radix sort, the same permutation as any stable sort.
        self._chan_key = (
            np.uint8 if C <= 1 << 8 else np.uint16 if C <= 1 << 16
            else np.int64
        )
        self._spill = C * J
        self._complete_at = self.chunk_size - 1e-9
        self._capacity = np.zeros((C, J))
        self._capacity_sums: Dict[int, float] = {cid: 0.0 for cid in ids}
        self._provisioned_total = 0.0
        self._capacity_dirty = False

        # Interval (tracker) statistics, built by close_interval().  The
        # admission-side ones (arrivals, start chunks, upload samples and
        # sums) are a pure function of the trace entries admitted since
        # the last close, the slice [_iv_cursor, _cursor).  Each chunk
        # completion that leaves its row's chunk (a move or a departure)
        # appends its code ``(local * J + finished) * (J + 1) + next`` to
        # _iv_moves, with ``next = J`` for a departure.
        self._iv_cursor = 0
        self._iv_moves: List[np.ndarray] = []

        # Per-user state, one ROW per session, dense in admission order —
        # each channel's subsequence is that channel's arrival order, the
        # kernel's only ordering source (slot numbering is unobservable
        # in the per-channel kernel; mirrors UserStore.active_indices()).
        # Rows append at the tail on admission; departures flip
        # ``_row_alive`` and mark the table stale, and ``_compact()``
        # squeezes the dead rows out of every column in one ordered
        # gather.  Keeping the live population contiguous turns the
        # delivery path's random slot gathers into sequential passes.
        cap = _GROW
        self._n = 0  # rows in use, including dead ones awaiting compaction
        self._row_chan = np.empty(cap, dtype=np.int64)
        self._row_chunk = np.empty(cap, dtype=np.int64)
        # Delivery cell ``chan * J + chunk`` of a downloading row, the
        # spill bin ``C * J`` of a held or dead row; maintained where the
        # chunk changes, together with the downloaders per cell, so the
        # per-step solve reads both directly.
        self._row_cell = np.empty(cap, dtype=np.int64)
        self._cell_count = np.zeros(C * J, dtype=np.int64)
        self._row_received = np.empty(cap)
        self._row_enter = np.empty(cap)
        self._row_unsmooth = np.empty(cap)
        self._row_hold_until = np.empty(cap)
        self._row_hold_next = np.empty(cap, dtype=np.int64)
        self._row_hold_from = np.empty(cap, dtype=np.int64)
        self._row_alive = np.empty(cap, dtype=bool)
        self._stale = False
        # Number of rows in the between-chunks hold state; the release
        # scan is skipped entirely when zero.
        self._hold_count = 0
        self._total_active = 0

    # ------------------------------------------------------------------
    # External control surface (mirrors VoDSimulator)
    # ------------------------------------------------------------------
    def set_cloud_capacity(self, channel_id: int, capacity: np.ndarray) -> None:
        """Install the provisioned per-chunk cloud bandwidth (bytes/s)."""
        try:
            local = self._local_of[channel_id]
        except KeyError:
            raise KeyError(f"unknown channel {channel_id}") from None
        cap = np.asarray(capacity, dtype=float)
        if cap.shape != (self.num_chunks,):
            raise ValueError(
                f"capacity must have {self.num_chunks} entries, got {cap.shape}"
            )
        if np.any(cap < 0):
            raise ValueError("capacities must be nonnegative")
        self._capacity[local] = cap
        self._capacity_sums[channel_id] = cap.sum()
        self._capacity_dirty = True

    def total_provisioned(self) -> float:
        if self._capacity_dirty:
            # Deferred, but the same ascending-channel reduction the
            # per-channel kernel performs on every install.
            self._provisioned_total = float(sum(self._capacity_sums.values()))
            self._capacity_dirty = False
        return self._provisioned_total

    def population(self) -> int:
        return int(self._total_active)

    def channel_populations(self) -> Dict[int, int]:
        count = self._compact()
        counts = np.bincount(
            self._row_chan[:count], minlength=self.num_channels
        )
        return dict(zip(self.channel_ids.tolist(), counts.tolist()))

    def close_interval(self) -> List[IntervalStats]:
        """This interval's per-channel statistics; starts the next one.

        Plays :meth:`TrackingServer.close_interval` for the owned
        channels (ascending id order), with arrays copied out so the
        report owns its data.  The admission-side statistics come from
        the trace entries admitted since the last close: counts are
        integer bincounts (exact in any grouping), and each channel's
        upload sum adds its entries left to right from 0.0 in trace
        order — the tracker's element-by-element accumulation.
        """
        C, J = self.num_channels, self.num_chunks
        moves = (
            np.bincount(
                np.concatenate(self._iv_moves or [np.empty(0, np.int64)]),
                minlength=C * J * (J + 1),
            )
            .reshape(C, J, J + 1)
            .astype(float)
        )
        self._iv_moves = []
        sl = slice(self._iv_cursor, self._cursor)
        self._iv_cursor = self._cursor
        locals_ = self._trace_channel[sl]
        arrivals = np.bincount(locals_, minlength=C).tolist()
        starts = (
            np.bincount(locals_ * J + self._trace_start[sl], minlength=C * J)
            .reshape(C, J)
            .astype(float)
        )
        order = self._channel_order(locals_)
        uploads = self._trace_upload[sl][order].tolist()
        out: List[IntervalStats] = []
        i0 = 0
        for i, cid in enumerate(self.channel_ids.tolist()):
            i1 = i0 + arrivals[i]
            out.append(
                IntervalStats(
                    channel_id=cid,
                    interval_seconds=self.interval_seconds,
                    arrivals=arrivals[i],
                    transition_counts=moves[i, :, :J].copy(),
                    departure_counts=moves[i, :, J].copy(),
                    upload_capacity_sum=sum(uploads[i0:i1], 0.0),
                    upload_capacity_samples=arrivals[i],
                    start_chunk_counts=starts[i].copy(),
                )
            )
            i0 = i1
        return out

    # ------------------------------------------------------------------
    # Slot pool
    # ------------------------------------------------------------------
    _ROW_ARRAYS = (
        "_row_chan",
        "_row_chunk",
        "_row_cell",
        "_row_received",
        "_row_enter",
        "_row_unsmooth",
        "_row_hold_until",
        "_row_hold_next",
        "_row_hold_from",
        "_row_alive",
    )

    def _channel_order(self, locals_: np.ndarray) -> np.ndarray:
        """Stable channel-major order of rows with these local channels."""
        return np.argsort(
            locals_.astype(self._chan_key, copy=False), kind="stable"
        )

    def _grow(self, need: int) -> None:
        cap = self._row_chan.size
        while cap < need:
            cap += max(_GROW, cap // 2)
        n = self._n
        for name in self._ROW_ARRAYS:
            arr = getattr(self, name)
            fresh = np.empty(cap, dtype=arr.dtype)
            fresh[:n] = arr[:n]
            setattr(self, name, fresh)

    def _compact(self) -> int:
        """Squeeze dead rows out of every column; returns the live count.

        The ascending gather preserves admission order — the ordering
        contract — and runs sequentially over each column.
        """
        if self._stale:
            n = self._n
            idx = np.flatnonzero(self._row_alive[:n])
            m = idx.size
            for name in self._ROW_ARRAYS:
                arr = getattr(self, name)
                # Fancy-index reads copy before the assignment writes,
                # so compacting into the same buffer is safe.
                arr[:m] = arr[idx]
            self._n = m
            self._stale = False
        return self._n

    # ------------------------------------------------------------------
    # Step phases
    # ------------------------------------------------------------------
    def _admit_arrivals(self) -> int:
        end = int(
            np.searchsorted(self._trace_times, self.now, side="right")
        )
        count = end - self._cursor
        if count == 0:
            return 0
        sl = slice(self._cursor, end)
        self._cursor = end
        locals_ = self._trace_channel[sl]
        starts = self._trace_start[sl]
        # Appending in trace order at the tail keeps every channel's
        # subsequence in arrival order, even while dead rows await
        # compaction (relative order of live rows is stable).
        n0 = self._n
        n1 = n0 + count
        if n1 > self._row_chan.size:
            self._grow(n1)
        self._row_chan[n0:n1] = locals_
        self._row_chunk[n0:n1] = starts
        cells = locals_ * self.num_chunks + starts
        self._row_cell[n0:n1] = cells
        self._cell_count += np.bincount(cells, minlength=self._spill)
        self._row_received[n0:n1] = 0.0
        self._row_enter[n0:n1] = self.now
        self._row_unsmooth[n0:n1] = -np.inf
        self._row_hold_until[n0:n1] = np.inf
        self._row_alive[n0:n1] = True
        self._n = n1
        self._total_active += count
        self.arrivals += count
        return count

    def _apply_transitions(
        self,
        rows: np.ndarray,
        locals_: np.ndarray,
        finished: np.ndarray,
        nxt: np.ndarray,
    ) -> None:
        """Fused depart-or-move application (hold releases and immediate
        completions) at the given row positions.  All effects are
        order-free across channels: integer counters, and move codes
        that close_interval() counts (integer counts are exact in any
        grouping)."""
        J = self.num_chunks
        departing = nxt < 0
        self._iv_moves.append(
            (locals_ * J + finished) * (J + 1) + np.where(departing, J, nxt)
        )
        dep_count = int(np.count_nonzero(departing))
        if dep_count:
            d_rows = rows[departing]
            self._row_alive[d_rows] = False
            # Dead rows spill out of delivery and must not look held:
            # the release scan runs before the next compaction can drop
            # them.
            self._row_chunk[d_rows] = -1
            self._row_cell[d_rows] = self._spill
            self._row_received[d_rows] = -np.inf
            self._row_hold_until[d_rows] = np.inf
            self._total_active -= dep_count
            self.departures += dep_count
            self._stale = True
        if dep_count < rows.size:
            moving = ~departing
            m_rows = rows[moving]
            m_locals = locals_[moving]
            m_next = nxt[moving]
            self._row_chunk[m_rows] = m_next
            cells = m_locals * J + m_next
            self._row_cell[m_rows] = cells
            self._cell_count += np.bincount(cells, minlength=self._spill)
            self._row_received[m_rows] = 0.0
            self._row_enter[m_rows] = self.now
            self._row_hold_until[m_rows] = np.inf

    def _release_holds(self) -> int:
        if self._hold_count == 0:
            return 0
        # Rows that are not held carry hold_until = +inf.
        rows = np.flatnonzero(
            self._row_hold_until[: self._n] <= self.now + 1e-9
        )
        if rows.size == 0:
            return 0
        self._hold_count -= int(rows.size)
        self._apply_transitions(
            rows,
            self._row_chan[rows],
            self._row_hold_from[rows],
            self._row_hold_next[rows],
        )
        return int(rows.size)

    def _deliver_and_complete(self) -> Tuple[List[float], List[float], int]:
        """One fused delivery solve + download advance + completions.

        Returns per-channel (served, shortfall) lists in ascending
        channel order plus the completion event count.
        """
        C, J = self.num_channels, self.num_chunks
        spill = self._spill
        dt = self.config.dt
        now = self.now
        user_cap = self.config.user_rate_cap
        n = self._n
        counts = self._cell_count.reshape(C, J).astype(float)
        rates = np.zeros(spill + 1)
        rates_cj = rates[:spill].reshape(C, J)
        busy = counts > 0
        rates_cj[busy] = np.minimum(
            user_cap, self._capacity[busy] / counts[busy]
        )
        # Row-wise sums over a C-contiguous matrix are bitwise equal to
        # each channel's own 1-D pairwise .sum().
        served = (rates_cj * counts).sum(axis=1)
        demand = counts.sum(axis=1) * user_cap
        shortfall = np.maximum(0.0, demand - served)

        events = 0
        if n:
            # ``(rates * dt)[cell]`` is elementwise ``rates[local, chunk]
            # * dt`` for downloading rows; held and dead rows gather the
            # spill bin's trailing 0.0 onto their -inf, so the threshold
            # test alone selects the completions.  Rows are unique, so
            # the in-place column add matches per-row updates.
            cell = self._row_cell[:n]
            received = self._row_received[:n]
            received += (rates * dt)[cell]
            comp = np.flatnonzero(received >= self._complete_at)
            if comp.size:
                # Every completing row leaves its cell: to the next
                # chunk's (counted back in by _apply_transitions) or to
                # the spill bin.
                self._cell_count -= np.bincount(
                    cell[comp], minlength=spill
                )
                comp_local = self._row_chan[comp]
                finished = self._row_chunk[comp]
                if comp.size > 1:
                    # Channel-major, arrival order within each channel —
                    # the order the per-channel kernel consumes its
                    # behaviour stream and sojourn accumulator in.
                    order = self._channel_order(comp_local)
                    comp = comp[order]
                    comp_local = comp_local[order]
                    finished = finished[order]
                events = int(comp.size)
                enters = self._row_enter[comp]
                sojourns = now - enters
                smooth = sojourns <= self._smooth_after
                unsmooth = ~smooth
                if unsmooth.any():
                    self._row_unsmooth[comp[unsmooth]] = now
                nxt = self._sample_transitions(
                    comp_local, finished, sojourns, smooth
                )
                release = enters + np.maximum(self.t0, sojourns)
                immediate = release <= now + 1e-9
                hold = ~immediate
                if hold.any():
                    h_rows = comp[hold]
                    self._row_chunk[h_rows] = HOLDING
                    self._row_cell[h_rows] = spill
                    self._row_received[h_rows] = -np.inf
                    self._row_hold_until[h_rows] = release[hold]
                    self._row_hold_next[h_rows] = nxt[hold]
                    self._row_hold_from[h_rows] = finished[hold]
                    self._hold_count += int(h_rows.size)
                if immediate.any():
                    self._apply_transitions(
                        comp[immediate],
                        comp_local[immediate],
                        finished[immediate],
                        nxt[immediate],
                    )
        return served.tolist(), shortfall.tolist(), events

    def _sample_transitions(
        self,
        comp_local: np.ndarray,
        finished: np.ndarray,
        sojourns: np.ndarray,
        smooth: np.ndarray,
    ) -> np.ndarray:
        """Quality recording + behaviour draws, channel by channel.

        ``comp_local`` is ascending (completions come out channel-major),
        so each contiguous segment is one channel's completions in
        arrival order — the exact order (and batch size) in which the
        per-channel kernel consumes that channel's behaviour stream,
        including its ``<= 4`` scalar path.
        """
        n = comp_local.size
        bounds = (np.flatnonzero(np.diff(comp_local)) + 1).tolist()
        starts = [0, *bounds]
        ends = [*bounds, n]
        chans = comp_local[starts].tolist()
        quality = self.quality
        gens = self._gens
        u = np.empty(n)
        sojourn_acc = quality.sojourn_sum
        for c, i0, i1 in zip(chans, starts, ends):
            # One block draw per channel; numpy bit generators consume
            # the stream identically for n scalar draws and one
            # ``random(n)`` (the RandomStreams.batch invariant), so this
            # also covers the per-channel kernel's <= 4 scalar path.
            gens[c].random(out=u[i0:i1])
            if i1 - i0 <= 4:
                # The scalar path accumulates sojourns one Python float
                # at a time; the batch path adds one pairwise np.sum per
                # segment (``np.add.reduce`` is what np.sum calls;
                # ``np.add.reduceat`` is NOT bitwise equal to it).  Both
                # orders are part of the parity contract (``sum(seq,
                # start)`` adds left to right from start).
                sojourn_acc = sum(sojourns[i0:i1].tolist(), sojourn_acc)
            else:
                sojourn_acc += float(np.add.reduce(sojourns[i0:i1]))
        quality.sojourn_sum = sojourn_acc
        quality.total_retrievals += n
        quality.unsmooth_retrievals += n - int(np.count_nonzero(smooth))
        return self._next_chunks(finished, u)

    def _next_chunks(self, finished: np.ndarray, u: np.ndarray) -> np.ndarray:
        """The next chunk (``-1``: depart) after each finished chunk for
        its behaviour draw ``u``: the scalar rule, tabulated (see
        ``_next_table``)."""
        r = np.searchsorted(self._next_cuts, u, side="right")
        return self._next_table[finished * self._next_width + r]

    def _sample_quality(self) -> None:
        n = self._n
        total_users = self._total_active
        if total_users:
            window = self.config.quality_window
            ok = self._row_unsmooth[:n] <= self.now - window
            overdue = (self._row_chunk[:n] >= 0) & (
                self.now - self._row_enter[:n] > self._overdue_after
            )
            ok &= ~overdue
            if self._stale:
                ok &= self._row_alive[:n]
            # The report only ships totals, and integer sums are exact in
            # any grouping — identical to summing per-channel counts.
            total_smooth = int(np.count_nonzero(ok))
        else:
            total_smooth = 0
        self.quality.samples.append(
            _QualitySampleLite(self.now, total_smooth, total_users)
        )

    # ------------------------------------------------------------------
    # Core loop
    # ------------------------------------------------------------------
    def step(self) -> BandwidthSample:
        """Advance one ``dt`` step; returns the step's bandwidth sample."""
        if self._n > self._total_active + (self._total_active >> 1) + _GROW:
            # Dead rows are masked out of every per-step pass, so
            # compaction is pure housekeeping — amortize it: only squeeze
            # once the table carries >50% garbage.
            self._compact()
        self.now += self.config.dt
        events = self._admit_arrivals()
        events += self._release_holds()
        served, shortfall_per, completions = self._deliver_and_complete()
        events += completions

        # Sequential Python adds in ascending channel order — the
        # per-channel kernel's step-total accumulation order
        # (``sum(seq, 0.0)`` adds left to right from 0.0).
        cloud_used = sum(served, 0.0)
        shortfall = sum(shortfall_per, 0.0)
        peer_used = 0.0
        provisioned = self.total_provisioned()
        self.bandwidth.append(
            self.now, cloud_used, peer_used, provisioned, shortfall
        )
        self.steps += 1
        if events > self.peak_step_events:
            self.peak_step_events = events

        if self.now + 1e-9 >= self._next_quality_sample:
            self._sample_quality()
            self._next_quality_sample += self.config.quality_sample_interval
        return BandwidthSample(
            time=self.now,
            cloud_used=cloud_used,
            peer_used=peer_used,
            provisioned=provisioned,
            shortfall=shortfall,
        )

    def advance_to(self, until: float) -> None:
        """Run steps until the clock reaches (or passes) ``until``."""
        if until < self.now:
            raise ValueError(
                f"cannot advance backwards to {until} < {self.now}"
            )
        while self.now + 1e-9 < until:
            self.step()
