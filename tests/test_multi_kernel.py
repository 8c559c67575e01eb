"""Byte-identity of the fused structure-of-arrays catalog kernel.

``ChannelShard`` routes uniform client-server catalogs onto
:class:`~repro.vod.multi.MultiChannelSimulator` — one structure-of-arrays
pass per phase over every user of every channel in the shard — while P2P
and heterogeneous catalogs keep the per-channel ``VoDSimulator``.  The
contract (docs/performance.md) is that the two kernels are byte-identical
for any configuration both accept: identical per-channel RNG stream
consumption order and identical float-reduction orders, hence identical
engine results bit for bit.

These tests force the per-channel kernel through the routing predicate
(``channels_are_uniform``) and compare whole engine runs bitwise against
the fused kernel, across the workload variants that stress different
code paths (zipf skew, pure diurnal, flash crowds, the geo control
plane), plus the kernel's internal row-table invariants.
"""

import numpy as np
import pytest

import repro.sim.shard as shard_mod
from repro.sim.shard import make_engine
from repro.vod.multi import MultiChannelSimulator
from repro.workload.catalog import catalog_config, geo_catalog_config

RESULT_ARRAYS = (
    "times", "cloud_used", "peer_used", "provisioned", "shortfall",
    "populations", "quality_times", "quality",
)
RESULT_SCALARS = (
    "arrivals", "departures", "final_population", "peak_population",
    "total_retrievals", "unsmooth_retrievals", "mean_sojourn",
    "steps", "peak_step_events",
)


def small_config(**overrides):
    params = dict(
        num_channels=8,
        chunks_per_channel=4,
        horizon_hours=0.5,
        arrival_rate=3.0,
        num_shards=4,
        dt=60.0,
        interval_minutes=10.0,
        phase_jitter_hours=6.0,
        flash_fraction=0.5,
        flash_hour=0.25,
        flash_width_hours=0.25,
        flash_amplitude=4.0,
    )
    params.update(overrides)
    return catalog_config(**params)


def run_engine(config, jobs=1, force_per_channel=False):
    """Run the catalog once; optionally pin the per-channel kernel.

    The routing predicate is patched in :mod:`repro.sim.shard`'s
    namespace, where ``ChannelShard`` looks it up; forked workers
    inherit the patch, so it holds for any worker count.
    """
    original = shard_mod.channels_are_uniform
    if force_per_channel:
        shard_mod.channels_are_uniform = lambda channels: False
    try:
        with make_engine(config, jobs=jobs) as engine:
            return engine.run()
    finally:
        shard_mod.channels_are_uniform = original


def assert_results_identical(a, b):
    for name in RESULT_ARRAYS:
        assert getattr(a, name).tobytes() == getattr(b, name).tobytes(), name
    for name in RESULT_SCALARS:
        assert getattr(a, name) == getattr(b, name), name
    assert a.channel_populations == b.channel_populations
    assert a.epoch_times == b.epoch_times
    assert a.vm_cost_series == b.vm_cost_series
    assert len(a.decisions) == len(b.decisions)
    for k, (da, db) in enumerate(zip(a.decisions, b.decisions)):
        assert da.per_channel_capacity.keys() == db.per_channel_capacity.keys()
        for cid, cap in da.per_channel_capacity.items():
            assert cap.tobytes() == \
                db.per_channel_capacity[cid].tobytes(), (k, cid)


class TestFusedKernelParity:
    """Fused SoA kernel vs the per-channel kernel, bit for bit."""

    @pytest.mark.parametrize("variant,overrides", [
        ("zipf", {}),
        ("diurnal", dict(phase_jitter_hours=9.0, flash_fraction=0.0)),
        ("flash", dict(flash_fraction=0.4, flash_amplitude=6.0)),
    ])
    def test_catalog_variants(self, variant, overrides):
        config = small_config(**overrides)
        reference = run_engine(config, force_per_channel=True)
        fused = run_engine(config)
        assert_results_identical(reference, fused)

    def test_geo_catalog(self):
        config = geo_catalog_config(
            num_channels=4, chunks_per_channel=4, horizon_hours=0.5,
            arrival_rate=3.0, num_shards=4, dt=60.0, interval_minutes=10.0,
            topology="us-eu",
        )
        reference = run_engine(config, force_per_channel=True)
        fused = run_engine(config)
        assert_results_identical(reference, fused)
        assert reference.epoch_discounts == fused.epoch_discounts
        assert reference.epoch_remote_fractions == fused.epoch_remote_fractions

    def test_fused_kernel_actually_selected(self):
        """Guard the routing: the parity above must compare two kernels."""
        config = small_config()
        shard = shard_mod.ChannelShard(config, 0)
        assert isinstance(shard.sim, MultiChannelSimulator)

    def test_workers_do_not_change_fused_results(self):
        """jobs=1 vs an uneven jobs=3 split over the shm epoch path."""
        config = small_config()
        assert_results_identical(
            run_engine(config, jobs=1), run_engine(config, jobs=3)
        )


class TestRowTableInvariants:
    """The kernel's dense row table under churn (docs/performance.md)."""

    def _stepped(self, steps=40):
        config = small_config()
        shard = shard_mod.ChannelShard(config, 0)
        sim = shard.sim
        assert isinstance(sim, MultiChannelSimulator)
        for _ in range(steps):
            sim.step()
        return sim

    def test_live_rows_match_population(self):
        sim = self._stepped()
        n = sim._n
        alive = int(np.count_nonzero(sim._row_alive[:n]))
        assert alive == sim.population()
        assert n >= alive  # dead rows linger until the lazy compaction

    def test_compaction_preserves_order_and_drops_dead(self):
        sim = self._stepped()
        n = sim._n
        live_before = [
            (int(sim._row_chan[i]), float(sim._row_enter[i]),
             float(sim._row_received[i]))
            for i in range(n) if sim._row_alive[i]
        ]
        count = sim._compact()
        assert count == len(live_before)
        assert bool(sim._row_alive[:count].all())
        live_after = [
            (int(sim._row_chan[i]), float(sim._row_enter[i]),
             float(sim._row_received[i]))
            for i in range(count)
        ]
        assert live_after == live_before  # stable gather, admission order

    def test_dead_rows_never_look_held(self):
        """Departed rows must not re-enter the hold-release scan."""
        from repro.vod.multi import HOLDING

        sim = self._stepped()
        n = sim._n
        dead = ~sim._row_alive[:n]
        assert not np.any(sim._row_chunk[:n][dead] == HOLDING)


class TestRowTableSentinels:
    """The delivery-cell column and the received / hold-deadline
    sentinels hold after every step (docs/performance.md)."""

    def test_columns_after_every_step(self):
        from repro.vod.multi import HOLDING

        sim = shard_mod.ChannelShard(small_config(), 0).sim
        C, J = sim.num_channels, sim.num_chunks
        seen_held = seen_dead = 0
        for capacity in (3e6, 3e7):  # scarce, then ample bandwidth
            for cid in sim.channel_ids.tolist():
                sim.set_cloud_capacity(cid, np.full(J, capacity))
            for _ in range(15):
                sim.step()
                n = sim._n
                alive = sim._row_alive[:n]
                chunk = sim._row_chunk[:n]
                held = alive & (chunk == HOLDING)
                downloading = alive & (chunk >= 0)
                assert np.array_equal(held | downloading, alive)
                cell = sim._row_cell[:n]
                expect = np.where(
                    downloading, sim._row_chan[:n] * J + chunk, C * J
                )
                assert np.array_equal(cell, expect)
                received = sim._row_received[:n]
                assert np.array_equal(received == -np.inf, ~downloading)
                assert np.all(received[downloading] >= 0.0)
                assert np.array_equal(
                    np.isfinite(sim._row_hold_until[:n]), held
                )
                assert np.array_equal(
                    sim._cell_count,
                    np.bincount(cell, minlength=C * J + 1)[: C * J],
                )
                assert sim._hold_count == int(np.count_nonzero(held))
                seen_held += sim._hold_count
                seen_dead += int(np.count_nonzero(~alive))
        assert seen_held > 0 and seen_dead > 0

    def test_next_chunk_table_matches_the_scalar_rule(self):
        sim = shard_mod.ChannelShard(small_config(), 0).sim
        cumulative = np.cumsum(sim.channels[0].behaviour, axis=1)
        cuts = sim._next_cuts
        draws = np.concatenate([
            np.random.default_rng(3).random(2000),
            cuts, np.nextafter(cuts, -1.0), np.nextafter(cuts, 2.0),
        ])
        draws = draws[(draws >= 0.0) & (draws < 1.0)]
        for j in range(sim.num_chunks):
            got = sim._next_chunks(np.full(draws.size, j), draws)
            cum = cumulative[j]
            want = [
                -1 if u >= cum[-1] else int((cum <= u).sum())
                for u in draws.tolist()
            ]
            assert got.tolist() == want


class _PerStepAccumulator:
    """The interval statistics accumulated step by step, as the kernel
    did before they moved to ``close_interval``: arrivals, upload
    samples and start chunks counted per admission batch, each
    channel's upload sum chained left to right per batch, and
    transitions/departures counted per applied batch."""

    def __init__(self, sim):
        C, J = sim.num_channels, sim.num_chunks
        self.C, self.J = C, J
        self.arrivals = np.zeros(C, dtype=np.int64)
        self.samples = np.zeros(C, dtype=np.int64)
        self.upload_sum = [0.0] * C
        self.starts = np.zeros((C, J))
        self.transitions = np.zeros((C, J, J))
        self.departures = np.zeros((C, J))

    def admitted(self, locals_, starts, uploads):
        if locals_.size > 1:
            order = np.argsort(locals_, kind="stable")
            locals_, starts, uploads = (
                locals_[order], starts[order], uploads[order]
            )
        uniq, first, counts = np.unique(
            locals_, return_index=True, return_counts=True
        )
        for c, i0, k in zip(uniq.tolist(), first.tolist(), counts.tolist()):
            self.upload_sum[c] = sum(
                uploads[i0 : i0 + k].tolist(), self.upload_sum[c]
            )
        self.arrivals[uniq] += counts
        self.samples[uniq] += counts
        flat = self.starts.ravel()
        flat += np.bincount(locals_ * self.J + starts, minlength=flat.size)

    def applied(self, locals_, finished, nxt):
        J = self.J
        departing = nxt < 0
        dep = self.departures.ravel()
        dep += np.bincount(
            locals_[departing] * J + finished[departing], minlength=dep.size
        )
        moving = ~departing
        tr = self.transitions.ravel()
        tr += np.bincount(
            (locals_[moving] * J + finished[moving]) * J + nxt[moving],
            minlength=tr.size,
        )


def test_deferred_interval_stats_match_per_step_accumulation(monkeypatch):
    """close_interval's statistics equal the old per-step accumulation
    bit for bit, over several intervals of a flash catalog."""
    sim = shard_mod.ChannelShard(small_config(), 0).sim
    for cid in sim.channel_ids.tolist():
        sim.set_cloud_capacity(cid, np.full(sim.num_chunks, 3e7))
    shadow = _PerStepAccumulator(sim)
    admit = MultiChannelSimulator._admit_arrivals
    apply = MultiChannelSimulator._apply_transitions

    def admit_and_record(self):
        before = self._cursor
        count = admit(self)
        sl = slice(before, self._cursor)
        if count:
            shadow.admitted(
                self._trace_channel[sl], self._trace_start[sl],
                self._trace_upload[sl],
            )
        return count

    def apply_and_record(self, rows, locals_, finished, nxt):
        shadow.applied(locals_, finished, nxt)
        return apply(self, rows, locals_, finished, nxt)

    monkeypatch.setattr(MultiChannelSimulator, "_admit_arrivals",
                        admit_and_record)
    monkeypatch.setattr(MultiChannelSimulator, "_apply_transitions",
                        apply_and_record)
    for _ in range(3):
        for _ in range(10):
            sim.step()
        stats = sim.close_interval()
        assert [s.channel_id for s in stats] == sim.channel_ids.tolist()
        for i, s in enumerate(stats):
            assert s.arrivals == int(shadow.arrivals[i])
            assert s.upload_capacity_samples == int(shadow.samples[i])
            assert s.upload_capacity_sum.hex() == \
                float(shadow.upload_sum[i]).hex()
            assert s.start_chunk_counts.tobytes() == \
                shadow.starts[i].tobytes()
            assert s.transition_counts.tobytes() == \
                shadow.transitions[i].tobytes()
            assert s.departure_counts.tobytes() == \
                shadow.departures[i].tobytes()
        assert sum(s.arrivals for s in stats) > 0
        assert sum(float(s.departure_counts.sum()) for s in stats) > 0
        shadow = _PerStepAccumulator(sim)
