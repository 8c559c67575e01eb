"""Cost-balanced shard placement and worker-side shard building.

The sharded engine places shards on workers longest-expected-cost first
(:func:`repro.sim.shard.place_shards`), and each worker builds its own
shards inside its first epoch.  Neither may change a byte of output:
reports merge in shard order whatever worker wrote them.  These tests
pin the placement's shape and its byte-invariance, including across a
suspend → checkpoint → resume at a different worker count.
"""

import numpy as np
import pytest

import repro.sim.shard as shard_mod
from repro.api import EngineConfig, open_run, resume
from repro.service.artifact import artifact_bytes, result_payload, sha256_hex
from repro.workload.catalog import (
    catalog_config,
    channel_shapes,
    expected_sessions,
    geo_catalog_config,
    shard_channel_ids,
)


def flash_catalog(**overrides):
    knobs = dict(
        num_channels=12, chunks_per_channel=4, horizon_hours=0.5,
        arrival_rate=1.5, num_shards=6, dt=60.0, interval_minutes=10.0,
        flash_fraction=0.4, flash_hour=0.2, flash_width_hours=0.1,
        flash_amplitude=5.0,
    )
    knobs.update(overrides)
    return catalog_config(**knobs)


def geo_catalog():
    return geo_catalog_config(
        topology="us-eu", num_channels=4, chunks_per_channel=3,
        horizon_hours=0.5, arrival_rate=0.8, num_shards=5, dt=60.0,
        interval_minutes=10.0, flash_fraction=0.5, flash_hour=0.2,
    )


def artifact_sha(config, workers, *, epochs_before_checkpoint=None,
                 resume_workers=None, tmp_path=None):
    """sha256 of the run's canonical artifact; optionally suspended and
    checkpointed after some epochs, then resumed under another worker
    count."""
    engine_config = EngineConfig(spec=config, workers=workers)
    if epochs_before_checkpoint is None:
        with open_run(engine_config) as run:
            result = run.result()
    else:
        path = tmp_path / "run.ckpt"
        with open_run(engine_config) as run:
            for _ in range(epochs_before_checkpoint):
                run.advance()
            run.suspend()
            run.checkpoint(path)
        with resume(path, workers=resume_workers) as run:
            result = run.result()
    return sha256_hex(artifact_bytes(result_payload(engine_config.kind, result)))


class TestPlacement:
    @pytest.mark.parametrize("config", [flash_catalog(), geo_catalog()],
                             ids=["catalog", "geo"])
    def test_every_shard_placed_exactly_once(self, config):
        shards = config.effective_shards
        for jobs in range(1, shards + 1):
            placement = shard_mod.place_shards(config, jobs)
            assert len(placement) == jobs
            assert all(placement), "a worker without shards"
            flat = [i for owned in placement for i in owned]
            assert sorted(flat) == list(range(shards))
            assert all(owned == sorted(owned) for owned in placement)

    def test_depends_only_on_config_and_jobs(self):
        config = flash_catalog()
        first = shard_mod.place_shards(config, 2)
        assert shard_mod.place_shards(flash_catalog(), 2) == first
        assert shard_mod.place_shards(
            config, 2, channel_shapes(config)
        ) == first
        assert shard_mod.place_shards(flash_catalog(seed=99), 3) == \
            shard_mod.place_shards(flash_catalog(seed=99), 3)

    def test_longest_expected_cost_first(self, monkeypatch):
        """LPT by hand: one channel per shard, fixed expected costs."""
        config = flash_catalog(num_channels=6, num_shards=6)
        costs = [5.0, 1.0, 4.0, 2.0, 3.0, 3.0]
        monkeypatch.setattr(
            shard_mod, "expected_sessions",
            lambda config, shapes: np.asarray(costs),
        )
        # Order 0, 2, 4, 5, 3, 1; each to the lighter worker:
        # w0 = 5, w1 = 4 -> w1 = 7 -> w0 = 8 -> w1 = 9 -> w0 = 9.
        assert shard_mod.place_shards(config, 2) == [[0, 1, 5], [2, 3, 4]]
        # Equal loads: fewer shards, then the lower worker index, wins.
        assert shard_mod.place_shards(config, 3) == [[0, 1], [2, 3], [4, 5]]

    def test_loads_within_one_shard_of_each_other(self):
        config = flash_catalog()
        sessions = expected_sessions(config, channel_shapes(config))
        costs = [
            float(sessions[shard_channel_ids(config, i)].sum())
            for i in range(config.effective_shards)
        ]
        for jobs in (2, 3):
            placement = shard_mod.place_shards(config, jobs)
            loads = [sum(costs[i] for i in owned) for owned in placement]
            assert max(loads) - min(loads) <= max(costs)

    def test_zipf_head_no_longer_doubles_up(self):
        """Round-robin over shards put the Zipf head's shards 0 and 2 on
        one worker; cost placement lowers the busiest worker's load."""
        config = catalog_config(
            num_channels=200, chunks_per_channel=4, num_shards=8,
            arrival_rate=170.0, horizon_hours=1.0,
        )
        sessions = expected_sessions(config, channel_shapes(config))
        costs = [
            float(sessions[shard_channel_ids(config, i)].sum())
            for i in range(8)
        ]
        placement = shard_mod.place_shards(config, 2)
        lpt = max(sum(costs[i] for i in owned) for owned in placement)
        round_robin = max(sum(costs[w::2]) for w in range(2))
        assert lpt < round_robin

    def test_expected_sessions_track_the_trace(self):
        """The cost model is the trace's rate integral: summed over a
        catalog it lands near the realized session count."""
        config = flash_catalog(horizon_hours=2.0)
        shapes = channel_shapes(config)
        expected = float(expected_sessions(config, shapes).sum())
        realized = sum(
            shard_mod.build_shard_trace_arrays(
                config, shard_channel_ids(config, i),
                shapes=[shapes[c] for c in shard_channel_ids(config, i)],
            ).num_sessions
            for i in range(config.effective_shards)
        )
        assert abs(realized - expected) <= 0.1 * expected


class TestPlacementIsUnobservable:
    def test_artifact_identical_for_any_worker_count(self):
        config = flash_catalog()
        shas = {workers: artifact_sha(config, workers) for workers in (1, 2, 3)}
        assert len(set(shas.values())) == 1, shas

    def test_artifact_identical_under_reversed_placement(self, monkeypatch):
        config = flash_catalog()
        reference = artifact_sha(config, 1)
        place = shard_mod.place_shards

        def reversed_placement(config, jobs, shapes=None):
            return [
                list(reversed(owned))
                for owned in reversed(place(config, jobs, shapes))
            ]

        monkeypatch.setattr(shard_mod, "place_shards", reversed_placement)
        assert artifact_sha(config, 2) == reference
        assert artifact_sha(config, 3) == reference

    @pytest.mark.parametrize("config", [flash_catalog(), geo_catalog()],
                             ids=["catalog", "geo"])
    @pytest.mark.parametrize("workers,resume_workers,epochs", [
        (2, 3, 1),  # live shards gathered from workers, re-placed
        (3, 1, 1),  # restored into the serial path
        (2, 1, 0),  # checkpoint before any shard was built
        (1, 2, 2),  # serial shards handed to workers
    ])
    def test_suspend_resume_at_another_worker_count(
        self, config, workers, resume_workers, epochs, tmp_path
    ):
        reference = artifact_sha(config, 1)
        assert artifact_sha(
            config, workers, epochs_before_checkpoint=epochs,
            resume_workers=resume_workers, tmp_path=tmp_path,
        ) == reference
