"""Tests for repro.core.demand: tracker stats -> cloud demand."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.demand import DemandEstimator, aggregate_demand
from repro.p2p.contribution import cloud_supplement, solve_p2p_channel_capacity
from repro.queueing.capacity import CapacityModel, solve_channel_capacity
from repro.queueing.transitions import (
    empirical_transition_matrix,
    sequential_matrix,
    uniform_jump_matrix,
)
from repro.vod.tracker import TrackingServer

R = 10e6 / 8.0
r = 50_000.0
T0 = 300.0


@pytest.fixture
def model():
    return CapacityModel(streaming_rate=r, chunk_duration=T0, vm_bandwidth=R)


@pytest.fixture
def tracker():
    return TrackingServer(2, [4, 4], interval_seconds=3600.0)


def populate(tracker, channel=0, arrivals=360, upload=2 * r):
    for _ in range(arrivals):
        tracker.record_arrival(channel, 0, upload)
    for _ in range(100):
        tracker.record_transition(channel, 0, 1)
        tracker.record_transition(channel, 1, 2)
        tracker.record_departure(channel, 3)


class TestClientServer:
    def test_demand_from_observed_stats(self, model, tracker):
        populate(tracker)
        stats = tracker.close_interval()
        estimator = DemandEstimator(model, "client-server")
        demand = estimator.estimate_channel(stats[0])
        assert demand.arrival_rate == pytest.approx(0.1)
        assert demand.total_cloud_demand > 0
        assert demand.cloud_demand.shape == (4,)
        assert np.all(demand.peer_bandwidth == 0)
        # Cloud demand is R times the server counts.
        assert demand.cloud_demand == pytest.approx(R * demand.servers)

    def test_idle_channel_zero_demand(self, model, tracker):
        stats = tracker.close_interval()
        estimator = DemandEstimator(model, "client-server")
        demand = estimator.estimate_channel(stats[1])
        assert demand.total_cloud_demand == 0.0
        assert demand.total_servers == 0

    def test_rate_override(self, model, tracker):
        stats = tracker.close_interval()
        estimator = DemandEstimator(model, "client-server")
        demand = estimator.estimate_channel(stats[0], arrival_rate=0.5)
        assert demand.arrival_rate == 0.5
        assert demand.total_cloud_demand > 0

    def test_min_arrival_rate_floor(self, model, tracker):
        stats = tracker.close_interval()
        estimator = DemandEstimator(
            model, "client-server", min_arrival_rate=0.01
        )
        demand = estimator.estimate_channel(stats[0])
        assert demand.arrival_rate == 0.01
        assert demand.total_servers > 0

    def test_prior_matrix_used_without_observations(self, model, tracker):
        prior = sequential_matrix(4, continue_prob=0.9)
        estimator = DemandEstimator(
            model, "client-server", prior_matrices={0: prior}
        )
        stats = tracker.close_interval()
        demand = estimator.estimate_channel(stats[0], arrival_rate=0.2)
        # With a sequential prior and alpha=1 (no observed starts), the
        # demand decays along the chain.
        assert demand.servers[0] >= demand.servers[-1]


class TestP2P:
    def test_peer_bandwidth_reduces_cloud(self, model, tracker):
        populate(tracker, upload=2 * r)
        stats = tracker.close_interval()
        cs = DemandEstimator(model, "client-server").estimate_channel(stats[0])
        p2p = DemandEstimator(model, "p2p").estimate_channel(stats[0])
        assert p2p.total_cloud_demand < cs.total_cloud_demand
        assert p2p.peer_bandwidth.sum() > 0

    def test_peer_upload_override(self, model, tracker):
        populate(tracker, upload=0.0)
        stats = tracker.close_interval()
        estimator = DemandEstimator(model, "p2p")
        none = estimator.estimate_channel(stats[0])
        lots = estimator.estimate_channel(stats[0], peer_upload=5 * r)
        assert lots.total_cloud_demand <= none.total_cloud_demand

    def test_invalid_mode_rejected(self, model):
        with pytest.raises(ValueError):
            DemandEstimator(model, "hybrid")


class TestAggregate:
    def test_estimate_all_and_aggregate(self, model, tracker):
        populate(tracker, channel=0)
        populate(tracker, channel=1, arrivals=36)
        stats = tracker.close_interval()
        estimator = DemandEstimator(model, "client-server")
        demands = estimator.estimate_all(stats)
        merged = aggregate_demand(demands)
        assert set(merged) == {(c, i) for c in range(2) for i in range(4)}
        assert merged[(0, 0)] == pytest.approx(demands[0].cloud_demand[0])

    def test_estimate_all_rate_overrides(self, model, tracker):
        stats = tracker.close_interval()
        estimator = DemandEstimator(model, "client-server")
        demands = estimator.estimate_all(
            stats, arrival_rates={0: 0.3, 1: 0.0}
        )
        assert demands[0].arrival_rate == 0.3
        assert demands[1].arrival_rate == 0.0

    def test_chunk_demands_keys(self, model, tracker):
        populate(tracker)
        stats = tracker.close_interval()
        demand = DemandEstimator(model, "client-server").estimate_channel(stats[0])
        keys = list(demand.chunk_demands())
        assert keys == [(0, 0), (0, 1), (0, 2), (0, 3)]


# ----------------------------------------------------------------------
# Batched estimate_all: parity with a per-channel oracle
# ----------------------------------------------------------------------
def per_channel_oracle(estimator, stats, rate_override=None, peer_upload=None):
    """One channel's demand the way the per-channel estimator computed
    it: its own empirical matrix and its own capacity solve."""
    rate = stats.arrival_rate if rate_override is None else rate_override
    rate = max(rate, estimator.min_arrival_rate)
    matrix = empirical_transition_matrix(
        stats.transition_counts, stats.departure_counts,
        prior=estimator.prior_matrices.get(
            stats.channel_id, estimator.default_prior
        ),
    )
    j = matrix.shape[0]
    if rate <= 0:
        zeros = np.zeros(j)
        return (np.zeros(j, dtype=int), zeros, zeros, zeros)
    if estimator.mode == "client-server":
        result = solve_channel_capacity(
            estimator.model, matrix, rate, alpha=stats.observed_alpha
        )
        return (result.servers, result.cloud_demand,
                np.zeros_like(result.cloud_demand), result.expected_in_system)
    upload = peer_upload if peer_upload is not None else stats.mean_upload_capacity
    p2p = solve_p2p_channel_capacity(
        estimator.model, matrix, rate, peer_upload=max(0.0, upload),
        alpha=stats.observed_alpha, coownership=estimator.coownership,
    )
    gamma = estimator.peer_discount * p2p.peer_bandwidth
    delta = cloud_supplement(
        p2p.servers, gamma, estimator.model.vm_bandwidth,
        estimator.model.streaming_rate, in_system=p2p.capacity.little_target,
    )
    return (p2p.servers, delta, gamma, p2p.capacity.little_target)


@st.composite
def mixed_catalogs(draw):
    """A tracker interval over channels of mixed chunk counts, with
    random observations (some channels idle) and some rate overrides."""
    sizes = draw(st.lists(st.integers(1, 5), min_size=1, max_size=6))
    tracker = TrackingServer(len(sizes), sizes, interval_seconds=3600.0)
    overrides = {}
    for channel, j in enumerate(sizes):
        for _ in range(draw(st.integers(0, 40))):
            tracker.record_arrival(
                channel, draw(st.integers(0, j - 1)),
                draw(st.floats(0.0, 3 * r)),
            )
        for _ in range(draw(st.integers(0, 30))):
            src = draw(st.integers(0, j - 1))
            if draw(st.booleans()):
                tracker.record_transition(channel, src, draw(st.integers(0, j - 1)))
            else:
                tracker.record_departure(channel, src)
        if draw(st.booleans()):
            overrides[channel] = draw(
                st.one_of(st.just(0.0), st.floats(1e-3, 0.5))
            )
    return tracker.close_interval(), overrides


def demand_tuple(demand):
    return (demand.servers, demand.cloud_demand, demand.peer_bandwidth,
            demand.expected_in_system)


def assert_same_bytes(a, b):
    a, b = np.asarray(a), np.asarray(b)
    assert a.dtype == b.dtype and a.shape == b.shape
    assert a.tobytes() == b.tobytes()


MODEL = CapacityModel(streaming_rate=r, chunk_duration=T0, vm_bandwidth=R)


class TestBatchedEstimateAll:
    @given(catalog=mixed_catalogs(), mode=st.sampled_from(["client-server", "p2p"]))
    @settings(max_examples=40, deadline=None)
    def test_matches_per_channel_oracle(self, catalog, mode):
        stats, overrides = catalog
        estimator = DemandEstimator(MODEL, mode, min_arrival_rate=0.0)
        demands = estimator.estimate_all(stats, arrival_rates=overrides)
        assert [d.channel_id for d in demands] == [s.channel_id for s in stats]
        for demand, channel_stats in zip(demands, stats):
            want = per_channel_oracle(
                estimator, channel_stats, overrides.get(channel_stats.channel_id)
            )
            for got, expected in zip(demand_tuple(demand), want):
                assert_same_bytes(got, expected)
            single = estimator.estimate_channel(
                channel_stats,
                arrival_rate=overrides.get(channel_stats.channel_id),
            )
            for got, expected in zip(demand_tuple(single), want):
                assert_same_bytes(got, expected)

    def test_one_solve_per_chunk_count(self, monkeypatch):
        import repro.core.demand as demand_mod

        calls = []
        real = demand_mod.solve_channel_capacity

        def counting(model, matrices, *args, **kwargs):
            calls.append(np.asarray(matrices).shape)
            return real(model, matrices, *args, **kwargs)

        monkeypatch.setattr(demand_mod, "solve_channel_capacity", counting)
        tracker = TrackingServer(5, [3, 5, 3, 4, 5], interval_seconds=3600.0)
        stats = tracker.close_interval()
        rates = {c: 0.1 * (c + 1) for c in range(5)}
        for mode in ("client-server", "p2p"):
            calls.clear()
            demands = DemandEstimator(MODEL, mode).estimate_all(
                stats, arrival_rates=rates
            )
            assert [d.channel_id for d in demands] == [0, 1, 2, 3, 4]
            assert [d.servers.size for d in demands] == [3, 5, 3, 4, 5]
            assert sorted(calls) == [(1, 4, 4), (2, 3, 3), (2, 5, 5)]

    def test_p2p_uses_precomputed_capacity(self):
        p = sequential_matrix(4, 0.8)
        capacity = solve_channel_capacity(MODEL, np.stack([p, p]), np.array([0.2, 0.6]))
        direct = solve_p2p_channel_capacity(MODEL, p, 0.6, peer_upload=r)
        reused = solve_p2p_channel_capacity(
            MODEL, p, 0.6, peer_upload=r, capacity=capacity.channel(1)
        )
        assert_same_bytes(reused.cloud_demand, direct.cloud_demand)
        assert_same_bytes(reused.peer_bandwidth, direct.peer_bandwidth)

    def test_per_channel_priors_stacked(self):
        tracker = TrackingServer(2, [3, 3], interval_seconds=3600.0)
        stats = tracker.close_interval()
        priors = {0: sequential_matrix(3, 0.5), 1: uniform_jump_matrix(3, 0.5, 0.2)}
        estimator = DemandEstimator(MODEL, "client-server", prior_matrices=priors)
        demands = estimator.estimate_all(stats, arrival_rates={0: 0.3, 1: 0.3})
        for demand, channel_stats in zip(demands, stats):
            want = per_channel_oracle(estimator, channel_stats, 0.3)
            for got, expected in zip(demand_tuple(demand), want):
                assert_same_bytes(got, expected)
        assert demands[0].servers.tolist() != demands[1].servers.tolist()
