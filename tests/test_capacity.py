"""Tests for repro.queueing.capacity: the equilibrium server solver."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.queueing.capacity import (
    CapacityModel,
    required_servers,
    size_queues,
    solve_channel_capacity,
)
from repro.queueing.erlang import (
    mmm_expected_number_in_system,
    mmm_expected_sojourn_time,
)
from repro.queueing.transitions import sequential_matrix, uniform_jump_matrix

# The paper's physical constants.
R = 10e6 / 8.0  # 10 Mbps
r = 50_000.0  # 50 KB/s
T0 = 300.0  # 5 minutes


@pytest.fixture
def model():
    return CapacityModel(streaming_rate=r, chunk_duration=T0, vm_bandwidth=R)


class TestCapacityModel:
    def test_paper_constants(self, model):
        assert model.chunk_size_bytes == pytest.approx(15e6)  # 15 MB
        # mu = R / (r T0): 1.25 MB/s / 15 MB = 1/12 per second.
        assert model.service_rate == pytest.approx(1.25e6 / 15e6)
        assert model.mean_download_time == pytest.approx(12.0)
        assert model.mean_download_time < T0

    def test_requires_r_greater_than_streaming_rate(self):
        with pytest.raises(ValueError, match="exceed"):
            CapacityModel(streaming_rate=100.0, chunk_duration=10.0, vm_bandwidth=100.0)

    def test_rejects_nonpositive(self):
        with pytest.raises(ValueError):
            CapacityModel(streaming_rate=0, chunk_duration=1, vm_bandwidth=10)
        with pytest.raises(ValueError):
            CapacityModel(streaming_rate=1, chunk_duration=0, vm_bandwidth=10)


class TestRequiredServers:
    def test_zero_arrivals_need_nothing(self):
        assert required_servers(0.0, 0.5, 10.0) == 0

    def test_result_meets_target(self):
        lam, mu, t = 2.0, 1.0 / 12.0, 300.0
        m = required_servers(lam, mu, t)
        assert mmm_expected_sojourn_time(m, lam, mu) <= t + 1e-9

    def test_result_is_minimal(self):
        lam, mu, t = 2.0, 1.0 / 12.0, 300.0
        m = required_servers(lam, mu, t)
        offered = lam / mu
        if m - 1 > offered:  # m-1 stable: must violate the target
            assert (
                mmm_expected_number_in_system(m - 1, offered) > lam * t
            )

    def test_stability(self):
        lam, mu = 5.0, 0.1
        m = required_servers(lam, mu, 30.0)
        assert m > lam / mu

    def test_infeasible_target_rejected(self):
        # Target below the bare service time is impossible.
        with pytest.raises(ValueError, match="no server count"):
            required_servers(1.0, 0.1, 5.0)

    def test_tight_target_needs_more_servers(self):
        lam, mu = 3.0, 0.2
        loose = required_servers(lam, mu, 30.0)
        tight = required_servers(lam, mu, 5.5)
        assert tight >= loose

    def test_monotone_in_arrival_rate(self):
        mu, t = 1.0 / 12.0, 300.0
        counts = [required_servers(lam, mu, t) for lam in (0.1, 0.5, 2.0, 8.0)]
        assert all(x <= y for x, y in zip(counts, counts[1:]))

    @given(
        lam=st.floats(min_value=0.001, max_value=50.0),
        slack=st.floats(min_value=1.05, max_value=30.0),
    )
    @settings(max_examples=50, deadline=None)
    def test_target_always_met(self, lam, slack):
        mu = 1.0 / 12.0
        target = slack * (1.0 / mu)
        m = required_servers(lam, mu, target)
        assert m >= 1
        assert mmm_expected_sojourn_time(m, lam, mu) <= target + 1e-6


class TestChannelCapacity:
    def test_end_to_end_sequential(self, model):
        p = sequential_matrix(6, continue_prob=0.85)
        result = solve_channel_capacity(model, p, external_rate=0.5, alpha=1.0)
        # Arrival rates decay along the chain; so should server counts.
        assert np.all(np.diff(result.traffic.arrival_rates) <= 1e-12)
        assert np.all(np.diff(result.servers) <= 0)
        assert result.total_servers >= 1

    def test_sojourn_target_met_everywhere(self, model):
        p = uniform_jump_matrix(8, 0.6, 0.2)
        result = solve_channel_capacity(model, p, external_rate=1.0)
        mu = model.service_rate
        for lam, m in zip(result.traffic.arrival_rates, result.servers):
            if lam > 0:
                assert mmm_expected_sojourn_time(m, lam, mu) <= T0 + 1e-6

    def test_expected_in_system_bounded_by_littles_law(self, model):
        p = uniform_jump_matrix(5, 0.6, 0.2)
        result = solve_channel_capacity(model, p, external_rate=2.0)
        target = result.traffic.arrival_rates * T0
        assert np.all(result.expected_in_system <= target + 1e-6)

    def test_bandwidth_is_r_times_servers(self, model):
        p = uniform_jump_matrix(4, 0.5, 0.2)
        result = solve_channel_capacity(model, p, external_rate=1.0)
        assert result.upload_bandwidth == pytest.approx(R * result.servers)
        assert result.cloud_demand == pytest.approx(result.upload_bandwidth)

    def test_zero_rate_channel(self, model):
        p = sequential_matrix(4, 0.8)
        result = solve_channel_capacity(model, p, external_rate=0.0)
        assert result.total_servers == 0
        assert result.total_bandwidth == 0.0

    def test_population_scales_with_rate(self, model):
        p = uniform_jump_matrix(5, 0.6, 0.2)
        small = solve_channel_capacity(model, p, external_rate=0.2)
        large = solve_channel_capacity(model, p, external_rate=2.0)
        assert large.expected_population > small.expected_population

    def test_explicit_external_rates(self, model):
        p = sequential_matrix(3, 0.5)
        ext = np.array([1.0, 0.0, 0.5])
        result = solve_channel_capacity(
            model, p, external_rate=0.0, external_rates=ext
        )
        assert result.traffic.external_rates == pytest.approx(ext)


# ----------------------------------------------------------------------
# Batched (stacked) solve: byte parity with per-matrix calls
# ----------------------------------------------------------------------
def scalar_search(lam, mu, t, max_servers=10_000_000):
    """The one-queue linear Erlang-B search, kept as an oracle for the
    lock-step sizing: (m, E[n] at m) for one queue."""
    if lam == 0.0:
        return 0, 0.0
    a = lam / mu
    target = lam * t
    m = max(1, int(np.floor(a)) + 1)
    b = 1.0
    for k in range(1, m):
        b = a * b / (k + a * b)
    while m <= max_servers:
        b = a * b / (m + a * b)
        c = m * b / (m - a * (1.0 - b))
        in_system = a + c * a / (m - a)
        if in_system <= target + 1e-12:
            assert in_system == mmm_expected_number_in_system(m, a)
            return m, in_system
        m += 1
    raise ValueError("max_servers")


@st.composite
def channel_stacks(draw):
    """(matrices (N, J, J), rates (N,), alphas (N,)): substochastic
    matrices with departure mass, some idle channels."""
    j = draw(st.integers(1, 6))
    n = draw(st.integers(1, 5))
    unit = st.floats(0.0, 1.0, allow_nan=False)
    raw = np.array(draw(st.lists(unit, min_size=n * j * j, max_size=n * j * j)))
    leave = np.array(draw(st.lists(
        st.floats(0.01, 3.0), min_size=n * j, max_size=n * j
    )))
    mats = raw.reshape(n, j, j)
    mats = mats / (mats.sum(axis=2) + leave.reshape(n, j))[..., None]
    rates = np.array(draw(st.lists(
        st.one_of(st.just(0.0), st.floats(1e-4, 20.0)), min_size=n, max_size=n
    )))
    alphas = np.array(draw(st.lists(unit, min_size=n, max_size=n)))
    return mats, rates, alphas


MODEL = CapacityModel(streaming_rate=r, chunk_duration=T0, vm_bandwidth=R)


def assert_same_bytes(a, b):
    a, b = np.asarray(a), np.asarray(b)
    assert a.dtype == b.dtype and a.shape == b.shape
    assert a.tobytes() == b.tobytes()


class TestBatchedSolve:
    @given(stack=channel_stacks())
    @settings(max_examples=60, deadline=None)
    def test_batch_equals_per_matrix_calls(self, stack):
        model = MODEL
        mats, rates, alphas = stack
        batch = solve_channel_capacity(model, mats, rates, alpha=alphas)
        assert batch.servers.shape == rates.shape + (mats.shape[1],)
        for k in range(len(rates)):
            one = solve_channel_capacity(
                model, mats[k], float(rates[k]), alpha=float(alphas[k])
            )
            assert_same_bytes(batch.arrival_rates[k], one.arrival_rates)
            assert_same_bytes(batch.servers[k], one.servers)
            assert_same_bytes(batch.expected_in_system[k], one.expected_in_system)
            sliced = batch.channel(k)
            assert_same_bytes(sliced.servers, one.servers)
            assert_same_bytes(sliced.cloud_demand, one.cloud_demand)
            assert_same_bytes(sliced.little_target, one.little_target)

    @given(stack=channel_stacks())
    @settings(max_examples=40, deadline=None)
    def test_lock_step_matches_scalar_search(self, stack):
        model = MODEL
        mats, rates, alphas = stack
        batch = solve_channel_capacity(model, mats, rates, alpha=alphas)
        mu, t0 = model.service_rate, model.chunk_duration
        for lam, m, n in zip(batch.arrival_rates.ravel(),
                             batch.servers.ravel(),
                             batch.expected_in_system.ravel()):
            want_m, want_n = scalar_search(float(lam), mu, t0)
            assert m == want_m
            assert_same_bytes(np.float64(n), np.float64(want_n))

    @given(lams=st.lists(
        st.one_of(st.just(0.0), st.floats(1e-3, 200.0)), min_size=1, max_size=12
    ))
    @settings(max_examples=40, deadline=None)
    def test_size_queues_matches_scalar_search(self, lams):
        mu, t = 1.0 / 12.0, 300.0
        servers, in_system = size_queues(np.array(lams), mu, t)
        for lam, m, n in zip(lams, servers, in_system):
            want_m, want_n = scalar_search(lam, mu, t)
            assert m == want_m == required_servers(lam, mu, t)
            assert_same_bytes(np.float64(n), np.float64(want_n))

    def test_zero_rate_and_single_chunk_channels(self, model):
        mats = np.array([[[0.0]], [[0.5]], [[0.0]]])
        rates = np.array([0.0, 0.7, 1.5])
        batch = solve_channel_capacity(model, mats, rates, alpha=1.0)
        assert batch.servers[0].tolist() == [0]
        assert batch.expected_in_system[0].tolist() == [0.0]
        for k in range(3):
            one = solve_channel_capacity(model, mats[k], float(rates[k]))
            assert_same_bytes(batch.servers[k], one.servers)
            assert_same_bytes(batch.expected_in_system[k], one.expected_in_system)
        # A stack whose every channel is idle sizes nothing.
        idle = solve_channel_capacity(
            model, np.stack([sequential_matrix(3)] * 2), np.zeros(2)
        )
        assert idle.servers.sum() == 0 and idle.servers.dtype == int

    def test_eigvals_fallback_in_a_stack(self, model):
        # Row 0 sums to exactly 1 (inf-norm bound 1), but the matrix is
        # nilpotent: spectral radius 0, so the fallback accepts it.
        nilpotent = np.array([[0.0, 1.0], [0.0, 0.0]])
        ordinary = sequential_matrix(2, 0.5)
        stack = np.stack([ordinary, nilpotent])
        batch = solve_channel_capacity(model, stack, np.array([0.4, 0.4]))
        one = solve_channel_capacity(model, nilpotent, 0.4)
        assert_same_bytes(batch.servers[1], one.servers)
        assert_same_bytes(batch.arrival_rates[1], one.arrival_rates)
        # A stochastic matrix (radius 1) is rejected, naming its index.
        cyclic = np.array([[0.0, 1.0], [1.0, 0.0]])
        with pytest.raises(ValueError, match="matrix 1: spectral radius"):
            solve_channel_capacity(
                model, np.stack([ordinary, cyclic]), np.array([0.4, 0.4])
            )
        with pytest.raises(ValueError, match="depart"):
            solve_channel_capacity(model, cyclic, 0.4)

    def test_max_servers_error(self):
        mu, t = 1.0 / 12.0, 300.0
        # a = 50 needs at least 51 servers.
        with pytest.raises(ValueError, match="max_servers=10"):
            required_servers(50 * mu, mu, t, max_servers=10)
        with pytest.raises(ValueError, match="max_servers=10"):
            size_queues(np.array([0.1 * mu, 50 * mu]), mu, t, max_servers=10)
        # The bound is inclusive: 51 servers fit under max_servers=51.
        assert required_servers(50 * mu, mu, t, max_servers=51) == 51
        # A target that forces the search past the first stable count
        # fails inside the lock-step loop rather than up front.
        with pytest.raises(ValueError, match="max_servers=2"):
            size_queues(np.array([1.5 * mu]), mu, 1.0 / mu + 1e-3, max_servers=2)

    def test_scalar_errors_kept(self):
        with pytest.raises(ValueError, match="arrival rate"):
            required_servers(-1.0, 0.5, 10.0)
        with pytest.raises(ValueError, match="service rate"):
            required_servers(1.0, 0.0, 10.0)
        with pytest.raises(ValueError, match="target sojourn"):
            required_servers(1.0, 0.5, 0.0)
        with pytest.raises(ValueError, match="finite"):
            size_queues(np.array([np.nan]), 0.5, 10.0)
