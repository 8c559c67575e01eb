"""Failure injection: VM boot failures and the scheduler's retry path."""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.cloud.cluster import VirtualClusterSpec
from repro.cloud.vm import VMPool, VMState
from repro.sim.engine import Simulator
from repro.sim.rng import make_rng


def spec(max_vms=20):
    return VirtualClusterSpec("standard", 0.6, 0.45, max_vms, 1.25e6)


class TestBootFailures:
    def test_instant_mode_failures_counted(self):
        pool = VMPool(
            spec(), boot_failure_rate=0.5, rng=make_rng(1, "boot")
        )
        pool.launch(20)
        assert pool.running + pool.boot_failures == 20
        assert 3 <= pool.boot_failures <= 17  # ~Binomial(20, .5)

    def test_timed_mode_failed_vm_returns_to_off(self):
        sim = Simulator()
        pool = VMPool(
            spec(max_vms=1), sim,
            boot_failure_rate=0.999999, rng=make_rng(2, "boot"),
        )
        pool.launch(1)
        sim.run(until=30.0)
        assert pool.running == 0
        assert pool.boot_failures == 1
        assert pool.available_to_launch == 1  # reusable after failure

    def test_scale_to_retries_after_failures(self):
        """The hourly scheduler converges despite flaky boots: repeated
        scale_to calls eventually reach the target."""
        pool = VMPool(
            spec(max_vms=10), boot_failure_rate=0.3, rng=make_rng(3, "boot")
        )
        for _ in range(50):
            pool.scale_to(5)
            if pool.running >= 5:
                break
        assert pool.running == 5

    def test_zero_rate_never_fails(self):
        pool = VMPool(spec(), boot_failure_rate=0.0)
        pool.launch(20)
        assert pool.boot_failures == 0
        assert pool.running == 20

    def test_failure_rate_requires_rng(self):
        pool = VMPool(spec(), boot_failure_rate=0.5)
        with pytest.raises(ValueError, match="rng"):
            pool.launch(1)

    def test_invalid_rate_rejected(self):
        with pytest.raises(ValueError):
            VMPool(spec(), boot_failure_rate=1.0)
        with pytest.raises(ValueError):
            VMPool(spec(), boot_failure_rate=-0.1)

    def test_failures_deterministic_with_seed(self):
        counts = []
        for _ in range(2):
            pool = VMPool(
                spec(), boot_failure_rate=0.4, rng=make_rng(9, "boot")
            )
            pool.launch(20)
            counts.append(pool.boot_failures)
        assert counts[0] == counts[1]


# ----------------------------------------------------------------------
# O(1) state counters
# ----------------------------------------------------------------------
OPERATIONS = st.lists(
    st.tuples(
        st.sampled_from(["launch", "shutdown", "scale_to", "wait"]),
        st.integers(0, 14),
    ),
    max_size=40,
)


def assert_counters_match_walk(pool):
    for state in VMState:
        walked = sum(1 for vm in pool.vms if vm.state is state)
        assert pool.count(state) == walked, state
    assert pool.running == pool.count(VMState.RUNNING)
    assert pool.booting == pool.count(VMState.BOOTING)
    assert pool.active == pool.running + pool.booting
    assert pool.available_to_launch == pool.count(VMState.OFF)


class TestStateCounters:
    @given(
        operations=OPERATIONS,
        timed=st.booleans(),
        failure_rate=st.sampled_from([0.0, 0.3, 0.8]),
        seed=st.integers(0, 2**16),
    )
    @settings(max_examples=80, deadline=None)
    def test_counters_equal_a_walk_after_every_operation(
        self, operations, timed, failure_rate, seed
    ):
        sim = Simulator() if timed else None
        pool = VMPool(
            spec(max_vms=12), sim,
            boot_failure_rate=failure_rate, rng=make_rng(seed, "boot"),
        )
        assert_counters_match_walk(pool)
        for name, amount in operations:
            if name == "wait":
                if sim is not None:  # let boots and shutdowns complete
                    sim.run(until=sim.now + amount * 5.0)
            else:
                getattr(pool, name)(amount)
            assert_counters_match_walk(pool)
