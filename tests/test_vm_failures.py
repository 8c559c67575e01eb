"""Failure injection: VM boot failures and the scheduler's retry path."""

from dataclasses import dataclass
from typing import Optional

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.cloud.cluster import VirtualClusterSpec
from repro.cloud.vm import VMPool, VMState
from repro.sim.engine import Simulator
from repro.sim.events import Event
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
# State counters and parity with the object-list pool
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
        walked = sum(1 for code in pool.states.tolist() if code == state)
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


@dataclass
class _ObjectVM:
    state: VMState = VMState.OFF
    boot_event: Optional[Event] = None


class ObjectListPool:
    """The pool as it was before the slot-state array: one object per VM,
    walked in slot order (its per-state counters are read by walking the
    objects).  Only the stale-boot fix is applied: a shutdown cancels the
    VM's pending boot completion."""

    def __init__(self, spec, simulator=None, *, boot_seconds=25.0,
                 shutdown_seconds=10.0, boot_failure_rate=0.0, rng=None):
        self.spec = spec
        self.simulator = simulator
        self.boot_seconds = boot_seconds
        self.shutdown_seconds = shutdown_seconds
        self.boot_failure_rate = boot_failure_rate
        self._rng = rng
        self.vms = [_ObjectVM() for _ in range(spec.max_vms)]
        self.launches = 0
        self.shutdowns = 0
        self.boot_failures = 0

    def count(self, state):
        return sum(1 for vm in self.vms if vm.state is state)

    @property
    def active(self):
        return self.count(VMState.RUNNING) + self.count(VMState.BOOTING)

    def _boot_fails(self):
        if self.boot_failure_rate <= 0.0:
            return False
        if self._rng is None:
            raise ValueError("boot_failure_rate > 0 requires an rng")
        return bool(self._rng.random() < self.boot_failure_rate)

    def launch(self, count):
        count = min(count, self.count(VMState.OFF))
        instant = self.simulator is None
        started = 0
        for vm in self.vms:
            if started >= count:
                break
            if vm.state is not VMState.OFF:
                continue
            started += 1
            if instant and self._boot_fails():
                self.boot_failures += 1
                continue
            if instant:
                vm.state = VMState.RUNNING
            else:
                vm.state = VMState.BOOTING
                vm.boot_event = self.simulator.schedule_in(
                    self.boot_seconds, self._boot_completion(vm)
                )
        self.launches += started
        return started

    def _boot_completion(self, vm):
        def complete():
            if vm.state is VMState.BOOTING:
                if self._boot_fails():
                    self.boot_failures += 1
                    vm.state = VMState.OFF
                else:
                    vm.state = VMState.RUNNING

        return complete

    def shutdown(self, count):
        target = (
            VMState.OFF if self.simulator is None else VMState.SHUTTING_DOWN
        )
        stopped = 0
        for state in (VMState.BOOTING, VMState.RUNNING):
            quota = min(count - stopped, self.count(state))
            taken = 0
            for vm in self.vms:
                if taken >= quota:
                    break
                if vm.state is not state:
                    continue
                taken += 1
                if state is VMState.BOOTING and self.simulator is not None:
                    self.simulator.cancel(vm.boot_event)  # the fix
                vm.state = target
                if self.simulator is not None:
                    self.simulator.schedule_in(
                        self.shutdown_seconds, self._shutdown_completion(vm)
                    )
            stopped += taken
        self.shutdowns += stopped
        return stopped

    def _shutdown_completion(self, vm):
        def complete():
            if vm.state is VMState.SHUTTING_DOWN:
                vm.state = VMState.OFF

        return complete

    def scale_to(self, target):
        target = min(target, self.spec.max_vms)
        diff = target - self.active
        if diff > 0:
            return self.launch(diff)
        if diff < 0:
            return -self.shutdown(-diff)
        return 0


class TestParityWithObjectListPool:
    @given(
        operations=OPERATIONS,
        timed=st.booleans(),
        failure_rate=st.sampled_from([0.0, 0.3, 0.8]),
        seed=st.integers(0, 2**16),
    )
    @settings(max_examples=120, deadline=None)
    def test_same_outcome_after_every_operation(
        self, operations, timed, failure_rate, seed
    ):
        sim, oracle_sim = (Simulator(), Simulator()) if timed else (None, None)
        rng, oracle_rng = make_rng(seed, "boot"), make_rng(seed, "boot")
        pool = VMPool(
            spec(max_vms=12), sim, boot_failure_rate=failure_rate, rng=rng
        )
        oracle = ObjectListPool(
            spec(max_vms=12), oracle_sim,
            boot_failure_rate=failure_rate, rng=oracle_rng,
        )
        for name, amount in operations:
            if name == "wait":
                if sim is not None:
                    sim.run(until=sim.now + amount * 5.0)
                    oracle_sim.run(until=oracle_sim.now + amount * 5.0)
            else:
                assert getattr(pool, name)(amount) == \
                    getattr(oracle, name)(amount)
            assert pool.states.tolist() == [vm.state for vm in oracle.vms]
            for state in VMState:
                assert pool.count(state) == oracle.count(state), state
            assert (pool.launches, pool.shutdowns, pool.boot_failures) == (
                oracle.launches, oracle.shutdowns, oracle.boot_failures
            )
            assert rng.bit_generator.state == oracle_rng.bit_generator.state
            if sim is not None:
                assert sim.events_processed == oracle_sim.events_processed
