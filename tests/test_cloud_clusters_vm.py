"""Tests for repro.cloud.cluster and repro.cloud.vm."""

import pytest

from repro.cloud.cluster import NFSClusterSpec, VirtualClusterSpec
from repro.cloud.vm import DEFAULT_BOOT_SECONDS, VMPool, VMState
from repro.sim.engine import Simulator


def make_vm_spec(name="standard", max_vms=5, price=0.45, utility=0.6):
    return VirtualClusterSpec(
        name=name,
        utility=utility,
        price_per_hour=price,
        max_vms=max_vms,
        vm_bandwidth=10e6 / 8.0,
    )


def make_nfs_spec(name="standard", utility=0.8, price=1.11e-4, gb=20.0):
    return NFSClusterSpec(
        name=name,
        utility=utility,
        price_per_gb_hour=price,
        capacity_bytes=gb * 1024**3,
    )


class TestSpecs:
    def test_marginal_utility(self):
        spec = make_vm_spec(price=0.5, utility=1.0)
        assert spec.marginal_utility_per_dollar == pytest.approx(2.0)

    def test_paper_table2_ordering(self):
        """With Table II prices, 'standard' has the best utility/dollar."""
        standard = make_vm_spec("standard", price=0.45, utility=0.6)
        medium = make_vm_spec("medium", price=0.70, utility=0.8)
        advanced = make_vm_spec("advanced", price=0.80, utility=1.0)
        ratios = [
            s.marginal_utility_per_dollar for s in (standard, advanced, medium)
        ]
        assert ratios == sorted(ratios, reverse=True)

    def test_nfs_price_per_byte(self):
        spec = make_nfs_spec(price=1.11e-4)
        assert spec.price_per_byte_hour == pytest.approx(1.11e-4 / 1024**3)

    def test_chunk_slots(self):
        spec = make_nfs_spec(gb=20.0)
        # 15 MB chunks in 20 GiB.
        assert spec.chunk_slots(15e6) == int(20 * 1024**3 // 15e6)

    def test_invalid_specs_rejected(self):
        with pytest.raises(ValueError):
            make_vm_spec(price=0.0)
        with pytest.raises(ValueError):
            VirtualClusterSpec("x", 1.0, 1.0, -1, 100.0)
        with pytest.raises(ValueError):
            make_nfs_spec(utility=0.0)
        with pytest.raises(ValueError):
            make_nfs_spec(gb=20.0).chunk_slots(0)


class TestInstantPool:
    def test_launch_instant(self):
        pool = VMPool(make_vm_spec(max_vms=3))
        assert pool.launch(2) == 2
        assert pool.running == 2
        assert pool.available_to_launch == 1

    def test_launch_capped_by_capacity(self):
        pool = VMPool(make_vm_spec(max_vms=3))
        assert pool.launch(10) == 3
        assert pool.running == 3

    def test_shutdown(self):
        pool = VMPool(make_vm_spec(max_vms=3))
        pool.launch(3)
        assert pool.shutdown(2) == 2
        assert pool.running == 1
        assert pool.available_to_launch == 2

    def test_scale_to(self):
        pool = VMPool(make_vm_spec(max_vms=10))
        assert pool.scale_to(4) == 4
        assert pool.scale_to(4) == 0
        assert pool.scale_to(1) == -3
        assert pool.active == 1

    def test_scale_to_clamps_to_capacity(self):
        pool = VMPool(make_vm_spec(max_vms=3))
        pool.scale_to(100)
        assert pool.active == 3

    def test_running_bandwidth(self):
        spec = make_vm_spec(max_vms=4)
        pool = VMPool(spec)
        pool.launch(3)
        assert pool.running_bandwidth() == pytest.approx(3 * spec.vm_bandwidth)

    def test_negative_counts_rejected(self):
        pool = VMPool(make_vm_spec())
        with pytest.raises(ValueError):
            pool.launch(-1)
        with pytest.raises(ValueError):
            pool.shutdown(-1)
        with pytest.raises(ValueError):
            pool.scale_to(-1)

    def test_launch_shutdown_counters(self):
        pool = VMPool(make_vm_spec(max_vms=5))
        pool.launch(3)
        pool.shutdown(1)
        assert pool.launches == 3
        assert pool.shutdowns == 1


class TestTimedPool:
    def test_boot_takes_25_seconds(self):
        """Paper Section VI-C: 'around 25 seconds to turn on a VM'."""
        sim = Simulator()
        pool = VMPool(make_vm_spec(max_vms=2), sim)
        pool.launch(1)
        assert pool.booting == 1
        assert pool.running == 0
        sim.run(until=DEFAULT_BOOT_SECONDS - 1)
        assert pool.running == 0
        sim.run(until=DEFAULT_BOOT_SECONDS + 1)
        assert pool.running == 1
        assert pool.booting == 0

    def test_parallel_boots(self):
        """VMs launch in parallel, so N boots still take ~25 s total."""
        sim = Simulator()
        pool = VMPool(make_vm_spec(max_vms=50), sim)
        pool.launch(50)
        sim.run(until=26.0)
        assert pool.running == 50

    def test_shutdown_faster_than_boot(self):
        sim = Simulator()
        pool = VMPool(make_vm_spec(max_vms=1), sim, boot_seconds=25, shutdown_seconds=10)
        pool.launch(1)
        sim.run(until=30.0)
        pool.shutdown(1)
        sim.run(until=35.0)  # before the 10 s shutdown (30 + 10)
        assert pool.count(VMState.SHUTTING_DOWN) == 1
        sim.run(until=41.0)
        assert pool.available_to_launch == 1

    def test_shutdown_prefers_booting_vms(self):
        sim = Simulator()
        pool = VMPool(make_vm_spec(max_vms=3), sim)
        pool.launch(2)
        sim.run(until=30.0)  # both running
        pool.launch(1)  # one booting
        pool.shutdown(1)
        # The booting VM should have been reclaimed, not a running one.
        assert pool.running == 2

    def test_relaunch_ignores_a_cancelled_boot(self):
        """A VM shut down while booting and relaunched before its first
        boot would have finished still takes a full boot from the
        relaunch: the first boot's completion no longer fires."""
        sim = Simulator()
        pool = VMPool(make_vm_spec(max_vms=1), sim)
        pool.launch(1)  # boot due at t=25
        sim.run(until=5.0)
        pool.shutdown(1)  # off at t=15
        sim.run(until=20.0)
        assert pool.launch(1) == 1  # boot due at t=45
        sim.run(until=26.0)
        assert (pool.running, pool.booting) == (0, 1)
        sim.run(until=44.0)
        assert (pool.running, pool.booting) == (0, 1)
        sim.run(until=46.0)
        assert (pool.running, pool.booting) == (1, 0)
