"""Tests for repro.cloud.billing, scheduler, broker and monitor."""

import pytest

from repro.cloud.billing import BillingMeter
from repro.cloud.broker import (
    Broker,
    NegotiationError,
    RequestMonitor,
    ResourceRequest,
    SLANegotiator,
)
from repro.cloud.cluster import NFSClusterSpec, VirtualClusterSpec
from repro.cloud.scheduler import CloudFacility, NFSScheduler


def vm_specs():
    return [
        VirtualClusterSpec("standard", 0.6, 0.45, 10, 1.25e6),
        VirtualClusterSpec("advanced", 1.0, 0.80, 5, 1.25e6),
    ]


def nfs_specs():
    return [
        NFSClusterSpec("standard", 0.8, 1.11e-4, 1.0 * 1024**3),
        NFSClusterSpec("high", 1.0, 2.08e-4, 1.0 * 1024**3),
    ]


def make_facility(**kwargs):
    return CloudFacility(vm_specs(), nfs_specs(), **kwargs)


class TestBillingMeter:
    def test_vm_hours_accrue(self):
        meter = BillingMeter(
            {s.name: s for s in vm_specs()}, {s.name: s for s in nfs_specs()}
        )
        meter.record_vm_usage(0.0, {"standard": 4})
        meter.record_vm_usage(1800.0, {"standard": 2})  # half an hour later
        report = meter.report(3600.0)
        # 4 VMs for 0.5 h + 2 VMs for 0.5 h = 3 VM-hours.
        assert report.vm_hours["standard"] == pytest.approx(3.0)
        assert report.vm_cost == pytest.approx(3.0 * 0.45)

    def test_storage_cost(self):
        meter = BillingMeter(
            {s.name: s for s in vm_specs()}, {s.name: s for s in nfs_specs()}
        )
        gib = 1024**3
        meter.record_storage_usage(0.0, {"high": 0.5 * gib})
        report = meter.report(7200.0)  # 2 hours
        assert report.storage_cost == pytest.approx(0.5 * 2.08e-4 * 2.0)

    def test_hourly_rates(self):
        meter = BillingMeter(
            {s.name: s for s in vm_specs()}, {s.name: s for s in nfs_specs()}
        )
        meter.record_vm_usage(0.0, {"standard": 2, "advanced": 1})
        assert meter.current_vm_cost_rate() == pytest.approx(2 * 0.45 + 0.80)
        report = meter.report(3600.0)
        assert report.hourly_vm_cost == pytest.approx(2 * 0.45 + 0.80)

    def test_time_cannot_go_backwards(self):
        meter = BillingMeter(
            {s.name: s for s in vm_specs()}, {s.name: s for s in nfs_specs()}
        )
        meter.record_vm_usage(100.0, {"standard": 1})
        with pytest.raises(ValueError):
            meter.record_vm_usage(50.0, {"standard": 2})

    def test_unknown_cluster_rejected(self):
        meter = BillingMeter(
            {s.name: s for s in vm_specs()}, {s.name: s for s in nfs_specs()}
        )
        with pytest.raises(KeyError):
            meter.record_vm_usage(0.0, {"nope": 1})

    def test_negative_level_rejected(self):
        meter = BillingMeter(
            {s.name: s for s in vm_specs()}, {s.name: s for s in nfs_specs()}
        )
        with pytest.raises(ValueError):
            meter.record_vm_usage(0.0, {"standard": -1})

    def test_rate_history_recorded(self):
        meter = BillingMeter(
            {s.name: s for s in vm_specs()}, {s.name: s for s in nfs_specs()}
        )
        meter.record_vm_usage(0.0, {"standard": 1})
        meter.record_vm_usage(3600.0, {"standard": 3})
        history = meter.vm_cost_rate_history()
        assert len(history) == 2
        assert history[1][1] == pytest.approx(3 * 0.45)


class TestNFSScheduler:
    def test_placement_applied(self):
        sched = NFSScheduler({s.name: s for s in nfs_specs()})
        sched.apply({("c", 0): ("standard", 15e6), ("c", 1): ("high", 15e6)})
        assert sched.location_of(("c", 0)) == "standard"
        assert sched.stored_bytes()["high"] == pytest.approx(15e6)

    def test_capacity_enforced_transactionally(self):
        sched = NFSScheduler({s.name: s for s in nfs_specs()})
        sched.apply({("c", 0): ("standard", 15e6)})
        too_big = {("c", i): ("standard", 0.6 * 1024**3) for i in range(2)}
        with pytest.raises(ValueError, match="capacity"):
            sched.apply(too_big)
        # Original placement intact.
        assert sched.location_of(("c", 0)) == "standard"

    def test_unknown_cluster_rejected(self):
        sched = NFSScheduler({s.name: s for s in nfs_specs()})
        with pytest.raises(KeyError):
            sched.apply({("c", 0): ("nowhere", 1.0)})

    def test_placement_utility(self):
        sched = NFSScheduler({s.name: s for s in nfs_specs()})
        sched.apply({("c", 0): ("high", 15e6), ("c", 1): ("standard", 15e6)})
        utility = sched.placement_utility({("c", 0): 10.0, ("c", 1): 5.0})
        assert utility == pytest.approx(1.0 * 10.0 + 0.8 * 5.0)


class TestNegotiator:
    def test_quote_clamps_to_capacity(self):
        facility = make_facility()
        negotiator = SLANegotiator(facility)
        grants, vm_cost, _ = negotiator.quote(
            ResourceRequest(vm_targets={"standard": 100})
        )
        assert grants["standard"] == 10
        assert vm_cost == pytest.approx(10 * 0.45)

    def test_unknown_cluster_raises(self):
        negotiator = SLANegotiator(make_facility())
        with pytest.raises(NegotiationError):
            negotiator.quote(ResourceRequest(vm_targets={"huge": 1}))

    def test_budget_enforced(self):
        negotiator = SLANegotiator(make_facility())
        request = ResourceRequest(
            vm_targets={"standard": 10}, max_hourly_budget=1.0
        )
        with pytest.raises(NegotiationError, match="budget"):
            negotiator.negotiate(1, request)

    def test_storage_capacity_checked(self):
        negotiator = SLANegotiator(make_facility())
        request = ResourceRequest(
            vm_targets={},
            storage_placement={("c", 0): ("standard", 2.0 * 1024**3)},
        )
        with pytest.raises(NegotiationError, match="capacity"):
            negotiator.negotiate(1, request)


class TestBroker:
    def test_accepted_request_applied(self):
        facility = make_facility()
        broker = Broker(facility)
        agreement = broker.request(
            ResourceRequest(
                vm_targets={"standard": 3, "advanced": 1},
                storage_placement={("c", 0): ("high", 15e6)},
            )
        )
        assert agreement.vm_grants == {"standard": 3, "advanced": 1}
        assert facility.pools["standard"].running == 3
        assert facility.nfs_scheduler.location_of(("c", 0)) == "high"
        assert broker.last_agreement is agreement

    def test_scale_down_via_request(self):
        facility = make_facility()
        broker = Broker(facility)
        broker.request(ResourceRequest(vm_targets={"standard": 5}))
        broker.request(ResourceRequest(vm_targets={"standard": 2}))
        assert facility.pools["standard"].running == 2

    def test_rejected_request_logged_and_not_applied(self):
        facility = make_facility()
        broker = Broker(facility)
        with pytest.raises(NegotiationError):
            broker.request(
                ResourceRequest(
                    vm_targets={"standard": 5}, max_hourly_budget=0.01
                )
            )
        assert facility.pools["standard"].running == 0
        assert broker.monitor.log[-1][1] is False

    def test_request_ids_increment(self):
        broker = Broker(make_facility())
        a = broker.request(ResourceRequest(vm_targets={"standard": 1}))
        b = broker.request(ResourceRequest(vm_targets={"standard": 1}))
        assert b.request_id == a.request_id + 1


class TestRequestMonitorLog:
    def test_accept_log(self):
        facility = make_facility()
        monitor = RequestMonitor(SLANegotiator(facility))
        agreement = monitor.submit(ResourceRequest(vm_targets={"standard": 2}))
        assert agreement.hourly_vm_cost == pytest.approx(0.9)
        assert monitor.log[0][1] is True


class TestFacility:
    def test_billing_tracks_applied_targets(self):
        facility = make_facility()
        facility.apply_vm_targets({"standard": 4})
        assert facility.billing.current_vm_cost_rate() == pytest.approx(4 * 0.45)

    def test_clock_drives_billing(self):
        t = {"now": 0.0}
        facility = make_facility(clock=lambda: t["now"])
        facility.apply_vm_targets({"standard": 2})
        t["now"] = 3600.0
        report = facility.billing.report(t["now"])
        assert report.vm_cost == pytest.approx(2 * 0.45)

    def test_duplicate_cluster_names_rejected(self):
        with pytest.raises(ValueError):
            CloudFacility(
                [
                    VirtualClusterSpec("x", 1.0, 1.0, 1, 1.0),
                    VirtualClusterSpec("x", 1.0, 1.0, 1, 1.0),
                ],
                nfs_specs(),
            )
