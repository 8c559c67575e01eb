"""The dynamic cloud provisioning controller (paper Section V-B, Fig. 3).

Every interval T the controller:

1. closes the tracker's statistics interval (arrival rates, viewing
   patterns, peer upload capacities);
2. feeds the observed rates to its predictor (the paper's last-interval
   rule by default) and runs the Section IV analysis to get per-chunk
   cloud demands Delta_i^(c);
3. solves the VM configuration problem (Eqn (7) heuristic) and, when the
   demand profile shifted enough (or videos were added), the storage
   rental problem (Eqn (6) heuristic);
4. submits the change request to the cloud broker under its SLA terms and
   budget ledger;
5. publishes the granted per-chunk capacities for the VoD system to use
   in the next interval.

The initial deployment (the paper's "based on the application's empirical
user scale and viewing pattern information") is :meth:`bootstrap`, which
runs the same pipeline on operator-supplied expected rates instead of
tracker measurements.

Steps 1-2 and 5 are the shared skeleton in
:class:`repro.core.controller.ProvisioningControllerBase`; this module
owns the single-region optimization pipeline (steps 3-4) and the
concrete rival-policy controllers obtained by composing the policy
mixins with it (``repro.core.controller`` documents the policies).
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, List, Mapping, Optional, Sequence

import numpy as np

from repro.cloud.broker import NegotiationError, ResourceRequest, SLAAgreement
from repro.core.controller import (
    AdaptPolicy,
    MPCPolicy,
    PIDPolicy,
    ProvisioningControllerBase,
    ReactivePolicy,
    storage_demand_shifted,
)
from repro.core.demand import ChannelDemand, ChunkKey, aggregate_demand
from repro.core.packing import PackingResult, pack_allocations
from repro.core.storage_rental import StoragePlan, StorageProblem, greedy_storage_rental
from repro.core.vm_allocation import VMAllocationPlan, VMProblem, greedy_vm_allocation

__all__ = [
    "ProvisioningDecision",
    "ProvisioningController",
    "ReactiveProvisioningController",
    "AdaptProvisioningController",
    "PIDProvisioningController",
    "MPCProvisioningController",
    "storage_demand_shifted",
]


@dataclass
class ProvisioningDecision:
    """Everything the controller decided for one interval."""

    time: float
    demands: List[ChannelDemand]
    vm_plan: VMAllocationPlan
    storage_plan: Optional[StoragePlan]
    agreement: Optional[SLAAgreement]
    per_channel_capacity: Dict[int, np.ndarray] = field(default_factory=dict)
    rejected: Optional[str] = None
    cluster_utilities: Dict[str, float] = field(default_factory=dict)
    nfs_utilities: Dict[str, float] = field(default_factory=dict)
    _packing: Optional[PackingResult] = field(
        default=None, init=False, repr=False, compare=False
    )

    @property
    def packing(self) -> PackingResult:
        """The concrete VM packing of ``vm_plan``.  Nothing in the
        control loop consumes it, so it is computed on first read (and
        cached) rather than every interval."""
        if self._packing is None:
            self._packing = pack_allocations(self.vm_plan.allocations)
        return self._packing

    @property
    def total_cloud_demand(self) -> float:
        return float(sum(d.total_cloud_demand for d in self.demands))

    @property
    def vm_counts(self) -> Dict[str, int]:
        return self.vm_plan.integer_vm_counts()

    @property
    def hourly_vm_cost(self) -> float:
        return self.agreement.hourly_vm_cost if self.agreement else 0.0

    def channel_capacity(self, channel_id: int) -> np.ndarray:
        return self.per_channel_capacity[channel_id]

    def aggregate_vm_utility(self, channel_id: Optional[int] = None) -> float:
        """sum u~_v z_iv, optionally restricted to one channel (Fig 9)."""
        total = 0.0
        for (chunk, cluster), z in self.vm_plan.allocations.items():
            if channel_id is not None and chunk[0] != channel_id:
                continue
            total += self.cluster_utilities[cluster] * z
        return total

    def aggregate_storage_utility(
        self, channel_id: Optional[int] = None
    ) -> float:
        """sum u_f Delta_i x_if over the storage placement (Fig 8).

        Uses this decision's demand vector and its storage plan (or 0.0
        when storage was not replanned this interval).
        """
        if self.storage_plan is None:
            return 0.0
        demand_by_chunk = aggregate_demand(self.demands)
        total = 0.0
        for chunk, cluster in self.storage_plan.placement.items():
            if channel_id is not None and chunk[0] != channel_id:
                continue
            total += self.nfs_utilities[cluster] * demand_by_chunk.get(chunk, 0.0)
        return total


class ProvisioningController(ProvisioningControllerBase):
    """Closes the provisioning loop between tracker, analysis and cloud.

    The observe/predict/analyze skeleton (and the policy hooks) live in
    :class:`~repro.core.controller.ProvisioningControllerBase`; this
    class supplies the single-region optimization pipeline.
    """

    decisions: List[ProvisioningDecision]

    # ------------------------------------------------------------------
    def _grants_to_channel_arrays(
        self,
        demands: Sequence[ChannelDemand],
        grants: Mapping[ChunkKey, float],
    ) -> Dict[int, np.ndarray]:
        arrays: Dict[int, np.ndarray] = {}
        for demand in demands:
            j = demand.cloud_demand.size
            arr = np.zeros(j, dtype=float)
            for i in range(j):
                arr[i] = grants.get((demand.channel_id, i), 0.0)
            if self.min_capacity_per_chunk > 0:
                populated = demand.expected_in_system > 0
                arr[populated] = np.maximum(
                    arr[populated], self.min_capacity_per_chunk
                )
            arrays[demand.channel_id] = arr
        return arrays

    # ------------------------------------------------------------------
    # Decision pipeline (shared by bootstrap and periodic runs)
    # ------------------------------------------------------------------
    def provision(
        self,
        now: float,
        demands: List[ChannelDemand],
    ) -> ProvisioningDecision:
        """Optimize, negotiate and apply a set of channel demands."""
        chunk_demand = aggregate_demand(demands)

        # --- VM configuration (every interval) --------------------------
        vm_specs = list(self.broker.facility.vm_specs.values())
        vm_problem = VMProblem(
            demands=chunk_demand,
            vm_bandwidth=self.vm_bandwidth,
            clusters=vm_specs,
            budget_per_hour=self.terms.vm_budget_per_hour,
        )
        vm_plan = greedy_vm_allocation(vm_problem)

        # --- Storage rental (on significant change) ----------------------
        storage_plan: Optional[StoragePlan] = None
        nfs_specs = list(self.broker.facility.nfs_specs.values())
        if self._should_replan_storage(chunk_demand):
            storage_problem = StorageProblem(
                demands=chunk_demand,
                chunk_size_bytes=self.chunk_size_bytes,
                clusters=nfs_specs,
                budget_per_hour=self.terms.storage_budget_per_hour,
            )
            storage_plan = greedy_storage_rental(storage_problem)

        # --- Request to the cloud -----------------------------------------
        vm_targets = {spec.name: 0 for spec in vm_specs}
        vm_targets.update(vm_plan.integer_vm_counts())
        placement = (
            storage_plan.to_facility_placement(self.chunk_size_bytes)
            if storage_plan is not None and storage_plan.feasible
            else None
        )
        request = ResourceRequest(
            vm_targets=vm_targets,
            storage_placement=placement,
            max_hourly_budget=self.terms.total_budget_per_hour,
        )
        agreement: Optional[SLAAgreement] = None
        rejected: Optional[str] = None
        try:
            agreement = self.broker.request(request)
        except NegotiationError as exc:
            rejected = str(exc)

        grants = vm_plan.chunk_bandwidth(self.vm_bandwidth)
        decision = ProvisioningDecision(
            time=now,
            demands=demands,
            vm_plan=vm_plan,
            storage_plan=storage_plan,
            agreement=agreement,
            per_channel_capacity=self._grants_to_channel_arrays(demands, grants),
            rejected=rejected,
            cluster_utilities={spec.name: spec.utility for spec in vm_specs},
            nfs_utilities={spec.name: spec.utility for spec in nfs_specs},
        )
        self.decisions.append(decision)

        if storage_plan is not None and storage_plan.feasible and agreement:
            self._storage_planned = True
        self._last_chunk_demand = dict(chunk_demand)

        vm_rate = agreement.hourly_vm_cost if agreement else 0.0
        storage_rate = self.broker.facility.billing.current_storage_cost_rate()
        self.ledger.record(
            now,
            vm_rate,
            storage_rate,
            feasible=vm_plan.feasible
            and (storage_plan is None or storage_plan.feasible)
            and rejected is None,
        )
        return decision


class ReactiveProvisioningController(ReactivePolicy, ProvisioningController):
    """Single-region reactive threshold scaling (``controller="reactive"``)."""


class AdaptProvisioningController(AdaptPolicy, ProvisioningController):
    """Single-region Adapt-style proactive estimator (``controller="adapt"``)."""


class PIDProvisioningController(PIDPolicy, ProvisioningController):
    """Single-region PID demand shaping (``controller="pid"``)."""


class MPCProvisioningController(MPCPolicy, ProvisioningController):
    """Single-region receding-horizon MPC (``controller="mpc"``).

    The inner solve runs the exact geo LP over a degenerate one-region
    topology wrapping this facility's VM clusters.
    """

    def _mpc_topology(self):
        topology = getattr(self, "_mpc_cached_topology", None)
        if topology is None:
            # Lazy import: the geo package imports the core one at init.
            from repro.geo.region import GeoTopology, RegionSpec

            topology = GeoTopology(
                [
                    RegionSpec(
                        "local",
                        tuple(self.broker.facility.vm_specs.values()),
                    )
                ],
                {},
                {},
            )
            self._mpc_cached_topology = topology
        return topology

    def _mpc_regional_demands(self, demands):
        return {"local": aggregate_demand(demands)}
