"""The NFS scheduler and the assembled cloud facility (paper Fig. 1).

The facility receives allocation decisions (per-cluster VM counts, chunk ->
NFS-cluster placements) from the request path and applies them: VM counts
to its pools (the paper's VM scheduler), placements through the
:class:`NFSScheduler`. :class:`CloudFacility` wires the pools, the NFS
scheduler and the billing meter into one object that plays the role of
the paper's cloud provider.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Callable, Dict, Hashable, Mapping, Optional, Sequence, Tuple

from repro.cloud.billing import BillingMeter
from repro.cloud.cluster import NFSClusterSpec, VirtualClusterSpec
from repro.cloud.vm import VMPool

__all__ = ["NFSScheduler", "CloudFacility"]

ChunkKey = Hashable  # typically a (channel_id, chunk_index) tuple


@dataclass
class _Placement:
    """Current storage placement state for one NFS cluster."""

    spec: NFSClusterSpec
    chunks: Dict[ChunkKey, float] = field(default_factory=dict)  # key -> bytes

    @property
    def used_bytes(self) -> float:
        return float(sum(self.chunks.values()))

    @property
    def free_bytes(self) -> float:
        return self.spec.capacity_bytes - self.used_bytes


class NFSScheduler:
    """Carries out chunk placement onto the NFS clusters."""

    def __init__(self, clusters: Mapping[str, NFSClusterSpec]) -> None:
        self._placements: Dict[str, _Placement] = {
            name: _Placement(spec) for name, spec in clusters.items()
        }

    def apply(
        self, placement: Mapping[ChunkKey, Tuple[str, float]]
    ) -> None:
        """Replace the current placement with ``{chunk: (cluster, bytes)}``.

        Raises if any cluster would exceed capacity; in that case no change
        is applied (placements are transactional).
        """
        staged: Dict[str, Dict[ChunkKey, float]] = {
            name: {} for name in self._placements
        }
        for chunk, (cluster, size) in placement.items():
            if cluster not in staged:
                raise KeyError(f"unknown NFS cluster {cluster!r}")
            if size < 0:
                raise ValueError(f"negative chunk size for {chunk!r}")
            staged[cluster][chunk] = float(size)
        for name, chunks in staged.items():
            total = sum(chunks.values())
            capacity = self._placements[name].spec.capacity_bytes
            if total > capacity + 1e-6:
                raise ValueError(
                    f"placement exceeds capacity of {name!r}: "
                    f"{total:.0f} > {capacity:.0f} bytes"
                )
        for name, chunks in staged.items():
            self._placements[name].chunks = chunks

    def stored_bytes(self) -> Dict[str, float]:
        return {name: p.used_bytes for name, p in self._placements.items()}

    def location_of(self, chunk: ChunkKey) -> Optional[str]:
        for name, p in self._placements.items():
            if chunk in p.chunks:
                return name
        return None

    def placement_utility(self, demand: Mapping[ChunkKey, float]) -> float:
        """Aggregate storage utility sum_f u_f * Delta_i over placed chunks.

        This is the paper's Eqn (6) objective evaluated on the *current*
        placement, used for the Fig 8 series.
        """
        utility = 0.0
        for name, p in self._placements.items():
            for chunk in p.chunks:
                utility += p.spec.utility * float(demand.get(chunk, 0.0))
        return utility


class CloudFacility:
    """The assembled cloud provider: VM pools + NFS scheduler + billing.

    Parameters
    ----------
    vm_clusters / nfs_clusters:
        Cluster descriptions in declaration order (order matters only for
        deterministic reporting).
    clock:
        Supplies the current time (e.g. the fluid VoD simulator's clock),
        so billing accrues over simulated time while VM transitions stay
        instant; without it the facility's time stays 0.
    """

    def __init__(
        self,
        vm_clusters: Sequence[VirtualClusterSpec],
        nfs_clusters: Sequence[NFSClusterSpec],
        *,
        clock: Optional[Callable[[], float]] = None,
    ) -> None:
        names = [spec.name for spec in vm_clusters]
        if len(set(names)) != len(names):
            raise ValueError("virtual cluster names must be unique")
        nfs_names = [spec.name for spec in nfs_clusters]
        if len(set(nfs_names)) != len(nfs_names):
            raise ValueError("NFS cluster names must be unique")

        self.clock = clock
        self.vm_specs: Dict[str, VirtualClusterSpec] = {
            spec.name: spec for spec in vm_clusters
        }
        self.nfs_specs: Dict[str, NFSClusterSpec] = {
            spec.name: spec for spec in nfs_clusters
        }
        self.pools: Dict[str, VMPool] = {
            spec.name: VMPool(spec) for spec in vm_clusters
        }
        self.nfs_scheduler = NFSScheduler(self.nfs_specs)
        self.billing = BillingMeter(
            self.vm_specs, self.nfs_specs, start_time=self.now()
        )

    # ------------------------------------------------------------------
    def now(self) -> float:
        return float(self.clock()) if self.clock is not None else 0.0

    def apply_vm_targets(self, targets: Mapping[str, int]) -> Dict[str, int]:
        """Scale each named pool toward its target active count and record
        the new billing levels.

        Unknown cluster names raise; clusters absent from ``targets`` are
        left untouched. Returns the signed change per cluster.
        """
        changes: Dict[str, int] = {}
        for name, target in targets.items():
            if name not in self.pools:
                raise KeyError(f"unknown virtual cluster {name!r}")
            changes[name] = self.pools[name].scale_to(int(target))
        self.billing.record_vm_usage(
            self.now(), {name: pool.active for name, pool in self.pools.items()}
        )
        return changes

    def apply_storage_placement(
        self, placement: Mapping[ChunkKey, Tuple[str, float]]
    ) -> None:
        """Place chunks and record the new storage billing levels."""
        self.nfs_scheduler.apply(placement)
        self.billing.record_storage_usage(self.now(), self.nfs_scheduler.stored_bytes())

    def total_active_vms(self) -> int:
        return sum(pool.active for pool in self.pools.values())
