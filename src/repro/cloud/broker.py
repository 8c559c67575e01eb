"""Broker, request monitor and SLA negotiator (paper Section III-A, Fig. 1).

The consumer (the VoD provider's controller) talks to the cloud only through
the broker:

1. the broker forwards a :class:`ResourceRequest` to the request monitor;
2. the request monitor hands it to the SLA negotiator;
3. the negotiator checks prices/availability against the provider's policy
   and either returns an :class:`SLAAgreement` or rejects the request;
4. accepted agreements are applied by the facility.

This mirrors the paper's separation between *deciding* an allocation (done
by the consumer, Section V) and *applying* it (done by the provider).
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass, field
from typing import Dict, Hashable, List, Mapping, Optional, Tuple

from repro.cloud.scheduler import CloudFacility

__all__ = ["ResourceRequest", "SLAAgreement", "SLANegotiator", "RequestMonitor",
           "Broker", "NegotiationError"]

ChunkKey = Hashable


class NegotiationError(RuntimeError):
    """Raised when the SLA negotiator rejects a request."""


@dataclass(frozen=True)
class ResourceRequest:
    """A consumer's change request for the next charging interval.

    Attributes
    ----------
    vm_targets:
        Desired number of active VMs per virtual cluster.
    storage_placement:
        Desired chunk placement ``{chunk: (nfs_cluster, size_bytes)}``;
        ``None`` keeps the current placement.
    max_hourly_budget:
        Optional consumer-side cap; the negotiator rejects agreements whose
        quoted VM price rate exceeds it.
    """

    vm_targets: Mapping[str, int]
    storage_placement: Optional[Mapping[ChunkKey, Tuple[str, float]]] = None
    max_hourly_budget: Optional[float] = None


@dataclass(frozen=True)
class SLAAgreement:
    """A negotiated agreement: the granted allocation and its price rate."""

    request_id: int
    vm_grants: Dict[str, int]
    hourly_vm_cost: float
    hourly_storage_cost: float
    storage_accepted: bool

    @property
    def hourly_cost(self) -> float:
        return self.hourly_vm_cost + self.hourly_storage_cost


class SLANegotiator:
    """Validates requests against prices and availability."""

    def __init__(self, facility: CloudFacility) -> None:
        self.facility = facility

    def quote(self, request: ResourceRequest) -> Tuple[Dict[str, int], float, float]:
        """Clamp the request to availability and price it.

        Returns (granted VM counts, hourly VM cost, hourly storage cost).
        Unknown clusters raise ``NegotiationError``.
        """
        grants: Dict[str, int] = {}
        vm_cost = 0.0
        for name, target in request.vm_targets.items():
            spec = self.facility.vm_specs.get(name)
            if spec is None:
                raise NegotiationError(f"no such virtual cluster: {name!r}")
            if target < 0:
                raise NegotiationError(f"negative VM target for {name!r}")
            granted = min(int(target), spec.max_vms)
            grants[name] = granted
            vm_cost += granted * spec.price_per_hour

        storage_cost = 0.0
        if request.storage_placement is not None:
            usage: Dict[str, float] = {}
            for chunk, (cluster, size) in request.storage_placement.items():
                spec = self.facility.nfs_specs.get(cluster)
                if spec is None:
                    raise NegotiationError(f"no such NFS cluster: {cluster!r}")
                if size < 0:
                    raise NegotiationError(f"negative size for chunk {chunk!r}")
                usage[cluster] = usage.get(cluster, 0.0) + size
            for cluster, total in usage.items():
                spec = self.facility.nfs_specs[cluster]
                if total > spec.capacity_bytes + 1e-6:
                    raise NegotiationError(
                        f"placement exceeds capacity of {cluster!r}"
                    )
                storage_cost += total * spec.price_per_byte_hour
        return grants, vm_cost, storage_cost

    def negotiate(self, request_id: int, request: ResourceRequest) -> SLAAgreement:
        """Produce an agreement or raise :class:`NegotiationError`."""
        grants, vm_cost, storage_cost = self.quote(request)
        if (
            request.max_hourly_budget is not None
            and vm_cost + storage_cost > request.max_hourly_budget + 1e-9
        ):
            raise NegotiationError(
                f"quoted rate ${vm_cost + storage_cost:.2f}/h exceeds consumer "
                f"budget ${request.max_hourly_budget:.2f}/h"
            )
        return SLAAgreement(
            request_id=request_id,
            vm_grants=grants,
            hourly_vm_cost=vm_cost,
            hourly_storage_cost=storage_cost,
            storage_accepted=request.storage_placement is not None,
        )


class RequestMonitor:
    """Listens for consumer requests and forwards them to the negotiator."""

    def __init__(self, negotiator: SLANegotiator) -> None:
        self.negotiator = negotiator
        self._ids = itertools.count(1)
        self.log: List[Tuple[int, bool, str]] = []  # (id, accepted, detail)

    def submit(self, request: ResourceRequest) -> SLAAgreement:
        request_id = next(self._ids)
        try:
            agreement = self.negotiator.negotiate(request_id, request)
        except NegotiationError as exc:
            self.log.append((request_id, False, str(exc)))
            raise
        self.log.append((request_id, True, f"${agreement.hourly_cost:.4f}/h"))
        return agreement


@dataclass
class Broker:
    """The consumer-facing interface: submit a request, get it applied.

    On acceptance the broker immediately applies the granted allocation via
    the facility's schedulers (VM targets and, when present, the storage
    placement), and returns the agreement.
    """

    facility: CloudFacility
    monitor: RequestMonitor = field(init=False)
    agreements: List[SLAAgreement] = field(default_factory=list)

    def __post_init__(self) -> None:
        self.monitor = RequestMonitor(SLANegotiator(self.facility))

    def request(self, request: ResourceRequest) -> SLAAgreement:
        """Submit, negotiate and apply a resource request."""
        agreement = self.monitor.submit(request)
        self.facility.apply_vm_targets(agreement.vm_grants)
        if request.storage_placement is not None:
            self.facility.apply_storage_placement(dict(request.storage_placement))
        self.agreements.append(agreement)
        return agreement

    @property
    def last_agreement(self) -> Optional[SLAAgreement]:
        return self.agreements[-1] if self.agreements else None
