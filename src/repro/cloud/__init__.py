"""IaaS cloud substrate (paper Section III-A, Fig. 1).

The paper evaluates on a home-built cloud of 100+ machines; this package is
the simulated equivalent, with the same functional modules:

* :mod:`repro.cloud.cluster` — virtual-cluster and NFS-cluster descriptions
  (Tables II and III).
* :mod:`repro.cloud.vm` — VM lifecycle state machine (OFF -> BOOTING ->
  RUNNING -> SHUTTING_DOWN -> OFF) with the measured ~25 s boot latency;
  one per-cluster VM pool is one slot-state array.
* :mod:`repro.cloud.scheduler` — the cloud facility, which applies
  allocation decisions to the VM pools (the paper's VM scheduler) and,
  through the NFS scheduler, to the NFS clusters.
* :mod:`repro.cloud.broker` — broker, request monitor and SLA negotiator:
  the consumer-facing request path.
* :mod:`repro.cloud.billing` — usage metering and cost accounting under the
  per-time-unit charging model.
"""

from repro.cloud.billing import BillingMeter, CostReport
from repro.cloud.broker import (
    Broker,
    RequestMonitor,
    ResourceRequest,
    SLAAgreement,
    SLANegotiator,
)
from repro.cloud.cluster import NFSClusterSpec, VirtualClusterSpec
from repro.cloud.scheduler import CloudFacility, NFSScheduler
from repro.cloud.vm import VMPool, VMState

__all__ = [
    "BillingMeter",
    "CostReport",
    "Broker",
    "RequestMonitor",
    "ResourceRequest",
    "SLAAgreement",
    "SLANegotiator",
    "NFSClusterSpec",
    "VirtualClusterSpec",
    "CloudFacility",
    "NFSScheduler",
    "VMPool",
    "VMState",
]
