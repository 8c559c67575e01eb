"""Multi-channel VoD application substrate (paper Sections III-B and VI).

The paper's evaluation runs a real VoD prototype over a home-built cloud;
this package is the simulated equivalent:

* :mod:`repro.vod.channel` — channel descriptions (chunking, behaviour).
* :mod:`repro.vod.user` — per-channel user state stores (struct-of-arrays
  for speed at paper scale).
* :mod:`repro.vod.tracker` — the tracking server: peer lists, per-interval
  arrival/transition statistics for the controller.
* :mod:`repro.vod.metrics` — retrieval records and the smooth-playback
  streaming-quality metric.
* :mod:`repro.vod.delivery` — client-server and P2P (rarest-first)
  bandwidth allocation models.
* :mod:`repro.vod.simulator` — the time-stepped fluid simulator that closes
  the loop with the cloud substrate and the provisioning controller.
* :mod:`repro.vod.multi` — the fused structure-of-arrays kernel that steps
  every user of a uniform client-server catalog shard in one row table.
* :mod:`repro.vod.queue_sim` — an event-driven Jackson-network simulator
  used to validate the Section IV analysis against stochastic sample paths.
"""

from repro.vod.channel import ChannelSpec, make_uniform_channels
from repro.vod.delivery import ClientServerDelivery, P2PDelivery
from repro.vod.metrics import QualityTracker, RetrievalRecord
from repro.vod.simulator import SimulationResult, VoDSimulator, VoDSystemConfig
from repro.vod.tracker import IntervalStats, TrackingServer
from repro.vod.user import UserStore

__all__ = [
    "ChannelSpec",
    "make_uniform_channels",
    "ClientServerDelivery",
    "P2PDelivery",
    "QualityTracker",
    "RetrievalRecord",
    "SimulationResult",
    "VoDSimulator",
    "VoDSystemConfig",
    "IntervalStats",
    "TrackingServer",
    "UserStore",
]
