"""Equilibrium server-capacity solver (paper Section IV-B).

Given per-queue arrival rates lambda_i (from the traffic equations) and the
service rate mu = R / (r * T0) of one VM-backed queueing server, find the
minimal integer m_i such that

    m_i > lambda_i / mu          (stability), and
    E[n_i] <= lambda_i * T0      (mean sojourn time <= T0, by Little's law).

``E[n]`` is monotonically decreasing in m for fixed load, so a linear /
doubling search terminates; the paper's iterative procedure ("initialize
m to 1, increase until E(n) equals lambda*T0") is the same computation.
:func:`size_queues` runs that search for any number of queues at once,
in lock step: one Erlang-B recursion advances every queue's candidate
server count together, and a queue drops out as soon as it is sized.

The total upload bandwidth to serve chunk i is then s_i = R * m_i, which in
the client-server mode is exactly the cloud capacity Delta_i to provision.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Optional, Tuple

import numpy as np

from repro.queueing.jackson import (
    TrafficSolution,
    external_arrival_vector,
    solve_traffic_equations,
)

__all__ = ["CapacityModel", "ChannelCapacityResult", "required_servers",
           "size_queues", "solve_channel_capacity"]


@dataclass(frozen=True)
class CapacityModel:
    """Physical parameters tying the queueing model to the cloud.

    Attributes
    ----------
    streaming_rate:
        Playback rate r in bytes/second.
    chunk_duration:
        Playback time T0 of one chunk, seconds. Chunk size is r * T0 bytes.
    vm_bandwidth:
        Bandwidth R of one VM in bytes/second; must exceed ``streaming_rate``
        so a chunk can be fetched within its own playback time.
    """

    streaming_rate: float
    chunk_duration: float
    vm_bandwidth: float

    def __post_init__(self) -> None:
        if self.streaming_rate <= 0:
            raise ValueError(f"streaming rate must be > 0, got {self.streaming_rate}")
        if self.chunk_duration <= 0:
            raise ValueError(f"chunk duration must be > 0, got {self.chunk_duration}")
        if self.vm_bandwidth <= self.streaming_rate:
            raise ValueError(
                "VM bandwidth R must exceed the streaming rate r "
                f"(got R={self.vm_bandwidth}, r={self.streaming_rate})"
            )

    @property
    def chunk_size_bytes(self) -> float:
        """Size of one chunk, r * T0 bytes."""
        return self.streaming_rate * self.chunk_duration

    @property
    def service_rate(self) -> float:
        """mu = R / (r * T0): chunk downloads per second per server."""
        return self.vm_bandwidth / self.chunk_size_bytes

    @property
    def mean_download_time(self) -> float:
        """1/mu, strictly less than T0 by the R > r requirement."""
        return 1.0 / self.service_rate


def size_queues(
    arrival_rates: np.ndarray,
    service_rate: float,
    target_sojourn: float,
    *,
    max_servers: int = 10_000_000,
) -> Tuple[np.ndarray, np.ndarray]:
    """Size every M/M/m queue of ``arrival_rates`` for a mean sojourn
    <= ``target_sojourn``.

    Returns ``(servers, in_system)``, both shaped like ``arrival_rates``:
    the minimal stable server count m per queue and the E[n] the search
    accepted it at (0 and 0.0 for idle queues).  Raises ``ValueError``
    when a busy queue's target is below the bare service time 1/mu, or
    when a queue would need more than ``max_servers``.

    One Erlang-B recursion ``B(k, a) = a B(k-1, a) / (k + a B(k-1, a))``
    runs for k = 1, 2, ... over all busy queues at once.  A queue with
    offered load a is a candidate from k = floor(a) + 1 (the smallest
    stable count) and drops out at the first candidate k whose
    E[n] = a + C a / (k - a) (Erlang-C conversion C from B) is within
    lambda * T0, Little's law at the target.  Every queue sees exactly
    the float sequence the scalar recursion produces, so the recorded
    E[n] equals ``mmm_expected_number_in_system(m, a)`` bit for bit.
    """
    lam = np.asarray(arrival_rates, dtype=float)
    if not np.all(np.isfinite(lam)):
        raise ValueError("arrival rates must be finite")
    servers = np.zeros(lam.shape, dtype=int)
    in_system = np.zeros(lam.shape, dtype=float)
    flat_servers = servers.reshape(-1)
    flat_in_system = in_system.reshape(-1)
    flat_lam = lam.reshape(-1)
    idx = np.flatnonzero(flat_lam > 0)
    if idx.size == 0:
        return servers, in_system  # an idle queue needs no capacity
    if target_sojourn < 1.0 / service_rate:
        raise ValueError(
            f"target sojourn {target_sojourn} < service time {1.0 / service_rate}; "
            "no server count can achieve it"
        )
    busy = flat_lam[idx]
    a = busy / service_rate
    # With infinitely many servers E[n] -> a <= lambda * T0, so every
    # queue drops out eventually.
    target = busy * target_sojourn + 1e-12
    start = np.floor(a) + 1.0  # smallest stable server count
    if np.any(start > max_servers):
        raise ValueError(f"exceeded max_servers={max_servers} searching for capacity")
    b = np.ones_like(a)
    first = start.min()
    k = 0
    # Unstable candidates (k <= a) divide by zero or go negative; they
    # are never accepted, so their values are ignored.
    with np.errstate(divide="ignore", invalid="ignore", over="ignore"):
        while idx.size:
            k += 1
            if k > max_servers:
                raise ValueError(
                    f"exceeded max_servers={max_servers} searching for capacity"
                )
            ab = a * b
            b = ab / (k + ab)  # Erlang-B step: B(k, a) from B(k-1, a)
            if k < first:
                continue
            c = k * b / (k - a * (1.0 - b))  # Erlang-C conversion
            n = a + c * a / (k - a)  # E[n] = a + Lq
            done = (n <= target) & (start <= k)
            if not done.any():
                continue
            flat_servers[idx[done]] = k
            flat_in_system[idx[done]] = n[done]
            keep = ~done
            idx, a, b = idx[keep], a[keep], b[keep]
            target, start = target[keep], start[keep]
            if idx.size:
                first = start.min()
    return servers, in_system


def required_servers(
    arrival_rate: float,
    service_rate: float,
    target_sojourn: float,
    *,
    max_servers: int = 10_000_000,
) -> int:
    """Minimal m with a stable M/M/m queue whose mean sojourn <= target.

    Returns 0 when ``arrival_rate`` is 0 (an idle queue needs no capacity).
    Raises ``ValueError`` when the target is infeasible, i.e. smaller than
    the bare service time 1/mu (no number of servers can beat that), or if
    the search exceeds ``max_servers``.  A batch of one
    :func:`size_queues` call.
    """
    if arrival_rate < 0:
        raise ValueError(f"arrival rate must be >= 0, got {arrival_rate}")
    if service_rate <= 0:
        raise ValueError(f"service rate must be > 0, got {service_rate}")
    if target_sojourn <= 0:
        raise ValueError(f"target sojourn must be > 0, got {target_sojourn}")
    servers, _ = size_queues(
        np.array([arrival_rate], dtype=float), service_rate, target_sojourn,
        max_servers=max_servers,
    )
    return int(servers[0])


@dataclass(frozen=True)
class ChannelCapacityResult:
    """Equilibrium capacity demand for one channel (client-server mode).

    A batched solve returns one result whose arrays carry a leading
    channel axis; :meth:`channel` slices out one channel's result.
    """

    model: CapacityModel
    traffic: TrafficSolution
    servers: np.ndarray = field(repr=False)  # m_i per chunk queue
    expected_in_system: np.ndarray = field(repr=False)  # E[n_i]

    def channel(self, index: int) -> "ChannelCapacityResult":
        """Channel ``index`` of a batched result."""
        traffic = self.traffic
        return ChannelCapacityResult(
            model=self.model,
            traffic=TrafficSolution(
                arrival_rates=traffic.arrival_rates[index],
                external_rates=traffic.external_rates[index],
                transition_matrix=traffic.transition_matrix[index],
            ),
            servers=self.servers[index],
            expected_in_system=self.expected_in_system[index],
        )

    @property
    def arrival_rates(self) -> np.ndarray:
        return self.traffic.arrival_rates

    @property
    def upload_bandwidth(self) -> np.ndarray:
        """s_i = R * m_i, bytes/second per chunk."""
        return self.model.vm_bandwidth * self.servers

    @property
    def cloud_demand(self) -> np.ndarray:
        """Delta_i for the client-server mode (all demand hits the cloud)."""
        return self.upload_bandwidth

    @property
    def total_servers(self) -> int:
        return int(self.servers.sum())

    @property
    def total_bandwidth(self) -> float:
        return float(self.upload_bandwidth.sum())

    @property
    def expected_population(self) -> float:
        """Expected number of concurrent users in the channel."""
        return float(self.expected_in_system.sum())

    @property
    def little_target(self) -> np.ndarray:
        """Per-queue population target lambda_i * T0 (Little's law at the
        design sojourn). With surplus capacity the *downloading* population
        E[n_i] falls below this, but each viewer still occupies the chunk's
        playback slot — so this is the right per-chunk basis for streaming
        demand and for chunk ownership in the P2P analysis."""
        return self.traffic.arrival_rates * self.model.chunk_duration


def solve_channel_capacity(
    model: CapacityModel,
    transition_matrix: np.ndarray,
    external_rate: float | np.ndarray,
    *,
    alpha: float | np.ndarray = 0.8,
    external_rates: Optional[np.ndarray] = None,
) -> ChannelCapacityResult:
    """End-to-end capacity analysis of one channel (paper Section IV-B).

    Solves the traffic equations for the channel, then sizes every chunk
    queue for a mean sojourn time of T0.  Given a stack of matrices
    ``(N, J, J)`` with one rate (and optionally one alpha) per channel,
    it analyses all N channels in one batched traffic solve and one
    lock-step sizing pass (:func:`size_queues`); the result's arrays
    carry the channel axis first.

    Parameters
    ----------
    model:
        Physical parameters (r, T0, R).
    transition_matrix:
        Chunk-transfer matrix P^(c), or a stack of them.
    external_rate:
        Channel arrival rate Lambda^(c), users/second (per channel for a
        stack). Ignored when ``external_rates`` is supplied.
    alpha:
        Fraction of arrivals starting at chunk 1 (per channel for a stack).
    external_rates:
        Optional explicit per-chunk external arrival vector (``(N, J)``
        for a stack); overrides the (``external_rate``, ``alpha``) split.
    """
    p = np.asarray(transition_matrix, dtype=float)
    if external_rates is None:
        ext = external_arrival_vector(p.shape[-1], external_rate, alpha)
        if p.ndim == 3:
            ext = np.broadcast_to(ext, p.shape[:-1])
    else:
        ext = np.asarray(external_rates, dtype=float)
    traffic = solve_traffic_equations(p, ext)
    servers, in_system = size_queues(
        traffic.arrival_rates, model.service_rate, model.chunk_duration
    )
    return ChannelCapacityResult(
        model=model, traffic=traffic, servers=servers, expected_in_system=in_system
    )
