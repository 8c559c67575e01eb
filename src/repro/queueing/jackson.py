"""Open Jackson network traffic equations (paper Eqn (1)).

Per-queue aggregate arrival rates solve the linear system

    lambda_i = ext_i + sum_j lambda_j P[j, i]        (i = 1..J)

where ``ext`` is the external arrival split: a fraction ``alpha`` of the
channel's Poisson arrivals (rate Lambda) start at chunk 1 and the remaining
``1 - alpha`` start uniformly at the other chunks. Because P is substochastic
with spectral radius < 1 the system has a unique nonnegative solution.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from repro.queueing.transitions import validate_transition_matrix

__all__ = ["external_arrival_vector", "solve_traffic_equations", "TrafficSolution"]


def external_arrival_vector(
    num_chunks: int,
    total_rate: float | np.ndarray,
    alpha: float | np.ndarray = 0.8,
) -> np.ndarray:
    """External per-chunk arrival rates for a channel (paper Section IV-A).

    Parameters
    ----------
    num_chunks:
        Number of chunks J in the channel.
    total_rate:
        Channel-level external Poisson arrival rate Lambda (users/second).
        An array of rates gives one row per channel, shape ``(N, J)``.
    alpha:
        Fraction of arrivals that start watching from the first chunk; the
        rest start at one of the remaining chunks uniformly.  Scalar, or
        one value per channel alongside an array of rates.
    """
    if num_chunks <= 0:
        raise ValueError("need at least one chunk")
    rate = np.asarray(total_rate, dtype=float)
    start = np.asarray(alpha, dtype=float)
    if np.any(rate < 0):
        raise ValueError(f"arrival rate must be >= 0, got {total_rate}")
    if not np.all((start >= 0.0) & (start <= 1.0)):
        raise ValueError(f"alpha must be in [0, 1], got {alpha}")
    ext = np.zeros(np.broadcast(rate, start).shape + (num_chunks,), dtype=float)
    if num_chunks == 1:
        ext[..., 0] = rate
        return ext
    ext[..., 0] = start * rate
    ext[..., 1:] = ((1.0 - start) * rate / (num_chunks - 1))[..., None]
    return ext


@dataclass(frozen=True)
class TrafficSolution:
    """Solution of the traffic equations for one channel."""

    arrival_rates: np.ndarray  # lambda_i, users/second per chunk queue
    external_rates: np.ndarray  # ext_i
    transition_matrix: np.ndarray  # P

    @property
    def total_external_rate(self) -> float:
        return float(self.external_rates.sum())

    @property
    def visit_ratios(self) -> np.ndarray:
        """Expected number of visits to each queue per external arrival."""
        total = self.total_external_rate
        if total == 0.0:
            return np.zeros_like(self.arrival_rates)
        return self.arrival_rates / total

    @property
    def throughput(self) -> float:
        """Departure rate from the channel; equals external rate at equilibrium."""
        return self.total_external_rate


def solve_traffic_equations(
    transition_matrix: np.ndarray,
    external_rates: np.ndarray,
) -> TrafficSolution:
    """Solve ``lambda = ext + P^T lambda`` for the per-queue arrival rates.

    A stack of matrices ``(N, J, J)`` with external rates ``(N, J)``
    solves every channel in one batched call; the solution's arrays then
    carry the same leading axis.

    Raises ``ValueError`` if P is invalid (rows superstochastic or spectral
    radius >= 1) or if external rates are negative.
    """
    p = validate_transition_matrix(transition_matrix)
    ext = np.asarray(external_rates, dtype=float)
    if ext.shape != p.shape[:-1]:
        raise ValueError(
            f"external_rates shape {ext.shape} does not match matrix {p.shape}"
        )
    if np.any(ext < 0):
        raise ValueError("external arrival rates must be nonnegative")

    identity = np.eye(p.shape[-1])
    # (I - P^T) lambda = ext ; nonsingular because spectral radius(P) < 1.
    # The right-hand side is passed as a one-column matrix so a single
    # matrix and a stack take the same LAPACK path.
    rates = np.linalg.solve(
        identity - np.swapaxes(p, -1, -2), ext[..., None]
    )[..., 0]
    # Numerical noise can introduce tiny negatives; clamp them.
    rates = np.where(rates < 0, 0.0, rates)
    return TrafficSolution(
        arrival_rates=rates, external_rates=ext, transition_matrix=p
    )
