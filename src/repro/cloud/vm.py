"""VM lifecycle state machine and per-cluster pools (paper Section VI-C).

The paper measures ~25 s to boot a Xen VM and "even less" to shut one down,
with launches proceeding in parallel. VMs here are pre-deployed in the OFF
state (as in the paper) and transition

    OFF -> BOOTING -> RUNNING -> SHUTTING_DOWN -> OFF

under control of the cloud facility. A pool is one slot-state array: slot
``i`` holds the :class:`VMState` of the cluster's ``i``-th VM. Pools can
run attached to a :class:`repro.sim.Simulator` (boot latency becomes
simulated time) or in *instant* mode for the analytical experiments that
do not care about the seconds-scale transient.
"""

from __future__ import annotations

import enum
import functools
from typing import Dict, Optional

import numpy as np

from repro.cloud.cluster import VirtualClusterSpec
from repro.sim.engine import Simulator
from repro.sim.events import Event

__all__ = ["VMState", "VMPool", "DEFAULT_BOOT_SECONDS",
           "DEFAULT_SHUTDOWN_SECONDS"]

DEFAULT_BOOT_SECONDS = 25.0  # measured in the paper, Section VI-C
DEFAULT_SHUTDOWN_SECONDS = 10.0  # "even less time to shut it down"


class VMState(enum.IntEnum):
    """Lifecycle states of a pre-deployed VM (the slot-array codes)."""

    OFF = 0
    BOOTING = 1
    RUNNING = 2
    SHUTTING_DOWN = 3


class VMPool:
    """All VMs of one virtual cluster, with timed state transitions.

    Parameters
    ----------
    spec:
        The cluster description (capacity, bandwidth, price).
    simulator:
        Optional discrete-event simulator; when given, boot/shutdown take
        simulated time, otherwise transitions complete immediately.
    boot_seconds / shutdown_seconds:
        Transition latencies used in simulator mode.
    """

    def __init__(
        self,
        spec: VirtualClusterSpec,
        simulator: Optional[Simulator] = None,
        *,
        boot_seconds: float = DEFAULT_BOOT_SECONDS,
        shutdown_seconds: float = DEFAULT_SHUTDOWN_SECONDS,
        boot_failure_rate: float = 0.0,
        rng: Optional["np.random.Generator"] = None,
    ) -> None:
        """``boot_failure_rate`` injects launch failures: with that
        probability a booting VM lands back in OFF instead of RUNNING
        (Xen launches do occasionally fail; the next ``scale_to`` retries
        automatically). Requires ``rng`` when > 0 for deterministic
        experiments."""
        if boot_seconds < 0 or shutdown_seconds < 0:
            raise ValueError("latencies must be nonnegative")
        if not 0.0 <= boot_failure_rate < 1.0:
            raise ValueError("boot failure rate must be in [0, 1)")
        self.spec = spec
        self.simulator = simulator
        self.boot_seconds = boot_seconds
        self.shutdown_seconds = shutdown_seconds
        self.boot_failure_rate = boot_failure_rate
        self._rng = rng
        #: One :class:`VMState` code per VM slot.
        self.states = np.full(spec.max_vms, VMState.OFF, dtype=np.int8)
        #: Pending boot-completion event per BOOTING slot (simulator mode),
        #: cancelled when the slot is shut down before it finishes booting.
        self._boot_events: Dict[int, Event] = {}
        self.launches = 0
        self.shutdowns = 0
        self.boot_failures = 0

    # ------------------------------------------------------------------
    # Queries
    # ------------------------------------------------------------------
    def count(self, state: VMState) -> int:
        return int(np.count_nonzero(self.states == state))

    @property
    def running(self) -> int:
        return self.count(VMState.RUNNING)

    @property
    def booting(self) -> int:
        return self.count(VMState.BOOTING)

    @property
    def active(self) -> int:
        """VMs that are or will shortly be serving (running + booting)."""
        return self.running + self.booting

    @property
    def available_to_launch(self) -> int:
        return self.count(VMState.OFF)

    def running_bandwidth(self) -> float:
        """Aggregate bandwidth of RUNNING VMs, bytes/second."""
        return self.running * self.spec.vm_bandwidth

    # ------------------------------------------------------------------
    # Transitions
    # ------------------------------------------------------------------
    def _failed_boots(self, n: int) -> np.ndarray:
        """Which of ``n`` boots fail: one draw per boot, in slot order."""
        if n == 0 or self.boot_failure_rate <= 0.0:
            return np.zeros(n, dtype=bool)
        if self._rng is None:
            raise ValueError("boot_failure_rate > 0 requires an rng")
        return self._rng.random(n) < self.boot_failure_rate

    def _slots(self, state: VMState, limit: int) -> np.ndarray:
        """The lowest-index ``limit`` slots in ``state``."""
        return np.flatnonzero(self.states == state)[:limit]

    def launch(self, count: int) -> int:
        """Start booting up to ``count`` OFF VMs; returns how many started.

        In instant mode the VMs are RUNNING on return. In simulator mode
        they boot in parallel and become RUNNING after ``boot_seconds``.
        """
        if count < 0:
            raise ValueError(f"launch count must be >= 0, got {count}")
        slots = self._slots(VMState.OFF, count)
        if self.simulator is None:
            failed = self._failed_boots(len(slots))
            self.boot_failures += int(np.count_nonzero(failed))
            self.states[slots[~failed]] = VMState.RUNNING
        else:
            self.states[slots] = VMState.BOOTING
            for slot in slots.tolist():
                self._boot_events[slot] = self.simulator.schedule_in(
                    self.boot_seconds,
                    functools.partial(self._complete_boot, slot),
                    label=f"vm-boot:{self.spec.name}:{slot}",
                )
        self.launches += len(slots)
        return len(slots)

    def _complete_boot(self, slot: int) -> None:
        del self._boot_events[slot]
        failed = bool(self._failed_boots(1)[0])
        self.boot_failures += int(failed)
        self.states[slot] = VMState.OFF if failed else VMState.RUNNING

    def shutdown(self, count: int) -> int:
        """Shut down up to ``count`` VMs, preferring BOOTING over RUNNING.

        (A booting VM has not served anyone yet, so cancelling it first
        minimizes disruption.) Returns how many shutdowns were initiated.
        """
        if count < 0:
            raise ValueError(f"shutdown count must be >= 0, got {count}")
        booting = self._slots(VMState.BOOTING, count)
        running = self._slots(VMState.RUNNING, count - len(booting))
        if self.simulator is None:
            self.states[booting] = VMState.OFF
            self.states[running] = VMState.OFF
        else:
            for slot in booting.tolist():
                self.simulator.cancel(self._boot_events.pop(slot))
            for slots in (booting, running):
                self.states[slots] = VMState.SHUTTING_DOWN
                for slot in slots.tolist():
                    self.simulator.schedule_in(
                        self.shutdown_seconds,
                        functools.partial(self._complete_shutdown, slot),
                        label=f"vm-stop:{self.spec.name}:{slot}",
                    )
        stopped = len(booting) + len(running)
        self.shutdowns += stopped
        return stopped

    def _complete_shutdown(self, slot: int) -> None:
        self.states[slot] = VMState.OFF

    def scale_to(self, target: int) -> int:
        """Launch or shut down VMs so that ``active`` approaches ``target``.

        Returns the signed change initiated (positive = launches).
        ``target`` is clamped to the cluster capacity.
        """
        if target < 0:
            raise ValueError(f"target must be >= 0, got {target}")
        target = min(target, self.spec.max_vms)
        diff = target - self.active
        if diff > 0:
            return self.launch(diff)
        if diff < 0:
            return -self.shutdown(-diff)
        return 0

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return (
            f"VMPool({self.spec.name!r}, running={self.running}, "
            f"booting={self.booting}, off={self.available_to_launch})"
        )
