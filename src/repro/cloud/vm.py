"""VM lifecycle state machine and per-cluster pools (paper Section VI-C).

The paper measures ~25 s to boot a Xen VM and "even less" to shut one down,
with launches proceeding in parallel. VMs here are pre-deployed in the OFF
state (as in the paper) and transition

    OFF -> BOOTING -> RUNNING -> SHUTTING_DOWN -> OFF

under control of the VM scheduler. Pools can run attached to a
:class:`repro.sim.Simulator` (boot latency becomes simulated time) or in
*instant* mode for the analytical experiments that do not care about the
seconds-scale transient.
"""

from __future__ import annotations

import enum
import itertools
from dataclasses import dataclass, field
from typing import Dict, List, Optional

import numpy as np

from repro.cloud.cluster import VirtualClusterSpec
from repro.sim.engine import Simulator

__all__ = ["VMState", "VM", "VMPool", "DEFAULT_BOOT_SECONDS",
           "DEFAULT_SHUTDOWN_SECONDS"]

DEFAULT_BOOT_SECONDS = 25.0  # measured in the paper, Section VI-C
DEFAULT_SHUTDOWN_SECONDS = 10.0  # "even less time to shut it down"


class VMState(enum.Enum):
    """Lifecycle states of a pre-deployed VM."""

    OFF = "off"
    BOOTING = "booting"
    RUNNING = "running"
    SHUTTING_DOWN = "shutting_down"


@dataclass
class VM:
    """One virtual machine instance.

    The ``assignment`` field records which (channel, chunk) demands the VM
    currently serves, as fractional bandwidth shares summing to <= 1; the
    VM packer (:mod:`repro.core.packing`) fills it.
    """

    vm_id: int
    cluster: str
    state: VMState = VMState.OFF
    booted_at: Optional[float] = None
    assignment: Dict[object, float] = field(default_factory=dict)

    @property
    def is_usable(self) -> bool:
        return self.state is VMState.RUNNING

    def clear_assignment(self) -> None:
        self.assignment.clear()

    def assigned_fraction(self) -> float:
        return float(sum(self.assignment.values()))


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

    _ids = itertools.count(1)

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
        (Xen launches do occasionally fail; the scheduler's next
        ``scale_to`` retries automatically). Requires ``rng`` when > 0
        for deterministic experiments."""
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
        self.vms: List[VM] = [
            VM(vm_id=next(self._ids), cluster=spec.name) for _ in range(spec.max_vms)
        ]
        #: VMs per lifecycle state, kept in step by :meth:`_move` so the
        #: counting queries never walk ``vms``.
        self._counts: Dict[VMState, int] = {state: 0 for state in VMState}
        self._counts[VMState.OFF] = len(self.vms)
        self.launches = 0
        self.shutdowns = 0
        self.boot_failures = 0

    # ------------------------------------------------------------------
    # Queries
    # ------------------------------------------------------------------
    def count(self, state: VMState) -> int:
        return self._counts[state]

    @property
    def running(self) -> int:
        return self._counts[VMState.RUNNING]

    @property
    def booting(self) -> int:
        return self._counts[VMState.BOOTING]

    @property
    def active(self) -> int:
        """VMs that are or will shortly be serving (running + booting)."""
        return self._counts[VMState.RUNNING] + self._counts[VMState.BOOTING]

    @property
    def available_to_launch(self) -> int:
        return self._counts[VMState.OFF]

    def running_vms(self) -> List[VM]:
        return [vm for vm in self.vms if vm.state is VMState.RUNNING]

    def running_bandwidth(self) -> float:
        """Aggregate bandwidth of RUNNING VMs, bytes/second."""
        return self.running * self.spec.vm_bandwidth

    # ------------------------------------------------------------------
    # Transitions
    # ------------------------------------------------------------------
    def _now(self) -> float:
        return self.simulator.now if self.simulator is not None else 0.0

    def _move(self, source: VMState, target: VMState, n: int = 1) -> None:
        """Record ``n`` VMs moving from ``source`` to ``target``; every
        state change of a pool VM is booked here."""
        self._counts[source] -= n
        self._counts[target] += n

    def _boot_fails(self) -> bool:
        if self.boot_failure_rate <= 0.0:
            return False
        if self._rng is None:
            raise ValueError("boot_failure_rate > 0 requires an rng")
        return bool(self._rng.random() < self.boot_failure_rate)

    def launch(self, count: int) -> int:
        """Start booting up to ``count`` OFF VMs; returns how many started.

        In instant mode the VMs are RUNNING on return. In simulator mode
        they boot in parallel and become RUNNING after ``boot_seconds``.
        """
        if count < 0:
            raise ValueError(f"launch count must be >= 0, got {count}")
        count = min(count, self._counts[VMState.OFF])
        instant = self.simulator is None
        target = VMState.RUNNING if instant else VMState.BOOTING
        now = self._now()
        started = moved = 0
        for vm in self.vms:
            if started >= count:
                break
            if vm.state is not VMState.OFF:
                continue
            started += 1
            if instant and self._boot_fails():
                self.boot_failures += 1
                continue
            vm.state = target
            moved += 1
            if instant:
                vm.booted_at = now
            else:
                self.simulator.schedule_in(
                    self.boot_seconds,
                    self._make_boot_completion(vm),
                    label=f"vm-boot:{vm.vm_id}",
                )
        self._move(VMState.OFF, target, moved)
        self.launches += started
        return started

    def _make_boot_completion(self, vm: VM):
        def complete() -> None:
            if vm.state is VMState.BOOTING:
                if self._boot_fails():
                    self.boot_failures += 1
                    vm.state = VMState.OFF
                else:
                    vm.state = VMState.RUNNING
                    vm.booted_at = self._now()
                self._move(VMState.BOOTING, vm.state)

        return complete

    def shutdown(self, count: int) -> int:
        """Shut down up to ``count`` VMs, preferring BOOTING over RUNNING.

        (A booting VM has not served anyone yet, so cancelling it first
        minimizes disruption.) Returns how many shutdowns were initiated.
        """
        if count < 0:
            raise ValueError(f"shutdown count must be >= 0, got {count}")
        target = (
            VMState.OFF if self.simulator is None else VMState.SHUTTING_DOWN
        )
        stopped = 0
        # Booting VMs are cheapest to reclaim.
        for state in (VMState.BOOTING, VMState.RUNNING):
            quota = min(count - stopped, self._counts[state])
            taken = 0
            for vm in self.vms:
                if taken >= quota:
                    break
                if vm.state is not state:
                    continue
                taken += 1
                vm.clear_assignment()
                vm.state = target
                if self.simulator is not None:
                    self.simulator.schedule_in(
                        self.shutdown_seconds,
                        self._make_shutdown_completion(vm),
                        label=f"vm-stop:{vm.vm_id}",
                    )
            self._move(state, target, taken)
            stopped += taken
        self.shutdowns += stopped
        return stopped

    def _make_shutdown_completion(self, vm: VM):
        def complete() -> None:
            if vm.state is VMState.SHUTTING_DOWN:
                vm.state = VMState.OFF
                vm.booted_at = None
                self._move(VMState.SHUTTING_DOWN, VMState.OFF)

        return complete

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
