"""Plumbing shared by the workloads: paths, checks, metric output."""

from __future__ import annotations

import json
import os
import resource
import shutil
import sys
from pathlib import Path
from typing import Dict, List, Tuple

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
#: Everything a run writes lives under here (ignored by git).
WORK_ROOT = ROOT / ".perfbench"
REFERENCE_FILE = Path(__file__).resolve().parent / "reference.json"

#: End-to-end metrics, in output order, with their units.
END_TO_END = (
    ("setup_s", "s"),
    ("user_steps_per_s", "1/s"),
    ("epoch_ms_p50", "ms"),
    ("first_epoch_ms_p50", "ms"),
    ("roundtrip_ms_p50", "ms"),
    ("runs_per_s", "1/s"),
    ("peak_rss_mb", "MB"),
    ("ok_frac", "ratio"),
)


def work_dir(tag: str) -> Path:
    """A fresh directory for this process's files."""
    path = WORK_ROOT / f"{tag}-{os.getpid()}"
    shutil.rmtree(path, ignore_errors=True)
    path.mkdir(parents=True)
    return path


def artifact_sha(kind: str, result) -> str:
    """sha256 of the canonical artifact encoding (``repro.service``)."""
    from repro.service.artifact import artifact_bytes, result_payload, sha256_hex

    return sha256_hex(artifact_bytes(result_payload(kind, result)))


def reference_sha(workload: str, seed: int):
    """The recorded artifact sha256 for (workload, seed), or ``None``."""
    if not REFERENCE_FILE.is_file():
        return None
    table = json.loads(REFERENCE_FILE.read_text())
    return table.get(workload, {}).get(str(seed))


class Ledger:
    """Operations attempted and failed, with the reason for each failure."""

    def __init__(self) -> None:
        self.attempted = 0
        self.failed = 0
        self.errors: List[str] = []

    def record(self, ok: bool, what: str) -> bool:
        self.attempted += 1
        if not ok:
            self.failed += 1
            self.errors.append(what)
            print(f"FAILED: {what}", file=sys.stderr, flush=True)
        return ok

    @property
    def ok_frac(self) -> float:
        return 1.0 - self.failed / self.attempted if self.attempted else 0.0


# ----------------------------------------------------------------------
# Leak guard
# ----------------------------------------------------------------------

def shm_segments() -> set:
    try:
        return {n for n in os.listdir("/dev/shm") if n.startswith("psm_")}
    except FileNotFoundError:
        return set()


def _resource_tracker_pid():
    from multiprocessing import resource_tracker

    return getattr(resource_tracker._resource_tracker, "_pid", None)


def live_children() -> List[int]:
    """Pids of this process's live (or unreaped) children, except the
    ``multiprocessing`` resource tracker, which the standard library
    keeps for the life of the process (:func:`stop_helpers` ends it)."""
    pids: List[int] = []
    for tid in os.listdir("/proc/self/task"):
        try:
            text = Path(f"/proc/self/task/{tid}/children").read_text()
        except OSError:
            continue
        pids.extend(int(p) for p in text.split())
    tracker = _resource_tracker_pid()
    return [pid for pid in pids if pid != tracker]


def stop_helpers() -> None:
    """End and reap the resource tracker before the benchmark exits."""
    from multiprocessing import resource_tracker

    stop = getattr(resource_tracker._resource_tracker, "_stop", None)
    if stop is not None:
        stop()


class LeakGuard:
    """Snapshot ``/dev/shm`` at the start; :meth:`check` records a failed
    operation for any new ``psm_*`` segment or surviving child."""

    def __init__(self) -> None:
        self.before = shm_segments()

    def check(self, ledger: Ledger) -> None:
        leaked = sorted(shm_segments() - self.before)
        children = live_children()
        ledger.record(
            not leaked and not children,
            f"leak guard: shm segments {leaked}, live children {children}",
        )


# ----------------------------------------------------------------------
# Memory
# ----------------------------------------------------------------------

def peak_rss_mb(include_self: bool) -> float:
    """Peak RSS in MB: the largest waited-for child's, plus this
    process's own when ``include_self``.  Pages a forked child shares
    with its parent count in both."""
    children = resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss
    own = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss if include_self else 0
    return (children + own) / 1024.0  # ru_maxrss is in KiB on Linux


# ----------------------------------------------------------------------
# Output
# ----------------------------------------------------------------------

def emit(ledger: Ledger, metrics: Dict[str, float],
         units: Tuple[Tuple[str, str], ...]) -> bool:
    """Print every metric by name and unit, then the result line.

    Returns whether every operation succeeded."""
    for name, unit in units:
        print(f"{name:34s} {metrics[name]:>16.6g} {unit}")
    correct = ledger.failed == 0
    print(json.dumps({
        "correct": correct,
        "attempted": ledger.attempted,
        "failed": ledger.failed,
        "metrics": {
            name: {"value": metrics[name], "unit": unit}
            for name, unit in units
        },
    }))
    return correct
