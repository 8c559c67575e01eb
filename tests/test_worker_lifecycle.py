"""Shard worker processes and what they inherit from their parent.

* A SIGKILLed parent runs no teardown, so the only signal its workers
  get is EOF on their control pipe.  That EOF arrives only if no other
  process still holds the pipe's parent end — which forked workers do
  unless they close the ends they inherit.
* A host with asyncio signal handlers (``repro serve``) must not pass
  them on: a worker would ignore SIGTERM and write the signal into the
  host's event-loop wake-up pipe, draining the host instead.
* Workers build their own shards.  A build that raises inside a worker
  surfaces as a :class:`ShardEngineError` carrying the worker's
  traceback, and leaks no process and no ``/dev/shm`` segment.

The signal cases run a 2-worker catalog run in a subprocess; the build
failures run in this process.
"""

import json
import multiprocessing
import os
import signal
import subprocess
import sys
import textwrap
import time
from pathlib import Path

import pytest

from repro.api import EngineConfig, open_run
from repro.sim.shard import ChannelShard, ShardEngineError
from repro.sim.shm import unlink_stale_segment
from repro.workload.catalog import catalog_config

SRC = str(Path(__file__).resolve().parent.parent / "src")

PREAMBLE = textwrap.dedent(
    """
    import asyncio, json, multiprocessing, os, signal
    from repro.api import EngineConfig, open_run
    from repro.workload.catalog import catalog_config

    def started_run():
        config = catalog_config(
            num_channels=8, chunks_per_channel=4, horizon_hours=2.0,
            arrival_rate=0.5, num_shards=4, dt=60.0, interval_minutes=10.0,
        )
        run = open_run(EngineConfig(spec=config, workers=2))
        run.advance()
        return run
    """
)

SIGKILL_SELF = PREAMBLE + textwrap.dedent(
    """
    run = started_run()
    print(json.dumps({
        "workers": [p.pid for p in multiprocessing.active_children()],
        "segments": run.shm_segments(),
    }), flush=True)
    os.kill(os.getpid(), signal.SIGKILL)
    """
)


def _alive(pid: int) -> bool:
    """Running (a reaped or zombie process counts as gone)."""
    try:
        with open(f"/proc/{pid}/stat") as handle:
            state = handle.read().rsplit(")", 1)[1].split()[0]
    except (FileNotFoundError, ProcessLookupError):
        return False
    return state not in ("Z", "X")


def _python(script: str) -> subprocess.Popen:
    env = dict(os.environ)
    env["PYTHONPATH"] = SRC + os.pathsep + env.get("PYTHONPATH", "")
    return subprocess.Popen(
        [sys.executable, "-c", script],
        stdout=subprocess.PIPE, stderr=subprocess.DEVNULL, text=True, env=env,
    )


def test_workers_exit_when_parent_is_sigkilled():
    # Read one line, then wait: orphaned workers would hold the stdout
    # pipe open, so reading to EOF could block as long as they live.
    process = _python(SIGKILL_SELF)
    with process:
        line = process.stdout.readline()
        assert process.wait(timeout=120) == -signal.SIGKILL, line
    info = json.loads(line)
    workers = info["workers"]
    try:
        assert len(workers) == 2
        deadline = time.monotonic() + 5.0
        while time.monotonic() < deadline and any(map(_alive, workers)):
            time.sleep(0.05)
        survivors = [pid for pid in workers if _alive(pid)]
        assert not survivors, f"shard workers outlived their parent: {survivors}"
    finally:
        for pid in workers:  # backstop so a failure leaks nothing
            if _alive(pid):
                os.kill(pid, signal.SIGKILL)
        for name in info["segments"]:
            unlink_stale_segment(name)


SIGTERM_WORKER = PREAMBLE + textwrap.dedent(
    """
    async def main():
        loop = asyncio.get_running_loop()
        signalled = asyncio.Event()
        loop.add_signal_handler(signal.SIGTERM, signalled.set)
        # Workers fork from an executor thread, as under RunHost.
        run = await loop.run_in_executor(None, started_run)
        worker = multiprocessing.active_children()[0]
        os.kill(worker.pid, signal.SIGTERM)
        worker.join(5.0)
        await asyncio.sleep(0.5)
        outcome = {
            "exitcode": worker.exitcode,
            "host_signalled": signalled.is_set(),
        }
        run.close()
        print(json.dumps(outcome), flush=True)

    asyncio.run(main())
    """
)


def test_worker_sigterm_under_asyncio_host():
    process = _python(SIGTERM_WORKER)
    with process:
        out, _ = process.communicate(timeout=120)
    assert process.returncode == 0, out
    outcome = json.loads(out.strip().splitlines()[-1])
    assert outcome == {"exitcode": -signal.SIGTERM, "host_signalled": False}


def _shm_entries():
    try:
        return {n for n in os.listdir("/dev/shm") if n.startswith("psm_")}
    except FileNotFoundError:  # pragma: no cover - non-tmpfs platforms
        return set()


def _children():
    return {p.pid for p in multiprocessing.active_children()}


def _failing(*args, **kwargs):
    raise RuntimeError("injected shard build failure")


def _two_worker_run():
    config = catalog_config(
        num_channels=8, chunks_per_channel=4, horizon_hours=0.5,
        arrival_rate=0.5, num_shards=4, dt=60.0, interval_minutes=10.0,
    )
    return open_run(EngineConfig(spec=config, workers=2))


def test_shard_constructor_failure_in_worker(monkeypatch):
    """``ChannelShard.__init__`` raising in the workers: the first
    ``advance()`` raises with the worker traceback, and by then every
    worker is gone and the epoch segment is unlinked."""
    segments, children = _shm_entries(), _children()
    # With two workers the parent builds no shard, so the patch
    # (inherited through the fork) fires only in the workers.
    monkeypatch.setattr(ChannelShard, "__init__", _failing)
    run = _two_worker_run()
    try:
        with pytest.raises(ShardEngineError) as info:
            run.advance()
        assert "Traceback" in str(info.value)
        assert "injected shard build failure" in str(info.value)
        assert _shm_entries() == segments
        assert _children() == children
        assert run.shm_segments() == []
    finally:
        run.close()
    assert _shm_entries() == segments


def test_deferred_kernel_build_failure_in_worker(monkeypatch):
    """The trace and kernel build inside a worker's first epoch: its
    failure is that epoch's ``ShardEngineError``, with the traceback,
    and ``close()`` leaves nothing behind."""
    segments, children = _shm_entries(), _children()
    monkeypatch.setattr(ChannelShard, "_build", _failing)
    run = _two_worker_run()
    try:
        with pytest.raises(ShardEngineError) as info:
            run.advance()
        assert "injected shard build failure" in str(info.value)
    finally:
        run.close()
    assert _shm_entries() == segments
    assert _children() == children
