"""Shard worker processes and what they inherit from their parent.

* A SIGKILLed parent runs no teardown, so the only signal its workers
  get is EOF on their control pipe.  That EOF arrives only if no other
  process still holds the pipe's parent end — which forked workers do
  unless they close the ends they inherit.
* A host with asyncio signal handlers (``repro serve``) must not pass
  them on: a worker would ignore SIGTERM and write the signal into the
  host's event-loop wake-up pipe, draining the host instead.

Each case runs a 2-worker catalog run in a subprocess.
"""

import json
import os
import signal
import subprocess
import sys
import textwrap
import time
from pathlib import Path

from repro.sim.shm import unlink_stale_segment

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
