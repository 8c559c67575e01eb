"""The ``service-mix`` workload: a closed loop of two clients against
``repro serve``.

The server runs as a subprocess (``python -m repro serve --port 0
--state-dir <dir> --max-runs 2 --checkpoint-every 1``).  This process
is the load generator: two client threads, each with at most one open
connection, each sending its next run only after the previous one
finished.

* Client A submits small closed-loop runs, follows the SSE stream to
  the end, then GETs the result (reads only).
* Client B submits small one-worker catalog runs, reads the first
  epoch event, drops the stream, POSTs ``/checkpoint`` (a write),
  reconnects with ``Last-Event-ID`` (ring replay), reads to the end
  and GETs the result.

Every served artifact must hash to the same sha256 as its config run
directly through ``open_run`` here; those direct runs also give the
service overhead.
"""

from __future__ import annotations

import contextlib
import hashlib
import os
import shutil
import signal
import subprocess
import sys
import threading
import time
from pathlib import Path
from statistics import mean, median
from time import perf_counter
from typing import Dict, List, Optional

from perfbench import common, tracing

WORKLOAD = "service-mix"
#: Distinct configs per client; each is run directly once for its
#: reference hash and in-process time.
CONFIGS_PER_CLIENT = 3
#: Server launches timed for ``setup_s`` (the last one serves the load).
SETUP_LAUNCHES = 5
#: Runs per client in the traced mode, a fixed count so that every
#: count the traced run reports repeats exactly.
TRACED_RUNS_PER_CLIENT = 4
SERVE_ARGS = ["--max-runs", "2", "--checkpoint-every", "1"]


def client_configs(seed: int) -> Dict[str, list]:
    """Client A's closed-loop configs and client B's catalog configs."""
    from repro.api import EngineConfig
    from repro.experiments.registry import closed_loop_config
    from repro.workload.catalog import catalog_config

    configs: Dict[str, list] = {"A": [], "B": []}
    for j in range(CONFIGS_PER_CLIENT):
        sub_seed = seed * CONFIGS_PER_CLIENT + j
        configs["A"].append(EngineConfig(spec=closed_loop_config(
            seed=sub_seed, mode="client-server", scale="small",
            horizon_hours=3.0,
        )))
        configs["B"].append(EngineConfig(spec=catalog_config(
            seed=sub_seed, name="service-mix-b", num_channels=16,
            chunks_per_channel=6, horizon_hours=2.0, arrival_rate=1.0,
            num_shards=4, dt=30.0, interval_minutes=10.0,
        ), workers=1))
    return configs


@contextlib.contextmanager
def counting_user_steps():
    """Count user-steps of the per-channel kernel (population summed
    over steps).  The fused kernel's are in the result itself."""
    from repro.vod.simulator import VoDSimulator

    original = VoDSimulator.__dict__["step"]
    total = [0]

    def step(self):
        sample = original(self)
        total[0] += self.population()
        return sample

    VoDSimulator.step = step
    try:
        yield total
    finally:
        VoDSimulator.step = original


def direct_run(config) -> Dict:
    """Run a config in-process: reference hash, time, user-steps."""
    from repro.api import open_run

    with counting_user_steps() as counted:
        started = perf_counter()
        with open_run(config) as run:
            result = run.result()
            sha = common.artifact_sha(config.kind, result)
        elapsed = perf_counter() - started
    populations = getattr(result, "populations", None)
    return {
        "sha": sha,
        "seconds": elapsed,
        "user_steps": counted[0] if populations is None else int(populations.sum()),
    }


class Server:
    """One ``repro serve`` subprocess on an ephemeral port."""

    def __init__(self, state_dir: Path, spans_file: Optional[Path] = None):
        from repro.service import ServiceClient

        state_dir.mkdir(parents=True)
        serve = ["serve", "--port", "0", "--state-dir", str(state_dir)]
        if spans_file is None:
            command = [sys.executable, "-m", "repro"] + serve + SERVE_ARGS
        else:
            command = [
                sys.executable, str(Path(__file__).with_name("serve_traced.py")),
                str(spans_file),
            ] + serve + SERVE_ARGS
        env = dict(os.environ)
        env["PYTHONPATH"] = os.pathsep.join(
            [str(common.SRC)] + ([env["PYTHONPATH"]] if env.get("PYTHONPATH") else [])
        )
        started = perf_counter()
        self.process = subprocess.Popen(
            command, stdout=subprocess.PIPE, text=True, env=env, cwd=common.ROOT,
        )
        line = self.process.stdout.readline()
        if "listening on " not in line:
            self.stop()
            raise RuntimeError(f"repro serve did not start: {line!r}")
        self.url = line.split("listening on ", 1)[1].split()[0]
        probe = ServiceClient(self.url)
        while not probe.healthy():
            if perf_counter() - started > 60:
                self.stop()
                raise RuntimeError("repro serve never answered /healthz")
            time.sleep(0.002)
        self.setup_s = perf_counter() - started

    def stop(self) -> bool:
        """SIGTERM (the server drains and exits); True if it exited 0."""
        if self.process.poll() is None:
            self.process.send_signal(signal.SIGTERM)
        try:
            self.process.communicate(timeout=60)
        except subprocess.TimeoutExpired:
            self.process.kill()
            self.process.communicate()
            return False
        return self.process.returncode == 0


class LoadClient:
    """One closed-loop client (its own thread, one connection at a time)."""

    def __init__(self, role: str, url: str, configs: list,
                 references: List[Dict]) -> None:
        from repro.service import ServiceClient

        self.role = role
        self.client = ServiceClient(url)
        self.configs = configs
        self.references = references
        self.records: List[Dict] = []
        self.http_requests = 0
        self.rejected = 0
        self.reconnects = 0

    def loop(self, *, deadline: Optional[float] = None,
             count: Optional[int] = None) -> None:
        i = 0
        while (count is None or i < count) and (
            deadline is None or perf_counter() < deadline
        ):
            self.records.append(self.one_run(i % len(self.configs)))
            i += 1

    def one_run(self, index: int) -> Dict:
        from repro.service import ServiceError

        record: Dict = {"config": index, "ok": False, "epochs": []}
        started = record["submitted"] = perf_counter()
        try:
            self.http_requests += 1
            run_id = record["run_id"] = self.client.submit(self.configs[index])
            final_state = (self._read_all if self.role == "A"
                           else self._read_checkpoint_replay)(run_id, record)
            self.http_requests += 1
            asked = perf_counter()
            data = self.client.result_bytes(run_id)
            done = perf_counter()
        except Exception as exc:  # noqa: BLE001 - every failure is counted
            if isinstance(exc, ServiceError) and exc.status == 503:
                self.rejected += 1
            record["error"] = f"client {self.role}: {exc!r}"
            return record
        record["result_s"] = done - asked
        record["roundtrip"] = done - started
        expected = self.references[index]["sha"]
        got = hashlib.sha256(data).hexdigest()
        record["ok"] = final_state == "done" and got == expected
        if not record["ok"]:
            record["error"] = (
                f"client {self.role} run {run_id}: state {final_state}, "
                f"artifact {got} != direct {expected}"
            )
        return record

    def _read_all(self, run_id: str, record: Dict) -> Optional[str]:
        """Follow the stream to its end; returns the final state."""
        self.http_requests += 1
        state = None
        for event in self.client.events(run_id):
            if event["event"] == "epoch":
                record["epochs"].append((event["id"], perf_counter()))
            else:
                state = event["data"].get("state")
        return state

    def _read_checkpoint_replay(self, run_id: str, record: Dict) -> Optional[str]:
        """First epoch, drop, checkpoint, reconnect with Last-Event-ID."""
        self.http_requests += 1
        stream = self.client.events(run_id)
        seen = None
        for event in stream:
            if event["event"] == "epoch":
                record["epochs"].append((event["id"], perf_counter()))
                seen = event["id"]
                break
        stream.close()
        self.http_requests += 1
        self.client.checkpoint(run_id)
        self.http_requests += 1
        self.reconnects += 1
        state = None
        for event in self.client.events(run_id, last_event_id=seen):
            if event["event"] == "state":
                state = event["data"].get("state")
        return state


class ServiceBench:
    """The service-mix workload at one seed."""

    def __init__(self, seed: int) -> None:
        self.seed = seed
        self.ledger = common.Ledger()
        self.scratch = common.work_dir("service")
        self.guard = common.LeakGuard()
        self.configs = client_configs(seed)
        self.references = {
            role: [direct_run(c) for c in configs]
            for role, configs in self.configs.items()
        }
        self._launches = 0

    def _server(self, spans_file: Optional[Path] = None) -> Server:
        self._launches += 1
        return Server(self.scratch / f"state-{self._launches}", spans_file)

    def _stop(self, server: Server) -> None:
        self.ledger.record(server.stop(), "repro serve did not shut down cleanly")

    def _load(self, server: Server, **limit) -> Dict:
        clients = [
            LoadClient(role, server.url, self.configs[role], self.references[role])
            for role in ("A", "B")
        ]
        threads = [
            threading.Thread(target=c.loop, kwargs=limit, name=f"client-{c.role}")
            for c in clients
        ]
        cpu0, started = time.process_time(), perf_counter()
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join()
        wall = perf_counter() - started
        for client in clients:
            for record in client.records:
                self.ledger.record(record["ok"], record.get("error", ""))
        return {
            "clients": clients,
            "wall": wall,
            "cpu_frac": (time.process_time() - cpu0) / wall,
        }

    def _finish(self) -> None:
        self.guard.check(self.ledger)
        shutil.rmtree(self.scratch, ignore_errors=True)

    # ------------------------------------------------------------------
    def measure(self, seconds: float) -> Dict[str, float]:
        setups = []
        for launch in range(SETUP_LAUNCHES):
            server = self._server()
            setups.append(server.setup_s)
            if launch < SETUP_LAUNCHES - 1:
                self._stop(server)
        try:
            load = self._load(server, deadline=perf_counter() + seconds)
        finally:
            self._stop(server)
        self._finish()
        records = [
            (client, r) for client in load["clients"] for r in client.records
        ]
        verified = [(c, r) for c, r in records if r["ok"]]
        first_epochs = [
            r["epochs"][0][1] - r["submitted"] for _, r in verified
        ]
        gaps = [
            b[1] - a[1]
            for c, r in verified if c.role == "A"
            for a, b in zip(r["epochs"], r["epochs"][1:])
        ]
        wall = load["wall"]
        return {
            "setup_s": median(setups),
            "user_steps_per_s": sum(
                self.references[c.role][r["config"]]["user_steps"]
                for c, r in verified
            ) / wall,
            "epoch_ms_p50": tracing.median_ms(gaps),
            "first_epoch_ms_p50": tracing.median_ms(first_epochs),
            # A's and B's runs differ fourfold in length, so a median
            # over both would follow the mix of completed runs; each
            # client's median is stable, and so is their mean.
            "roundtrip_ms_p50": mean(
                tracing.median_ms([r["roundtrip"] for c, r in verified if c is client])
                for client in load["clients"]
            ),
            "runs_per_s": len(verified) / wall,
            "peak_rss_mb": common.peak_rss_mb(include_self=False),
            "ok_frac": self.ledger.ok_frac,
        }

    def trace(self) -> Dict:
        """The same fixed load against an untraced and a traced server."""
        server = self._server()
        try:
            untraced = self._load(server, count=TRACED_RUNS_PER_CLIENT)
        finally:
            self._stop(server)
        spans_file = self.scratch / "server-spans.jsonl"
        server = self._server(spans_file)
        try:
            traced = self._load(server, count=TRACED_RUNS_PER_CLIENT)
        finally:
            self._stop(server)
            server_pid = server.process.pid
        spans = tracing.load_spans(spans_file) if spans_file.is_file() else []
        self._finish()
        ledger = tracing.reconcile(spans, server_pid)
        metrics = dict.fromkeys((name for name, _ in tracing.PER_LAYER), 0.0)
        metrics.update(tracing.layer_metrics(spans, ledger["wall"]))
        metrics.update(self._client_side(traced, spans))
        metrics.update({
            "trace.wall_s": ledger["wall"],
            "trace.unattributed_s": ledger["remainder"],
            "trace.overhead_frac": traced["wall"] / untraced["wall"] - 1.0,
            "loadgen.cpu_frac": traced["cpu_frac"],
        })
        return {"metrics": metrics, "ledger": ledger, "wall": ledger["wall"]}

    def _client_side(self, load: Dict, spans: List) -> Dict[str, float]:
        """Per-layer metrics that join client records with server spans.

        The host's ``submit`` span maps a run id to its config object,
        and every ``Run.advance`` span names the config and epoch."""
        config_of = {
            s.attrs[1]: s.attrs[0] for s in spans if s.name == "bench.submit"
        }
        first_advance: Dict[int, float] = {}
        advance: Dict[tuple, float] = {}
        for s in spans:
            if s.name == "api.advance" and s.attrs is not None:
                key, index = s.attrs
                first_advance[key] = min(first_advance.get(key, s.start), s.start)
                advance[(key, index)] = s.end - s.start
        queue_waits, gaps, overheads, results = [], [], [], []
        for client in load["clients"]:
            for r in client.records:
                if not r["ok"]:
                    continue
                key = config_of.get(r["run_id"])
                if key in first_advance:
                    queue_waits.append(first_advance[key] - r["submitted"])
                if client.role == "A":
                    for (_, t0), (index, t1) in zip(r["epochs"], r["epochs"][1:]):
                        gaps.append(t1 - t0 - advance.get((key, index), 0.0))
                direct = self.references[client.role][r["config"]]["seconds"]
                overheads.append(r["roundtrip"] - direct)
                results.append(r["result_s"])
        clients = load["clients"]
        return {
            "service.queue_wait_ms_p50": tracing.median_ms(queue_waits),
            "service.epoch_gap_ms_p50": tracing.median_ms(gaps),
            "service.overhead_ms_p50": tracing.median_ms(overheads),
            "service.result_ms_p50": tracing.median_ms(results),
            "service.http_requests": sum(c.http_requests for c in clients),
            "service.rejected": sum(c.rejected for c in clients),
            "service.sse_reconnects": sum(c.reconnects for c in clients),
        }
