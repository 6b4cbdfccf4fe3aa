"""The ``edge_poll`` workload: tanks polled over TCP on an open-loop
schedule against a separate ``repro serve --listen`` process.

The server is one process with one vector-engine worker and
``--max-batch 1``, so every request is its own batch.  The client is this
process: one connection, one thread.  Like a plant poller it polls every
tank once per round, all requests of a round due at the round's start,
rounds due every ``round_s`` seconds whether or not earlier answers are
back.  Latency runs from the due time, so a request is charged the wait
behind the rest of its round; how late each send was is recorded apart.

The server's CPU time and RSS are read from ``/proc/<pid>`` at the window
edges.
"""

from __future__ import annotations

import os
import signal
import subprocess
import sys
import time
from pathlib import Path
from typing import Dict, List, Optional

from checks import ARRIVED, REJECTED
from common import ROOT, SERVICE_SEED, WORKLOADS, Inputs, proc_status_kb, program_env

HERE = Path(__file__).resolve().parent
WORKLOAD = WORKLOADS["edge_poll"]


def _proc_cpu_s(pid: int) -> float:
    with open(f"/proc/{pid}/stat") as fh:
        fields = fh.read().rsplit(")", 1)[1].split()
    # utime and stime are fields 14 and 15 (1-based) of the whole line.
    return (int(fields[11]) + int(fields[12])) / os.sysconf("SC_CLK_TCK")


class Server:
    """One ``repro serve --listen`` process started through
    ``serve_entry.py`` (which can install the tracing wrappers first)."""

    def __init__(self, trace_out: Optional[Path] = None):
        argv = [sys.executable, str(HERE / "serve_entry.py")]
        if trace_out is not None:
            argv += ["--trace-out", str(trace_out)]
        argv += [
            "serve", "--listen", "127.0.0.1:0", "--workers", "1",
            "--max-batch", "1", "--engine", "vector", "--seed", str(SERVICE_SEED),
        ]
        self.spawned_at = time.monotonic()
        self.proc = subprocess.Popen(
            argv, cwd=ROOT, env=program_env(), stdout=subprocess.PIPE,
            stderr=subprocess.DEVNULL, text=True,
        )
        line = self.proc.stdout.readline()
        if "listening on" not in line:
            self.stop()
            raise RuntimeError(f"server did not start: {line!r}")
        self.port = int(line.rsplit(":", 1)[1])

    def cpu_s(self) -> float:
        return _proc_cpu_s(self.proc.pid)

    def rss_kb(self) -> int:
        return proc_status_kb(self.proc.pid, "VmRSS")

    def peak_rss_kb(self) -> int:
        return proc_status_kb(self.proc.pid, "VmHWM")

    def stop(self) -> None:
        if self.proc.poll() is None:
            self.proc.send_signal(signal.SIGTERM)
        try:
            self.proc.communicate(timeout=60)
        except subprocess.TimeoutExpired:
            self.proc.kill()
            self.proc.communicate()


def _client(port: int):
    from repro.net.client import NetClient
    from repro.shard.wire import KIND_REJECT, KIND_RESPONSE, response_from_wire

    class CountingClient(NetClient):
        """Records every answer envelope as an answer row with its arrival
        time, so a duplicate answer is seen instead of overwriting the
        first.  An admission rejection settles its request too, as a row
        with status ``rejected``."""

        def __init__(self, *args, **kwargs):
            super().__init__(*args, **kwargs)
            self.arrivals: List[list] = []

        def _process(self, kind: str, payload: dict) -> None:
            now = time.monotonic()
            if kind == KIND_RESPONSE:
                for wire in payload.get("responses", ()):
                    r = response_from_wire(wire)
                    self.arrivals.append([
                        r.request_id, r.status, r.capacitance_pf, r.level_measured,
                        r.attempts, r.batch_size, r.energy_j, r.latency_s, now,
                    ])
            elif kind == KIND_REJECT:
                self.arrivals.append(
                    [payload.get("request_id"), REJECTED, None, None, 0, 0, None, None, now]
                )
            super()._process(kind, payload)

    return CountingClient("127.0.0.1", port, timeout_s=30.0).connect()


def _warm(client, inputs: Inputs, sent: list) -> None:
    from repro.serve.requests import MeasurementRequest

    for s in inputs.take(WORKLOAD.warmup):
        sent.append((s, time.monotonic()))
        client.submit(MeasurementRequest(s.request_id, s.tank_id, s.level))
        client.await_responses(len(sent), timeout_s=60)


def setup_once(seed: int) -> float:
    """Spawn a server, connect and warm up; seconds from spawn to the
    moment the first timed request would be sent."""
    server = Server()
    try:
        client = _client(server.port)
        _warm(client, Inputs(WORKLOAD, seed), [])
        t0 = time.monotonic()
        client.close()
        return t0 - server.spawned_at
    finally:
        server.stop()


def run(seed: int, seconds: float, trace_out: Optional[Path] = None) -> Dict:
    """One timed edge window; returns the same record layout as
    ``serving.py`` plus the due times."""
    from repro.serve.requests import MeasurementRequest

    server = Server(trace_out)
    try:
        client = _client(server.port)
        inputs = Inputs(WORKLOAD, seed)
        sent: list = []
        _warm(client, inputs, sent)
        first_timed = len(sent)
        n = WORKLOAD.scheduled(seconds)
        t0 = time.monotonic()
        setup_s = t0 - server.spawned_at
        cpu0, rss0 = server.cpu_s(), server.rss_kb()
        due = [WORKLOAD.due(t0, i) for i in range(n)]
        late: List[float] = []
        i = 0
        target = first_timed + n
        deadline = t0 + seconds + 60.0
        while len(client.arrivals) < target:
            now = time.monotonic()
            if now > deadline or client.closed:
                raise RuntimeError(f"edge stalled at {len(client.arrivals)}/{target} settled")
            while i < n and now >= due[i]:
                s = inputs.next()
                sent.append((s, now))
                late.append(now - due[i])
                client.submit(MeasurementRequest(s.request_id, s.tank_id, s.level))
                i += 1
                now = time.monotonic()
            wait = due[i] - now if i < n else 0.05
            client.pump(timeout_s=min(max(wait, 0.0005), 0.05))
        t1 = client.arrivals[-1][ARRIVED]
        cpu1, rss1 = server.cpu_s(), server.rss_kb()
        peak_kb = server.peak_rss_kb()
        # Trailing duplicates, if any, would arrive right behind the rest.
        client.pump(timeout_s=0.2)
        client.close()
    finally:
        server.stop()
    return {
        "t0": t0,
        "t1": t1,
        "setup_s": setup_s,
        "first_timed": first_timed,
        "cpu_s": cpu1 - cpu0,
        "rss_peak_kb": peak_kb,
        "rss_growth_kb": rss1 - rss0,
        "late_s": late,
        "due": due,
        "sent": [[s.request_id, s.tank_id, s.level, at] for s, at in sent],
        "answers": client.arrivals,
    }
