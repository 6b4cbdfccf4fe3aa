"""Serving process of the in-process workloads (``bulk_b256``, ``seu_b16``).

Started by ``run.py`` as its own process so that set-up is timed from
process launch: imports, the native-kernel compile, artifact-cache fill
and warm-up all happen here before the first timed request.

The load is a closed loop from the main thread: ``outstanding`` full
batches are kept in the service; when one batch's answers arrive the next
batch is submitted.  Answers are observed through the service's public
``on_deliver`` seam.  Everything the parent needs (what was sent, every
answer, arrival times, CPU and RSS figures, optional spans) is written as
JSON to ``--out``.

Usage: python3 fleetbench/serving.py --workload bulk_b256 --seed 1
           --seconds 30 --out result.json [--setup-only] [--trace]
"""

from __future__ import annotations

import argparse
import resource
import sys
import threading
import time
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent))

from common import (  # noqa: E402
    SERVICE_SEED,
    WORKLOADS,
    Inputs,
    make_injector,
    proc_status_kb,
    use_program,
    write_json,
)


class ClosedLoop:
    def __init__(self, workload, seed: int, trace: bool):
        if trace:
            import tracing

            tracing.install()
        from repro.serve.pool import FleetService

        self.workload = workload
        self.inputs = Inputs(workload, seed)
        self._lock = threading.Condition()
        self.received = []  # responses in delivery order
        self.service = FleetService(
            workers=1,
            max_batch=workload.batch,
            queue_capacity=workload.batch * (workload.outstanding + 1),
            # A batch is taken only when full (the client always supplies
            # whole batches), so every batch has the same size.
            window_s=5.0,
            seed=SERVICE_SEED,
            engine="vector",
            fault_injector=make_injector(workload),
            on_deliver=self._on_deliver,
        ).start()
        self.sent = []  # (Sent, submit time)
        self.late = []  # per timed request: due -> sent

    def _on_deliver(self, responses) -> None:
        with self._lock:
            self.received.extend(responses)
            self._lock.notify_all()

    def submit_batch(self, due=None) -> None:
        """Submit the next whole batch; with ``due`` (when the batch was
        due: window start or the wake-up that freed its place) each
        request's send delay is recorded."""
        from repro.serve.requests import MeasurementRequest

        for s in self.inputs.take(self.workload.batch):
            at = time.monotonic()
            self.sent.append((s, at))
            if due is not None:
                self.late.append(at - due)
            self.service.submit(MeasurementRequest(s.request_id, s.tank_id, s.level))

    def wait_for(self, count: int) -> float:
        with self._lock:
            while len(self.received) < count:
                if not self._lock.wait(60.0):
                    raise RuntimeError(f"stalled at {len(self.received)}/{count} answers")
            return time.monotonic()

    def run(self, seconds: float, setup_only: bool) -> dict:
        b = self.workload.batch
        arrivals = []  # (answers seen so far, arrival time)
        # Warm-up: whole batches through the same closed loop, untimed.
        for _ in range(self.workload.outstanding):
            self.submit_batch()
        done = 0
        while len(self.sent) < self.workload.warmup:
            done += b
            arrivals.append((done, self.wait_for(done)))
            self.submit_batch()
        # Drain the warm-up so the timed window starts from an idle
        # service with exactly ``outstanding`` batches queued.
        while done < len(self.sent):
            done += b
            arrivals.append((done, self.wait_for(done)))
        first_timed = len(self.sent)
        t0 = time.monotonic()
        if setup_only:
            self.service.shutdown(drain=True)
            return {"t0": t0}
        cpu0, rss0 = time.process_time(), proc_status_kb("self", "VmRSS")
        for _ in range(self.workload.outstanding):
            self.submit_batch(due=t0)
        while time.monotonic() - t0 < seconds:
            done += b
            seen = self.wait_for(done)
            arrivals.append((done, seen))
            self.submit_batch(due=seen)
        while done < len(self.sent):
            done += b
            arrivals.append((done, self.wait_for(done)))
        t1 = arrivals[-1][1]
        cpu1, rss1 = time.process_time(), proc_status_kb("self", "VmRSS")
        peak_kb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
        self.service.shutdown(drain=True)
        # Each answer's arrival is the first wake-up that saw it.
        arrival_of = {}
        index = 0
        for count, at in arrivals:
            while index < count:
                arrival_of[self.received[index].request_id] = at
                index += 1
        return {
            "t0": t0,
            "t1": t1,
            "first_timed": first_timed,
            "cpu_s": cpu1 - cpu0,
            "rss_peak_kb": peak_kb,
            "rss_growth_kb": rss1 - rss0,
            "late_s": self.late,
            "sent": [[s.request_id, s.tank_id, s.level, at] for s, at in self.sent],
            "answers": [
                [
                    r.request_id, r.status, r.capacitance_pf, r.level_measured,
                    r.attempts, r.batch_size, r.energy_j, r.latency_s,
                    arrival_of.get(r.request_id),
                ]
                for r in self.received
            ],
        }


def main() -> int:
    parser = argparse.ArgumentParser()
    parser.add_argument("--workload", required=True, choices=["bulk_b256", "seu_b16"])
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--out", required=True)
    parser.add_argument("--setup-only", action="store_true")
    parser.add_argument("--trace", action="store_true")
    args = parser.parse_args()
    use_program()
    loop = ClosedLoop(WORKLOADS[args.workload], args.seed, args.trace)
    result = loop.run(args.seconds, args.setup_only)
    if args.trace:
        import tracing

        result["trace"] = tracing.dump()
    write_json(Path(args.out), result)
    return 0


if __name__ == "__main__":
    sys.exit(main())
