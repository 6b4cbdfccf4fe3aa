"""Fleet benchmark: one workload run, checked, as one JSON line.

Usage:
    python3 fleetbench/run.py --workload {edge_poll,bulk_b256,seu_b16}
        --seed N --seconds S --trace {0,1}

``--trace 0`` measures the end-to-end metrics: the serving process is
set up five times (four set-up-only launches, then the measured one) and
the median set-up time is reported; the measured launch serves the
workload for ``S`` seconds.  ``--trace 1`` serves an untraced reference
window of ``S/2`` seconds, then a traced window of ``S`` seconds, prints
the serving thread's self time per layer and reports the per-layer
metrics plus the tracing overhead against the reference.

Every answer is checked after its window (see ``checks.py``).  The last
line of standard output is
``{"correct": ..., "attempted": ..., "failed": ..., "metrics": {...}}``.
"""

from __future__ import annotations

import argparse
import json
import os
import shutil
import signal
import subprocess
import sys
import time
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent))

import checks  # noqa: E402
from common import (  # noqa: E402
    REPLAY_PER_TANK,
    REPLAY_TANKS,
    ROOT,
    WORK,
    WORKLOADS,
    Inputs,
    Workload,
    latency_summary,
    median,
    percentile,
    program_env,
    read_json,
    tail_supported,
    use_program,
)

HERE = Path(__file__).resolve().parent
#: Set-up launches per ``--trace 0`` run (the measured one included).
SETUPS = 5
#: Per-layer metrics of ``--trace 1`` and their units.
PER_LAYER_UNITS = {
    "net.edge_overhead_ms": "ms",
    "wire.decode_us_per_request": "us",
    "wire.encode_us_per_response": "us",
    "loadgen.late_ms_p95": "ms",
    "broker.queue_wait_ms": "ms",
    "batching.batch_size_mean": "count",
    "batching.execute_ms_per_batch": "ms",
    "batching.execute_self_ms_per_batch": "ms",
    "batching.execute_growth": "ratio",
    "reconfig.loads_per_request": "count",
    "reconfig.load_ms": "ms",
    "reconfig.load_share": "share",
    "reconfig.configure_ms": "ms",
    "fabric.parses_per_load": "count",
    "fabric.parse_ms_per_load": "ms",
    "fabric.config_mem_load_ms": "ms",
    "kernels.frontend_ms_per_batch": "ms",
    "kernels.amp_phase_ms_per_batch": "ms",
    "kernels.capacity_ms_per_batch": "ms",
    "kernels.filter_ms_per_batch": "ms",
    "kernels.adc_chain_ms_per_batch": "ms",
    "faults.strikes_per_request": "count",
    "faults.scrubs_per_strike": "count",
    "faults.lanes_per_response": "count",
    "faults.inject_ms_per_strike": "ms",
    "metrics.observe_us": "us",
    "cache.hit_ratio": "share",
    "pool.rss_growth_kb_per_1k_requests": "KB",
    "trace.overhead_cpu_share": "share",
    "trace.uncovered_share": "share",
}
#: Upper bound on one serving process's life.
CHILD_TIMEOUT_S = 150


def pin_to_one_cpu() -> None:
    """Run this process and every process it starts on one CPU, the
    highest-numbered one allowed.  Thread hand-offs inside the serving
    process (worker, supervisor, event loop, client) then never wait for
    an idle virtual CPU to be woken, which on a shared host made latency
    swing far more than the work did."""
    os.sched_setaffinity(0, {max(os.sched_getaffinity(0))})


def serve_in_process(workload: Workload, seed: int, seconds: float, work: Path,
                     trace: bool = False, setup_only: bool = False) -> dict:
    """Run ``serving.py`` in its own process; returns its record with
    ``setup_s`` measured from launch."""
    out = work / f"serving-{time.monotonic_ns()}.json"
    argv = [sys.executable, str(HERE / "serving.py"), "--workload", workload.name,
            "--seed", str(seed), "--seconds", str(seconds), "--out", str(out)]
    if trace:
        argv.append("--trace")
    if setup_only:
        argv.append("--setup-only")
    launched = time.monotonic()
    proc = subprocess.Popen(argv, cwd=ROOT, env=program_env())
    try:
        code = proc.wait(timeout=CHILD_TIMEOUT_S)
    finally:
        if proc.poll() is None:
            proc.kill()
            proc.wait()
    if code != 0:
        raise RuntimeError(f"serving process exited with {code}")
    record = read_json(out)
    out.unlink()
    record["setup_s"] = record["t0"] - launched
    return record


def serve(workload: Workload, seed: int, seconds: float, work: Path, trace: bool = False) -> dict:
    if workload.open_loop:
        import edge

        trace_out = work / "edge-trace.json" if trace else None
        record = edge.run(seed, seconds, trace_out)
        if trace_out is not None:
            record["trace"] = read_json(trace_out)
        return record
    return serve_in_process(workload, seed, seconds, work, trace=trace)


def setup_only(workload: Workload, seed: int, work: Path) -> float:
    if workload.open_loop:
        import edge

        return edge.setup_once(seed)
    return serve_in_process(workload, seed, 0, work, setup_only=True)["setup_s"]


class Window:
    """The timed part of one record, joined with what was sent."""

    def __init__(self, record: dict):
        self.record = record
        self.sent = record["sent"]
        self.timed = self.sent[record["first_timed"]:]
        self.by_id = {}
        for a in record["answers"]:
            self.by_id.setdefault(a[checks.ID], a)
        self.ok = [self.by_id[s[0]] for s in self.timed
                   if s[0] in self.by_id and self.by_id[s[0]][checks.STATUS] == "ok"]
        self.failed = len(self.timed) - len(self.ok)
        self.seconds = record["t1"] - record["t0"]

    def latencies(self, workload: Workload):
        """Caller-observed latency of every timed OK answer: from the due
        time on the open loop, from the submit time on the closed loop."""
        starts = self.record["due"] if workload.open_loop else [s[3] for s in self.timed]
        return [self.by_id[s[0]][checks.ARRIVED] - start
                for s, start in zip(self.timed, starts)
                if s[0] in self.by_id and self.by_id[s[0]][checks.STATUS] == "ok"]


def verify(workload: Workload, seed: int, record: dict, replay: bool) -> list:
    sent = record["sent"]
    answers = record["answers"]
    win = Window(record)
    errors = checks.check_exactly_once([s[0] for s in sent], answers)
    errors += checks.check_capacitance(sent, win.by_id)
    errors += checks.check_level(sent, win.by_id)
    errors += checks.check_mean_residuals(sent, win.by_id)
    errors += checks.check_attempts(workload, win.by_id)
    errors += checks.check_batches(workload, answers)
    if replay:
        order = Inputs(workload, seed).order
        rows = checks.replay_set(sent, order, REPLAY_TANKS, REPLAY_PER_TANK)
        errors += checks.replay_scalar(workload, rows, win.by_id)
    return errors


def end_to_end(workload: Workload, record: dict, setups: list) -> dict:
    win = Window(record)
    p50, p95 = latency_summary(win.latencies(workload))
    prefix = win.ok[: workload.energy_prefix]
    if len(prefix) < workload.energy_prefix:
        raise RuntimeError(f"window too short: {len(prefix)} answers for the energy prefix")
    return {
        "throughput_rps": (len(win.ok) / win.seconds, "1/s"),
        "latency_p50_ms": (p50, "ms"),
        "latency_p95_ms": (p95, "ms"),
        "cpu_ms_per_request": (record["cpu_s"] / len(win.ok) * 1e3, "ms"),
        "sim_uj_per_request": (sum(a[checks.ENERGY] for a in prefix) / len(prefix) * 1e6, "uJ"),
        "setup_s": (median(setups), "s"),
        "rss_peak_mb": (record["rss_peak_kb"] / 1024.0, "MB"),
    }


def per_layer(workload: Workload, record: dict, reference: dict) -> dict:
    import tracing

    win = Window(record)
    t0, t1 = record["t0"], record["t1"]
    data = record["trace"]
    ref = Window(reference)
    metrics = tracing.layer_metrics(data, t0, t1, len(win.ok))
    # Memory growth comes from the untraced reference window: the traced
    # window's RSS also holds the recorded spans.
    metrics["pool.rss_growth_kb_per_1k_requests"] = (
        reference["rss_growth_kb"] / len(ref.ok) * 1e3
    )
    overhead = [a[checks.ARRIVED] - s[3] - a[checks.LATENCY]
                for s in win.timed for a in [win.by_id.get(s[0])] if a is not None]
    metrics["net.edge_overhead_ms"] = median(overhead) * 1e3
    late = record["late_s"]
    metrics["loadgen.late_ms_p95"] = (
        percentile(late, 95.0) if tail_supported(len(late), 95.0) else max(late)
    ) * 1e3
    metrics["trace.overhead_cpu_share"] = (
        (record["cpu_s"] / len(win.ok)) / (reference["cpu_s"] / len(ref.ok)) - 1.0
    )
    worker = tracing.self_times(data, t0, t1, "fleet-worker")
    metrics["trace.uncovered_share"] = worker["uncovered"] / (t1 - t0)
    print(tracing.format_self_times(
        worker, t1 - t0, f"serving thread self time, traced window {t1 - t0:.2f} s"))
    if workload.open_loop:
        loop = tracing.self_times(data, t0, t1, "net-server")
        print(tracing.format_self_times(loop, t1 - t0, "edge event-loop thread self time"))
    return {name: (metrics[name], unit) for name, unit in PER_LAYER_UNITS.items()}


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    use_program()
    pin_to_one_cpu()
    # A terminated run still stops the processes it started (finally blocks).
    signal.signal(signal.SIGTERM, lambda signum, frame: sys.exit(128 + signum))
    workload = WORKLOADS[args.workload]
    if workload.open_loop and not tail_supported(workload.scheduled(args.seconds), 95.0):
        print(f"fleetbench: {args.workload} needs a longer window for p95", file=sys.stderr)
        return 2
    work = WORK / f"run-{time.monotonic_ns()}"
    work.mkdir(parents=True)
    try:
        if args.trace:
            reference = serve(workload, args.seed, args.seconds / 2, work)
            record = serve(workload, args.seed, args.seconds, work, trace=True)
            errors = verify(workload, args.seed, reference, replay=False)
            errors += verify(workload, args.seed, record, replay=True)
            metrics = per_layer(workload, record, reference)
        else:
            setups = [setup_only(workload, args.seed, work) for _ in range(SETUPS - 1)]
            record = serve(workload, args.seed, args.seconds, work)
            setups.append(record["setup_s"])
            errors = verify(workload, args.seed, record, replay=True)
            metrics = end_to_end(workload, record, setups)
    finally:
        shutil.rmtree(work, ignore_errors=True)
        for leftover in (WORK / "tmp", WORK):
            try:
                leftover.rmdir()
            except OSError:
                pass  # another run's files are still there
    for line in errors[:20]:
        print(f"CHECK FAILED: {line}", file=sys.stderr)
    win = Window(record)
    result = {
        "correct": not errors,
        "attempted": len(win.timed),
        "failed": win.failed,
        "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()},
    }
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
