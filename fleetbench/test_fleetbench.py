"""Self-tests of the fleet benchmark.

Run from the checkout root: python3 -m pytest -q fleetbench/test_fleetbench.py
"""

from __future__ import annotations

import json
import math
import sys
from dataclasses import replace
from pathlib import Path

import pytest

sys.path.insert(0, str(Path(__file__).resolve().parent))

import checks  # noqa: E402
import run  # noqa: E402
import tracing  # noqa: E402
from common import (  # noqa: E402
    C_EMPTY_PF,
    FILTER_ALPHA,
    ROOT,
    WORKLOADS,
    Inputs,
    latency_summary,
    percentile,
    tail_supported,
    use_program,
)

use_program()


# ------------------------------------------------------------- percentiles


def test_p95_needs_ten_samples_beyond_it():
    assert not tail_supported(199, 95.0)
    assert tail_supported(200, 95.0)
    with pytest.raises(ValueError):
        latency_summary([0.001] * 199)
    p50, p95 = latency_summary([i / 1000 for i in range(1, 201)])
    assert p50 == pytest.approx(100.5)
    assert p95 == pytest.approx(190.05)


def test_percentile_interpolates():
    assert percentile([3.0, 1.0, 2.0], 50.0) == 2.0
    assert percentile([1.0, 2.0], 25.0) == 1.25


def test_window_uses_due_time_on_open_loop_and_submit_time_on_closed():
    # The second send stalled 150 ms past its due time; on the open loop
    # the third is charged that stall even though it was served quickly.
    sent = [[1, "a", 0.5, 0.0], [2, "a", 0.5, 0.25], [3, "a", 0.5, 0.26]]
    answers = [[rid, "ok", 270.0, 0.5, 1, 1, 1e-6, 0.01, at]
               for rid, at in ((1, 0.05), (2, 0.30), (3, 0.31))]
    record = {"sent": sent, "answers": answers, "first_timed": 0, "t0": 0.0,
              "t1": 0.31, "due": [0.0, 0.1, 0.2]}
    opened = run.Window(record).latencies(WORKLOADS["edge_poll"])
    closed = run.Window(record).latencies(WORKLOADS["bulk_b256"])
    assert opened == pytest.approx([0.05, 0.20, 0.11])
    assert closed == pytest.approx([0.05, 0.05, 0.05])


# --------------------------------------------------------------- the checks


def ideal_run(n: int = 48):
    """Sent rows and answers that sit exactly on the expected reading (law
    plus calibrated offset) and its IIR."""
    inputs = Inputs(WORKLOADS["bulk_b256"], seed=5)
    sent, answers, state = [], [], {}
    for s in inputs.take(n):
        reading = (checks.expected_pf(s.level) - C_EMPTY_PF) / checks.SPAN_PF
        prev = state.get(s.tank_id)
        iir = reading if prev is None else prev + FILTER_ALPHA * (reading - prev)
        state[s.tank_id] = iir
        sent.append([s.request_id, s.tank_id, s.level, 0.0])
        answers.append([s.request_id, "ok", checks.expected_pf(s.level), iir, 1,
                        256, 5e-5, 0.1, 0.2])
    return sent, answers


def all_checks(sent, answers, workload="bulk_b256"):
    by_id = {}
    for a in answers:
        by_id.setdefault(a[checks.ID], a)
    return (
        checks.check_exactly_once([s[0] for s in sent], answers)
        + checks.check_capacitance(sent, by_id)
        + checks.check_level(sent, by_id)
        + checks.check_mean_residuals(sent, by_id)
        + checks.check_attempts(WORKLOADS[workload], by_id)
        + checks.check_batches(WORKLOADS[workload], answers)
    )


def serve(workload, rows):
    """Answer rows of ``rows`` served by the program's vector engine."""
    from repro.serve.pool import FleetService
    from repro.serve.requests import MeasurementRequest
    from common import SERVICE_SEED, make_injector

    service = FleetService(
        workers=1, max_batch=workload.batch, queue_capacity=len(rows), window_s=5.0,
        seed=SERVICE_SEED, engine="vector", fault_injector=make_injector(workload),
    ).start()
    for rid, tank, level, _ in rows:
        service.submit(MeasurementRequest(rid, tank, level))
    assert service.await_responses(len(rows), timeout_s=120)
    service.shutdown()
    return [[r.request_id, r.status, r.capacitance_pf, r.level_measured, r.attempts,
             r.batch_size, r.energy_j, r.latency_s, 0.0] for r in service.responses()]


@pytest.fixture(scope="module")
def bulk_answers():
    rows = [[s.request_id, s.tank_id, s.level, 0.0]
            for s in Inputs(WORKLOADS["bulk_b256"], seed=7).take(512)]
    return rows, serve(WORKLOADS["bulk_b256"], rows)


def test_ideal_answers_pass():
    sent, answers = ideal_run()
    assert all_checks(sent, answers) == []


@pytest.mark.parametrize(
    "field,delta",
    [(checks.CAP, 25.0), (checks.CAP, -25.0), (checks.LEVEL, 0.08), (checks.LEVEL, -0.08)],
)
def test_perturbed_reading_is_rejected(field, delta):
    sent, answers = ideal_run()
    # A low-level reading, where the tolerance is tightest.
    k = min(range(len(sent)), key=lambda i: sent[i][2])
    answers[k][field] += delta
    by_id = {a[0]: a for a in answers}
    errors = checks.check_capacitance(sent, by_id) + checks.check_level(sent, by_id)
    assert len(errors) == 1 and str(sent[k][0]) in errors[0]


@pytest.mark.parametrize("field", [checks.CAP, checks.LEVEL])
def test_uniform_gain_error_is_rejected(bulk_answers, field):
    """A 2 % gain error on every real answer passes every per-answer bound
    and fails the mean-residual check."""
    sent, answers = bulk_answers
    assert all_checks(sent, answers) == []
    skewed = [list(a) for a in answers]
    for a in skewed:
        a[field] *= 1.02
    by_id = {a[0]: a for a in skewed}
    assert checks.check_capacitance(sent, by_id) + checks.check_level(sent, by_id) == []
    what = "capacitance" if field == checks.CAP else "level"
    errors = checks.check_mean_residuals(sent, by_id)
    assert any(e.startswith(f"{what} in all levels") for e in errors)


def test_swapped_answers_are_rejected():
    sent, answers = ideal_run()
    lo = min(range(len(sent)), key=lambda i: sent[i][2])
    hi = max(range(len(sent)), key=lambda i: sent[i][2])
    answers[lo][checks.CAP], answers[hi][checks.CAP] = answers[hi][checks.CAP], answers[lo][checks.CAP]
    assert len(checks.check_capacitance(sent, {a[0]: a for a in answers})) == 2


def test_missing_duplicate_and_unknown_answers_are_rejected():
    sent, answers = ideal_run()
    assert any("unanswered" in e for e in all_checks(sent, answers[:-1]))
    assert any("answered 2 times" in e for e in all_checks(sent, answers + [answers[0]]))
    stray = list(answers[0])
    stray[checks.ID] = 999
    assert any("unknown request 999" in e for e in all_checks(sent, answers + [stray]))


def test_failed_status_and_wrong_attempts_are_rejected():
    sent, answers = ideal_run()
    answers[3][checks.STATUS] = "failed"
    assert any("status failed" in e for e in all_checks(sent, answers))
    sent, answers = ideal_run()
    answers[3][checks.ATTEMPTS] = 2
    assert any("after 2 attempts" in e for e in all_checks(sent, answers))


def test_struck_request_must_take_two_attempts():
    sent, answers = ideal_run(200)
    for a in answers:
        a[checks.BATCH] = 16
        if checks.struck(a[checks.ID], WORKLOADS["seu_b16"].strike_rate):
            a[checks.ATTEMPTS] = 2
    assert all_checks(sent, answers, "seu_b16") == []
    hit = next(a for a in answers if a[checks.ATTEMPTS] == 2)
    hit[checks.ATTEMPTS] = 1
    assert len(all_checks(sent, answers, "seu_b16")) == 1


def test_partial_batch_is_rejected():
    sent, answers = ideal_run()
    answers[0][checks.BATCH] = 255
    assert any("batch sizes" in e for e in all_checks(sent, answers))


def test_strike_model_matches_the_program():
    from repro.serve.batching import FaultInjector
    from common import STRIKE_SEED

    injector = FaultInjector(0.2, seed=STRIKE_SEED, burst=2, mode="counter")
    for rid in range(1000, 1400):
        predicted = injector.predict_stage(rid, 1, 4) is not None
        assert checks.struck(rid, 0.2) == predicted


def test_real_answers_pass_and_replay_is_bit_exact():
    """Serve a short closed loop on the vector engine, check it, replay it
    on the scalar engine, then show a one-ulp change is caught."""
    workload = WORKLOADS["seu_b16"]
    inputs = Inputs(workload, seed=3)
    rows = [[s.request_id, s.tank_id, s.level, 0.0] for s in inputs.take(64)]
    answers = serve(workload, rows)
    assert all_checks(rows, answers, "seu_b16") == []
    by_id = {a[0]: a for a in answers}
    replay = checks.replay_set(rows, inputs.order, 2, 6)
    assert checks.replay_scalar(workload, replay, by_id) == []
    victim = by_id[replay[0][0]]
    victim[checks.CAP] = math.nextafter(victim[checks.CAP], math.inf)
    assert len(checks.replay_scalar(workload, replay, by_id)) == 1


# ------------------------------------------------------------------ tracing


def test_self_times_add_up_to_the_window():
    tid = 7
    data = {
        "threads": {str(tid): "fleet-worker-0", "8": "other"},
        "spans": [
            ["batching.execute", tid, 1.0, 3.0, -1, [1, 16]],
            ["reconfig.load", tid, 1.2, 1.7, 0, "frontend"],
            ["fabric.parse", tid, 1.3, 1.4, 1, None],
            ["kernels.frontend", tid, 2.0, 2.5, 0, 16],
            ["scheduler.next_batch", tid, 3.0, 4.5, -1, None],
            ["broker.submit", 8, 1.0, 2.0, -1, 1],
        ],
    }
    times = tracing.self_times(data, 0.5, 4.0, "fleet-worker")
    assert sum(times.values()) == pytest.approx(3.5)
    assert times["batching.execute"] == pytest.approx(1.0)
    assert times["reconfig.load"] == pytest.approx(0.4)
    assert times["scheduler.next_batch"] == pytest.approx(1.0)
    assert times["uncovered"] == pytest.approx(0.5)
    assert "broker.submit" not in times
    layer = tracing.layer_metrics(data, 0.5, 4.0, answers=16)
    assert layer["batching.execute_self_ms_per_batch"] == pytest.approx(1000.0)
    assert layer["fabric.parses_per_load"] == 1.0


def test_wrappers_record_nested_spans():
    class Box:
        def outer(self):
            return self.inner() + 1

        def inner(self):
            return 1

    start = len(tracing.SPANS)
    tracing._patch(Box, "outer", "box.outer")
    tracing._patch(Box, "inner", "box.inner")
    assert Box().outer() == 2
    outer, inner = tracing.SPANS[start], tracing.SPANS[start + 1]
    assert (outer[0], inner[0]) == ("box.outer", "box.inner")
    assert inner[4] == start and outer[4] == -1
    assert outer[2] <= inner[2] <= inner[3] <= outer[3]


# ------------------------------------------------------- BENCHMARK.json


def test_benchmark_json_matches_what_the_runs_report():
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    assert [m["name"] for m in spec["per_layer"]] == list(run.PER_LAYER_UNITS)
    assert {m["name"]: m["unit"] for m in spec["per_layer"]} == run.PER_LAYER_UNITS
    assert sorted(w["name"] for w in spec["workloads"]) == sorted(WORKLOADS)
    sent, answers = ideal_run(400)
    record = {"sent": sent, "answers": answers, "first_timed": 0, "t0": 0.0, "t1": 1.0,
              "cpu_s": 0.5, "rss_peak_kb": 1024}
    workload = WORKLOADS["bulk_b256"]
    metrics = run.end_to_end(replace(workload, energy_prefix=256), record, [1.0, 2.0, 3.0])
    assert {m["name"]: m["unit"] for m in spec["end_to_end"]} == {
        k: u for k, (_, u) in metrics.items()}
    assert metrics["setup_s"][0] == 2.0
