"""Correctness checks of a workload run, computed apart from the program.

All checks run after the timed window.  Each returns a list of error
strings (empty when the run passes):

* :func:`check_exactly_once` — every sent request answered exactly once,
  no answer for a request never sent.
* :func:`check_capacitance` — ``capacitance_pf`` against the tank law
  C = C_empty + level * (C_full - C_empty) of the true level sent.
* :func:`check_level` — ``level_measured`` against the benchmark's own
  per-tank IIR over the true levels.
* :func:`check_mean_residuals` — the mean of both readings' residuals,
  per level bin and over the run, against the calibrated offsets.
* :func:`check_attempts` — one attempt per request, two for requests the
  strike model hits (recomputed here from the model's published keying).
* :func:`check_batches` — every batch had the workload's size.
* :func:`replay_scalar` — the first requests of a few tanks re-served on
  the scalar engine must match the vector-engine answers bit for bit.

Tolerances.  The front end adds Gaussian noise, so a reading scatters
around the law with a level-dependent sigma and a small level-dependent
mean offset (``SIGMA_PF`` and ``MEAN_PF``, measured by ``calibrate.py``
at this commit: 1024 fresh readings at each of 81 levels).  A reading
passes within ``BIAS_PF + K_SIGMA * sigma(level)``; with ``K_SIGMA = 8``
a correct reading fails with probability below 1e-14.  The level check
propagates the same sigmas through the IIR
(variance v <- (1 - a)^2 v + a^2 sigma^2) and allows ``K_SIGMA`` of the
result plus the filter's quantisation step.

Those per-answer bounds catch outliers only: at level 0.5 they allow
about 19 % of the law.  :func:`check_mean_residuals` catches a
systematic error.  It takes each answer's residual from its expected
value (law plus ``MEAN_PF``; for the level, the IIR of that), in
sigmas, and bounds the mean per level bin and over the whole run by
``Z_CHANCE / sqrt(n / INFLATION) + Z_SLACK``.  A 2 % gain error moves
the mean by about 0.8 sigma and fails on a few hundred answers.
"""

from __future__ import annotations

import hashlib
import math
from typing import Dict, Iterable, Iterator, List, Sequence

from common import (
    C_EMPTY_PF,
    C_FULL_PF,
    FILTER_ALPHA,
    SERVICE_SEED,
    STRIKE_SEED,
    Workload,
    make_injector,
)

#: Capacitance sigma and mean offset (pF) around the law at levels
#: 0, 1/80, ..., 1 (calibrate.py).
SIGMA_PF = (
    1.56, 1.46, 1.56, 1.55, 1.86, 1.94, 1.72, 1.98, 2.07,
    2.40, 2.26, 2.64, 2.37, 2.64, 2.62, 2.82, 2.96, 3.02,
    3.34, 3.14, 3.56, 4.36, 3.76, 3.58, 4.14, 4.54, 4.27,
    4.03, 4.23, 4.45, 4.45, 4.42, 4.58, 5.02, 5.32, 5.17,
    5.06, 5.00, 5.14, 5.49, 6.01, 6.36, 6.37, 6.45, 5.91,
    5.91, 6.25, 6.36, 6.87, 7.69, 8.44, 9.06, 9.25, 8.83,
    8.48, 8.36, 7.92, 7.77, 7.69, 7.58, 7.71, 7.74, 8.70,
    9.09, 9.52, 9.96, 10.44, 10.67, 10.99, 11.55, 11.16, 11.54,
    11.46, 11.45, 11.37, 10.67, 10.70, 10.22, 10.34, 10.10, 10.21,
)
MEAN_PF = (
    4.77, 3.14, 1.71, 0.38, -1.21, -1.96, -1.87, -1.23, -0.50,
    -0.93, -0.51, -1.74, -0.52, -0.89, -0.54, -1.25, -0.84, -1.12,
    -1.82, -1.27, -0.16, -0.75, -1.28, -0.90, 0.46, 0.33, -0.59,
    -0.97, 0.01, 0.07, 0.11, -0.42, -0.91, -0.63, 0.20, 0.44,
    0.07, -0.72, -1.55, -1.27, -0.74, -0.08, 0.41, 0.55, 0.01,
    -0.53, -1.46, -1.93, -1.50, -0.65, 0.50, 1.48, 2.16, 3.14,
    1.71, 1.56, 0.47, -0.63, -1.05, -1.20, -1.56, -1.54, 0.02,
    0.36, 1.83, 2.25, 2.96, 3.52, 2.99, 2.28, 1.39, 1.18,
    0.06, -0.68, -1.54, -2.40, -2.65, -3.28, -3.21, -2.99, -2.71,
)
#: Largest mean offset at any level (+4.77 pF at level 0).
BIAS_PF = 5.0
K_SIGMA = 8.0
#: Chance bound on a mean of residuals, in standard errors: a correct run
#: fails one bin with probability about 1e-8.
Z_CHANCE = 6.0
#: Allowance (sigmas) for the tables' own error: each point's mean has a
#: standard error of 0.03 sigma, and levels between points are interpolated.
Z_SLACK = 0.1
#: Variance inflation of a mean of level residuals: successive IIR outputs
#: of a tank are correlated (rho = 1 - a), so n of them weigh like
#: n * a / (2 - a) independent ones.
LEVEL_INFLATION = (2 - FILTER_ALPHA) / FILTER_ALPHA
#: Equal-width level bins of the mean-residual check.
LEVEL_BINS = 10
#: Quantisation of the filter's level output (Q2.22), both ways.
LEVEL_LSB = 2.0 ** -21
SPAN_PF = C_FULL_PF - C_EMPTY_PF

#: Answer record layout shared by serving.py and edge.py.
ID, STATUS, CAP, LEVEL, ATTEMPTS, BATCH, ENERGY, LATENCY, ARRIVED = range(9)
#: Status of an edge request the server's admission control turned away:
#: counted as failed, not held to the answer checks.
REJECTED = "rejected"


def _table(table: Sequence[float], level: float) -> float:
    """``table`` linearly interpolated at ``level`` (clipped to [0, 1])."""
    steps = len(table) - 1
    x = min(max(level, 0.0), 1.0) * steps
    k = min(int(x), steps - 1)
    return table[k] + (table[k + 1] - table[k]) * (x - k)


def sigma_pf(level: float) -> float:
    """Noise sigma of one reading at ``level``."""
    return _table(SIGMA_PF, level)


def expected_pf(level: float) -> float:
    """Mean reading at ``level``: the law plus the calibrated offset."""
    return capacitance_law(level) + _table(MEAN_PF, level)


def capacitance_law(level: float) -> float:
    return C_EMPTY_PF + level * SPAN_PF


def check_exactly_once(sent_ids: Sequence[int], answers: Iterable[list]) -> List[str]:
    expected = set(sent_ids)
    seen: Dict[int, int] = {}
    for a in answers:
        seen[a[ID]] = seen.get(a[ID], 0) + 1
    errors = [f"request {rid} answered {n} times" for rid, n in seen.items() if n > 1]
    errors += [f"answer for unknown request {rid}" for rid in seen if rid not in expected]
    missing = expected - set(seen)
    if missing:
        errors.append(f"{len(missing)} requests unanswered, e.g. {sorted(missing)[:3]}")
    return errors


def check_capacitance(sent: Sequence[list], by_id: Dict[int, list]) -> List[str]:
    errors = []
    for rid, _tank, level, _at in sent:
        a = by_id.get(rid)
        if a is None or a[STATUS] != "ok":
            continue
        tol = BIAS_PF + K_SIGMA * sigma_pf(level)
        if a[CAP] is None or abs(a[CAP] - capacitance_law(level)) > tol:
            errors.append(
                f"request {rid}: capacitance {a[CAP]} pF, law {capacitance_law(level):.3f}"
                f" +- {tol:.1f}"
            )
    return errors


def _filtered(sent: Sequence[list], by_id: Dict[int, list]) -> Iterator[tuple]:
    """Per-tank IIR over each OK answer's true level, in the order the tank
    was polled: ``(request id, answer, level, IIR of the true levels, IIR of
    the expected readings, variance of the IIR output)``."""
    state: Dict[str, tuple] = {}
    for rid, tank, level, _at in sent:
        a = by_id.get(rid)
        if a is None or a[STATUS] != "ok":
            continue
        sigma = sigma_pf(level) / SPAN_PF
        reading = (expected_pf(level) - C_EMPTY_PF) / SPAN_PF
        prev = state.get(tank)
        if prev is None:
            iir, mean, var = level, reading, sigma * sigma
        else:
            iir = prev[0] + FILTER_ALPHA * (level - prev[0])
            mean = prev[1] + FILTER_ALPHA * (reading - prev[1])
            var = (1 - FILTER_ALPHA) ** 2 * prev[2] + FILTER_ALPHA ** 2 * sigma * sigma
        state[tank] = (iir, mean, var)
        yield rid, a, level, iir, mean, var


def check_level(sent: Sequence[list], by_id: Dict[int, list]) -> List[str]:
    errors = []
    for rid, a, _level, iir, _mean, var in _filtered(sent, by_id):
        tol = K_SIGMA * math.sqrt(var) + BIAS_PF / SPAN_PF + LEVEL_LSB
        if a[LEVEL] is None or abs(a[LEVEL] - iir) > tol:
            errors.append(
                f"request {rid}: level {a[LEVEL]}, independent IIR {iir:.6f} +- {tol:.4f}"
            )
    return errors


def check_mean_residuals(sent: Sequence[list], by_id: Dict[int, list]) -> List[str]:
    """Mean residual of ``capacitance_pf`` and ``level_measured`` from
    their expected values, in sigmas, per level bin and over the run."""
    cap, lvl = [], []
    for _rid, a, level, _iir, mean, var in _filtered(sent, by_id):
        if a[CAP] is not None:
            cap.append((level, (a[CAP] - expected_pf(level)) / sigma_pf(level)))
        if a[LEVEL] is not None:
            lvl.append((level, (a[LEVEL] - mean) / math.sqrt(var)))
    return (_mean_bounds("capacitance", cap, 1.0)
            + _mean_bounds("level", lvl, LEVEL_INFLATION))


def _mean_bounds(what: str, samples: List[tuple], inflation: float) -> List[str]:
    bins: Dict[int, List[float]] = {}
    for level, z in samples:
        bins.setdefault(min(int(level * LEVEL_BINS), LEVEL_BINS - 1), []).append(z)
    groups = [(f"levels [{k / LEVEL_BINS:.1f}, {(k + 1) / LEVEL_BINS:.1f})", zs)
              for k, zs in sorted(bins.items())]
    groups.append(("all levels", [z for _, z in samples]))
    errors = []
    for name, zs in groups:
        if not zs:
            continue
        mean = sum(zs) / len(zs)
        limit = Z_CHANCE * math.sqrt(inflation / len(zs)) + Z_SLACK
        if abs(mean) > limit:
            errors.append(
                f"{what} in {name}: mean residual {mean:+.3f} sigma over {len(zs)}"
                f" answers, limit {limit:.3f}"
            )
    return errors


def struck(request_id: int, rate: float) -> bool:
    """Whether the counter-mode strike model hits a request's first
    attempt: BLAKE2b-64 of ``"<seed>:strike:<id>:1"``, top 53 bits as a
    uniform in [0, 1), compared with the rate."""
    key = f"{STRIKE_SEED}:strike:{request_id}:1".encode()
    digest = int.from_bytes(hashlib.blake2b(key, digest_size=8).digest(), "big")
    return (digest >> 11) * 2.0 ** -53 < rate


def check_attempts(workload: Workload, by_id: Dict[int, list]) -> List[str]:
    errors = []
    for rid, a in by_id.items():
        if a[STATUS] == REJECTED:
            continue
        want = 2 if workload.strike_rate and struck(rid, workload.strike_rate) else 1
        if a[STATUS] != "ok" or a[ATTEMPTS] != want:
            errors.append(
                f"request {rid}: status {a[STATUS]} after {a[ATTEMPTS]} attempts, "
                f"want ok after {want}"
            )
    return errors


def check_batches(workload: Workload, answers: Iterable[list]) -> List[str]:
    sizes = {a[BATCH] for a in answers if a[STATUS] != REJECTED}
    if sizes - {workload.batch}:
        return [f"batch sizes {sorted(sizes)}, want only {workload.batch}"]
    return []


def replay_set(sent: Sequence[list], order: Sequence[str], tanks: int, per_tank: int) -> List[list]:
    """The first ``per_tank`` requests of the first ``tanks`` tanks of the
    polling order, in send order."""
    chosen = set(order[:tanks])
    counts: Dict[str, int] = {}
    out = []
    for row in sent:
        tank = row[1]
        if tank in chosen and counts.get(tank, 0) < per_tank:
            counts[tank] = counts.get(tank, 0) + 1
            out.append(row)
    return out


def replay_scalar(workload: Workload, rows: Sequence[list], by_id: Dict[int, list]) -> List[str]:
    """Serve ``rows`` on the scalar engine (same service seed and strike
    model) and compare every answer bit for bit.  A tank's answers depend
    only on that tank's own request sequence, so the replay may batch
    differently from the measured run."""
    from repro.serve.pool import FleetService
    from repro.serve.requests import MeasurementRequest

    service = FleetService(
        workers=1, max_batch=16, queue_capacity=len(rows) + 1, seed=SERVICE_SEED,
        engine="scalar", fault_injector=make_injector(workload),
    ).start()
    try:
        for rid, tank, level, _at in rows:
            service.submit(MeasurementRequest(rid, tank, level))
        if not service.await_responses(len(rows), timeout_s=120):
            return ["scalar replay timed out"]
    finally:
        service.shutdown()
    return compare_replay(
        {r.request_id: [r.request_id, r.status, r.capacitance_pf, r.level_measured,
                        r.attempts] for r in service.responses()},
        by_id,
    )


def compare_replay(reference: Dict[int, list], by_id: Dict[int, list]) -> List[str]:
    errors = []
    for rid, ref in reference.items():
        got = by_id.get(rid)
        fields = (STATUS, CAP, LEVEL, ATTEMPTS)
        if got is None or any(got[f] != ref[f] for f in fields):
            errors.append(
                f"request {rid}: vector {got and [got[f] for f in fields]} != "
                f"scalar {[ref[f] for f in fields]}"
            )
    return errors
