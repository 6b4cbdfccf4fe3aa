"""Measure the capacitance noise and offset the correctness checks are built on.

Serves ``PER_LEVEL`` requests at each fill level of a grid of ``STEPS + 1``
levels from 0 to 1 (fresh tanks, so every answer is a tank's first
reading) and prints, per level, the standard deviation and the mean of
``capacitance_pf`` around the tank law
C = C_empty + level * (C_full - C_empty): the ``SIGMA_PF`` and ``MEAN_PF``
tables ``checks.py`` holds.

Usage: python3 fleetbench/calibrate.py
"""

from __future__ import annotations

import statistics
import sys
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent))

from common import C_EMPTY_PF, C_FULL_PF, SERVICE_SEED, use_program  # noqa: E402

#: Readings per level: the mean's standard error is below 0.04 sigma.
PER_LEVEL = 1024
#: Grid intervals between level 0 and level 1 (the tables' resolution).
STEPS = 80


def main() -> int:
    use_program()
    from repro.serve.pool import FleetService
    from repro.serve.requests import MeasurementRequest

    levels = [k / STEPS for k in range(STEPS + 1)]
    requests = [
        MeasurementRequest(i * len(levels) + k, f"cal-{i}-{k}", level)
        for i in range(PER_LEVEL)
        for k, level in enumerate(levels)
    ]
    service = FleetService(
        workers=1, max_batch=256, queue_capacity=len(requests), seed=SERVICE_SEED,
        engine="vector",
    ).start()
    for r in requests:
        service.submit(r)
    service.await_responses(len(requests), timeout_s=900)
    service.shutdown()
    errors = {level: [] for level in levels}
    by_id = {r.request_id: r for r in service.responses()}
    for r in requests:
        law = C_EMPTY_PF + r.level * (C_FULL_PF - C_EMPTY_PF)
        errors[r.level].append(by_id[r.request_id].capacitance_pf - law)
    for table, stat in (("SIGMA_PF", statistics.pstdev), ("MEAN_PF", statistics.mean)):
        values = [f"{stat(errors[level]):.2f}" for level in levels]
        print(f"{table} = (")
        for k in range(0, len(values), 9):
            print("    " + ", ".join(values[k:k + 9]) + ",")
        print(")")
    return 0


if __name__ == "__main__":
    sys.exit(main())
