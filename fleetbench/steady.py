"""Steadiness check: several sets of benchmark runs, compared.

Runs ``RUNS`` seeds (1..RUNS) of every workload per set, ``SETS`` times,
each run a fresh ``run.py`` process.  For every end-to-end metric
it prints each set's median, quartiles and spread (inter-quartile
distance over the median, as ``statistics.quantiles(values, n=4)`` gives
the quartiles), the worst spread and the shift of each later set's median
from the first, both against the metric's bound in ``BENCHMARK.json``,
and whether ``sim_uj_per_request`` repeated exactly seed by seed.

Usage: python3 fleetbench/steady.py

The workloads and the window length are those of ``BENCHMARK.json``.
Exits 1 when a spread or shift exceeds its bound, a run fails its
checks, or the simulated energy does not repeat exactly.
"""

from __future__ import annotations

import json
import statistics
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
#: Sets of runs compared, and seeds per workload in each set.
SETS = 2
RUNS = 10


def run_once(workload: str, seed: int, seconds: int) -> dict:
    out = subprocess.run(
        [sys.executable, str(HERE / "run.py"), "--workload", workload, "--seed",
         str(seed), "--seconds", str(seconds), "--trace", "0"],
        cwd=ROOT, capture_output=True, text=True, timeout=600,
    )
    if out.returncode != 0:
        raise RuntimeError(f"{workload} seed {seed} exited {out.returncode}: {out.stderr[-400:]}")
    return json.loads(out.stdout.strip().splitlines()[-1])


def spread(values) -> tuple:
    q1, q2, q3 = statistics.quantiles(values, n=4)
    return q1, q2, q3, (q3 - q1) / q2


def main() -> int:
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    workloads = [w["name"] for w in spec["workloads"]]
    bounds = {m["name"]: m for m in spec["end_to_end"]}
    ok = True
    # Sets run one after another over all workloads, so the sets of one
    # workload are taken minutes apart, as two separate campaigns would be.
    everything = {workload: [] for workload in workloads}
    for k in range(SETS):
        for workload in workloads:
            results = []
            for seed in range(1, RUNS + 1):
                r = run_once(workload, seed, spec["run_seconds"])
                if not r["correct"]:
                    print(f"{workload} set {k} seed {seed}: checks failed")
                    ok = False
                results.append(r)
                print(f"  {workload} set {k} seed {seed}: " + " ".join(
                    f"{n}={v['value']:.4g}" for n, v in r["metrics"].items()), flush=True)
            everything[workload].append(results)
    for workload, sets in everything.items():
        failed_shares = {
            sum(r["failed"] for r in s) / sum(r["attempted"] for r in s) for s in sets
        }
        ok = ok and len(failed_shares) == 1
        print(f"\n{workload}: failed share per set {sorted(failed_shares)}")
        print(f"{'metric':<22}{'bound':>7}  " + "  ".join(
            f"{'set' + str(k) + ' q1/med/q3':>30}{'spread':>8}" for k in range(SETS))
              + f"{'shift':>9}")
        for name, m in bounds.items():
            stats = [spread([r["metrics"][name]["value"] for r in s]) for s in sets]
            sign = 1 if m["better"] == "lower" else -1
            shift = max(sign * (st[1] - stats[0][1]) / stats[0][1] for st in stats)
            worst = max(st[3] for st in stats)
            bad = shift > m["bound"] or worst > m["bound"]
            ok = ok and not bad
            print(f"{name:<22}{m['bound']:>7.2f}  " + "  ".join(
                f"{st[0]:>10.4g}{st[1]:>10.4g}{st[2]:>10.4g}{st[3]:>8.3f}" for st in stats)
                  + f"{shift:>+9.3f}"
                  + ("  OVER BOUND" if bad else "  above bound/3" if worst > m["bound"] / 3 else ""))
        energy = [[r["metrics"]["sim_uj_per_request"]["value"] for r in s] for s in sets]
        exact = all(e == energy[0] for e in energy)
        ok = ok and exact
        print(f"sim_uj_per_request repeats exactly seed by seed: {exact}")
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main())
