"""Shared pieces of the fleet benchmark: paths, workload definitions,
seeded input generation and the percentile rule.

Every input the program sees is generated here from the workload seed:
tank ids, the order tanks are polled in, each tank's true fill level
(a clipped random walk) and the request ids.  The program's own
configuration (service seed, noise level, engine, strike model) is fixed
per workload, so two runs with the same seed send identical inputs.
"""

from __future__ import annotations

import json
import math
import os
import random
import sys
from dataclasses import dataclass
from pathlib import Path
from typing import Dict, List, Sequence, Tuple

#: Checkout root (this file lives in ``<root>/fleetbench``).
ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
#: Scratch space for one run's hand-off files and the native-kernel
#: compile directory; listed in the root ``.gitignore``.
WORK = ROOT / ".fleetbench_run"

#: Seed of the program's own tank noise model; the same in every run.
SERVICE_SEED = 0
#: Seed of the program's counter-mode SEU model (``seu_b16`` only).  Which
#: requests are struck still varies with the workload seed, because the
#: workload seed chooses the request ids the strikes are keyed on.
STRIKE_SEED = 2008

#: Tank capacitance law of the default measurement circuit (pF).
C_EMPTY_PF = 60.0
C_FULL_PF = 480.0
#: IIR coefficient of the filter stage (the paper's level smoothing).
FILTER_ALPHA = 0.25


@dataclass(frozen=True)
class Workload:
    name: str
    #: Tanks polled round robin in a seeded order.
    tanks: int
    #: Requests per batch the service forms (``max_batch``).
    batch: int
    #: Closed loop: full batches kept outstanding.  Open loop: 0.
    outstanding: int = 0
    #: Open loop: every tank is polled once per round, all requests of a
    #: round due at its start; rounds are due every ``round_s`` seconds.
    round_s: float = 0.0
    #: Requests served before the timed window (caches warm).
    warmup: int = 0
    #: First-attempt SEU strike probability, strike burst size.
    strike_rate: float = 0.0
    burst: int = 1
    #: Timed answers the simulated energy is averaged over (whole batches).
    energy_prefix: int = 0

    @property
    def open_loop(self) -> bool:
        return self.round_s > 0

    def scheduled(self, seconds: float) -> int:
        """Open-loop requests due within a window of ``seconds``."""
        return math.ceil(seconds / self.round_s) * self.tanks

    def due(self, t0: float, i: int) -> float:
        """When open-loop request ``i`` of a window starting at ``t0`` is due."""
        return t0 + (i // self.tanks) * self.round_s


WORKLOADS: Dict[str, Workload] = {
    "edge_poll": Workload(
        "edge_poll", tanks=15, batch=1, round_s=2.0, warmup=6, energy_prefix=90
    ),
    "bulk_b256": Workload(
        "bulk_b256", tanks=64, batch=256, outstanding=2, warmup=512,
        energy_prefix=2048,
    ),
    "seu_b16": Workload(
        "seu_b16", tanks=32, batch=16, outstanding=2, warmup=128,
        strike_rate=0.2, burst=2, energy_prefix=2048,
    ),
}

#: Tanks (by position in the seeded polling order) whose request
#: histories are replayed on the scalar engine, and how many requests of
#: each tank the replay covers from the start of the run.
REPLAY_TANKS = 2
REPLAY_PER_TANK = 16


@dataclass(frozen=True)
class Sent:
    """One generated request: what the benchmark sent and knows to be true."""

    request_id: int
    tank_id: str
    level: float


class Inputs:
    """Seeded request stream of one workload run.

    Request ``i`` polls tank ``order[i % tanks]``; each tank's true level
    walks from a seeded start in steps of sigma 0.03, clipped to
    [0.02, 0.98].  Request ids start at a seed-dependent base.
    """

    def __init__(self, workload: Workload, seed: int):
        self.workload = workload
        self.seed = seed
        rng = random.Random(f"fleetbench:{workload.name}:{seed}")
        self.order: List[str] = [
            f"{workload.name[:4]}-{seed}-{k:03d}" for k in range(workload.tanks)
        ]
        rng.shuffle(self.order)
        self._walk = {
            tank: (random.Random(f"{seed}:{tank}"), None) for tank in self.order
        }
        self.id_base = 1 + (seed % 100_000) * 1_000_000
        self.count = 0

    def next(self) -> Sent:
        tank = self.order[self.count % len(self.order)]
        rng, level = self._walk[tank]
        if level is None:
            level = rng.uniform(0.05, 0.95)
        else:
            level = min(0.98, max(0.02, level + rng.gauss(0.0, 0.03)))
        self._walk[tank] = (rng, level)
        sent = Sent(self.id_base + self.count, tank, level)
        self.count += 1
        return sent

    def take(self, n: int) -> List[Sent]:
        return [self.next() for _ in range(n)]


# ----------------------------------------------------------------- statistics

#: Samples that must lie beyond a reported tail percentile.
TAIL_SAMPLES = 10


def percentile(values: Sequence[float], p: float) -> float:
    """Linear-interpolated percentile of ``values`` (0 <= p <= 100)."""
    if not values:
        raise ValueError("percentile of no samples")
    ordered = sorted(values)
    rank = (len(ordered) - 1) * p / 100.0
    lo = math.floor(rank)
    hi = min(lo + 1, len(ordered) - 1)
    return ordered[lo] + (ordered[hi] - ordered[lo]) * (rank - lo)


def tail_supported(n: int, p: float) -> bool:
    """True when at least ``TAIL_SAMPLES`` of ``n`` samples lie beyond the
    ``p`` percentile, the rule for reporting a tail at all."""
    return n - math.ceil(n * p / 100.0) >= TAIL_SAMPLES


def latency_summary(latencies_s: Sequence[float]) -> Tuple[float, float]:
    """(p50, p95) in ms.

    Raises
    ------
    ValueError
        When too few samples lie beyond p95 to report it.
    """
    if not tail_supported(len(latencies_s), 95.0):
        raise ValueError(
            f"{len(latencies_s)} latency samples leave fewer than "
            f"{TAIL_SAMPLES} beyond p95"
        )
    return percentile(latencies_s, 50.0) * 1e3, percentile(latencies_s, 95.0) * 1e3


def median(values: Sequence[float]) -> float:
    return percentile(values, 50.0)


# ------------------------------------------------------------------ plumbing


def _tmp_dir() -> str:
    """Temporary directory of every process that imports the program (the
    native-kernel compile lands there), kept inside the checkout."""
    tmp = WORK / "tmp"
    tmp.mkdir(parents=True, exist_ok=True)
    return str(tmp)


def program_env() -> Dict[str, str]:
    """Environment of a child process that imports the program: the
    source tree on the path and the temporary directory of
    :func:`_tmp_dir`."""
    env = dict(os.environ)
    env["PYTHONPATH"] = str(SRC) + (os.pathsep + env["PYTHONPATH"] if env.get("PYTHONPATH") else "")
    env["TMPDIR"] = _tmp_dir()
    return env


def use_program() -> None:
    """Make the program importable in this process, with the temporary
    directory of :func:`_tmp_dir`.

    Raises
    ------
    SystemExit
        With code 2 when the checkout holds no program to measure.
    """
    if not (SRC / "repro" / "__init__.py").is_file():
        print(f"fleetbench: no program source under {SRC}", file=sys.stderr)
        raise SystemExit(2)
    if str(SRC) not in sys.path:
        sys.path.insert(0, str(SRC))
    os.environ["TMPDIR"] = _tmp_dir()
    import tempfile

    tempfile.tempdir = os.environ["TMPDIR"]


def make_injector(workload: Workload):
    """The program's counter-mode SEU model of ``workload`` (None without
    strikes): first attempts struck at ``strike_rate`` in bursts, retries
    never."""
    if not workload.strike_rate:
        return None
    from repro.serve.batching import FaultInjector

    return FaultInjector(workload.strike_rate, seed=STRIKE_SEED, burst=workload.burst,
                         retry_rate=0.0, mode="counter")


def proc_status_kb(pid, key: str) -> int:
    """One ``kB`` field (``VmRSS``, ``VmHWM``) of ``/proc/<pid>/status``;
    ``pid`` may be ``"self"``."""
    with open(f"/proc/{pid}/status") as fh:
        for line in fh:
            if line.startswith(key + ":"):
                return int(line.split()[1])
    return 0


def write_json(path: Path, data) -> None:
    tmp = path.with_suffix(".part")
    with open(tmp, "w") as fh:
        json.dump(data, fh)
    os.replace(tmp, path)


def read_json(path: Path):
    with open(path) as fh:
        return json.load(fh)
