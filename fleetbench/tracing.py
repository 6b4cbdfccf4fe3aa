"""Span tracing of the program's layers from outside the program.

:func:`install` wraps public functions of each layer at runtime (class
attributes and module-level names the callers look up).  Every wrapped
call records one span: name, thread, start, end, parent span and a tag
(request id, batch id, stage, hit flag ...).  Spans stay in memory until
:func:`dump` writes them out when the run ends; :func:`layer_metrics` and
:func:`self_times` turn a dump into the per-layer figures.

All times are ``time.monotonic()`` (CLOCK_MONOTONIC, shared by every
process on the host), so spans recorded inside the edge server line up
with the client's timed window.
"""

from __future__ import annotations

import threading
import time
from typing import Dict, List, Optional, Sequence, Tuple

_clock = time.monotonic
_tls = threading.local()
#: (name, thread ident, t0, t1, parent index, tag); reserved as None
#: while the call runs.
SPANS: List[Optional[tuple]] = []
THREADS: Dict[int, str] = {}


def _stack() -> list:
    stack = getattr(_tls, "stack", None)
    if stack is None:
        stack = _tls.stack = []
        THREADS[threading.get_ident()] = threading.current_thread().name
    return stack


def _wrap(func, name, tag_of=None, result_tag=None):
    def wrapper(*args, **kwargs):
        stack = _stack()
        parent = stack[-1] if stack else -1
        index = len(SPANS)
        SPANS.append(None)
        stack.append(index)
        t0 = _clock()
        result = None
        try:
            result = func(*args, **kwargs)
            return result
        finally:
            t1 = _clock()
            stack.pop()
            tag = tag_of(args, kwargs) if tag_of is not None else None
            if result_tag is not None:
                tag = result_tag(args, result, t1)
            SPANS[index] = (
                name if isinstance(name, str) else name(args, kwargs),
                threading.get_ident(),
                t0,
                t1,
                parent,
                tag,
            )

    wrapper.__wrapped__ = func
    return wrapper


def _patch(owner, attr: str, name, tag_of=None, result_tag=None) -> None:
    raw = owner.__dict__[attr] if isinstance(owner, type) else getattr(owner, attr)
    if isinstance(raw, classmethod):
        setattr(owner, attr, classmethod(_wrap(raw.__func__, name, tag_of, result_tag)))
    else:
        setattr(owner, attr, _wrap(raw, name, tag_of, result_tag))


def install(edge: bool = False) -> None:
    """Wrap every traced layer boundary.  Call before the service is
    built, so callers that bind methods at construction bind the wrappers.
    ``edge`` adds the TCP server's wire codec calls."""
    from repro.fabric.bitstream import Bitstream
    from repro.fabric.faults import ConfigurationMemory
    import repro.kernels.frontend as kfrontend
    from repro.kernels.engine import VectorEngine
    from repro.reconfig.controller import ReconfigController
    from repro.reconfig.ports import ConfigPort
    from repro.serve.batching import BatchExecutor, BatchScheduler, FaultInjector
    from repro.serve.cache import ArtifactCache
    from repro.serve.metrics import Metrics
    from repro.serve.requests import RequestBroker
    from repro.serve.respbuf import LaneBuffers

    def waits(args, result, t1):
        # Broker clock is time.monotonic, the same clock as the spans.
        return [t1 - r.submitted_at for r in result] if result else []

    _patch(RequestBroker, "submit", "broker.submit", lambda a, k: a[1].request_id)
    _patch(RequestBroker, "take", "broker.take", result_tag=waits)
    _patch(BatchScheduler, "next_batch", "scheduler.next_batch")
    _patch(BatchExecutor, "execute", "batching.execute",
           lambda a, k: [a[1].batch_id, a[1].size])
    _patch(LaneBuffers, "__init__", "batching.lanes", lambda a, k: a[1])
    _patch(ReconfigController, "load", "reconfig.load", lambda a, k: a[1])
    _patch(ConfigPort, "configure", "reconfig.configure")
    _patch(Bitstream, "from_bytes", "fabric.parse")
    _patch(ConfigurationMemory, "load", "fabric.config_mem_load")
    _patch(VectorEngine, "run_stage", lambda a, k: f"kernels.{a[1]}",
           lambda a, k: len(a[2]))
    _patch(kfrontend, "adc_chain_batch", "kernels.adc_chain")
    _patch(FaultInjector, "fault_stage", "faults.draw")
    _patch(ConfigurationMemory, "inject_burst", "faults.inject")
    _patch(ConfigurationMemory, "corrupted_frames", "faults.readback")
    _patch(ReconfigController, "golden_bitstream", "faults.golden")
    _patch(ReconfigController, "evict", "faults.evict")
    _patch(Metrics, "observe", "metrics.observe")
    _patch(ArtifactCache, "get", "cache.get",
           result_tag=lambda a, r, t1: 0 if r is None else 1)
    if edge:
        import repro.net.server as nserver
        from repro.net.protocol import LineDecoder

        _patch(LineDecoder, "feed", "wire.decode_frame")
        _patch(nserver, "request_from_wire", "wire.decode_request")
        _patch(nserver, "response_to_wire", "wire.encode_response")
        _patch(nserver, "encode_message", "wire.encode_message",
               lambda a, k: a[0])


def dump() -> dict:
    """The recorded spans (finished ones only) and thread names."""
    return {
        "spans": [list(s) if s is not None else None for s in SPANS],
        "threads": {str(k): v for k, v in THREADS.items()},
    }


# ------------------------------------------------------------------ analysis

#: Spans ``batching.execute_self_ms_per_batch`` leaves out: reconfiguration, fabric,
#: kernel and fault-path work below ``BatchExecutor.execute``.
_EXECUTE_CHILDREN = ("reconfig.", "fabric.", "kernels.", "faults.")


class Trace:
    """Index over one dump, restricted to spans that start in a window."""

    def __init__(self, data: dict, t0: float, t1: float):
        self.all = data["spans"]
        self.children: Dict[int, List[int]] = {}
        for i, s in enumerate(self.all):
            if s is not None and s[4] >= 0:
                self.children.setdefault(s[4], []).append(i)
        self.window = [
            i for i, s in enumerate(self.all)
            if s is not None and t0 <= s[2] and s[3] <= t1
        ]

    def named(self, name: str) -> List[tuple]:
        return [self.all[i] for i in self.window if self.all[i][0] == name]

    def total(self, name: str) -> float:
        return sum(s[3] - s[2] for s in self.named(name))

    def ancestor(self, i: int, prefix: str) -> bool:
        parent = self.all[i][4]
        while parent >= 0:
            if self.all[parent][0].startswith(prefix):
                return True
            parent = self.all[parent][4]
        return False

    def outermost(self, i: int, prefixes: Tuple[str, ...]) -> float:
        """Time of the outermost descendants of span ``i`` whose names
        start with one of ``prefixes``."""
        total = 0.0
        for c in self.children.get(i, ()):
            s = self.all[c]
            if s is None:
                continue
            if s[0].startswith(prefixes):
                total += s[3] - s[2]
            else:
                total += self.outermost(c, prefixes)
        return total


def self_times(data: dict, t0: float, t1: float, thread_prefix: str) -> Dict[str, float]:
    """Self time (s) per span name on the threads whose name starts with
    ``thread_prefix``, clipped to [t0, t1], plus ``uncovered``: the part
    of the window no span covers.  The values add up to the window length
    times the number of matching threads."""
    spans = data["spans"]
    threads = {int(k) for k, v in data["threads"].items() if v.startswith(thread_prefix)}
    children = Trace(data, t0, t1).children

    def clipped(s) -> float:
        return max(0.0, min(s[3], t1) - max(s[2], t0))

    out: Dict[str, float] = {}
    covered = 0.0
    for i, s in enumerate(spans):
        if s is None or s[1] not in threads:
            continue
        own = clipped(s) - sum(
            clipped(spans[c]) for c in children.get(i, ()) if spans[c] is not None
        )
        out[s[0]] = out.get(s[0], 0.0) + own
        if s[4] < 0:
            covered += clipped(s)
    out["uncovered"] = (t1 - t0) * len(threads) - covered
    return out


def layer_metrics(
    data: dict,
    t0: float,
    t1: float,
    answers: int,
) -> Dict[str, float]:
    """Per-layer figures of one traced window.  ``answers`` is the number
    of OK answers whose requests were sent in the window."""
    tr = Trace(data, t0, t1)
    ex = [i for i in tr.window if tr.all[i][0] == "batching.execute"]
    batches = len(ex) or 1
    ex_ms = [(tr.all[i][3] - tr.all[i][2]) * 1e3 for i in ex]
    ex_total = sum(ex_ms) / 1e3 or 1e-12
    loads = [i for i in tr.window if tr.all[i][0] == "reconfig.load"]
    n_loads = len(loads) or 1
    parses = [i for i in tr.window
              if tr.all[i][0] == "fabric.parse" and tr.ancestor(i, "reconfig.load")]
    mem_loads = [i for i in tr.window
                 if tr.all[i][0] == "fabric.config_mem_load"
                 and tr.ancestor(i, "reconfig.load")]
    strikes = len(tr.named("faults.inject"))
    fault_s = sum(
        tr.all[i][3] - tr.all[i][2]
        for i in tr.window
        if tr.all[i][0] in ("faults.inject", "faults.readback", "faults.golden",
                            "faults.evict")
        or (tr.all[i][0] == "fabric.config_mem_load"
            and not tr.ancestor(i, "reconfig.load"))
    )
    waits = [w for s in tr.named("broker.take") for w in (s[5] or ())]
    observes = tr.named("metrics.observe")
    gets = tr.named("cache.get")
    tenth = max(1, len(ex_ms) // 10)
    per_answer = max(answers, 1)

    def dur(i: int) -> float:
        return tr.all[i][3] - tr.all[i][2]

    out = {
        "broker.queue_wait_ms": _mean(waits) * 1e3,
        "batching.batch_size_mean": _mean([tr.all[i][5][1] for i in ex]),
        "batching.execute_ms_per_batch": _mean(ex_ms),
        "batching.execute_self_ms_per_batch": _mean(
            [(dur(i) - tr.outermost(i, _EXECUTE_CHILDREN)) * 1e3 for i in ex]
        ),
        "batching.execute_growth": (
            _mean(ex_ms[-tenth:]) / _mean(ex_ms[:tenth]) if ex_ms else 0.0
        ),
        "reconfig.loads_per_request": len(loads) / per_answer,
        "reconfig.load_ms": tr.total("reconfig.load") / n_loads * 1e3,
        "reconfig.load_share": tr.total("reconfig.load") / ex_total,
        "reconfig.configure_ms": _mean(
            [s[3] - s[2] for s in tr.named("reconfig.configure")]
        ) * 1e3,
        "fabric.parses_per_load": len(parses) / n_loads,
        "fabric.parse_ms_per_load": sum(dur(i) for i in parses) / n_loads * 1e3,
        "fabric.config_mem_load_ms": sum(dur(i) for i in mem_loads) / n_loads * 1e3,
        "faults.strikes_per_request": strikes / per_answer,
        "faults.scrubs_per_strike": len(tr.named("faults.evict")) / strikes if strikes else 0.0,
        "faults.lanes_per_response": sum(s[5] for s in tr.named("batching.lanes")) / per_answer,
        "faults.inject_ms_per_strike": fault_s / strikes * 1e3 if strikes else 0.0,
        "metrics.observe_us": _mean([s[3] - s[2] for s in observes]) * 1e6,
        "cache.hit_ratio": _mean([s[5] for s in gets]),
    }
    for stage in ("frontend", "amp_phase", "capacity", "filter", "adc_chain"):
        out[f"kernels.{stage}_ms_per_batch"] = tr.total(f"kernels.{stage}") / batches * 1e3
    submits = len(tr.named("wire.decode_request"))
    responses = len(tr.named("wire.encode_response"))
    decode = tr.total("wire.decode_frame") + tr.total("wire.decode_request")
    encode = tr.total("wire.encode_response") + sum(
        s[3] - s[2] for s in tr.named("wire.encode_message") if s[5] == "responses"
    )
    out["wire.decode_us_per_request"] = decode / submits * 1e6 if submits else 0.0
    out["wire.encode_us_per_response"] = encode / responses * 1e6 if responses else 0.0
    return out


def _mean(values: Sequence[float]) -> float:
    return sum(values) / len(values) if values else 0.0


def format_self_times(times: Dict[str, float], wall: float, title: str) -> str:
    rows = sorted(((v, k) for k, v in times.items() if k != "uncovered"), reverse=True)
    rows.append((times["uncovered"], "uncovered"))
    lines = [title, f"{'layer span':<26}{'self s':>10}{'share':>9}"]
    for value, name in rows:
        lines.append(f"{name:<26}{value:>10.4f}{value / wall:>9.1%}")
    lines.append(f"{'sum (= thread wall)':<26}{sum(times.values()):>10.4f}{sum(times.values()) / wall:>9.1%}")
    return "\n".join(lines)
