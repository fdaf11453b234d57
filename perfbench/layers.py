"""Per-layer numbers for the traced run, measured from outside ``src/``.

Two sources:

* Coordinator process: :func:`wrapped_layers` swaps the public entry
  points of each layer for timing wrappers in every loaded ``repro``
  module that imported them, and restores them afterwards.  Runner
  processes import the originals, so these count coordinator-side calls
  only (all calls on the serial backend).
* Runner side: the library's own ``trace=True`` spans and counters
  (``round``, ``site_task``/``task``, ``allocation``, ``final_solve``,
  ``cluster.*`` and ``plan.*``), read from each job's tracer.
"""

from __future__ import annotations

import functools
import statistics
import sys
import threading
import time
from contextlib import contextmanager
from typing import Dict, Iterator, List

#: Layer name -> (module, function) entry points timed in-process.
ENTRY_POINTS = {
    "sequential.local_search": [("repro.sequential.local_search", "local_search_partial")],
    "sequential.trim_outliers": [("repro.sequential.assignment", "trim_outliers")],
    "sequential.seeding": [("repro.sequential.local_search", "plus_plus_seeding")],
    "sequential.kcenter": [("repro.sequential.kcenter_outliers", "kcenter_with_outliers")],
    "core.precluster": [("repro.core.preclustering", "precluster_site"),
                        ("repro.core.preclustering", "precluster_site_center")],
    "cluster.encode": [("repro.cluster.framing", "encode_frame")],
    "cluster.decode": [("repro.cluster.framing", "decode_body")],
}

#: Span names of site work recorded by the runtime: ``site_task`` for
#: protocols with runner-resident site state, ``task`` for stateless tasks.
SITE_SPANS = ("site_task", "task")


class CallStats:
    """Calls and inclusive busy seconds per layer, summed over threads."""

    def __init__(self) -> None:
        self.calls: Dict[str, int] = dict.fromkeys(ENTRY_POINTS, 0)
        self.busy: Dict[str, float] = dict.fromkeys(ENTRY_POINTS, 0.0)
        self._lock = threading.Lock()

    def wrap(self, layer: str, fn):
        @functools.wraps(fn)
        def timed(*args, **kwargs):
            start = time.perf_counter()
            try:
                return fn(*args, **kwargs)
            finally:
                elapsed = time.perf_counter() - start
                with self._lock:
                    self.calls[layer] += 1
                    self.busy[layer] += elapsed
        return timed


@contextmanager
def wrapped_layers() -> Iterator[CallStats]:
    """Time every :data:`ENTRY_POINTS` function while the block runs."""
    stats = CallStats()
    swaps = []
    for layer, entries in ENTRY_POINTS.items():
        for module_name, attr in entries:
            original = getattr(sys.modules[module_name], attr)
            wrapper = stats.wrap(layer, original)
            for name, module in list(sys.modules.items()):
                if name.split(".")[0] != "repro" or module is None:
                    continue
                for key, value in list(vars(module).items()):
                    if value is original:
                        swaps.append((module, key, original))
                        setattr(module, key, wrapper)
    try:
        yield stats
    finally:
        for module, key, original in swaps:
            setattr(module, key, original)


def _rounds(tracer) -> List[tuple]:
    """``(round span, its site spans)`` for each round of one job."""
    rounds = [s for s in tracer.spans if s.name == "round" and s.origin == "coordinator"]
    sites = [s for s in tracer.spans if s.name in SITE_SPANS]
    return [(r, [s for s in sites if r.start <= s.start <= r.end]) for r in rounds]


def _covered(spans) -> float:
    """Seconds during which at least one of ``spans`` was running."""
    total, reach = 0.0, float("-inf")
    for span in sorted(spans, key=lambda s: s.start):
        if span.end > reach:
            total += span.end - max(span.start, reach)
            reach = span.end
    return total


def layer_metrics(tracers: list, frames: List[int], stats: CallStats,
                  queue_waits: List[float], lanes_max: int) -> Dict[str, float]:
    """Per-job layer numbers from the traced window's jobs."""
    n = len(tracers)
    out: Dict[str, float] = {}
    for layer in ("sequential.local_search", "sequential.trim_outliers",
                  "sequential.kcenter"):
        out[f"{layer}.calls"] = stats.calls[layer] / n
    for layer in ENTRY_POINTS:
        out[f"{layer}.busy_s"] = stats.busy[layer] / n

    def span_total(name: str) -> float:
        return sum(s.duration for t in tracers for s in t.spans
                   if s.name == name and s.origin == "coordinator")

    round_s = site_s = straggler_s = wait_s = precluster_s = 0.0
    for tracer in tracers:
        for span, sites in _rounds(tracer):
            durations = [s.duration for s in sites]
            round_s += span.duration
            site_s += sum(durations)
            wait_s += span.duration - _covered(sites)
            if span.tags.get("round") == 1:
                precluster_s += sum(durations)
            if durations:
                straggler_s += max(durations) - statistics.median(durations)
    if not stats.calls["core.precluster"]:
        # Preclustering ran on the runners: round 1's site work is exactly it.
        out["core.precluster.busy_s"] = precluster_s / n
    out["core.allocation.busy_s"] = span_total("allocation") / n
    out["core.final_solve.busy_s"] = span_total("final_solve") / n
    out["runtime.round.busy_s"] = round_s / n
    out["runtime.site_task.busy_s"] = site_s / n
    out["runtime.straggler_s"] = straggler_s / n
    out["cluster.wait_s"] = wait_s / n

    def counter(name: str) -> float:
        return sum(t.metrics.counter(name) for t in tracers)

    hits = counter("cluster.resident_hit") + counter("cluster.payload_hit")
    misses = counter("cluster.resident_miss") + counter("cluster.payload_miss")
    out["cluster.resident_hit_ratio"] = hits / (hits + misses) if hits + misses else 0.0
    out["cluster.wire.frames"] = sum(frames) / n
    out["metrics.plan.tiles"] = counter("plan.tiles") / n
    out["metrics.plan.bytes_streamed"] = counter("plan.bytes_streamed") / n
    out["service.queue_wait_s"] = statistics.fmean(queue_waits)
    out["service.lanes_max"] = float(lanes_max)
    return out
