"""Shared plumbing for the workloads: clocks, quantiles, memory, GC, spans.

Nothing here imports ``repro``: the timing, statistics and span
bookkeeping are the benchmark's own, so a change to the program cannot
change how it is measured.
"""

from __future__ import annotations

import gc
import json
import math
import os
import time
from contextlib import contextmanager
from typing import Dict, Iterable, List, Optional, Sequence

import numpy as np

# -- statistics ---------------------------------------------------------------


def quantile(values: Sequence[float], q: float) -> float:
    """Linear-interpolation quantile (``q`` in [0, 1]) of ``values``."""
    if not values:
        raise ValueError("quantile of no values")
    ordered = sorted(values)
    pos = q * (len(ordered) - 1)
    lo = math.floor(pos)
    hi = min(lo + 1, len(ordered) - 1)
    return ordered[lo] + (ordered[hi] - ordered[lo]) * (pos - lo)


def median(values: Sequence[float]) -> float:
    return quantile(values, 0.5)


def mean(values: Sequence[float]) -> float:
    return sum(values) / len(values) if values else 0.0


def ratio(numerator: float, denominator: float) -> float:
    return numerator / denominator if denominator else 0.0


# -- host-speed probe ---------------------------------------------------------


def host_probe_ms() -> float:
    """Time a fixed pure-Python workload (dict, float and list churn).

    Printed beside the metrics, never used as one: it slows and speeds
    with the host in step with the program, so a run whose figures
    stray can be told apart from a run on a slow stretch of the host.
    """
    started = time.perf_counter()
    acc: Dict[int, float] = {}
    total = 0.0
    for i in range(30_000):
        value = math.sqrt(i * 1.5 + 1.0)
        acc[i & 1023] = value
        total += value
    items = sorted(acc.values())
    total += items[len(items) // 2]
    return (time.perf_counter() - started) * 1000.0


class ProbeClock:
    """Runs :func:`host_probe_ms` at most once per ``interval`` seconds."""

    def __init__(self, interval: float = 1.0) -> None:
        self.interval = interval
        self.samples: List[float] = []
        self._last = -math.inf

    def maybe_probe(self) -> None:
        now = time.monotonic()
        if now - self._last >= self.interval:
            self.samples.append(host_probe_ms())
            self._last = time.monotonic()

    def summary(self) -> str:
        if not self.samples:
            return "host_probe_ms n=0"
        return ("host_probe_ms n=%d p25=%.3f p50=%.3f p75=%.3f"
                % (len(self.samples), quantile(self.samples, 0.25),
                   median(self.samples), quantile(self.samples, 0.75)))


# -- the timed loop -----------------------------------------------------------


class Loop:
    """The timed loop's clock.

    Serving time is the loop's wall time minus what the benchmark does
    :meth:`aside` between rounds: the probe and the checks of the round
    just served.  Each round is checked and dropped right after it
    runs, so the benchmark's own heap does not grow with the number of
    operations before the peak RSS is read.  The cyclic GC is paused
    aside: a collection the benchmark's allocations would start is
    deferred to the program's next call, and the program's own
    collections keep landing in its timings.
    """

    def __init__(self) -> None:
        self._began = time.perf_counter()
        self._aside = 0.0

    @contextmanager
    def aside(self):
        tick = time.perf_counter()
        gc.disable()
        try:
            yield
        finally:
            gc.enable()
            self._aside += time.perf_counter() - tick

    @property
    def serving_seconds(self) -> float:
        return time.perf_counter() - self._began - self._aside


# -- memory -------------------------------------------------------------------


def vm_hwm_mb(pid: Optional[int] = None) -> float:
    """Peak resident set (VmHWM) of a process, in MB."""
    path = f"/proc/{pid if pid is not None else 'self'}/status"
    with open(path, encoding="ascii") as handle:
        for line in handle:
            if line.startswith("VmHWM:"):
                return int(line.split()[1]) / 1024.0
    raise RuntimeError(f"no VmHWM line in {path}")


def dir_bytes(path: str) -> int:
    """Total size of the regular files below ``path``."""
    total = 0
    for root, _, files in os.walk(path):
        for name in files:
            try:
                total += os.path.getsize(os.path.join(root, name))
            except FileNotFoundError:
                pass
    return total


# -- cyclic GC accounting (traced runs only) ----------------------------------


class GcClock:
    """Sums cyclic-GC pause time per named phase via ``gc.callbacks``."""

    def __init__(self) -> None:
        self.phase: Optional[str] = None
        self.seconds: Dict[str, float] = {}
        self._started = 0.0

    def _callback(self, event: str, info: dict) -> None:
        if event == "start":
            self._started = time.perf_counter()
        elif self.phase is not None:
            self.seconds[self.phase] = (self.seconds.get(self.phase, 0.0)
                                        + time.perf_counter() - self._started)

    def install(self) -> "GcClock":
        gc.callbacks.append(self._callback)
        return self

    def remove(self) -> None:
        if self._callback in gc.callbacks:
            gc.callbacks.remove(self._callback)


# -- spans --------------------------------------------------------------------


#: Per-band and per-wedge spans: hundreds per query on the CN preset.
#: They are counted on their kept ancestor instead of stored, which
#: keeps a traced run's memory and output file small.
FOLDED_SPANS = frozenset({"desks.subquery", "desks.band", "desks.wedge"})


def flatten_spans(roots: Iterable, op: int) -> List[dict]:
    """Flatten ``repro.trace`` span trees into plain records."""
    out: List[dict] = []

    def visit(span, parent: int) -> None:
        record = {"op": op, "name": span.name, "parent": parent,
                  "start": span.started, "end": span.ended,
                  "attrs": {k: v for k, v in span.attrs.items()
                            if isinstance(v, (int, float, str, bool))}}
        position = len(out)
        out.append(record)
        folded = 0
        stack = list(span.children)
        while stack:
            child = stack.pop()
            if child.name in FOLDED_SPANS:
                folded += 1
                stack.extend(child.children)
            else:
                visit(child, position)
        if folded:
            record["attrs"]["folded_spans"] = folded

    for root in roots:
        visit(root, -1)
    return out


def self_seconds(spans: List[dict], index: int) -> float:
    """A span's duration minus the part of it its children cover."""
    parent = spans[index]
    lo, hi = parent["start"], parent["end"]
    pieces = sorted((max(lo, s["start"]), min(hi, s["end"]))
                    for s in spans if s["parent"] == index)
    covered = 0.0
    cursor = lo
    for start, end in pieces:
        start = max(start, cursor)
        if end > start:
            covered += end - start
            cursor = end
    return max(0.0, (hi - lo) - covered)


class SpanLog:
    """Per-operation span records, kept in memory until the run ends."""

    def __init__(self) -> None:
        self.ops: List[List[dict]] = []

    def add(self, roots: Iterable) -> List[dict]:
        spans = flatten_spans(roots, len(self.ops))
        self.ops.append(spans)
        return spans

    def named(self, name: str) -> List[dict]:
        return [s for spans in self.ops for s in spans if s["name"] == name]

    def write(self, path: str) -> None:
        os.makedirs(os.path.dirname(path), exist_ok=True)
        with open(path, "w", encoding="utf-8") as handle:
            for spans in self.ops:
                handle.write(json.dumps(spans, separators=(",", ":")))
                handle.write("\n")


def span_seconds(span: dict) -> float:
    return max(0.0, span["end"] - span["start"])


# -- result line ----------------------------------------------------------------


class OpCounts:
    """Attempted/failed counters per operation type."""

    def __init__(self, kinds: Sequence[str]) -> None:
        self.attempted = {kind: 0 for kind in kinds}
        self.failed = {kind: 0 for kind in kinds}
        self.first_errors: List[str] = []

    def attempt(self, kind: str) -> None:
        self.attempted[kind] += 1

    def fail(self, kind: str, why: str) -> None:
        self.failed[kind] += 1
        if len(self.first_errors) < 5:
            self.first_errors.append(f"{kind}: {why}")

    @property
    def total_attempted(self) -> int:
        return sum(self.attempted.values())

    @property
    def total_failed(self) -> int:
        return sum(self.failed.values())

    @property
    def total_completed(self) -> int:
        return self.total_attempted - self.total_failed

    def summary(self) -> str:
        return " ".join(f"{kind}={self.attempted[kind]}/{self.failed[kind]}"
                        for kind in self.attempted)


def entry_arrays(entries):
    """Result entries as (ids, distances) arrays, which the GC ignores."""
    return (np.fromiter((e.poi_id for e in entries), np.int64, len(entries)),
            np.fromiter((e.distance for e in entries), np.float64,
                        len(entries)))


def metric(value: float, unit: str) -> dict:
    return {"value": float(value), "unit": unit}


def traced_call(tracer, fn, *args):
    """``fn(*args)``, under ``tracer`` when there is one."""
    if tracer is None:
        return fn(*args)
    with tracer.activate():
        return fn(*args)


def search_row(num_results: int, stats) -> tuple:
    """The ``SearchStats`` counters the core metrics need, as numbers."""
    return (num_results, stats.subregions_examined, stats.pois_examined,
            stats.distance_computations, stats.candidates_verified)


def common_metrics(latencies: Sequence[float], completed: int,
                   serving: float, setups: Sequence[float],
                   peak_rss: float) -> dict:
    """The five end-to-end metrics every workload reports.

    ``latencies`` are those of queries answered right; ``completed``
    counts operations of every type that succeeded in ``serving``
    seconds (:attr:`Loop.serving_seconds`).
    """
    return {
        "query_p50_ms": metric(median(latencies) * 1e3, "ms"),
        "query_p99_ms": metric(quantile(latencies, 0.99) * 1e3, "ms"),
        "ops_per_s": metric(completed / serving, "1/s"),
        "setup_s": metric(median(setups), "s"),
        "peak_rss_mb": metric(peak_rss, "MB"),
    }


def core_metrics(spans: "SpanLog", rows: Sequence[tuple],
                 build_seconds: float) -> dict:
    """Per-layer metrics of ``repro.core`` from ``desks.*`` spans and
    :func:`search_row` rows (one per search that ran)."""
    search = spans.named("desks.search")
    times = [span_seconds(s) for s in search]
    return {
        "core.search_ms_p50": metric(median(times) * 1e3, "ms"),
        "core.search_ms_p99": metric(quantile(times, 0.99) * 1e3, "ms"),
        "core.prepare_ms_p50": metric(median(
            [span_seconds(s) for s in spans.named("desks.prepare")]) * 1e3,
            "ms"),
        "core.bands_per_query": metric(
            mean([s["attrs"].get("bands_scanned", 0) for s in search]),
            "count"),
        "core.subregions_per_query": metric(
            mean([row[1] for row in rows]), "count"),
        "core.pois_per_query": metric(mean([row[2] for row in rows]),
                                      "count"),
        "core.distances_per_query": metric(
            mean([row[3] for row in rows]), "count"),
        "core.useful_ratio": metric(
            ratio(sum(row[0] for row in rows), sum(row[4] for row in rows)),
            "ratio"),
        "core.build_s": metric(build_seconds, "s"),
    }


def gc_metrics(gc_clock: GcClock, setups: int) -> dict:
    return {
        "runtime.gc_setup_s": metric(
            gc_clock.seconds.get("setup", 0.0) / setups, "s"),
        "runtime.gc_run_s": metric(gc_clock.seconds.get("run", 0.0), "s"),
    }
