"""engine-cn: ``QueryEngine.execute`` on the calling thread over a
memory-resident ``DesksIndex`` of the CN preset (82.5k POIs).

Every query is unique, so every cache lookup misses and the band/wedge
search of Algorithms 1-2 does nearly all the work.
"""

from __future__ import annotations

import gc
import random
import time
from typing import Optional

from common import (
    GcClock,
    Loop,
    OpCounts,
    ProbeClock,
    SpanLog,
    common_metrics,
    core_metrics,
    gc_metrics,
    median,
    metric,
    ratio,
    search_row,
    self_seconds,
    traced_call,
    vm_hwm_mb,
)
from inputs import QueryMaker, load_dataset, to_query
from oracle import StaticOracle

SETUPS = 5
MIN_QUERIES = 1000


def _setup(collection, trace_gc):
    from repro import DesksIndex, QueryEngine

    gc.collect()
    if trace_gc is not None:
        trace_gc.phase = "setup"
    started = time.perf_counter()
    index = DesksIndex(collection)
    built = time.perf_counter()
    engine = QueryEngine(index)
    done = time.perf_counter()
    if trace_gc is not None:
        trace_gc.phase = None
    return engine, done - started, built - started


def _judge(oracle, spec, response) -> Optional[str]:
    """``None`` when ``response`` answers ``spec`` right, else why not."""
    if isinstance(response, Exception):
        return repr(response)
    if response.result.partial:
        return "partial"
    if response.degraded:
        return "degraded"
    if response.cached:
        return "cache hit, though every query is new"
    return oracle.verdict(spec).check(
        spec.k, [(e.poi_id, e.distance) for e in response.result.entries])


def run(seed: int, seconds: float, trace: bool, out_path: str) -> dict:
    from repro import Tracer

    data = load_dataset("CN")
    maker = QueryMaker(data, random.Random(seed))
    oracle = StaticOracle(data.xs, data.ys, data.keywords)
    gc_clock = GcClock().install() if trace else None
    try:
        setups, builds = [], []
        engine = None
        for _ in range(SETUPS):
            if engine is not None:
                engine.close()
                engine = None
            engine, took, build = _setup(data.collection, gc_clock)
            setups.append(took)
            builds.append(build)

        counts = OpCounts(["query"])
        probe = ProbeClock()
        spans = SpanLog()
        latencies = []
        rows = []
        gc.collect()
        cache_before = engine.cache.stats
        if gc_clock is not None:
            gc_clock.phase = "run"
        loop = Loop()
        while True:
            specs = maker.round()
            queries = [to_query(spec) for spec in specs]
            responses = []
            took = []
            tracers = []
            for query in queries:
                tracer = Tracer() if trace else None
                tick = time.perf_counter()
                try:
                    response = traced_call(tracer, engine.execute, query)
                except Exception as exc:  # counted, reported, run goes on
                    response = exc
                took.append(time.perf_counter() - tick)
                responses.append(response)
                tracers.append(tracer)
            with loop.aside():
                for spec, latency, response, tracer in zip(
                        specs, took, responses, tracers):
                    counts.attempt("query")
                    why = _judge(oracle, spec, response)
                    if why is not None:
                        counts.fail("query", f"{spec}: {why}")
                        continue
                    latencies.append(latency)
                    if tracer is not None:
                        spans.add(tracer.roots)
                        rows.append(search_row(len(response.result),
                                               response.stats))
                probe.maybe_probe()
            if (loop.serving_seconds >= seconds
                    and counts.total_attempted >= MIN_QUERIES):
                break
        serving = loop.serving_seconds
        if gc_clock is not None:
            gc_clock.phase = None
        peak_rss = vm_hwm_mb()
        cache_after = engine.cache.stats
        engine.close()
    finally:
        if gc_clock is not None:
            gc_clock.remove()

    report = {"counts": counts, "probe": probe}
    if not trace:
        report["metrics"] = common_metrics(latencies, counts.total_completed,
                                           serving, setups, peak_rss)
        return report

    spans.write(out_path)
    lookups = ((cache_after.hits + cache_after.misses)
               - (cache_before.hits + cache_before.misses))
    engine_self = [self_seconds(op, i) for op in spans.ops
                   for i, s in enumerate(op) if s["name"] == "engine.execute"]
    report["metrics"] = {
        **core_metrics(spans, rows, median(builds)),
        "service.engine_self_us_p50": metric(median(engine_self) * 1e6, "us"),
        "service.cache_hit_ratio": metric(
            ratio(cache_after.hits - cache_before.hits, lookups), "ratio"),
        **gc_metrics(gc_clock, SETUPS),
    }
    report["ops_per_s"] = counts.total_completed / serving
    return report
