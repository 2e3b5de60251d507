"""durable-ca: ``QueryEngine.execute`` over a ``DurableMutableIndex`` of
the CA preset (9.1k POIs, 8.6 terms per POI), with writes and
checkpoints interleaved by one client.

Before timing starts the index is prepared as a snapshot plus a WAL
tail; the timed set-up recovers it from that directory.  Each round is
400 reads drawn from a Zipf-popular hot set, 100 inserts and 100
deletes in a seeded order, then one ``checkpoint()``.  The WAL sync policy is
pinned to ``batch`` every 32 records (the program's default), so no
change can gain by weakening durability.

The search runs over a delta buffer and tombstones here, every write
invalidates the result cache, and WAL fsyncs and checkpoint rebuilds
stall the client: a gain for reads that costs writes, checkpoints or
restart shows on this workload.
"""

from __future__ import annotations

import gc
import math
import os
import random
import shutil
import time
from collections import Counter, defaultdict
from typing import Dict, List, Optional

import numpy as np

from common import (
    GcClock,
    Loop,
    OpCounts,
    ProbeClock,
    SpanLog,
    common_metrics,
    core_metrics,
    dir_bytes,
    entry_arrays,
    gc_metrics,
    mean,
    median,
    metric,
    quantile,
    ratio,
    search_row,
    self_seconds,
    span_seconds,
    traced_call,
    vm_hwm_mb,
)
from inputs import (
    EXTENT,
    QueryMaker,
    load_dataset,
    shuffled_round,
    to_query,
    zipf_weights,
)
from oracle import LiveOracle

SETUPS = 5
HOT_SET = 64
#: The hot set is drawn once, with this seed, like the dataset: 64
#: queries are too few for their latency mix to be redrawn per seed
#: without the read medians becoming a property of the seed.
HOT_SET_SEED = 0
ZIPF_EXPONENT = 1.1
ROUND = (("query", 400), ("insert", 100), ("delete", 100))
TAIL_MUTATIONS = 500
MIN_QUERIES = 1000
MIN_WRITES = 1000
SYNC = "batch"
SYNC_INTERVAL = 32


class Client:
    """The workload's view of the index: which slot each id names.

    Slots are the oracle's stable POI handles; the index renumbers its
    ids whenever it compacts, after which :meth:`remap` learns the new
    ids from ``live_pois()`` by location and keywords.
    """

    def __init__(self, data, rng: random.Random, hot) -> None:
        self.model = LiveOracle()
        for x, y, kws in zip(data.xs, data.ys, data.keywords):
            self.model.add(x, y, kws)
        self.slot_of: Dict[int, int] = {i: i for i in range(len(data.xs))}
        self.id_of: Dict[int, int] = dict(self.slot_of)
        self.live: List[int] = list(range(len(data.xs)))
        self.where: Dict[int, int] = {s: s for s in self.live}
        self.data = data
        self.rng = rng
        self.hot = hot
        self.log: List[tuple] = []

    def insert_args(self):
        """A new POI: near a hot query and matching it, or anywhere."""
        rng = self.rng
        donor = self.data.keywords[rng.randrange(len(self.data.keywords))]
        if rng.random() < 0.5:
            spec = self.hot[rng.randrange(len(self.hot))]
            if spec.alpha is None:
                direction = rng.uniform(0.0, 2.0 * math.pi)
            else:
                direction = rng.uniform(spec.alpha, spec.beta)
            reach = rng.uniform(10.0, 1500.0)
            x = min(EXTENT, max(0.0, spec.x + reach * math.cos(direction)))
            y = min(EXTENT, max(0.0, spec.y + reach * math.sin(direction)))
            keywords = set(spec.keywords) | set(donor[:2])
        else:
            x, y = rng.uniform(0.0, EXTENT), rng.uniform(0.0, EXTENT)
            keywords = set(donor)
        return x, y, tuple(sorted(keywords))

    def inserted(self, poi_id: int, x: float, y: float, keywords) -> int:
        slot = self.model.add(x, y, keywords)
        self.slot_of[poi_id] = slot
        self.id_of[slot] = poi_id
        self.where[slot] = len(self.live)
        self.live.append(slot)
        self.log.append(("insert", slot, self.model.keys[slot]))
        return slot

    def victim(self) -> int:
        return self.live[self.rng.randrange(len(self.live))]

    def deleted(self, slot: int) -> None:
        position = self.where.pop(slot)
        last = self.live.pop()
        if last != slot:
            self.live[position] = last
            self.where[last] = position
        self.model.remove(slot)
        del self.slot_of[self.id_of.pop(slot)]
        self.log.append(("delete", slot))

    def remap(self, index) -> Optional[str]:
        """Learn every live POI's id; a mismatch with the model is a fault."""
        by_key = defaultdict(list)
        for slot in self.live:
            by_key[self.model.keys[slot]].append(slot)
        slot_of: Dict[int, int] = {}
        for poi in index.live_pois():
            key = (poi.location.x, poi.location.y,
                   tuple(sorted(poi.keywords)))
            slots = by_key.get(key)
            if not slots:
                return f"index holds a POI the model does not: {key}"
            slot_of[poi.poi_id] = slots.pop()
        missing = sum(len(slots) for slots in by_key.values())
        if missing:
            return f"{missing} live POIs missing from the index"
        self.slot_of = slot_of
        self.id_of = {slot: poi_id for poi_id, slot in slot_of.items()}
        return None


def _prepare(data, client: Client, directory: str, snapshot_only: str):
    """Snapshot of the base set, then a WAL tail of mutations."""
    from repro.durability import DurableMutableIndex

    index = DurableMutableIndex.create(data.collection, directory,
                                       sync=SYNC, sync_interval=SYNC_INTERVAL)
    index.close()
    shutil.copytree(directory, snapshot_only)
    index = DurableMutableIndex.recover(directory, sync=SYNC,
                                        sync_interval=SYNC_INTERVAL)
    for kind in shuffled_round(client.rng, (("insert", TAIL_MUTATIONS // 2),
                                            ("delete", TAIL_MUTATIONS // 2))):
        if kind == "insert":
            x, y, kws = client.insert_args()
            client.inserted(index.insert(x, y, kws), x, y, kws)
        else:
            slot = client.victim()
            if not index.delete(client.id_of[slot]):
                raise RuntimeError("delete of a live POI refused in prep")
            client.deleted(slot)
    index.close()


def _recover(directory: str):
    from repro.durability import DurableMutableIndex

    return DurableMutableIndex.recover(directory, sync=SYNC,
                                       sync_interval=SYNC_INTERVAL)


def run(seed: int, seconds: float, trace: bool, out_path: str) -> dict:
    from repro import DesksIndex, QueryEngine, Tracer

    here = os.path.dirname(os.path.abspath(__file__))
    work = os.path.join(here, ".work", f"durable-{os.getpid()}")
    shutil.rmtree(work, ignore_errors=True)
    os.makedirs(work)
    gc_clock = GcClock() if trace else None
    index = engine = None
    try:
        data = load_dataset("CA")
        rng = random.Random(seed)
        hot = QueryMaker(data, random.Random(HOT_SET_SEED)).round()[:HOT_SET]
        hot_queries = [to_query(spec) for spec in hot]
        weights = zipf_weights(HOT_SET, ZIPF_EXPONENT)
        client = Client(data, rng, hot)
        prepared = os.path.join(work, "prepared")
        snapshot_only = os.path.join(work, "snapshot-only")
        _prepare(data, client, prepared, snapshot_only)
        live_dir = os.path.join(work, "live")
        build_seconds = replay_seconds = 0.0
        if trace:
            tick = time.perf_counter()
            DesksIndex(data.collection)
            build_seconds = time.perf_counter() - tick
            gc_clock.install()

        def timed_recover(source: str):
            shutil.rmtree(live_dir, ignore_errors=True)
            shutil.copytree(source, live_dir)
            gc.collect()
            if gc_clock is not None:
                gc_clock.phase = "setup"
            tick = time.perf_counter()
            recovered = _recover(live_dir)
            built = QueryEngine(recovered)
            took = time.perf_counter() - tick
            if gc_clock is not None:
                gc_clock.phase = None
            return recovered, built, took

        if trace:
            bare = []
            for _ in range(SETUPS):
                recovered, built, took = timed_recover(snapshot_only)
                built.close()
                recovered.close()
                bare.append(took)
        setups = []
        for _ in range(SETUPS):
            if engine is not None:
                engine.close()
                index.close()
            index, engine, took = timed_recover(prepared)
            setups.append(took)
        if trace:
            replay_seconds = median(setups) - median(bare)

        counts = OpCounts(["query", "insert", "delete", "checkpoint"])
        replay = Replay(data, hot, counts)
        replay.consume(client.log)
        why = client.remap(index)
        if why is not None:
            counts.fail("checkpoint", f"recovered state: {why}")
        probe = ProbeClock()
        spans = SpanLog()
        reads, writes, checkpoints = [], [], []
        read_info = []
        wal_dir = os.path.join(live_dir, "wal")
        wal_written = 0
        wal_mark = dir_bytes(wal_dir)
        snapshot_sizes = []
        cache_before = engine.cache.stats
        rebuilds = index.rebuild_count
        gc.collect()
        if gc_clock is not None:
            gc_clock.phase = "run"
        loop = Loop()
        while True:
            for kind in shuffled_round(rng, ROUND):
                counts.attempt(kind)
                tracer = Tracer() if trace else None
                if kind == "query":
                    template = rng.choices(range(HOT_SET), weights)[0]
                    pending = index.num_pending
                    tick = time.perf_counter()
                    try:
                        response = traced_call(tracer, engine.execute,
                                               hot_queries[template])
                    except Exception as exc:
                        response = exc
                    took = time.perf_counter() - tick
                    if isinstance(response, Exception):
                        counts.fail(kind, repr(response))
                    else:
                        reads.append(took)
                        entries = response.result.entries
                        slots = np.fromiter(
                            (client.slot_of.get(e.poi_id, -1)
                             for e in entries), np.int64, len(entries))
                        client.log.append((
                            "query", template, slots,
                            entry_arrays(entries)[1],
                            response.result.partial, response.degraded))
                        if trace:
                            read_info.append(_read_row(response, pending))
                elif kind == "insert":
                    x, y, kws = client.insert_args()
                    tick = time.perf_counter()
                    try:
                        poi_id = traced_call(tracer, index.insert, x, y, kws)
                    except Exception as exc:
                        poi_id = exc
                    took = time.perf_counter() - tick
                    if isinstance(poi_id, Exception):
                        counts.fail(kind, repr(poi_id))
                    else:
                        writes.append(took)
                        client.inserted(poi_id, x, y, kws)
                else:
                    slot = client.victim()
                    tick = time.perf_counter()
                    try:
                        ok = traced_call(tracer, index.delete,
                                         client.id_of[slot])
                    except Exception as exc:
                        ok = exc
                    took = time.perf_counter() - tick
                    if ok is True:
                        writes.append(took)
                        client.deleted(slot)
                    else:
                        counts.fail(kind, f"delete of a live POI: {ok!r}")
                if tracer is not None:
                    spans.add(tracer.roots)
                if index.rebuild_count != rebuilds:
                    # Compaction renumbered the ids.
                    with loop.aside():
                        rebuilds = index.rebuild_count
                        failure = client.remap(index)
                        if failure is not None:
                            counts.fail(kind, failure)

            with loop.aside():
                wal_written += dir_bytes(wal_dir) - wal_mark
            counts.attempt("checkpoint")
            tracer = Tracer() if trace else None
            tick = time.perf_counter()
            try:
                traced_call(tracer, index.checkpoint)
                failure = None
            except Exception as exc:
                failure = repr(exc)
            took = time.perf_counter() - tick
            with loop.aside():
                if failure is None:
                    checkpoints.append(took)
                    snapshot_sizes.append(
                        dir_bytes(os.path.join(live_dir, "snapshot")))
                else:
                    counts.fail("checkpoint", failure)
                wal_mark = dir_bytes(wal_dir)
                if tracer is not None:
                    spans.add(tracer.roots)
                if index.rebuild_count != rebuilds:
                    rebuilds = index.rebuild_count
                    failure = client.remap(index)
                    if failure is not None:
                        counts.fail("checkpoint", failure)
                replay.consume(client.log)
                probe.maybe_probe()
            if (loop.serving_seconds >= seconds
                    and len(reads) >= MIN_QUERIES
                    and len(writes) >= MIN_WRITES):
                break
        serving = loop.serving_seconds
        if gc_clock is not None:
            gc_clock.phase = None
        wal_written += dir_bytes(wal_dir) - wal_mark
        peak_rss = vm_hwm_mb()
        cache_after = engine.cache.stats
        engine.close()
        index.close()
        engine = None
        recovered = _recover(live_dir)
        recovered_keys = Counter(
            (p.location.x, p.location.y, tuple(sorted(p.keywords)))
            for p in recovered.live_pois())
        recovered.close()
        index = None
    finally:
        if gc_clock is not None:
            gc_clock.remove()
        if engine is not None:
            engine.close()
        if index is not None:
            index.close()
        shutil.rmtree(work, ignore_errors=True)

    if recovered_keys != Counter(client.model.live_keys()):
        counts.fail("checkpoint",
                    "state recovered after close differs from the model")

    report = {"counts": counts, "probe": probe}
    mutations = len(writes)
    # Writes and checkpoints are durable-ca's alone, so their figures
    # are per-layer metrics of the durability layer; the untraced run
    # prints them beside its end-to-end metrics.
    writing = {
        "durability.write_p50_ms": metric(median(writes) * 1e3, "ms"),
        "durability.write_p99_ms": metric(quantile(writes, 0.99) * 1e3,
                                          "ms"),
        "durability.checkpoint_s": metric(median(checkpoints), "s"),
        "durability.disk_bytes_per_write": metric(
            (wal_written + sum(snapshot_sizes)) / mutations, "bytes"),
    }
    if not trace:
        report["metrics"] = common_metrics(reads, counts.total_completed,
                                           serving, setups, peak_rss)
        report["beside"] = writing
        return report

    spans.write(out_path)
    report["metrics"] = {
        **_layer_metrics(spans, read_info, mutations, cache_before,
                         cache_after, snapshot_sizes, replay_seconds,
                         build_seconds, gc_clock),
        **writing,
    }
    report["ops_per_s"] = counts.total_completed / serving
    return report


class Replay:
    """A second model that follows the operation log and judges each
    read against the live set as it was when the read ran."""

    def __init__(self, data, hot, counts: OpCounts) -> None:
        self.model = LiveOracle()
        for x, y, kws in zip(data.xs, data.ys, data.keywords):
            self.model.add(x, y, kws)
        self.hot = hot
        self.counts = counts

    def consume(self, log: List[tuple]) -> None:
        """Judge and drop ``log``'s entries."""
        model = self.model
        for entry in log:
            kind = entry[0]
            if kind == "insert":
                if model.add(*entry[2]) != entry[1]:
                    raise RuntimeError("operation log replay lost its place")
            elif kind == "delete":
                model.remove(entry[1])
            else:
                _, template, slots, dists, partial, degraded = entry
                spec = self.hot[template]
                if partial or degraded:
                    why = "partial" if partial else "degraded"
                elif (slots < 0).any():
                    why = "answer names an id the index never gave out"
                else:
                    why = model.verdict(spec).check(
                        spec.k, list(zip(slots.tolist(), dists.tolist())))
                if why is not None:
                    self.counts.fail("query", f"{spec}: {why}")
        log.clear()


def _read_row(response, pending: int) -> tuple:
    """What the per-layer metrics need from one read, as plain numbers:
    cache hit, k asked for, delta size, and the search's counters."""
    if response.cached:
        return (True, response.query.k, pending, None)
    return (False, response.query.k, pending,
            search_row(len(response.result), response.stats))


def _layer_metrics(spans, read_info, mutations, cache_before,
                   cache_after, snapshot_sizes, replay_seconds,
                   build_seconds, gc_clock) -> dict:
    search = spans.named("desks.search")
    misses = [row for row in read_info if not row[0]]
    engine_self = [self_seconds(op, i) for op in spans.ops
                   for i, s in enumerate(op) if s["name"] == "engine.execute"]
    appends = spans.named("wal.append")
    fsyncs = spans.named("wal.fsync")
    write_fsyncs = [s for op in spans.ops
                    if op and op[0]["name"] in ("durable.insert",
                                                "durable.delete")
                    for s in op if s["name"] == "wal.fsync"]
    return {
        **core_metrics(spans, [row[3] for row in misses], build_seconds),
        "dynamic.delta_pois_per_query": metric(
            mean([row[2] for row in misses]), "count"),
        "dynamic.k_inflation": metric(
            mean([s["attrs"]["k"] for s in search])
            - mean([row[1] for row in misses]), "count"),
        "service.engine_self_us_p50": metric(median(engine_self) * 1e6, "us"),
        "service.cache_hit_ratio": metric(
            ratio(sum(1 for row in read_info if row[0]), len(read_info)),
            "ratio"),
        "service.invalidations_per_write": metric(
            ratio(cache_after.invalidations - cache_before.invalidations,
                  mutations), "count"),
        "durability.wal_append_us_p50": metric(
            median([span_seconds(s) for s in appends]) * 1e6, "us"),
        "durability.fsync_ms_p50": metric(
            median([span_seconds(s) for s in fsyncs]) * 1e3, "ms"),
        "durability.fsyncs_per_write": metric(
            ratio(len(write_fsyncs), mutations), "count"),
        "durability.wal_bytes_per_write": metric(
            ratio(sum(s["attrs"].get("bytes", 0) for s in appends),
                  mutations), "bytes"),
        "durability.checkpoint_compact_s": metric(median(
            [span_seconds(s) for s in spans.named("durable.compact")]), "s"),
        "durability.checkpoint_snapshot_s": metric(median(
            [span_seconds(s) for s in spans.named("durable.snapshot")]), "s"),
        "durability.snapshot_bytes": metric(median(snapshot_sizes), "bytes"),
        "durability.recover_replay_s": metric(replay_seconds, "s"),
        **gc_metrics(gc_clock, 2 * SETUPS),
    }
