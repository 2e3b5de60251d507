"""cluster-va: DQL ``SELECT`` text over one connection to the deployment
``repro serve`` starts (a ``ClusterFrontend`` plus 2 shard-server
processes over the VA preset, grid partitioner, one replica each).

Wire, router, front door and DQL costs dominate each round trip, so a
change to ``core`` alone should barely move this workload.

The traced run sends the statements it sent through the front door
again through successive entry points, so the cost each layer adds is
a difference of medians on identical inputs:

1. the front door over its socket (the untraced path), with the shard
   servers' stats RPC read before and after for their engine time;
2. ``DqlExecutor`` with ``RouterBackend`` in this process, over the same
   shard servers (``repro.lang.parse`` timed on its own);
3. ``RemoteShardClient.search`` straight to each shard the router
   dispatched to; each answer carries the server's own time, so the
   wire cost is the round trip minus that;
4. the shard indexes loaded into this process and searched directly,
   for the core counters the shard processes cannot show.

The shard servers keep a 128-entry LRU result cache.  Each pass walks
its statements in the same order, so while a pass is longer than the
cache no statement is still cached when the next pass reaches it.
"""

from __future__ import annotations

import gc
import os
import random
import select
import shutil
import signal
import subprocess
import sys
import time
from typing import Dict, List, Optional, Tuple

from common import (
    GcClock,
    Loop,
    OpCounts,
    ProbeClock,
    SpanLog,
    common_metrics,
    core_metrics,
    gc_metrics,
    mean,
    median,
    metric,
    ratio,
    search_row,
    span_seconds,
    vm_hwm_mb,
)
from inputs import QueryMaker, load_dataset, to_query
from oracle import StaticOracle

SETUPS = 3
MIN_QUERIES = 1000
NUM_SHARDS = 2
#: Statements the traced run sends through entry points 2-4: the first
#: 20 rounds of what went through the front door.
TRACED_STATEMENTS = 1400
READY_TIMEOUT = 60.0
Address = Tuple[str, int]


class Deployment:
    """One ``repro serve`` process group (front door plus shard servers)."""

    def __init__(self, src: str, directory: str, log_path: str) -> None:
        env = dict(os.environ)
        env["PYTHONPATH"] = src
        self._log = open(log_path, "ab")
        started = time.perf_counter()
        self.process = subprocess.Popen(
            [sys.executable, "-m", "repro", "serve", directory],
            stdout=subprocess.PIPE, stderr=self._log, text=True, env=env,
            start_new_session=True)
        self.shards: Dict[int, Address] = {}
        try:
            self.front = self._await_ready()
        except BaseException:
            self.stop()
            raise
        self.setup_seconds = time.perf_counter() - started

    def _await_ready(self) -> Address:
        deadline = time.monotonic() + READY_TIMEOUT
        stdout = self.process.stdout
        while True:
            remaining = deadline - time.monotonic()
            if remaining <= 0:
                raise RuntimeError("repro serve not ready in time")
            readable, _, _ = select.select([stdout], [], [], remaining)
            if not readable:
                continue
            line = stdout.readline()
            if not line:
                raise RuntimeError(
                    f"repro serve exited with {self.process.wait()} "
                    "before FRONTEND READY")
            words = line.split()
            if line.startswith("shard "):
                host, port = words[2].rsplit(":", 1)
                self.shards[int(words[1].rstrip(":"))] = (host, int(port))
            elif line.startswith("FRONTEND READY"):
                return (words[2], int(words[3]))

    def stop(self) -> None:
        """SIGINT (clean shutdown), then SIGKILL whatever is left."""
        if self.process.poll() is None:
            self.process.send_signal(signal.SIGINT)
            try:
                self.process.wait(timeout=30.0)
            except subprocess.TimeoutExpired:
                pass
        try:
            os.killpg(self.process.pid, signal.SIGKILL)
        except ProcessLookupError:
            pass
        self.process.wait()
        self.process.stdout.close()
        self._log.close()


def _wait_gone(pids: List[int], timeout: float = 10.0) -> None:
    deadline = time.monotonic() + timeout
    for pid in pids:
        while os.path.exists(f"/proc/{pid}") and time.monotonic() < deadline:
            time.sleep(0.05)


def _count_bytes(client, tally: List[int]) -> None:
    """Count the frame bytes one ``RemoteShardClient`` sends and gets."""
    from repro.net import HEADER_SIZE

    roundtrip = client._roundtrip

    def counting(frame, timeout):
        msg_type, payload = roundtrip(frame, timeout)
        tally[0] += len(frame) + HEADER_SIZE + len(payload)
        return msg_type, payload

    client._roundtrip = counting


def _judge(oracle, spec, outcome) -> Optional[str]:
    """``None`` when ``outcome`` answers ``spec`` right, else why not."""
    if isinstance(outcome, Exception):
        return repr(outcome)
    if outcome.kind != "search":
        return f"statement answered with a {outcome.kind}"
    search = outcome.search
    if search.partial or search.degraded or search.unavailable_shards:
        return "partial" if search.partial else "degraded"
    return oracle.verdict(spec.rounded()).check(
        spec.k, [(e.poi_id, e.distance) for e in search.result.entries])


def _shard_totals(clients: Dict[int, object]) -> Dict[str, float]:
    """Summed shard engine counters (count, latency sum, cache)."""
    totals = {"count": 0.0, "sum": 0.0, "hits": 0.0, "misses": 0.0}
    for client in clients.values():
        stats = client.stats()
        count = stats.get("query_latency_count", 0.0)
        totals["count"] += count
        totals["sum"] += stats.get("query_latency_mean", 0.0) * count
        totals["hits"] += stats.get("cache_hits_total", 0.0)
        totals["misses"] += stats.get("cache_misses_total", 0.0)
    return totals


def run(seed: int, seconds: float, trace: bool, out_path: str) -> dict:
    from repro import ShardRouter
    from repro.net import RemoteShardClient

    here = os.path.dirname(os.path.abspath(__file__))
    src = os.path.join(os.path.dirname(here), "src")
    work = os.path.join(here, ".work", f"cluster-{os.getpid()}")
    shutil.rmtree(work, ignore_errors=True)
    os.makedirs(work)
    deployment: Optional[Deployment] = None
    gc_clock = GcClock() if trace else None
    try:
        data = load_dataset("VA")
        maker = QueryMaker(data, random.Random(seed))
        directory = os.path.join(work, "deployment")
        built = time.perf_counter()
        router = ShardRouter(data.collection, num_shards=NUM_SHARDS,
                             partitioner="grid")
        build_seconds = time.perf_counter() - built
        router.save(directory)
        router.close()
        del router
        if gc_clock is not None:
            gc_clock.install()

        setups = []
        for _ in range(SETUPS):
            if deployment is not None:
                deployment.stop()
            gc.collect()
            if gc_clock is not None:
                gc_clock.phase = "setup"
            deployment = Deployment(src, directory,
                                    os.path.join(work, "serve.log"))
            if gc_clock is not None:
                gc_clock.phase = None
            setups.append(deployment.setup_seconds)

        shard_clients = {shard: RemoteShardClient(address)
                         for shard, address in deployment.shards.items()}
        front = RemoteShardClient(deployment.front)
        front_bytes = [0]
        if trace:
            _count_bytes(front, front_bytes)
            before_pass1 = _shard_totals(shard_clients)

        counts = OpCounts(["query"])
        oracle = StaticOracle(data.xs, data.ys, data.keywords)
        probe = ProbeClock()
        latencies = []
        traced_specs = []
        gc.collect()
        if gc_clock is not None:
            gc_clock.phase = "run"
        loop = Loop()
        while True:
            specs = maker.round()
            texts = [spec.dql() for spec in specs]
            outcomes = []
            took = []
            for text in texts:
                tick = time.perf_counter()
                try:
                    outcome = front.execute_statement(text)
                except Exception as exc:  # typed RPC errors included
                    outcome = exc
                took.append(time.perf_counter() - tick)
                outcomes.append(outcome)
            with loop.aside():
                for spec, latency, outcome in zip(specs, took, outcomes):
                    counts.attempt("query")
                    why = _judge(oracle, spec, outcome)
                    if why is None:
                        latencies.append(latency)
                    else:
                        counts.fail("query", f"{spec.dql()}: {why}")
                if trace and len(traced_specs) < TRACED_STATEMENTS:
                    traced_specs.extend(specs)
                probe.maybe_probe()
            if (loop.serving_seconds >= seconds
                    and counts.total_attempted >= MIN_QUERIES):
                break
        serving = loop.serving_seconds
        if gc_clock is not None:
            gc_clock.phase = None

        pids = [deployment.process.pid]
        peak_rss = vm_hwm_mb(deployment.process.pid)
        for client in shard_clients.values():
            pid = int(client.stats()["pid"])
            pids.append(pid)
            peak_rss += vm_hwm_mb(pid)

        layers = None
        if trace:
            after_pass1 = _shard_totals(shard_clients)
            layers = _traced_passes(
                traced_specs[:TRACED_STATEMENTS], directory, deployment,
                shard_clients, data, out_path)
            layers["front_bytes"] = front_bytes[0]
            layers["pass1"] = (before_pass1, after_pass1)
        front.close()
        for client in shard_clients.values():
            client.close()
        deployment.stop()
        deployment = None
        _wait_gone(pids[1:])
    finally:
        if gc_clock is not None:
            gc_clock.remove()
        if deployment is not None:
            deployment.stop()
        shutil.rmtree(work, ignore_errors=True)

    report = {"counts": counts, "probe": probe}
    if not trace:
        report["metrics"] = common_metrics(latencies, counts.total_completed,
                                           serving, setups, peak_rss)
        return report

    for why in layers["failures"]:
        counts.fail("query", why)
    report["metrics"] = _layer_metrics(layers, counts.total_attempted,
                                       latencies, build_seconds, gc_clock)
    report["ops_per_s"] = counts.total_completed / serving
    return report


def _traced_passes(specs, directory, deployment, shard_clients, data,
                   out_path) -> dict:
    """Passes 2-4 of the traced run over the statements pass 1 sent."""
    from repro import DesksSearcher, Tracer
    from repro.lang import DqlExecutor, RouterBackend, parse
    from repro.net import connect_router, load_shard
    from repro.storage import SearchStats

    oracle = StaticOracle(data.xs, data.ys, data.keywords)
    spans = SpanLog()
    failures: List[str] = []
    router_bytes = [0]
    shard_of: Dict[int, int] = {}
    dispatched: List[List[int]] = []
    contributing = 0
    # Pass 2: DQL executor + router in this process.
    with connect_router(directory, {s: [a] for s, a in
                                    deployment.shards.items()}) as router:
        for shard in router.shards:
            for global_id in shard.spec.global_ids:
                shard_of[global_id] = shard.spec.shard_id
            for replica in shard.transport.replicas:
                _count_bytes(replica.client, router_bytes)
        executor = DqlExecutor(RouterBackend(router))
        for spec in specs:
            text = spec.dql()
            tracer = Tracer()
            try:
                with tracer.activate():
                    with tracer.span("lang.parse"):
                        plan = parse(text)
                    with tracer.span("lang.execute"):
                        outcome = executor.execute(plan)
            except Exception as exc:  # counted, reported, run goes on
                failures.append(f"router pass: {text}: {exc!r}")
                dispatched.append([])
                continue
            op = spans.add(tracer.roots)
            shards = sorted({s["attrs"]["shard_id"] for s in op
                             if s["name"] == "router.shard"})
            dispatched.append(shards)
            entries = [(e.poi_id, e.distance) for e in outcome.entries]
            contributing += len({shard_of[i] for i, _ in entries})
            why = ("partial" if outcome.partial else
                   oracle.verdict(spec.rounded()).check(spec.k, entries))
            if why is not None:
                failures.append(f"router pass: {text}: {why}")

    # Pass 3: straight to the shards the router dispatched to.
    rpc, wire = [], []
    queries = [to_query(spec.rounded()) for spec in specs]
    for query, shards in zip(queries, dispatched):
        for shard in shards:
            tick = time.perf_counter()
            try:
                answer = shard_clients[shard].search(query)
            except Exception as exc:  # counted, reported, run goes on
                failures.append(f"shard pass: {query}: {exc!r}")
                continue
            took = time.perf_counter() - tick
            rpc.append(took)
            wire.append(took - answer.server_latency)

    # Pass 4: the shard indexes searched in this process.
    searchers = [DesksSearcher(load_shard(os.path.join(directory,
                                                       f"shard{i}")))
                 for i in range(NUM_SHARDS)]
    rows = []
    for query, shards in zip(queries, dispatched):
        for shard in shards:
            stats = SearchStats()
            tracer = Tracer()
            with tracer.activate():
                result = searchers[shard].search(query, stats=stats)
            spans.add(tracer.roots)
            rows.append(search_row(len(result), stats))
    spans.write(out_path)
    return {"spans": spans, "failures": failures, "rpc": rpc, "wire": wire,
            "router_bytes": router_bytes[0], "dispatched": dispatched,
            "contributing": contributing, "rows": rows}


def _layer_metrics(layers, num_queries, front_latencies, build_seconds,
                   gc_clock) -> dict:
    spans = layers["spans"]
    executes = spans.named("router.execute")
    p1_before, p1_after = layers["pass1"]
    pass1_lookups = ((p1_after["hits"] + p1_after["misses"])
                     - (p1_before["hits"] + p1_before["misses"]))
    dispatched = sum(len(d) for d in layers["dispatched"])
    return {
        **core_metrics(spans, layers["rows"], build_seconds),
        "service.cache_hit_ratio": metric(
            ratio(p1_after["hits"] - p1_before["hits"], pass1_lookups),
            "ratio"),
        "service.shard_engine_ms_mean": metric(
            ratio(p1_after["sum"] - p1_before["sum"],
                  p1_after["count"] - p1_before["count"]) * 1e3, "ms"),
        "cluster.plan_us_p50": metric(median(
            [span_seconds(s) for s in spans.named("router.plan")]) * 1e6,
            "us"),
        "cluster.shards_dispatched_per_query": metric(
            dispatched / len(layers["dispatched"]), "count"),
        "cluster.shards_pruned_per_query": metric(
            mean([s["attrs"]["shards_total"] - s["attrs"]["shards_dispatched"]
                  for s in executes]), "count"),
        "cluster.waves_per_query": metric(
            mean([s["attrs"]["waves"] for s in executes]), "count"),
        "cluster.useful_shard_ratio": metric(
            ratio(layers["contributing"], dispatched), "ratio"),
        "net.frontdoor_ms_p50": metric(median(front_latencies) * 1e3, "ms"),
        "net.shard_rpc_ms_p50": metric(median(layers["rpc"]) * 1e3, "ms"),
        "net.wire_ms_p50": metric(median(layers["wire"]) * 1e3, "ms"),
        "net.bytes_per_query": metric(
            layers["front_bytes"] / num_queries
            + layers["router_bytes"] / len(layers["dispatched"]), "bytes"),
        "lang.parse_us_p50": metric(median(
            [span_seconds(s) for s in spans.named("lang.parse")]) * 1e6,
            "us"),
        **gc_metrics(gc_clock, SETUPS),
    }
