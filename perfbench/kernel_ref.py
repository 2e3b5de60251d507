"""Reference figure: ``ColumnarSearcher`` against ``DesksSearcher`` on
engine-cn's queries (the CN preset at 82.5k POIs, the program's
default N x M, the same seeded query stream).

    python3 perfbench/kernel_ref.py --seed 1 --rounds 40

Both searchers run every round of 70 queries, alternating which goes
first, on one CPU.  Answers must be identical; the script prints each
side's median and p99 per-query latency and the ratio of medians.
This is a reference run for the README, not a workload: the columnar
kernel is not the serving default.
"""

from __future__ import annotations

import argparse
import os
import random
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
sys.path.insert(0, os.path.join(os.path.dirname(HERE), "src"))

from common import median, quantile  # noqa: E402
from inputs import QueryMaker, load_dataset, to_query  # noqa: E402


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--rounds", type=int, default=40)
    args = parser.parse_args()
    os.sched_setaffinity(0, {min(os.sched_getaffinity(0))})

    from repro import DesksIndex, DesksSearcher
    from repro.kernel import ColumnarSearcher, ColumnarSnapshot

    data = load_dataset("CN")
    index = DesksIndex(data.collection)
    tick = time.perf_counter()
    snapshot = ColumnarSnapshot(index)
    compile_seconds = time.perf_counter() - tick
    searchers = {"object": DesksSearcher(index),
                 "columnar": ColumnarSearcher(snapshot)}
    times = {name: [] for name in searchers}
    maker = QueryMaker(data, random.Random(args.seed))
    for number in range(args.rounds):
        queries = [to_query(spec) for spec in maker.round()]
        order = list(searchers) if number % 2 == 0 else list(searchers)[::-1]
        answers = {}
        for name in order:
            search = searchers[name].search
            out = []
            for query in queries:
                tick = time.perf_counter()
                result = search(query)
                times[name].append(time.perf_counter() - tick)
                out.append([(e.poi_id, e.distance) for e in result.entries])
            answers[name] = out
        if answers["object"] != answers["columnar"]:
            print("error: the searchers disagree", file=sys.stderr)
            return 1
    print(f"CN preset, {len(data.xs)} POIs, N x M = {index.num_bands} x "
          f"{index.num_wedges}, {len(times['object'])} queries, seed "
          f"{args.seed}; snapshot compile {compile_seconds:.2f} s")
    for name, series in times.items():
        print(f"{name:9} p50 {median(series) * 1e3:.3f} ms  "
              f"p99 {quantile(series, 0.99) * 1e3:.3f} ms  "
              f"total {sum(series):.2f} s")
    print("columnar/object: p50 %.2fx, total %.2fx" % (
        median(times["columnar"]) / median(times["object"]),
        sum(times["columnar"]) / sum(times["object"])))
    return 0


if __name__ == "__main__":
    sys.exit(main())
