"""DESKS serving-path benchmark: one command, three workloads.

    python3 perfbench/run.py --workload engine-cn --seed 1 --seconds 10 --trace 0

Run from the repository root.  Each workload is a single closed-loop
client (one thread, one connection).  Set-up is timed apart from the
loop, and each round's answers are checked against the benchmark's own
oracle right after the round, outside every timing.  The last line of
standard output is one JSON object: ``correct``, ``attempted``,
``failed`` and ``metrics`` (every end-to-end metric of BENCHMARK.json
with ``--trace 0``, every per-layer metric from a traced run with
``--trace 1``).  See perfbench/README.md.
"""

from __future__ import annotations

import argparse
import json
import os
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SRC = os.path.join(ROOT, "src")
OUT = os.path.join(HERE, ".out")
MANIFEST = os.path.join(ROOT, "BENCHMARK.json")

WORKLOADS = ("engine-cn", "cluster-va", "durable-ca")


def manifest_metrics(measured: dict, wanted: list, trace: bool):
    """``measured`` in the manifest's order, as ``(metrics, None)``, or
    ``(None, why)`` when it does not fit the manifest.

    Every workload reports every end-to-end metric.  A traced run also
    reports every per-layer metric: a layer that is not on the
    workload's path costs it nothing, so its metrics read 0 there.
    """
    units = {entry["name"]: entry["unit"] for entry in wanted}
    for name, value in measured.items():
        if units.get(name) != value["unit"]:
            return None, (f"metric {name} in {value['unit']} is not in "
                          "BENCHMARK.json with that unit")
    missing = [name for name in units if name not in measured]
    if missing and not trace:
        return None, "end-to-end metrics not measured: " + ", ".join(missing)
    return {name: measured.get(name, {"value": 0.0, "unit": unit})
            for name, unit in units.items()}, None


def parse_args(argv=None) -> argparse.Namespace:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True,
                        help="length of the timed loop")
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0,
                        help="1: traced run reporting per-layer metrics")
    return parser.parse_args(argv)


def main(argv=None) -> int:
    args = parse_args(argv)
    if not os.path.isfile(os.path.join(SRC, "repro", "__init__.py")):
        print(f"error: no repro package under {SRC}; run from the root of "
              "a DESKS checkout", file=sys.stderr)
        return 2
    with open(MANIFEST, encoding="utf-8") as handle:
        wanted = json.load(handle)["per_layer" if args.trace
                                   else "end_to_end"]
    sys.path.insert(0, SRC)
    # One CPU for this process and everything it starts.  On a 2-vCPU
    # virtual machine, keeping both vCPUs busy at once drew host steal
    # time that slowed cluster-va by up to 2x for 30-second stretches;
    # on one CPU the steal stayed near 1% and runs agreed.  The price:
    # cluster-va's shard servers share the CPU, so the router's fan-out
    # runs one shard search after the other.
    os.sched_setaffinity(0, {min(os.sched_getaffinity(0))})

    import selftest

    failure = selftest.run()
    if failure is not None:
        print(f"error: oracle self-test failed: {failure}", file=sys.stderr)
        return 1

    if args.workload == "engine-cn":
        import wl_engine as workload
    elif args.workload == "cluster-va":
        import wl_cluster as workload
    else:
        import wl_durable as workload
    out_path = os.path.join(OUT, f"spans-{args.workload}.jsonl")
    report = workload.run(args.seed, args.seconds, bool(args.trace),
                          out_path)

    metrics, why = manifest_metrics(report["metrics"], wanted,
                                    bool(args.trace))
    if why is not None:
        print(f"error: {why}", file=sys.stderr)
        return 1

    counts = report["counts"]
    print(f"workload {args.workload} seed {args.seed} trace {args.trace}")
    print("attempted/failed " + counts.summary())
    for error in counts.first_errors:
        print("failure " + error)
    print(report["probe"].summary())
    for name, value in metrics.items():
        print(f"{name} {value['value']:.6g} {value['unit']}")
    for name, value in report.get("beside", {}).items():
        print(f"{name} {value['value']:.6g} {value['unit']} "
              "(beside the result line)")
    if "ops_per_s" in report:
        print(f"traced ops_per_s {report['ops_per_s']:.6g} 1/s")
    print(json.dumps({
        "correct": counts.total_failed == 0,
        "attempted": counts.total_attempted,
        "failed": counts.total_failed,
        "metrics": metrics,
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
