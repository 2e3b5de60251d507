"""Steadiness check: run one workload n times, one seed each, and print
every end-to-end metric's median, quartiles and spread (interquartile
distance as a share of the median), and those of the figures run.py
prints beside the result line, next to the host-speed probe of
each run.

    python3 perfbench/steady.py --workload cluster-va --runs 10 --seconds 10

Quartiles are ``statistics.quantiles(values, n=4)``.  Exits non-zero if
any run fails, answers wrongly, or the failed share differs between
runs.
"""

from __future__ import annotations

import argparse
import json
import os
import statistics
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
#: Ending of the lines on which run.py prints figures that are measured
#: but kept out of the result line; they are summarised here too.
BESIDE = "(beside the result line)"


def run_once(workload: str, seed: int, seconds: float):
    command = [sys.executable, os.path.join(HERE, "run.py"),
               "--workload", workload, "--seed", str(seed),
               "--seconds", str(seconds), "--trace", "0"]
    done = subprocess.run(command, cwd=ROOT, capture_output=True, text=True,
                          timeout=600)
    lines = done.stdout.strip().splitlines()
    if done.returncode != 0 or not lines:
        raise RuntimeError(f"seed {seed}: exit {done.returncode}\n"
                           f"{done.stdout[-2000:]}{done.stderr[-2000:]}")
    probe = next((line for line in lines if line.startswith("host_probe")),
                 "")
    result = json.loads(lines[-1])
    for line in lines:
        if line.endswith(BESIDE):
            name, value, unit = line.split()[:3]
            result["metrics"][name] = {"value": float(value), "unit": unit}
    return result, probe


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--runs", type=int, default=10)
    parser.add_argument("--first-seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=10.0)
    args = parser.parse_args()

    values = {}
    units = {}
    shares = set()
    ok = True
    for seed in range(args.first_seed, args.first_seed + args.runs):
        result, probe = run_once(args.workload, seed, args.seconds)
        ok = ok and result["correct"]
        shares.add(result["failed"] / result["attempted"])
        print(f"seed {seed}: attempted={result['attempted']} "
              f"failed={result['failed']} correct={result['correct']} "
              f"{probe}", flush=True)
        for name, entry in result["metrics"].items():
            values.setdefault(name, []).append(entry["value"])
            units[name] = entry["unit"]
    print(f"{'metric':36} {'unit':>6} {'q1':>12} {'median':>12} "
          f"{'q3':>12} {'spread':>8}")
    for name, series in values.items():
        q1, mid, q3 = statistics.quantiles(series, n=4)
        spread = (q3 - q1) / mid if mid else float("nan")
        print(f"{name:36} {units[name]:>6} {q1:12.6g} {mid:12.6g} "
              f"{q3:12.6g} {spread:8.3f}")
    if len(shares) != 1:
        print(f"failed share differs between runs: {sorted(shares)}")
        ok = False
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main())
