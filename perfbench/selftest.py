"""Self-test of the oracle: it must agree with the program's own
``brute_force_search`` on a small instance and reject corrupted answers.

Every benchmark run calls :func:`run` before it measures anything (it
takes well under a second); ``python3 perfbench/selftest.py`` runs it
alone.
"""

from __future__ import annotations

import random
import sys
from typing import List, Optional, Tuple

from inputs import Dataset, QueryMaker, ROUND_MIX, to_query
from oracle import StaticOracle

Entries = List[Tuple[int, float]]

#: Seed of the self-test's queries: one of each ``ROUND_MIX`` combination.
SEED = 0


def _corruptions(entries: Entries, oracle_ids, spec) -> List[Tuple[str, Entries]]:
    """Deliberately wrong variants of a right answer with >= 2 entries."""
    out = []
    out.append(("drop the nearest entry", entries[1:]))
    out.append(("swap the first two entries",
                [entries[1], entries[0]] + entries[2:]))
    first_id, first_d = entries[0]
    out.append(("stretch a distance", [(first_id, first_d * 1.01 + 1e-3)]
                + entries[1:]))
    out.append(("repeat an entry", entries + [entries[-1]]))
    outsider = next(i for i in range(len(oracle_ids) + 1)
                    if i not in oracle_ids)
    out.append(("replace an entry by a non-match",
                entries[:-1] + [(outsider, entries[-1][1])]))
    return out


def run() -> Optional[str]:
    """``None`` when the oracle passes, else what went wrong."""
    from repro import brute_force_search
    from repro.datasets import load_preset

    data = Dataset("VA", load_preset("VA", scale=2000.0))
    oracle = StaticOracle(data.xs, data.ys, data.keywords)
    maker = QueryMaker(data, random.Random(SEED))
    caught = agreed = 0
    for width, count, k in ROUND_MIX:
        spec = maker.make(width, count, k)
        verdict = oracle.verdict(spec)
        truth = brute_force_search(data.collection, to_query(spec))
        entries = [(e.poi_id, e.distance) for e in truth.entries]
        why = verdict.check(spec.k, entries)
        if why is not None:
            return f"oracle rejects brute_force_search on {spec}: {why}"
        if not verdict.boundary.any():
            mine = verdict.top(spec.k)
            if [i for i, _ in mine] != [i for i, _ in entries]:
                return f"oracle and brute_force_search differ on {spec}"
            agreed += 1
        if len(entries) >= 2:
            ids = set(verdict.distance_of)
            for name, bad in _corruptions(entries, ids, spec):
                if verdict.check(spec.k, bad) is None:
                    return f"oracle accepts a corrupted answer ({name})"
                caught += 1
    if caught == 0 or agreed == 0:
        return "self-test instance exercised nothing"
    return None


if __name__ == "__main__":
    import os

    sys.path.insert(0, os.path.join(os.path.dirname(os.path.dirname(
        os.path.abspath(__file__))), "src"))
    failure = run()
    print("oracle self-test:", failure or "ok")
    sys.exit(1 if failure else 0)
