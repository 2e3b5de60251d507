"""Seeded inputs: datasets, query specs, DQL text and mutation streams.

The POI sets are the repository's Table II presets at fixed scales and
their own fixed seeds (a dataset stands in for real data, so every run
searches the same map); everything a client sends — query points,
intervals, keywords, k, statement text, inserts, deletes and the order
of operations — is drawn from the workload seed.  The program only
ever receives the generated values.
"""

from __future__ import annotations

import math
import random
from dataclasses import dataclass
from typing import List, Optional, Sequence, Tuple

TWO_PI = 2.0 * math.pi
EXTENT = 10_000.0

#: Direction widths in degrees, narrow to the full circle.
WIDTHS_DEG = (5.0, 15.0, 45.0, 90.0, 180.0, 270.0, 360.0)
#: Keywords per query.
KEYWORD_COUNTS = (1, 2, 3, 4, 5)
#: Result counts.
KS = (10, 100)
#: One round: every (width, keyword count, k) combination once.
ROUND_MIX = [(w, n, k) for w in WIDTHS_DEG for n in KEYWORD_COUNTS
             for k in KS]

#: Preset name and scale per workload dataset.
DATASETS = {"CN": 200.0, "VA": 100.0, "CA": 100.0}


@dataclass(frozen=True)
class QuerySpec:
    """One query as the client sends it (angles in radians).

    ``alpha``/``beta`` are ``None`` for the full circle.
    """

    x: float
    y: float
    alpha: Optional[float]
    beta: Optional[float]
    keywords: Tuple[str, ...]
    k: int

    def dql(self) -> str:
        heading = ("" if self.alpha is None
                   else f" HEADING [{self.alpha:.9f}, {self.beta:.9f}]")
        return (f"SELECT {self.k} NEAR ({self.x:.6f}, {self.y:.6f})"
                f"{heading} MATCHING '{' '.join(self.keywords)}'")

    def rounded(self) -> "QuerySpec":
        """The values a parser reads back from :meth:`dql`."""
        return QuerySpec(
            float(f"{self.x:.6f}"), float(f"{self.y:.6f}"),
            None if self.alpha is None else float(f"{self.alpha:.9f}"),
            None if self.beta is None else float(f"{self.beta:.9f}"),
            self.keywords, self.k)


class Dataset:
    """A preset's POIs as plain columns (what the oracle reads)."""

    def __init__(self, name: str, collection) -> None:
        self.name = name
        self.collection = collection
        self.xs = [p.location.x for p in collection]
        self.ys = [p.location.y for p in collection]
        self.keywords = [tuple(sorted(p.keywords)) for p in collection]
        # POI ids with at least n keywords, for queries of n keywords.
        self.by_size = {n: [i for i, kws in enumerate(self.keywords)
                            if len(kws) >= n] for n in KEYWORD_COUNTS}


def load_dataset(name: str) -> Dataset:
    from repro.datasets import load_preset

    return Dataset(name, load_preset(name, scale=DATASETS[name]))


class QueryMaker:
    """Draws queries whose interval holds at least one matching POI.

    A source POI with enough keywords is picked, its keywords are
    sampled, and the query point is placed so that the direction to
    the source lies inside the interval.  A quarter of the bounded
    intervals are forced to straddle direction 0.
    """

    def __init__(self, dataset: Dataset, rng: random.Random) -> None:
        self.data = dataset
        self.rng = rng
        self.made = 0

    def make(self, width_deg: float, num_keywords: int, k: int) -> QuerySpec:
        rng = self.rng
        data = self.data
        source = rng.choice(data.by_size[num_keywords])
        keywords = tuple(sorted(rng.sample(data.keywords[source],
                                           num_keywords)))
        self.made += 1
        width = math.radians(width_deg)
        full = width_deg >= 360.0
        if full:
            alpha = beta = None
            direction = rng.uniform(0.0, TWO_PI)
        else:
            if self.made % 4 == 0:
                alpha = TWO_PI - rng.uniform(0.1, 0.9) * width
            else:
                alpha = rng.uniform(0.0, TWO_PI)
            beta = alpha + width
            direction = alpha + rng.uniform(0.05, 0.95) * width
        px, py = data.xs[source], data.ys[source]
        for _ in range(64):
            reach = rng.uniform(20.0, 2500.0)
            x = px - reach * math.cos(direction)
            y = py - reach * math.sin(direction)
            if 0.0 <= x <= EXTENT and 0.0 <= y <= EXTENT:
                break
            if full:
                direction = rng.uniform(0.0, TWO_PI)
            else:
                direction = alpha + rng.uniform(0.05, 0.95) * width
        else:
            # No point inside the map along the drawn directions: query
            # from next to the source itself (still a valid query).
            x, y = px - math.cos(direction), py - math.sin(direction)
        return QuerySpec(x, y, alpha, beta, keywords, k)

    def round(self) -> List[QuerySpec]:
        """One round: the full mix in a seeded order."""
        mix = list(ROUND_MIX)
        self.rng.shuffle(mix)
        return [self.make(*combo) for combo in mix]


def to_query(spec: QuerySpec):
    """The program's query object for ``spec``."""
    from repro.core import DirectionalQuery
    from repro.geometry import DirectionInterval, Point

    interval = (DirectionInterval.full() if spec.alpha is None
                else DirectionInterval(spec.alpha, spec.beta))
    return DirectionalQuery(Point(spec.x, spec.y), interval,
                            frozenset(spec.keywords), spec.k)


def zipf_weights(count: int, exponent: float) -> List[float]:
    return [1.0 / (rank ** exponent) for rank in range(1, count + 1)]


def shuffled_round(rng: random.Random,
                   counts: Sequence[Tuple[str, int]]) -> List[str]:
    """``counts`` operation kinds in a seeded order."""
    ops = [kind for kind, count in counts for _ in range(count)]
    rng.shuffle(ops)
    return ops
