"""The benchmark's own answer checker, written apart from ``repro``.

It scans the POIs linearly with its own distance (``numpy.hypot``),
direction (``numpy.arctan2`` folded into [0, 2*pi)) and keyword
(per-keyword id sets) arithmetic, and holds an answer to these
properties:

* every entry matches the query and carries its true distance;
* entries are sorted by distance, number at most k, repeat no id;
* nothing nearer than the last entry that matches is left out;
* the count is min(k, number of matches).

A POI within ``ANGLE_SLACK`` radians of an interval bound may be
returned or left out: the two sides compute the direction with
different floating-point steps, and that close to a bound neither
answer is wrong.
"""

from __future__ import annotations

import math
from typing import Dict, Iterable, List, Optional, Sequence, Set, Tuple

import numpy as np

TWO_PI = 2.0 * math.pi
ANGLE_SLACK = 1e-9


def _distance_slack(distance: float) -> float:
    return 1e-9 * max(1.0, abs(distance))


class Verdict:
    """The oracle's view of one query: sure and boundary matches."""

    def __init__(self, ids: np.ndarray, dists: np.ndarray,
                 boundary: np.ndarray) -> None:
        order = np.lexsort((ids, dists))
        self.ids = ids[order]
        self.dists = dists[order]
        self.boundary = boundary[order]
        self.distance_of: Dict[int, float] = dict(
            zip(self.ids.tolist(), self.dists.tolist()))

    @property
    def num_sure(self) -> int:
        return int(np.count_nonzero(~self.boundary))

    def top(self, k: int) -> List[Tuple[int, float]]:
        """The oracle's own answer, counting boundary POIs as matches."""
        return list(zip(self.ids[:k].tolist(), self.dists[:k].tolist()))

    def check(self, k: int, entries: Sequence[Tuple[int, float]],
              ) -> Optional[str]:
        """``None`` when ``entries`` is a right answer, else the reason."""
        if len(entries) > k:
            return f"{len(entries)} entries for k={k}"
        seen: Set[int] = set()
        previous = -math.inf
        for poi_id, distance in entries:
            if poi_id in seen:
                return f"poi {poi_id} returned twice"
            seen.add(poi_id)
            if distance < previous:
                return "entries not sorted by distance"
            previous = distance
            true = self.distance_of.get(poi_id)
            if true is None:
                return f"poi {poi_id} does not match the query"
            if abs(true - distance) > _distance_slack(true):
                return (f"poi {poi_id} at distance {distance!r}, "
                        f"oracle says {true!r}")
        total = len(self.ids)
        low = min(k, self.num_sure)
        high = min(k, total)
        if not low <= len(entries) <= high:
            return (f"{len(entries)} entries, expected min(k={k}, "
                    f"matches) in [{low}, {high}]")
        cutoff = previous if len(entries) == k else math.inf
        for poi_id, distance, boundary in zip(
                self.ids.tolist(), self.dists.tolist(),
                self.boundary.tolist()):
            if distance >= cutoff - _distance_slack(cutoff):
                break
            if not boundary and poi_id not in seen:
                return (f"poi {poi_id} at distance {distance!r} is "
                        "missing from the answer")
        return None


def judge(xs: np.ndarray, ys: np.ndarray, ids: np.ndarray,
          x: float, y: float, alpha: Optional[float],
          beta: Optional[float]) -> Verdict:
    """Direction-filter and measure the keyword candidates ``ids``."""
    dx = xs - x
    dy = ys - y
    dists = np.hypot(dx, dy)
    if alpha is None or beta - alpha >= TWO_PI:
        return Verdict(ids, dists, np.zeros(len(ids), dtype=bool))
    width = beta - alpha
    theta = np.mod(np.arctan2(dy, dx), TWO_PI)
    offset = np.mod(theta - alpha, TWO_PI)
    at_query = (dx == 0.0) & (dy == 0.0)
    near_lower = np.minimum(offset, TWO_PI - offset) < ANGLE_SLACK
    near_upper = np.abs(offset - width) < ANGLE_SLACK
    boundary = (near_lower | near_upper) & ~at_query
    keep = (offset <= width) | at_query | boundary
    return Verdict(ids[keep], dists[keep], boundary[keep])


class StaticOracle:
    """Linear-scan oracle over a fixed POI set."""

    def __init__(self, xs: Sequence[float], ys: Sequence[float],
                 keywords: Sequence[Iterable[str]]) -> None:
        self.xs = np.asarray(xs, dtype=np.float64)
        self.ys = np.asarray(ys, dtype=np.float64)
        lists: Dict[str, List[int]] = {}
        for poi_id, kws in enumerate(keywords):
            for kw in kws:
                lists.setdefault(kw, []).append(poi_id)
        self.postings = {kw: np.asarray(ids, dtype=np.int64)
                         for kw, ids in lists.items()}
        self._empty = np.zeros(0, dtype=np.int64)

    def candidates(self, keywords: Iterable[str]) -> np.ndarray:
        arrays = []
        for kw in keywords:
            ids = self.postings.get(kw)
            if ids is None:
                return self._empty
            arrays.append(ids)
        arrays.sort(key=len)
        out = arrays[0]
        for ids in arrays[1:]:
            out = np.intersect1d(out, ids, assume_unique=True)
        return out

    def verdict(self, spec) -> Verdict:
        ids = self.candidates(spec.keywords)
        return judge(self.xs[ids], self.ys[ids], ids, spec.x, spec.y,
                     spec.alpha, spec.beta)


Key = Tuple[float, float, Tuple[str, ...]]


class LiveOracle:
    """Linear-scan oracle over a POI set that changes.

    POIs live in slots that do not move while the POI lives.  The
    mutable index renumbers its ids when it compacts, so answers are
    compared by slot, and a slot is a location plus a keyword set.  A
    deleted slot is reused by a later insert, so the model stays the
    size of the live set; two models fed the same adds and removes
    hand out the same slots.
    """

    def __init__(self) -> None:
        self.keys: List[Key] = []
        self.alive: List[bool] = []
        self.postings: Dict[str, Set[int]] = {}
        self._free: List[int] = []
        self._xs = np.zeros(1024, dtype=np.float64)
        self._ys = np.zeros(1024, dtype=np.float64)

    def add(self, x: float, y: float, keywords: Iterable[str]) -> int:
        kws = tuple(sorted(set(keywords)))
        if self._free:
            slot = self._free.pop()
            self.keys[slot] = (x, y, kws)
            self.alive[slot] = True
        else:
            slot = len(self.keys)
            if slot == len(self._xs):
                self._xs = np.concatenate([self._xs,
                                           np.zeros_like(self._xs)])
                self._ys = np.concatenate([self._ys,
                                           np.zeros_like(self._ys)])
            self.keys.append((x, y, kws))
            self.alive.append(True)
        self._xs[slot] = x
        self._ys[slot] = y
        for kw in kws:
            self.postings.setdefault(kw, set()).add(slot)
        return slot

    def remove(self, slot: int) -> None:
        if not self.alive[slot]:
            raise ValueError(f"slot {slot} is already dead")
        self.alive[slot] = False
        for kw in self.keys[slot][2]:
            self.postings[kw].discard(slot)
        self._free.append(slot)

    def live_keys(self) -> List[Key]:
        return [key for key, alive in zip(self.keys, self.alive) if alive]

    def verdict(self, spec) -> Verdict:
        sets = []
        for kw in spec.keywords:
            slots = self.postings.get(kw)
            if not slots:
                sets = []
                break
            sets.append(slots)
        if sets:
            sets.sort(key=len)
            chosen = set(sets[0]).intersection(*sets[1:])
        else:
            chosen = set()
        ids = np.fromiter(sorted(chosen), dtype=np.int64, count=len(chosen))
        return judge(self._xs[ids], self._ys[ids], ids, spec.x, spec.y,
                     spec.alpha, spec.beta)
