"""The direction-aware region structure of one anchor corner.

This is the paper's Section II-B index, built in the anchor's canonical
frame (:mod:`repro.geometry.frames`):

1. sort POIs by distance to the anchor and cut them into ``N`` distance
   *bands* ``R_1..R_N`` (quarter concentric rings); POIs with equal distance
   never straddle a band boundary;
2. inside each band, sort POIs by direction to the anchor and cut them into
   ``M`` angular *sub-regions* ``R_i1..R_iM``; equal directions never
   straddle a sub-region boundary.

The resulting ``poi_order`` — band-major, direction-sorted — is the sort key
for every keyword posting list, which is what makes the paper's
pointer-sliced inverted lists possible.
"""

from __future__ import annotations

import math
from bisect import bisect_right
from dataclasses import dataclass, field
from functools import cached_property
from typing import List, Sequence, Tuple

import numpy as np

from ..geometry import HALF_PI, CanonicalFrame, Point
from ..storage import (
    decode_floats,
    decode_uint_list,
    encode_floats,
    encode_uint_list,
)


@dataclass
class Subregion:
    """One angular sub-region ``R_ij`` of a band.

    ``theta_lo`` is the minimal POI direction inside it (the paper's
    ``theta_{ij-1}``); ``theta_hi`` is the next sub-region's ``theta_lo``
    (``theta_ij``), or ``pi/2`` for the band's last sub-region.  ``start``
    and ``end`` slice the anchor's ``poi_order``.
    """

    gid: int
    band_index: int
    theta_lo: float
    theta_hi: float
    start: int
    end: int

    @property
    def size(self) -> int:
        return self.end - self.start


@dataclass
class Band:
    """One distance band ``R_i`` with its angular sub-regions."""

    index: int
    inner_radius: float
    outer_radius: float
    subregions: List[Subregion] = field(default_factory=list)

    @property
    def size(self) -> int:
        return sum(s.size for s in self.subregions)

    @property
    def first_gid(self) -> int:
        return self.subregions[0].gid

    @cached_property
    def theta_breaks(self) -> List[float]:
        """Sub-region lower directions, for binary searching.

        Built on first use — by a search, after the band is complete —
        instead of once per band scan.
        """
        return [s.theta_lo for s in self.subregions]


class AnchorRegions:
    """Bands, sub-regions, and the canonical per-POI polar coordinates."""

    def __init__(self, frame: CanonicalFrame,
                 locations: Sequence[Point],
                 num_bands: int, num_wedges: int) -> None:
        if num_bands <= 0 or num_wedges <= 0:
            raise ValueError(
                f"need positive band/wedge counts, got {num_bands}/"
                f"{num_wedges}")
        self.frame = frame
        self.num_bands_requested = num_bands
        self.num_wedges_requested = num_wedges

        n = len(locations)
        self.distances, self.thetas = _polar_coordinates(frame, locations)
        by_distance = [int(i) for i in np.argsort(self.distances,
                                                  kind="stable")]
        band_chunks = _partition_with_ties(
            by_distance, num_bands, key=lambda i: self.distances[i])

        self.poi_order: List[int] = []
        self.bands: List[Band] = []
        self.subregions: List[Subregion] = []
        for band_index, chunk in enumerate(band_chunks):
            inner = self.distances[chunk[0]]
            band = Band(band_index, inner, math.inf)
            if self.bands:
                self.bands[-1].outer_radius = inner
            by_theta = sorted(chunk, key=lambda i: self.thetas[i])
            wedge_chunks = _partition_with_ties(
                by_theta, num_wedges, key=lambda i: self.thetas[i])
            for wedge in wedge_chunks:
                start = len(self.poi_order)
                self.poi_order.extend(wedge)
                sub = Subregion(
                    gid=len(self.subregions),
                    band_index=band_index,
                    theta_lo=self.thetas[wedge[0]],
                    theta_hi=HALF_PI,
                    start=start,
                    end=len(self.poi_order),
                )
                if band.subregions:
                    band.subregions[-1].theta_hi = sub.theta_lo
                band.subregions.append(sub)
                self.subregions.append(sub)
            self.bands.append(band)

        # The first band's inner arc is the paper's r_0 (= nearest POI); the
        # last band is unbounded outward (outer_radius stays +inf).
        self.position_of: List[int] = [0] * n
        for position, poi_id in enumerate(self.poi_order):
            self.position_of[poi_id] = position
        self._inner_radii = [b.inner_radius for b in self.bands]

    # -- lookups -----------------------------------------------------------

    @property
    def num_bands(self) -> int:
        return len(self.bands)

    @property
    def num_subregions(self) -> int:
        return len(self.subregions)

    def band_of_distance(self, distance: float) -> int:
        """Index of the band whose radius range holds ``distance``.

        Distances below the first band's inner arc map to band 0 (the query
        then sits inside the inner arc, handled by the MINDIST cases);
        distances beyond every arc map to the last band.
        """
        idx = bisect_right(self._inner_radii, distance) - 1
        return max(idx, 0)

    def band_of_poi(self, poi_id: int) -> int:
        """Band index containing a POI."""
        return self.subregion_of_poi(poi_id).band_index

    def subregion_of_poi(self, poi_id: int) -> Subregion:
        """Sub-region containing a POI (by its position in poi_order)."""
        position = self.position_of[poi_id]
        lo, hi = 0, len(self.subregions) - 1
        while lo < hi:
            mid = (lo + hi) // 2
            if self.subregions[mid].end <= position:
                lo = mid + 1
            else:
                hi = mid
        return self.subregions[lo]

    def candidate_wedge_range(self, band: Band, tau_lo: float,
                              tau_hi: float) -> Tuple[int, int]:
        """Sub-region index range of ``band`` overlapping ``[tau_lo, tau_hi]``.

        Implements Lemma 3/4's binary searches: a sub-region with direction
        range ``[theta_lo, theta_hi)`` is prunable when ``theta_hi <= tau_lo``
        or ``theta_lo > tau_hi``.  Returns a half-open ``(first, last+1)``
        pair into ``band.subregions``.

        The band's *last* sub-region is the exception to the half-open
        convention: its ``theta_hi`` is pinned to ``pi/2`` but POIs at
        exactly ``pi/2`` live inside it, so it is closed at the top and
        must not be pruned by ``theta_hi <= tau_lo``.
        """
        breaks = band.theta_breaks
        # First sub-region whose *upper* bound exceeds tau_lo: since
        # theta_hi[j] == theta_lo[j+1], that is the last j with
        # theta_lo[j] <= tau_lo, except when its theta_hi == tau_lo.
        first = bisect_right(breaks, tau_lo) - 1
        if first < 0:
            first = 0
        elif (band.subregions[first].theta_hi <= tau_lo
              and first + 1 < len(band.subregions)):
            first += 1
        # Last sub-region whose lower bound is <= tau_hi.
        last = bisect_right(breaks, tau_hi) - 1
        if last < first:
            return (first, first)  # empty range
        return (first, last + 1)


    # -- serialization ---------------------------------------------------------

    def to_blob(self) -> bytes:
        """Serialize the region skeleton (not the POI coordinates).

        The per-POI distances/thetas are recomputed on load — they are
        cheap linear passes; what the blob preserves is the result of the
        two expensive global sorts: ``poi_order`` and the band/sub-region
        boundaries.
        """
        parts = [
            encode_uint_list([self.num_bands_requested,
                              self.num_wedges_requested]),
            encode_uint_list(self.poi_order),
            encode_uint_list([len(b.subregions) for b in self.bands]),
            encode_floats([b.inner_radius for b in self.bands]),
            encode_floats([s.theta_lo for s in self.subregions]),
            encode_uint_list([s.size for s in self.subregions]),
        ]
        return b"".join(parts)

    @classmethod
    def from_blob(cls, frame: CanonicalFrame, locations: Sequence[Point],
                  blob: bytes) -> "AnchorRegions":
        """Reconstruct a structure serialized by :meth:`to_blob`."""
        offset = 0
        requested, offset = decode_uint_list(blob, offset)
        poi_order, offset = decode_uint_list(blob, offset)
        band_counts, offset = decode_uint_list(blob, offset)
        inner_radii, offset = decode_floats(blob, offset)
        theta_los, offset = decode_floats(blob, offset)
        sizes, offset = decode_uint_list(blob, offset)
        if len(requested) != 2 or len(band_counts) != len(inner_radii):
            raise ValueError("malformed anchor-regions blob")
        if len(poi_order) != len(locations):
            raise ValueError(
                f"blob indexes {len(poi_order)} POIs but the collection "
                f"has {len(locations)}")
        if sum(band_counts) != len(theta_los) or len(theta_los) != len(sizes):
            raise ValueError("inconsistent sub-region tables in blob")
        if sum(sizes) != len(poi_order):
            raise ValueError("sub-region sizes do not cover the POI order")

        obj = cls.__new__(cls)
        obj.frame = frame
        obj.num_bands_requested, obj.num_wedges_requested = requested
        obj.distances, obj.thetas = _polar_coordinates(frame, locations)
        obj.poi_order = list(poi_order)
        obj.bands = []
        obj.subregions = []
        cursor = 0
        sub_idx = 0
        for band_index, (count, inner) in enumerate(
                zip(band_counts, inner_radii)):
            band = Band(band_index, inner, math.inf)
            if obj.bands:
                obj.bands[-1].outer_radius = inner
            for _ in range(count):
                sub = Subregion(
                    gid=len(obj.subregions),
                    band_index=band_index,
                    theta_lo=theta_los[sub_idx],
                    theta_hi=HALF_PI,
                    start=cursor,
                    end=cursor + sizes[sub_idx],
                )
                if band.subregions:
                    band.subregions[-1].theta_hi = sub.theta_lo
                band.subregions.append(sub)
                obj.subregions.append(sub)
                cursor = sub.end
                sub_idx += 1
            obj.bands.append(band)
        obj.position_of = [0] * len(poi_order)
        for position, poi_id in enumerate(obj.poi_order):
            obj.position_of[poi_id] = position
        obj._inner_radii = [b.inner_radius for b in obj.bands]
        return obj


def _polar_coordinates(frame: CanonicalFrame, locations: Sequence[Point],
                       ) -> Tuple[List[float], List[float]]:
    """Per-POI (distance, direction) to the anchor, vectorised.

    A POI exactly on the anchor has no direction; it gets 0, the bottom of
    the quadrant.  Results come back as plain Python lists — downstream
    code does scalar indexing, where lists beat numpy scalars.
    """
    xs = np.fromiter((p.x for p in locations), dtype=float,
                     count=len(locations))
    ys = np.fromiter((p.y for p in locations), dtype=float,
                     count=len(locations))
    cx, cy = frame.to_canonical_xy(xs, ys)
    distances = np.hypot(cx, cy)
    thetas = np.where(distances > 0.0, np.arctan2(cy, cx), 0.0)
    return distances.tolist(), thetas.tolist()


def _partition_with_ties(ordered: List[int], buckets: int,
                         key) -> List[List[int]]:
    """Cut ``ordered`` into ~``buckets`` chunks; equal keys stay together.

    The paper's partitioning rule: fill each bucket to the target size, then
    keep absorbing items whose key equals the bucket's last key, so a band
    boundary never falls between equal distances (or a wedge boundary
    between equal directions).
    """
    n = len(ordered)
    if n == 0:
        return []
    target = max(1, round(n / buckets))
    chunks: List[List[int]] = []
    i = 0
    while i < n:
        j = min(i + target, n)
        while j < n and key(ordered[j]) == key(ordered[j - 1]):
            j += 1
        chunks.append(ordered[i:j])
        i = j
    return chunks
