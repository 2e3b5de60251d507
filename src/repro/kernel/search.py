"""Vectorised wedge scan over the columnar snapshot.

``ColumnarSearcher`` is a drop-in replacement for
:class:`~repro.core.search.DesksSearcher`: same ``search`` signature,
same spans, same ``SearchStats`` counters, bit-identical answers.  It
*is* a ``DesksSearcher`` — the Algorithm 2 driver (band order by Eq. 4,
Lemma 1 skips and termination, the Lemma 2-4 wedge window, every
per-wedge ``MINDIST`` of Table I) is inherited, so pruning counts cannot
drift.  It overrides two hooks: ``_prepare_subqueries`` builds the
keyword plan from the snapshot's arrays (cached per keyword set), and
``_scan_subregion`` verifies one wedge's POIs as whole-array operations
— keyword-run intersection, direction membership, and the distance
prefilter.

Bit-exactness is kept by a prefilter-then-confirm discipline, because
``np.arctan2`` / ``np.hypot`` are *not* guaranteed bit-identical to
their ``math`` counterparts:

- direction: ``arc_contains`` (exact arithmetic on approximate
  ``np.arctan2`` directions) classifies each POI and flags every
  element within ``1e-9`` of a decision boundary — those few are
  re-decided with the scalar ``angle_of`` + ``DirectionInterval``
  path.  The ulp error of ``arctan2`` is ~1e-15, six orders below the
  slack, so no misclassification can hide outside the flagged set.
- distance: ``np.hypot`` orders candidates approximately; any POI
  within the (slack-widened) current ``d_k`` is re-measured with
  ``math.hypot`` before it is offered to the top-k heap, and only the
  exact value is compared or stored.

``search_batch`` answers many queries on one searcher, amortising
keyword resolution and candidate-plan construction through per-instance
caches keyed on ``(quadrant, term ids, match mode)`` — repeated keyword
sets (every serving workload) skip straight to the array scans.
"""

from __future__ import annotations

import math
from typing import Dict, FrozenSet, List, Optional, Sequence, Tuple

import numpy as np

from ..core.mindist import basic_geometry
from ..core.query import DirectionalQuery, MatchMode, QueryResult
from ..core.regions import Band
from ..core.search import (
    DesksSearcher,
    PruningMode,
    SupportsExpired,
    _Subquery,
    _TopK,
)
from ..geometry import ANGLE_EPS, TWO_PI, angle_of, arc_contains_vectors
from ..storage import SearchStats
from .snapshot import AnchorColumns, ColumnarSnapshot

#: Angular distance (radians) from a containment boundary under which a
#: vectorised direction decision is re-confirmed with scalar math.  Six
#: orders of magnitude above arctan2's worst-case ulp disagreement.
_DIRECTION_SLACK = 1e-9

#: Relative widening of ``d_k`` for the approximate distance prefilter;
#: anything inside is re-measured exactly before the heap sees it.
_KTH_SLACK = 1e-9

#: Bound on the per-searcher plan caches (cleared wholesale when full).
_PLAN_CACHE_LIMIT = 512


class _TermPlan:
    """Cached columnar access plan for one (anchor, keyword set) pair.

    Holds the sub-regions that can contain an answer (the paper's
    ``L^R_K``) plus each keyword's position runs, and lazily caches the
    per-band combined survivor positions — the expensive part of a
    repeated query's scan.
    """

    __slots__ = ("columns", "candidate_gids", "term_positions",
                 "conjunctive", "_band_cache")

    def __init__(self, columns: AnchorColumns, candidate_gids: List[int],
                 term_positions: List["np.ndarray"],
                 conjunctive: bool) -> None:
        self.columns = columns
        self.candidate_gids = candidate_gids
        self.term_positions = term_positions
        self.conjunctive = conjunctive
        self._band_cache: Dict[int, Tuple["np.ndarray", "np.ndarray"]] = {}

    def band_positions(self, band: Band) -> Tuple["np.ndarray", "np.ndarray"]:
        """Positions in ``band`` matching the keyword predicate (sorted).

        ALL-mode intersects the keywords' band runs (smallest first,
        early exit on empty); ANY-mode unions them.  Positions are
        globally unique, so set semantics match the object path's
        per-wedge ``set`` algebra exactly.  Returns ``(positions,
        offsets)`` where ``offsets[w] : offsets[w + 1]`` slices
        ``positions`` down to the band's ``w``-th wedge — the per-wedge
        scan does no further searching.
        """
        cached = self._band_cache.get(band.index)
        if cached is None:
            first_gid = band.first_gid
            wedge_bounds = self.columns.sub_starts[
                first_gid:first_gid + len(band.subregions) + 1]
            start = int(wedge_bounds[0])
            end = int(wedge_bounds[-1])
            runs = []
            for positions in self.term_positions:
                lo = int(np.searchsorted(positions, start))
                hi = int(np.searchsorted(positions, end))
                runs.append(positions[lo:hi])
            if self.conjunctive:
                runs.sort(key=len)
                merged = runs[0]
                for other in runs[1:]:
                    if merged.size == 0:
                        break
                    merged = np.intersect1d(merged, other,
                                            assume_unique=True)
            elif len(runs) == 1:
                merged = runs[0]
            else:
                merged = np.unique(np.concatenate(runs))
            cached = (merged, np.searchsorted(merged, wedge_bounds))
            self._band_cache[band.index] = cached
        return cached


class ColumnarSearcher(DesksSearcher):
    """Answers DESKS queries over a :class:`ColumnarSnapshot`.

    Accepts either a frozen :class:`~repro.core.index.DesksIndex` (a
    snapshot is compiled on the spot) or a prebuilt snapshot — engine
    worker pools share one snapshot across searchers.  The per-instance
    plan caches are not thread-safe; give each concurrent worker its own
    searcher, as :class:`~repro.service.QueryEngine` does.
    """

    def __init__(self, source) -> None:
        if isinstance(source, ColumnarSnapshot):
            snapshot = source
        else:
            snapshot = ColumnarSnapshot(source)
        super().__init__(snapshot.index)
        self.snapshot = snapshot
        self._term_cache: Dict[Tuple[FrozenSet[str], bool],
                               Optional[FrozenSet[int]]] = {}
        self._plan_cache: Dict[Tuple[int, Tuple[int, ...], bool],
                               Optional[_TermPlan]] = {}

    def search_batch(self, queries: Sequence[DirectionalQuery],
                     mode: PruningMode = PruningMode.RD,
                     stats: Optional[Sequence[Optional[SearchStats]]] = None,
                     deadline: Optional["SupportsExpired"] = None,
                     ) -> List[QueryResult]:
        """Answer ``queries`` in order, amortising plan construction.

        The searcher's term/plan/band caches persist across the batch
        (and across batches), so repeated keyword sets resolve to arrays
        already sliced and intersected.  ``stats``, when given, must be
        one :class:`SearchStats` (or ``None``) per query.
        """
        if stats is not None and len(stats) != len(queries):
            raise ValueError(
                f"stats has {len(stats)} slots for {len(queries)} queries")
        results: List[QueryResult] = []
        for position, query in enumerate(queries):
            per_query = stats[position] if stats is not None else None
            results.append(self.search(query, mode, stats=per_query,
                                       deadline=deadline))
        return results

    # -- keyword plan ------------------------------------------------------------

    def _prepare_subqueries(self, query: DirectionalQuery) -> List[_Subquery]:
        conjunctive = query.match_mode is MatchMode.ALL
        term_ids = self._resolve_terms(query.keywords, conjunctive)
        if term_ids is None:
            return []
        term_key = tuple(sorted(term_ids))
        subqueries: List[_Subquery] = []
        for quadrant, piece in query.basic_subqueries():
            columns = self.snapshot.anchor_columns(quadrant)
            plan = self._plan_for(columns, term_key, conjunctive)
            if plan is None:
                continue
            geometry = basic_geometry(
                columns.frame, query.location,
                columns.frame.basic_interval(piece))
            subqueries.append(_Subquery(quadrant, columns.regions, geometry,
                                        plan.candidate_gids, plan))
        return subqueries

    def _resolve_terms(self, keywords: FrozenSet[str],
                       conjunctive: bool) -> Optional[FrozenSet[int]]:
        key = (keywords, conjunctive)
        if key not in self._term_cache:
            if len(self._term_cache) >= _PLAN_CACHE_LIMIT:
                self._term_cache.clear()
            self._term_cache[key] = self._collection.query_term_ids(
                keywords, require_all=conjunctive)
        return self._term_cache[key]

    def _plan_for(self, columns: AnchorColumns, term_key: Tuple[int, ...],
                  conjunctive: bool) -> Optional[_TermPlan]:
        key = (columns.quadrant, term_key, conjunctive)
        if key in self._plan_cache:
            return self._plan_cache[key]
        if len(self._plan_cache) >= _PLAN_CACHE_LIMIT:
            self._plan_cache.clear()
        term_positions: Optional[List["np.ndarray"]] = []
        gid_runs: List["np.ndarray"] = []
        for term_id in term_key:
            term_columns = columns.terms.get(term_id)
            if term_columns is None:
                if conjunctive:
                    term_positions = None
                    break
                continue  # ANY: a missing keyword contributes nothing
            term_positions.append(term_columns.positions)
            gid_runs.append(term_columns.region_gids)
        plan: Optional[_TermPlan] = None
        if term_positions:
            if conjunctive:
                gids = gid_runs[0]
                for other in gid_runs[1:]:
                    gids = np.intersect1d(gids, other, assume_unique=True)
            elif len(gid_runs) == 1:
                gids = gid_runs[0]
            else:
                gids = np.unique(np.concatenate(gid_runs))
            if gids.size:
                plan = _TermPlan(columns, gids.tolist(),
                                 term_positions, conjunctive)
        self._plan_cache[key] = plan
        return plan

    # -- FindCandPOIs (vectorised) ---------------------------------------------

    def _scan_subregion(self, query: DirectionalQuery, sub: _Subquery,
                        band: Band, gid: int, collector: _TopK,
                        stats: Optional[SearchStats]) -> None:
        """FINDCANDPOIS over one wedge's contiguous array slice."""
        plan = sub.source
        columns = plan.columns
        positions, offsets = plan.band_positions(band)
        wedge_index = gid - band.first_gid
        lo = offsets[wedge_index]
        hi = offsets[wedge_index + 1]
        count = int(hi - lo)
        if count == 0:
            return
        survivors = positions[lo:hi]
        if stats is not None:
            stats.pois_examined += count
            stats.distance_computations += count
        location = query.location
        dxs = columns.xs[survivors] - location.x
        dys = columns.ys[survivors] - location.y
        coincident = (dxs == 0.0) & (dys == 0.0)
        interval = query.interval
        if interval.upper - interval.lower >= TWO_PI - ANGLE_EPS:
            verified = np.ones(count, dtype=bool)
        else:
            inside, borderline = arc_contains_vectors(
                dxs, dys, interval.lower, interval.upper,
                _DIRECTION_SLACK)
            if borderline.any():
                recheck = np.nonzero(borderline & ~coincident)[0]
                for position in recheck.tolist():
                    inside[position] = interval.contains(
                        angle_of(float(dxs[position]), float(dys[position])))
            verified = inside | coincident
        verified_count = int(np.count_nonzero(verified))
        if stats is not None:
            stats.candidates_verified += verified_count
        if verified_count == 0:
            return
        kth = collector.kth_distance
        offered = np.nonzero(verified)[0]
        approx = np.hypot(dxs[offered], dys[offered])
        if not math.isinf(kth):
            keep = approx <= kth * (1.0 + _KTH_SLACK)
            offered = offered[keep]
            approx = approx[keep]
        if offered.size == 0:
            return
        poi_ids = columns.poi_ids[survivors[offered]]
        # Ascending by approximate distance: once one candidate's widened
        # approximation exceeds the live d_k, every later one must too
        # (exact distance is within one ulp of the approximation, far
        # inside the slack), so the tail is cut without measuring it.
        for rank in np.argsort(approx, kind="stable").tolist():
            if approx[rank] > collector.kth_distance * (1.0 + _KTH_SLACK):
                break
            position = int(offered[rank])
            distance = math.hypot(dxs[position], dys[position])
            if distance < collector.kth_distance:
                collector.add(int(poi_ids[rank]), distance)
