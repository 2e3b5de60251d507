"""DESKS query processing — Algorithms 1 and 2 of the paper.

One engine answers both the basic query (Algorithm 1, interval within one
quadrant) and the general query (Algorithm 2): the interval is decomposed
into per-quadrant basic sub-queries, and a single priority queue of
``(MINDIST, band)`` entries — spanning all participating anchors — drives a
best-first scan sharing one top-k collector, exactly as Algorithm 2's
region queue ``Q_R`` does.

:class:`DesksSearcher` is the only implementation of that driver.  The
columnar kernel (:class:`repro.kernel.ColumnarSearcher`) subclasses it and
overrides just two hooks — ``_prepare_subqueries`` (the keyword plan) and
``_scan_subregion`` (FINDCANDPOIS over one wedge) — so both searchers make
the same pruning decisions and report the same counters by construction.

When a :class:`repro.trace.Tracer` is active the driver opens its spans as
it runs (``desks.search`` > ``desks.prepare`` / ``desks.subquery`` >
``desks.band`` > ``desks.wedge``); their POI and page counters are
:class:`~repro.storage.SearchStats` / :class:`~repro.storage.IOStats`
deltas across each span.

The three pruning configurations evaluated in the paper's Section VI-B map
onto two switches:

========== ===================== =========================
mode        region pruning         direction pruning
            (Lemma 1 + Eq. 4)      (Lemmas 2-4 + Table I)
========== ===================== =========================
``R``       on                     off
``D``       off                    on
``RD``      on                     on
========== ===================== =========================
"""

from __future__ import annotations

import heapq
import math
import time
from bisect import bisect_left
from dataclasses import dataclass, field
from enum import Enum
from typing import Dict, Iterable, List, Optional, Sequence, Tuple

from ..storage import SearchStats
from ..text import intersect_sorted, union_sorted
from ..trace.spans import Span, Tracer, current_tracer
from .index import DesksIndex
from .mindist import (
    BasicQueryGeometry,
    band_mindist,
    basic_geometry,
    subregion_mindist,
)
from .query import DirectionalQuery, MatchMode, QueryResult, ResultEntry
from .regions import AnchorRegions, Band

INF = math.inf


class SupportsExpired:
    """Structural type for cooperative deadlines.

    Anything with an ``expired() -> bool`` method works (duck-typed; this
    class exists for documentation and isinstance-free annotation).  The
    canonical implementation is :class:`repro.service.Deadline` — core
    stays import-free of the serving layer.
    """

    def expired(self) -> bool:  # pragma: no cover - interface only
        raise NotImplementedError


class PruningMode(Enum):
    """Which pruning techniques the search applies (paper Sec. VI-B)."""

    R = "region"
    D = "direction"
    RD = "region+direction"

    @property
    def region(self) -> bool:
        return self in (PruningMode.R, PruningMode.RD)

    @property
    def direction(self) -> bool:
        return self in (PruningMode.D, PruningMode.RD)


class _TopK:
    """Bounded max-heap collecting the k nearest verified answers."""

    def __init__(self, k: int,
                 seed: Optional[Iterable[ResultEntry]] = None) -> None:
        self.k = k
        self._heap: List[Tuple[float, int]] = []  # (-distance, poi_id)
        self._best: Dict[int, float] = {}
        if seed is not None:
            for entry in seed:
                self.add(entry.poi_id, entry.distance)

    @property
    def kth_distance(self) -> float:
        """Current pruning threshold ``d_k`` (``inf`` until k answers)."""
        if len(self._heap) < self.k:
            return INF
        return -self._heap[0][0]

    def add(self, poi_id: int, distance: float) -> None:
        known = self._best.get(poi_id)
        if known is not None:
            return  # complex-query pieces can rediscover boundary POIs
        if len(self._heap) < self.k:
            heapq.heappush(self._heap, (-distance, poi_id))
            self._best[poi_id] = distance
        elif distance < -self._heap[0][0]:
            _, evicted = heapq.heappushpop(self._heap, (-distance, poi_id))
            del self._best[evicted]
            self._best[poi_id] = distance

    def entries(self) -> List[ResultEntry]:
        return sorted(ResultEntry(pid, dist)
                      for pid, dist in self._best.items())


@dataclass
class _Subquery:
    """Per-anchor state of one basic sub-query."""

    quadrant: int
    regions: AnchorRegions
    geometry: BasicQueryGeometry
    #: Sub-region gids containing the query keywords (sorted) — ``L^R_K``.
    candidate_gids: List[int]
    #: What ``_scan_subregion`` reads: per-keyword postings views here, a
    #: columnar term plan in :class:`repro.kernel.ColumnarSearcher`.
    source: object
    #: The ``desks.subquery`` span, when the search is traced.
    span: Optional[Span] = None
    #: Direction bounds per band are cached (Eqs. 5-6 are pure in the band).
    _bounds_cache: Dict[int, Tuple[float, float]] = field(
        default_factory=dict)

    def band_bounds(self, band: Band) -> Tuple[float, float]:
        cached = self._bounds_cache.get(band.index)
        if cached is None:
            cached = self.geometry.band_direction_bounds(band.outer_radius)
            self._bounds_cache[band.index] = cached
        return cached


class DesksSearcher:
    """Answers direction-aware spatial keyword queries over a DesksIndex."""

    def __init__(self, index: DesksIndex) -> None:
        self.index = index
        self._collection = index.collection

    # -- public API -----------------------------------------------------------

    def search(self, query: DirectionalQuery,
               mode: PruningMode = PruningMode.RD,
               stats: Optional[SearchStats] = None,
               seed_entries: Optional[Iterable[ResultEntry]] = None,
               deadline: Optional["SupportsExpired"] = None) -> QueryResult:
        """The k nearest POIs satisfying keyword and direction constraints.

        ``seed_entries`` pre-populates the top-k collector — the incremental
        algorithms of Section V pass cached answers here so ``d_k`` starts
        tight.

        ``deadline`` is any object with an ``expired() -> bool`` method
        (e.g. :class:`repro.service.Deadline`).  The best-first scan checks
        it cooperatively between bands and between sub-regions; on expiry
        the search stops and returns the best answers found so far with
        ``partial=True`` instead of raising — graceful degradation for the
        serving layer.  Every returned entry is still a verified answer.

        When a :class:`repro.trace.Tracer` is active in the calling context
        the search emits a ``desks.search`` span tree (prepare / sub-query /
        band / wedge stages with page-read and pruning attribution); with no
        active tracer the only cost is one ``ContextVar`` lookup.
        """
        collector = _TopK(query.k, seed=seed_entries)
        tracer = current_tracer()
        if tracer is not None:
            return self._traced_search(tracer, query, collector, mode, stats,
                                       deadline)
        completed = self._run(query, self._prepare_subqueries(query),
                              collector, mode, stats, deadline)
        return QueryResult(collector.entries(), partial=not completed)

    def search_basic(self, query: DirectionalQuery,
                     mode: PruningMode = PruningMode.RD,
                     stats: Optional[SearchStats] = None) -> QueryResult:
        """Algorithm 1: requires the interval to fit in one quadrant."""
        pieces = query.basic_subqueries()
        if len(pieces) != 1:
            raise ValueError(
                "search_basic() needs a single-quadrant interval; got "
                f"{len(pieces)} pieces — use search() for complex queries")
        return self.search(query, mode, stats)

    # -- Algorithm 2 ------------------------------------------------------------

    def _prepare_subqueries(self, query: DirectionalQuery) -> List[_Subquery]:
        """One sub-query per quadrant piece holding keyword sub-regions."""
        conjunctive = query.match_mode is MatchMode.ALL
        term_ids = self._collection.query_term_ids(
            query.keywords, require_all=conjunctive)
        if term_ids is None:
            return []
        subqueries: List[_Subquery] = []
        for quadrant, piece in query.basic_subqueries():
            anchor = self.index.anchor_index(quadrant)
            postings = []
            for term_id in term_ids:
                view = anchor.store.term_postings(term_id)
                if view is None:
                    if conjunctive:
                        postings = None
                        break
                    continue  # ANY: a missing keyword just contributes nothing
                postings.append(view)
            if not postings:
                continue
            # The paper's L^R_K: sub-regions containing every keyword
            # (ALL), or at least one keyword (ANY extension).
            region_lists = [list(v.region_gids) for v in postings]
            gids = (intersect_sorted(region_lists) if conjunctive
                    else union_sorted(region_lists))
            if not gids:
                continue
            geometry = basic_geometry(
                anchor.frame, query.location,
                anchor.frame.basic_interval(piece))
            subqueries.append(_Subquery(quadrant, anchor.regions, geometry,
                                        gids, postings))
        return subqueries

    def _run(self, query: DirectionalQuery, subqueries: List[_Subquery],
             collector: _TopK, mode: PruningMode,
             stats: Optional[SearchStats],
             deadline: Optional["SupportsExpired"],
             tracer: Optional[Tracer] = None) -> bool:
        """Drive the band queue to exhaustion; False when a deadline cut in."""
        heap: List[Tuple[float, int, int, _Subquery]] = []
        seq = 0

        def push_band(sub: _Subquery, band_idx: int) -> None:
            nonlocal seq
            bands = sub.regions.bands
            if band_idx >= len(bands):
                return
            heapq.heappush(
                heap,
                (self._band_priority(sub, bands[band_idx], mode),
                 seq, band_idx, sub))
            seq += 1

        for sub in subqueries:
            start = self._initial_band(sub, mode)
            if tracer is not None:
                sub.span = tracer.record(
                    "desks.subquery", quadrant=sub.quadrant,
                    interval_lower=sub.geometry.alpha,
                    interval_upper=sub.geometry.beta, start_band=start,
                    candidate_subregions=len(sub.candidate_gids))
            push_band(sub, start)

        while heap:
            if deadline is not None and deadline.expired():
                return False
            priority, _, band_idx, sub = heapq.heappop(heap)
            if priority is INF:
                continue
            if mode.region and priority >= collector.kth_distance:
                # Lemma 1 / Eq. 4 termination: every remaining band is at
                # least this far; no answer can improve the top-k.
                if tracer is not None:
                    sub.span.ended = tracer.record(
                        "desks.band", parent=sub.span, quadrant=sub.quadrant,
                        band_index=band_idx, priority=priority,
                        action="terminated").ended
                break
            if stats is not None:
                stats.regions_examined += 1
            band = sub.regions.bands[band_idx]
            if tracer is None:
                abandoned = self._scan_band(query, sub, band, collector, mode,
                                            stats, deadline)
            else:
                abandoned = self._traced_band(tracer, query, sub, band,
                                              priority, collector, mode,
                                              stats, deadline)
            if abandoned:
                return False
            push_band(sub, band_idx + 1)
        return True

    def _initial_band(self, sub: _Subquery, mode: PruningMode) -> int:
        """Lemma 1: bands strictly inside the query's radius are skipped."""
        if mode.region and sub.geometry.inside_rect:
            return sub.regions.band_of_distance(sub.geometry.qd)
        return 0

    def _band_priority(self, sub: _Subquery, band: Band,
                       mode: PruningMode) -> float:
        """Queue key for a band: Eq. 4 under region pruning, else scan order.

        Without region pruning the paper's DESKS+D examines bands in index
        order with no distance-based skipping; encoding the band index as
        the priority reproduces that while reusing the one queue.
        """
        if mode.region:
            return band_mindist(sub.geometry, band.inner_radius,
                                band.outer_radius)
        return float(band.index)

    # -- FindCandRegions + FindCandPOIs ------------------------------------------

    def _scan_band(self, query: DirectionalQuery, sub: _Subquery, band: Band,
                   collector: _TopK, mode: PruningMode,
                   stats: Optional[SearchStats],
                   deadline: Optional["SupportsExpired"],
                   tracer: Optional[Tracer] = None) -> int:
        """Scan one band's sub-regions.

        Returns how many candidate sub-regions a deadline left unscanned
        (0: the band completed).
        """
        candidates = self._candidate_subregions(sub, band, collector, mode,
                                                stats)
        for position, (mindist, subregion_gid) in enumerate(candidates):
            if mode.direction and mindist >= collector.kth_distance:
                # Candidates are MINDIST-sorted (Alg. 1 line 9): the whole
                # tail is cut by the tightened d_k bound, i.e. MINDIST-pruned.
                break
            if deadline is not None and deadline.expired():
                return len(candidates) - position
            if tracer is None:
                self._scan_subregion(query, sub, band, subregion_gid,
                                     collector, stats)
            else:
                self._traced_subregion(tracer, query, sub, band,
                                       subregion_gid, mindist, collector,
                                       stats)
        return 0

    def _candidate_subregions(self, sub: _Subquery, band: Band,
                              collector: _TopK, mode: PruningMode,
                              stats: Optional[SearchStats],
                              ) -> List[Tuple[float, int]]:
        """FINDCANDREGIONS: keyword-bearing sub-regions surviving pruning."""
        regions = sub.regions
        geo = sub.geometry
        first_gid = band.first_gid
        if mode.direction:
            tau_lo, tau_hi = sub.band_bounds(band)
            lo_idx, hi_idx = regions.candidate_wedge_range(band, tau_lo,
                                                           tau_hi)
            gid_lo, gid_hi = first_gid + lo_idx, first_gid + hi_idx
        else:
            gid_lo, gid_hi = first_gid, first_gid + len(band.subregions)
        selected = _slice_sorted(sub.candidate_gids, gid_lo, gid_hi)
        out: List[Tuple[float, int]] = []
        for gid in selected:
            if stats is not None:
                stats.subregions_examined += 1
            if mode.direction:
                wedge = regions.subregions[gid]
                mindist = subregion_mindist(
                    geo, band.inner_radius, band.outer_radius,
                    wedge.theta_lo, wedge.theta_hi)
                if mindist >= collector.kth_distance:
                    continue
            else:
                mindist = 0.0  # +R treats the band as one opaque region
            out.append((mindist, gid))
        out.sort()
        return out

    def _scan_subregion(self, query: DirectionalQuery, sub: _Subquery,
                        band: Band, gid: int, collector: _TopK,
                        stats: Optional[SearchStats]) -> None:
        """FINDCANDPOIS: combine POI lists, verify direction + distance."""
        lists = [view.pois_in(gid) for view in sub.source]
        if query.match_mode is MatchMode.ALL:
            lists.sort(key=len)
            if not lists or not lists[0]:
                return
            survivors = set(lists[0])
            for other in lists[1:]:
                survivors.intersection_update(other)
                if not survivors:
                    return
        else:
            survivors = set()
            for other in lists:
                survivors.update(other)
            if not survivors:
                return
        location = query.location
        for poi_id in survivors:
            if stats is not None:
                stats.pois_examined += 1
                stats.distance_computations += 1
            poi_location = self._collection.location(poi_id)
            if not poi_location.coincides(location):
                theta = location.direction_to(poi_location)
                if not query.interval.contains(theta):
                    continue
            if stats is not None:
                stats.candidates_verified += 1
            distance = location.distance_to(poi_location)
            if distance < collector.kth_distance:
                collector.add(poi_id, distance)

    # -- tracing ----------------------------------------------------------------

    def _traced_search(self, tracer: Tracer, query: DirectionalQuery,
                       collector: _TopK, mode: PruningMode,
                       stats: Optional[SearchStats],
                       deadline: Optional["SupportsExpired"]) -> QueryResult:
        """``search`` under a ``desks.search`` span whose totals reconcile.

        The root's totals are sums over the band spans, so
        :func:`repro.trace.explain` checking them against the search's
        own counters proves every counted POI and page lies in a band.
        """
        if stats is None:
            stats = SearchStats()  # the span counters are its deltas
        io = self.index.io_stats
        with tracer.span("desks.search", mode=mode.name, k=query.k) as root:
            pages = io.logical_reads
            with tracer.span("desks.prepare") as prepare:
                subqueries = self._prepare_subqueries(query)
            prepare.annotate(pages_read=io.logical_reads - pages,
                             subqueries=len(subqueries))
            completed = self._run(query, subqueries, collector, mode, stats,
                                  deadline, tracer)
            result = QueryResult(collector.entries(), partial=not completed)
            bands = [band for sub in subqueries for band in sub.span.children]

            def total(key: str) -> int:
                return sum(band.attrs.get(key, 0) for band in bands)

            root.annotate(
                results=len(result),
                partial=result.partial,
                terminated_early=any(band.attrs["action"] == "terminated"
                                     for band in bands),
                bands_scanned=sum(band.attrs["action"] == "scanned"
                                  for band in bands),
                bands_skipped_lemma1=sum(sub.span.attrs["start_band"]
                                         for sub in subqueries),
                pages_read=prepare.attrs["pages_read"] + total("pages_read"),
                pois_fetched=total("pois_fetched"),
                pois_verified=total("pois_verified"),
                subregions_examined=total("subregions_examined"),
                subregions_pruned=(total("subregions_window_pruned")
                                   + total("subregions_mindist_pruned")),
                mindist_evaluations=total("mindist_evaluations"),
            )
        return result

    def _traced_band(self, tracer: Tracer, query: DirectionalQuery,
                     sub: _Subquery, band: Band, priority: float,
                     collector: _TopK, mode: PruningMode, stats: SearchStats,
                     deadline: Optional["SupportsExpired"]) -> int:
        """``_scan_band`` inside a ``desks.band`` span with its pruning split.

        Of the keyword sub-regions in the band, the Lemma 3 wedge window
        (tau bounds, Lemmas 2/4) drops some before any MINDIST work; the
        rest are examined, and each examined one is scanned (kept), cut
        by its Table I MINDIST against ``d_k``, or left by a deadline.
        """
        io = self.index.io_stats
        examined = stats.subregions_examined
        fetched = stats.pois_examined
        verified = stats.candidates_verified
        pages = io.logical_reads
        with tracer.span("desks.band", parent=sub.span, quadrant=sub.quadrant,
                         band_index=band.index, priority=priority,
                         action="scanned") as span:
            abandoned = self._scan_band(query, sub, band, collector, mode,
                                        stats, deadline, tracer)
        examined = stats.subregions_examined - examined
        kept = len(span.children)
        span.annotate(pois_fetched=stats.pois_examined - fetched,
                      pois_verified=stats.candidates_verified - verified,
                      pages_read=io.logical_reads - pages,
                      subregions_kept=kept,
                      subregions_window_pruned=0,
                      subregions_mindist_pruned=examined - kept - abandoned,
                      subregions_examined=examined,
                      mindist_evaluations=0)
        if mode.direction:
            tau_lo, tau_hi = sub.band_bounds(band)
            in_band = _slice_sorted(sub.candidate_gids, band.first_gid,
                                    band.first_gid + len(band.subregions))
            span.annotate(
                subregions_window_pruned=len(in_band) - examined,
                mindist_evaluations=examined,
                tau_lower=tau_lo, tau_upper=tau_hi,
                wedge_window=list(sub.regions.candidate_wedge_range(
                    band, tau_lo, tau_hi)))
        sub.span.ended = span.ended
        return abandoned

    def _traced_subregion(self, tracer: Tracer, query: DirectionalQuery,
                          sub: _Subquery, band: Band, gid: int,
                          mindist: float, collector: _TopK,
                          stats: SearchStats) -> None:
        """``_scan_subregion``, recorded as a ``desks.wedge`` span."""
        io = self.index.io_stats
        fetched = stats.pois_examined
        verified = stats.candidates_verified
        pages = io.logical_reads
        tick = time.perf_counter()
        self._scan_subregion(query, sub, band, gid, collector, stats)
        tracer.record("desks.wedge", seconds=time.perf_counter() - tick,
                      gid=gid, mindist=mindist,
                      pois_fetched=stats.pois_examined - fetched,
                      pois_verified=stats.candidates_verified - verified,
                      pages_read=io.logical_reads - pages)


def _slice_sorted(values: Sequence[int], lo: int, hi: int) -> Sequence[int]:
    """Elements of sorted ``values`` in ``[lo, hi)``."""
    start = bisect_left(values, lo)
    end = bisect_left(values, hi, start)
    return values[start:end]
