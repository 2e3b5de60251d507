"""Tests for the per-query span tree the searcher emits while tracing."""

import math


from repro.core import (
    DirectionalQuery,
    PruningMode,
)
from repro.storage import SearchStats
from repro.trace import Tracer


class TestQueryTrace:
    def run(self, searcher, query, mode=PruningMode.RD, stats=None):
        tracer = Tracer()
        with tracer.activate():
            result = searcher.search(query, mode, stats=stats)
        return tracer.find("desks.search"), result

    @staticmethod
    def bands(root, action=None):
        return [band for band in root.find_all("desks.band")
                if action is None or band.attrs["action"] == action]

    def test_subqueries_match_decomposition(self, searcher):
        q = DirectionalQuery.make(50, 50, 0.2, 0.2 + 1.5 * math.pi,
                                  ["cafe"], 5)
        root, _ = self.run(searcher, q)
        assert len(root.find_all("desks.subquery")) == \
            len(q.basic_subqueries())

    def test_single_quadrant_one_subquery(self, searcher):
        q = DirectionalQuery.make(50, 50, 0.1, 1.0, ["cafe"], 5)
        root, _ = self.run(searcher, q)
        # 0 if no keyword sub-regions
        assert len(root.find_all("desks.subquery")) <= 1

    def test_band_accounting_consistent_with_stats(self, searcher):
        q = DirectionalQuery.make(50, 50, 0.0, math.pi, ["food"], 10)
        stats = SearchStats()
        root, _ = self.run(searcher, q, PruningMode.RD, stats=stats)
        assert root.attrs["bands_scanned"] == stats.regions_examined
        assert len(self.bands(root, "scanned")) == stats.regions_examined
        assert root.attrs["pois_fetched"] == stats.pois_examined

    def test_num_results_recorded(self, searcher):
        q = DirectionalQuery.make(50, 50, 0.0, 2.0, ["cafe"], 3)
        root, result = self.run(searcher, q)
        assert root.attrs["results"] == len(result)

    def test_termination_recorded_under_region_pruning(self, searcher):
        # A dense keyword with small k terminates before exhausting bands.
        q = DirectionalQuery.undirected(50, 50, ["food"], 1)
        root, _ = self.run(searcher, q, PruningMode.RD)
        assert root.attrs["terminated_early"] == \
            bool(self.bands(root, "terminated"))

    def test_direction_mode_fills_tau_and_window(self, searcher):
        q = DirectionalQuery.make(50, 50, 0.3, 0.9, ["food"], 5)
        root, _ = self.run(searcher, q, PruningMode.RD)
        scanned = self.bands(root, "scanned")
        assert scanned, "expected at least one scanned band"
        for band in scanned:
            assert band.attrs["tau_lower"] <= band.attrs["tau_upper"]
            assert "wedge_window" in band.attrs

    def test_r_mode_has_no_tau(self, searcher):
        q = DirectionalQuery.make(50, 50, 0.3, 0.9, ["food"], 5)
        root, _ = self.run(searcher, q, PruningMode.R)
        for band in self.bands(root):
            assert "tau_lower" not in band.attrs
            assert "wedge_window" not in band.attrs

    def test_render_mentions_key_facts(self, searcher):
        q = DirectionalQuery.make(50, 50, 0.1, 2.2, ["cafe"], 5)
        root, result = self.run(searcher, q)
        text = root.render()
        assert text.startswith("desks.search")
        assert f"results={len(result)}" in text
        assert "desks.subquery" in text and "quadrant=" in text

    def test_unknown_keyword_trace_empty(self, searcher):
        q = DirectionalQuery.make(50, 50, 0.1, 1.0, ["zzz"], 5)
        root, result = self.run(searcher, q)
        assert [child.name for child in root.children] == ["desks.prepare"]
        assert self.bands(root) == []
        assert root.attrs["results"] == 0
        assert "results=0" in root.render()

    def test_trace_does_not_change_answers(self, searcher):
        q = DirectionalQuery.make(40, 60, 0.5, 3.5, ["gas"], 8)
        _, with_trace = self.run(searcher, q)
        without = searcher.search(q)
        assert with_trace.distances() == without.distances()

    def test_verified_never_exceeds_fetched(self, searcher):
        q = DirectionalQuery.make(50, 50, 0.0, 1.2, ["food"], 10)
        root, _ = self.run(searcher, q)
        for span in self.bands(root, "scanned") + \
                root.find_all("desks.wedge"):
            assert span.attrs["pois_verified"] <= span.attrs["pois_fetched"]
