"""explain() must account for exactly the cost the counters saw.

The acceptance bar: on wide, narrow, and wraparound sectors, the span
totals reconcile *exactly* with the ``SearchStats`` pruning counters and
the ``IOStats`` page reads of an identical untraced search.
"""

import math

import pytest

from repro.core import DesksIndex, DesksSearcher, PruningMode
from repro.storage import SearchStats
from repro.trace import ExplainReport, Tracer, explain

from .conftest import make_collection, make_query

#: The acceptance criterion's >= 3 sector shapes, wraparound included.
SECTORS = [
    pytest.param(0.3, 2 * math.pi, id="full-circle"),
    pytest.param(0.3, math.pi, id="wide"),
    pytest.param(0.8, math.pi / 16, id="narrow"),
    pytest.param(2 * math.pi - 0.2, 0.7, id="wraparound"),
]


@pytest.fixture(scope="module")
def disk_index(tmp_path_factory):
    collection = make_collection(n=400, seed=42)
    prefix = str(tmp_path_factory.mktemp("explain") / "idx")
    return DesksIndex(collection, num_bands=4, num_wedges=6,
                      disk_based=True, disk_path_prefix=prefix,
                      buffer_capacity=8)


class TestReconciliation:
    @pytest.mark.parametrize("alpha,width", SECTORS)
    @pytest.mark.parametrize("mode", [PruningMode.RD, PruningMode.R,
                                      PruningMode.D])
    def test_exact_reconciliation(self, disk_index, alpha, width, mode):
        report = explain(disk_index, make_query(alpha=alpha, width=width),
                         mode=mode)
        assert report.reconciled, report.render()
        quantities = {row["quantity"] for row in report.reconciliation}
        assert quantities == {"pois_fetched", "pois_verified",
                              "subregions_examined", "bands_scanned",
                              "pages_read"}

    @pytest.mark.parametrize("alpha,width", SECTORS)
    def test_matches_identical_untraced_search(self, disk_index, alpha,
                                               width):
        query = make_query(alpha=alpha, width=width)
        report = explain(disk_index, query)

        stats = SearchStats()
        io_before = disk_index.io_stats.snapshot()
        untraced = DesksSearcher(disk_index).search(query, stats=stats)
        pages = io_before.delta(disk_index.io_stats.snapshot()
                                ).logical_reads

        assert [r["poi_id"] for r in report.results] == \
            untraced.poi_ids()
        actuals = report.actuals
        assert actuals["pois_fetched"] == stats.pois_examined
        assert actuals["pois_verified"] == stats.candidates_verified
        assert actuals["subregions_examined"] == \
            stats.subregions_examined
        assert actuals["bands_scanned"] == stats.regions_examined
        assert actuals["pages_read"] == pages

    def test_pages_actually_flow_through_spans(self, disk_index):
        report = explain(disk_index, make_query(width=math.pi))
        assert report.actuals["pages_read"] > 0
        root = report.trace.find("desks.search")
        prepare = root.find("desks.prepare")
        bands = root.find_all("desks.band")
        assert prepare.attrs["pages_read"] + \
            sum(b.attrs.get("pages_read", 0) for b in bands) == \
            root.attrs["pages_read"]


class TestReportShape:
    def test_plan_names_decomposition_and_pruning(self, disk_index):
        alpha = 2 * math.pi - 0.2
        report = explain(disk_index, make_query(alpha=alpha, width=0.7))
        assert report.plan["pruning"] == {"region": True,
                                          "direction": True}
        # A wraparound interval decomposes across >= 2 quadrants.
        assert len(report.plan["subqueries"]) >= 2
        assert report.plan["index"]["num_bands"] == 4
        assert report.plan["index"]["disk_based"] is True

    def test_mode_accepts_string_names(self, disk_index):
        report = explain(disk_index, make_query(), mode="D")
        assert report.mode == "D"
        assert report.plan["pruning"] == {"region": False,
                                          "direction": True}

    def test_to_dict_is_json_ready(self, disk_index):
        import json

        report = explain(disk_index, make_query())
        doc = json.loads(report.to_json())
        assert doc["reconciled"] is True
        assert doc["trace"]["spans"][0]["name"] == "desks.search"
        assert isinstance(doc["results"], list)

    def test_render_flags_status(self, disk_index):
        report = explain(disk_index, make_query())
        assert isinstance(report, ExplainReport)
        assert "reconciliation (OK)" in report.render()

    def test_sink_receives_the_tracer(self, disk_index):
        class Recorder:
            observed = None

            def observe(self, tracer):
                Recorder.observed = tracer

        report = explain(disk_index, make_query(), sink=Recorder())
        assert Recorder.observed is report.trace

    def test_in_memory_index_reconciles_with_zero_pages(self):
        collection = make_collection(n=200, seed=7)
        index = DesksIndex(collection, num_bands=3, num_wedges=5)
        report = explain(index, make_query())
        assert report.reconciled
        assert report.actuals["pages_read"] == 0


class TestRootTotals:
    def test_root_totals_are_the_band_sums(self, disk_index):
        """The root's reconciled totals are rolled up from its bands."""
        tracer = Tracer()
        with tracer.activate():
            DesksSearcher(disk_index).search(make_query(width=math.pi))
        root = tracer.find("desks.search")
        bands = root.find_all("desks.band")
        scanned = [b for b in bands if b.attrs["action"] == "scanned"]
        assert root.attrs["bands_scanned"] == len(scanned)
        assert root.attrs["pages_read"] == \
            root.find("desks.prepare").attrs["pages_read"] + \
            sum(b.attrs["pages_read"] for b in scanned)
        assert root.attrs["pois_fetched"] == \
            sum(b.attrs["pois_fetched"] for b in scanned)
        for band in scanned:
            wedges = band.find_all("desks.wedge")
            assert band.attrs["subregions_kept"] == len(wedges)
            for key in ("pois_fetched", "pois_verified", "pages_read"):
                assert band.attrs[key] >= sum(w.attrs[key] for w in wedges)
