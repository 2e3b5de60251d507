"""Span/Tracer mechanics: nesting, context-locality, export, sinks."""

import json
import threading
import time

import pytest

from repro.trace import (
    Span,
    TraceSink,
    Tracer,
    current_span,
    current_tracer,
    traced,
)
from repro.trace.spans import _SPAN


class TestSpanTree:
    def test_nesting_follows_with_blocks(self):
        tracer = Tracer()
        with tracer.activate():
            with tracer.span("root"):
                with tracer.span("child.a"):
                    with tracer.span("leaf"):
                        pass
                with tracer.span("child.b"):
                    pass
        root = tracer.root
        assert root.name == "root"
        assert [c.name for c in root.children] == ["child.a", "child.b"]
        assert root.children[0].children[0].name == "leaf"

    def test_current_span_tracks_innermost(self):
        tracer = Tracer()
        assert current_span() is None
        with tracer.activate():
            with tracer.span("outer") as outer:
                assert current_span() is outer
                with tracer.span("inner") as inner:
                    assert current_span() is inner
                assert current_span() is outer
        assert current_span() is None

    def test_activate_restores_previous_tracer(self):
        outer, inner = Tracer(), Tracer()
        with outer.activate():
            assert current_tracer() is outer
            with inner.activate():
                assert current_tracer() is inner
            assert current_tracer() is outer
        assert current_tracer() is None

    def test_annotate_add_and_total(self):
        tracer = Tracer()
        with tracer.activate():
            with tracer.span("op") as span:
                span.annotate(kind="scan")
                span.add("pages_read", 3)
                span.add("pages_read", 2)
                tracer.record("op.stage", parent=span, pages_read=4)
        assert tracer.root.attrs["pages_read"] == 5
        assert tracer.root.total("pages_read") == 9
        assert tracer.root.attrs["kind"] == "scan"

    def test_record_defaults_to_context_parent(self):
        tracer = Tracer()
        with tracer.activate():
            with tracer.span("parent"):
                recorded = tracer.record("measured", seconds=0.25, n=1)
        assert tracer.root.children[0] is recorded
        assert recorded.seconds == pytest.approx(0.25)

    def test_record_ends_now_and_starts_seconds_earlier(self):
        tracer = Tracer()
        with tracer.activate():
            with tracer.span("parent") as parent:
                tick = time.perf_counter()
                while time.perf_counter() - tick < 0.002:
                    pass
                recorded = tracer.record(
                    "measured", seconds=time.perf_counter() - tick)
        assert recorded.started >= parent.started
        assert recorded.ended <= parent.ended
        assert recorded.seconds >= 0.002

    def test_span_under_an_explicit_parent(self):
        tracer = Tracer()
        with tracer.activate():
            with tracer.span("root"):
                first = tracer.record("first")
                with tracer.span("nested", parent=first) as nested:
                    inner = tracer.record("inner")
        assert tracer.root.children == [first]
        assert first.children == [nested]
        assert nested.children == [inner]

    def test_find_and_walk(self):
        tracer = Tracer()
        with tracer.activate():
            with tracer.span("a"):
                with tracer.span("b"):
                    pass
                with tracer.span("b"):
                    pass
        assert tracer.find("b") is tracer.root.children[0]
        assert len(tracer.find_all("b")) == 2
        assert [s.name for s in tracer.walk()] == ["a", "b", "b"]

    def test_json_round_trip(self):
        tracer = Tracer()
        with tracer.activate():
            with tracer.span("op", mode="RD"):
                with tracer.span("stage"):
                    pass
        doc = json.loads(tracer.to_json())
        assert doc["spans"][0]["name"] == "op"
        assert doc["spans"][0]["attrs"]["mode"] == "RD"
        assert doc["spans"][0]["children"][0]["name"] == "stage"
        assert doc["spans"][0]["seconds"] >= 0.0

    def test_render_mentions_every_span(self):
        tracer = Tracer()
        with tracer.activate():
            with tracer.span("op"):
                with tracer.span("stage"):
                    pass
        text = tracer.render()
        assert "op" in text and "stage" in text


class TestDisabledPath:
    def test_no_tracer_means_no_current(self):
        assert current_tracer() is None
        assert current_span() is None

    def test_traced_returns_fn_unchanged_without_tracer(self):
        def fn():
            return 41

        assert traced("x", fn) is fn

    def test_exception_inside_span_still_closes_it(self):
        tracer = Tracer()
        with tracer.activate():
            with pytest.raises(RuntimeError):
                with tracer.span("boom"):
                    raise RuntimeError("nope")
        assert current_span() is None
        assert tracer.root.name == "boom"
        assert tracer.root.seconds >= 0.0


class TestThreadPropagation:
    def test_traced_carries_context_to_thread(self):
        tracer = Tracer()
        seen = {}

        def work():
            seen["tracer"] = current_tracer()
            with current_tracer().span("inner"):
                pass
            return 7

        with tracer.activate():
            with tracer.span("outer"):
                wrapped = traced("worker", work, record_queue_wait=True)
            thread = threading.Thread(target=wrapped)
            thread.start()
            thread.join()
        assert seen["tracer"] is tracer
        worker = tracer.find("worker")
        assert worker is not None
        # The worker span landed under the span current at wrap time.
        assert worker in tracer.find("outer").children
        assert worker.children[0].name == "inner"
        assert worker.attrs["queue_wait_seconds"] >= 0.0

    def test_concurrent_spans_do_not_corrupt_tree(self):
        tracer = Tracer()

        def work(i):
            with tracer.span(f"job{i}"):
                pass

        with tracer.activate():
            with tracer.span("root"):
                threads = [
                    threading.Thread(target=traced(f"w{i}", work),
                                     args=(i,))
                    for i in range(8)
                ]
                for t in threads:
                    t.start()
                for t in threads:
                    t.join()
        root = tracer.root
        assert len(root.children) == 8
        assert tracer.spans_started == 1 + 8 * 2

    def test_plain_thread_without_traced_sees_no_context(self):
        tracer = Tracer()
        seen = {}

        def work():
            seen["tracer"] = current_tracer()

        with tracer.activate():
            thread = threading.Thread(target=work)
            thread.start()
            thread.join()
        assert seen["tracer"] is None


class TestSink:
    def test_sink_observes_on_activation_exit(self):
        class Recorder:
            def __init__(self):
                self.observed = []

            def observe(self, tracer):
                self.observed.append(tracer)

        sink = Recorder()
        tracer = Tracer(sink=sink)
        with tracer.activate():
            with tracer.span("op"):
                pass
        assert sink.observed == [tracer]

    def test_trace_sink_feeds_metrics_registry(self):
        from repro.service import MetricsRegistry

        registry = MetricsRegistry()
        tracer = Tracer(sink=TraceSink(registry))
        with tracer.activate():
            with tracer.span("desks.search", pages_read=7,
                             pois_fetched=20):
                with tracer.span("desks.band", pages_read=7):
                    pass
        snapshot = registry.to_dict()
        counters = snapshot["counters"]
        assert counters["span_desks_search_pages_read_total"] == 7
        assert counters["span_desks_search_pois_fetched_total"] == 20
        assert counters["span_desks_band_pages_read_total"] == 7
        assert "span_desks_search_seconds" in snapshot["histograms"]

    def test_sink_skips_bools_and_non_ints(self):
        from repro.service import MetricsRegistry

        registry = MetricsRegistry()
        tracer = Tracer(sink=TraceSink(registry))
        with tracer.activate():
            with tracer.span("op", pages_read=True, pois_fetched="many"):
                pass
        assert not registry.to_dict()["counters"]


class TestHygiene:
    def test_span_context_var_is_clean_between_tests(self):
        # A leaked span would silently reparent every later test's spans.
        assert _SPAN.get() is None

    def test_spans_are_slotted(self):
        span = Span("x")
        with pytest.raises(AttributeError):
            span.arbitrary = 1
