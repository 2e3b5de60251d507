"""The span trees are well formed, and both searchers emit the same one.

Properties of the spans the search driver opens as it runs:

* every span's ``[started, ended]`` lies inside its parent's, so the
  time a stage spent outside its children (its self time) is defined;
* :class:`~repro.kernel.ColumnarSearcher` and
  :class:`~repro.core.DesksSearcher` emit span trees with the same names
  and counter attributes on the kernel's 240-query equivalence corpus
  (only timings and ``pages_read`` may differ), and ``explain`` over a
  ``ColumnarSearcher`` reconciles exactly on that corpus.
"""

import math

import pytest

from repro.cluster import ShardRouter
from repro.core import DesksIndex, DesksSearcher, PruningMode
from repro.durability import DurableMutableIndex
from repro.kernel import ColumnarSearcher, ColumnarSnapshot
from repro.trace import Tracer, explain

from ..kernel.conftest import make_collection as make_kernel_collection
from ..kernel.conftest import make_corpus
from .conftest import make_collection, make_query

SECTORS = [(0.3, 2 * math.pi), (0.3, math.pi), (0.8, math.pi / 16),
           (2 * math.pi - 0.2, 0.7)]
MODES = [PruningMode.RD, PruningMode.R, PruningMode.D]
#: Attributes that may differ between the two searchers' span trees:
#: the snapshot's arrays are resident, so its wedges read no pages.
UNSHARED = {"pages_read"}


def assert_nested(span):
    for child in span.children:
        assert span.started <= child.started <= child.ended <= span.ended, (
            f"{child.name} [{child.started}, {child.ended}] outside "
            f"{span.name} [{span.started}, {span.ended}]")
        assert_nested(child)


def shape(span):
    """A span tree with the timings and the unshared counters dropped."""
    attrs = {key: value for key, value in span.attrs.items()
             if key not in UNSHARED}
    return (span.name, attrs, [shape(child) for child in span.children])


def traced(search, query, mode):
    tracer = Tracer()
    with tracer.activate():
        search(query, mode)
    return tracer


@pytest.fixture(scope="module")
def disk_index(tmp_path_factory):
    prefix = str(tmp_path_factory.mktemp("shape") / "idx")
    return DesksIndex(make_collection(n=400, seed=42), num_bands=4,
                      num_wedges=6, disk_based=True,
                      disk_path_prefix=prefix, buffer_capacity=8)


@pytest.mark.parametrize("mode", MODES, ids=lambda m: m.name)
def test_search_spans_nest_in_their_parents(disk_index, mode):
    for alpha, width in SECTORS:
        report = explain(disk_index, make_query(alpha=alpha, width=width),
                         mode=mode)
        assert report.reconciled
        (root,) = report.trace.roots
        assert root.find_all("desks.band"), "expected a scanned band"
        assert_nested(root)


def test_recorded_spans_nest_in_their_parents(tmp_path):
    """``Tracer.record`` spans (WAL, router plan) end when recorded."""
    collection = make_collection(n=120, seed=3)
    tracer = Tracer()
    durable = DurableMutableIndex.create(collection, str(tmp_path / "d"),
                                         sync="always")
    try:
        with tracer.activate():
            durable.insert(10.0, 20.0, ["cafe"])
    finally:
        durable.close()
    with ShardRouter(collection, num_shards=2,
                     partitioner="grid") as router:
        with tracer.activate():
            router.execute(make_query())
    for name in ("wal.append", "wal.fsync", "router.plan"):
        assert tracer.find(name) is not None, name
    for root in tracer.roots:
        assert_nested(root)


@pytest.fixture(scope="module")
def kernel_index():
    return DesksIndex(make_kernel_collection(), num_bands=4, num_wedges=6)


@pytest.mark.parametrize("mode", MODES, ids=lambda m: m.name)
def test_columnar_span_trees_match_and_reconcile(kernel_index, mode):
    objects = DesksSearcher(kernel_index)
    columnar = ColumnarSearcher(ColumnarSnapshot(kernel_index))
    for query in make_corpus():
        expected = traced(objects.search, query, mode)
        report = explain(columnar, query, mode=mode)
        assert report.reconciled, report.render()
        assert [shape(r) for r in report.trace.roots] == \
            [shape(r) for r in expected.roots]
        assert_nested(report.trace.roots[0])
