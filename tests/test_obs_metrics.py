"""Unit tests for the repro.obs metrics registry."""

import pytest

from repro.obs.metrics import Instrument, MetricsRegistry


@pytest.fixture
def reg():
    return MetricsRegistry()


class TestInstruments:
    def test_counter_get_or_create(self, reg):
        c = reg.counter("rpc.served", node="cn0")
        c.inc()
        c.inc(4)
        assert reg.counter("rpc.served", node="cn0") is c
        assert c.value == 5

    def test_label_order_is_canonical(self, reg):
        a = reg.counter("x", b="2", a="1")
        b = reg.counter("x", a="1", b="2")
        assert a is b
        assert a.label_str == "a=1,b=2"

    def test_distinct_labels_distinct_instruments(self, reg):
        a = reg.counter("urd.tasks", node="cn0")
        b = reg.counter("urd.tasks", node="cn1")
        assert a is not b
        assert len(reg) == 2

    def test_kind_mismatch_raises(self, reg):
        reg.counter("x")
        with pytest.raises(ValueError):
            reg.gauge("x")

    def test_gauge_set(self, reg):
        g = reg.gauge("replay.makespan_seconds")
        g.set(123.5)
        assert g.value == 123.5

    def test_histogram_observe_and_snapshot(self, reg):
        h = reg.histogram("latency")
        for v in (1.0, 2.0, 3.0, 4.0):
            h.observe(v)
        snap = h.snapshot()
        assert snap["kind"] == "histogram"
        assert snap["count"] == 4
        assert snap["summary"]["mean"] == pytest.approx(2.5)

    def test_empty_histogram_snapshot_has_no_summary(self, reg):
        snap = reg.histogram("latency").snapshot()
        assert snap["count"] == 0
        assert "summary" not in snap

    def test_info_records_string(self, reg):
        reg.info("kernel.impl", "fast")
        snap = reg.snapshot()
        assert snap == [{"name": "kernel.impl", "kind": "info",
                         "labels": {}, "value": "fast"}]


class TestRegistryExport:
    def test_snapshot_sorted_by_name_then_labels(self, reg):
        reg.counter("b.metric")
        reg.counter("a.metric", node="cn1")
        reg.counter("a.metric", node="cn0")
        names = [(r["name"], r["labels"]) for r in reg.snapshot()]
        assert names == [("a.metric", {"node": "cn0"}),
                         ("a.metric", {"node": "cn1"}),
                         ("b.metric", {})]

    def test_rows_prefix_filter(self, reg):
        reg.gauge("kernel.events").set(100)
        reg.counter("sched.passes").inc(7)
        rows = reg.rows(prefix="kernel.")
        assert rows == [("kernel.events", 100)]

    def test_rows_render_labels_and_histograms(self, reg):
        reg.counter("urd.tasks", node="cn0").inc(3)
        h = reg.histogram("lat")
        h.observe(1.0)
        h.observe(3.0)
        rows = dict(reg.rows())
        assert rows["urd.tasks{node=cn0}"] == 3
        assert rows["lat.count"] == 2
        assert rows["lat.mean"] == pytest.approx(2.0)
        assert "lat.p95" in rows


class TestCollectors:
    def test_collect_kernel_dict(self, reg):
        from repro.obs.collect import collect_kernel
        collect_kernel(reg, {"kernel": "fast", "events": 42,
                             "pending": 3})
        rows = dict(reg.rows(prefix="kernel."))
        assert rows["kernel.impl"] == "fast"
        assert rows["kernel.events"] == 42
        assert rows["kernel.pending"] == 3

    def test_collect_cluster_covers_subsystems(self):
        from repro.cluster import build, small_test
        from repro.obs import MetricsRegistry, collect_cluster

        handle = build(small_test(n_nodes=2), seed=1)
        reg = collect_cluster(MetricsRegistry(), handle)
        names = {inst.name for inst in reg}
        assert "kernel.impl" in names
        assert "sched.passes" in names
        assert "urd.tasks_completed" in names
        assert "flow.completed" in names
