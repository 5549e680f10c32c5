"""MetricsRegistry semantics and the CoverStats bridge."""

from __future__ import annotations

import threading

import pytest

from repro.mapping.cover import CoverStats
from repro.obs.metrics import Counter, Gauge, Histogram, MetricsRegistry


class TestInstruments:
    def test_counter_accumulates_and_rejects_negatives(self):
        counter = Counter()
        counter.inc()
        counter.inc(4)
        assert counter.value == 5
        with pytest.raises(ValueError):
            counter.inc(-1)
        assert counter.value == 5

    def test_gauge_last_write_wins(self):
        gauge = Gauge()
        assert gauge.value is None
        gauge.set(3)
        gauge.set("cold")
        assert gauge.value == "cold"

    def test_histogram_summarizes(self):
        histogram = Histogram()
        assert histogram.mean is None
        for value in (2.0, 4.0, 6.0):
            histogram.observe(value)
        snap = histogram.to_dict()
        assert snap["count"] == 3
        assert snap["sum"] == pytest.approx(12.0)
        assert snap["min"] == 2.0 and snap["max"] == 6.0
        assert snap["mean"] == pytest.approx(4.0)

    def test_counter_is_thread_safe(self):
        counter = Counter()

        def hammer():
            for _ in range(1000):
                counter.inc()

        threads = [threading.Thread(target=hammer) for _ in range(8)]
        for t in threads:
            t.start()
        for t in threads:
            t.join()
        assert counter.value == 8000


class TestRegistry:
    def test_get_or_create_is_stable(self):
        registry = MetricsRegistry()
        assert registry.counter("x") is registry.counter("x")
        assert "x" in registry and len(registry) == 1

    def test_kind_mismatch_raises(self):
        registry = MetricsRegistry()
        registry.counter("x")
        with pytest.raises(TypeError, match="is a counter"):
            registry.gauge("x")

    def test_snapshot_is_json_shaped(self):
        registry = MetricsRegistry()
        registry.counter("c").inc(2)
        registry.gauge("g").set("async")
        registry.histogram("h").observe(1.5)
        snap = registry.snapshot()
        assert snap["c"] == {"type": "counter", "value": 2}
        assert snap["g"] == {"type": "gauge", "value": "async"}
        assert snap["h"]["type"] == "histogram" and snap["h"]["count"] == 1

    def test_merge_combines_by_kind(self):
        a, b = MetricsRegistry(), MetricsRegistry()
        a.counter("c").inc(1)
        b.counter("c").inc(2)
        a.gauge("g").set("old")
        b.gauge("g").set("new")
        a.histogram("h").observe(1.0)
        b.histogram("h").observe(3.0)
        b.gauge("empty")  # value None: must not clobber a's value
        a.gauge("empty").set(7)
        a.merge(b)
        assert a.counter("c").value == 3
        assert a.gauge("g").value == "new"
        assert a.gauge("empty").value == 7
        h = a.histogram("h").to_dict()
        assert h["count"] == 2 and h["min"] == 1.0 and h["max"] == 3.0


class TestCoverStatsBridge:
    def _stats(self) -> CoverStats:
        return CoverStats(
            clusters=3,
            matches=11,
            hazardous_matches=2,
            hazard_rejections=1,
            hazard_accepts=1,
            filter_invocations=2,
            cones=2,
            cone_seconds=0.25,
        )

    def test_absorb_cover_stats_mirrors_every_counter(self):
        registry = MetricsRegistry()
        stats = self._stats()
        registry.absorb_cover_stats(stats)
        for name in CoverStats.COUNTER_FIELDS:
            assert registry.counter("cover." + name).value == getattr(stats, name)
        assert registry.counter("cover.cone_seconds").value == pytest.approx(0.25)

    def test_repeated_absorb_accumulates_like_merge(self):
        registry = MetricsRegistry()
        stats = self._stats()
        registry.absorb_cover_stats(stats)
        registry.absorb_cover_stats(stats)
        merged = CoverStats()
        merged.merge(stats)
        merged.merge(stats)
        for name in CoverStats.COUNTER_FIELDS:
            assert registry.get("cover." + name).value == getattr(merged, name)
        assert registry.get("cover.cone_seconds").value == pytest.approx(
            merged.cone_seconds
        )
