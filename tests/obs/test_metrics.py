"""The metrics registry: counters, gauges, bounded histograms."""

import pytest

from repro.obs.metrics import Histogram, MetricsRegistry


class TestRegistry:
    def test_counter_accumulates(self):
        registry = MetricsRegistry()
        registry.counter("hits").inc()
        registry.counter("hits").inc(4)
        assert registry.counter("hits").value == 5

    def test_gauge_holds_last_value(self):
        registry = MetricsRegistry()
        registry.gauge("depth").set(3)
        registry.gauge("depth").set(7)
        assert registry.gauge("depth").value == 7

    def test_kind_mismatch_is_an_error(self):
        registry = MetricsRegistry()
        registry.counter("x")
        with pytest.raises(ValueError, match="is a counter, not a gauge"):
            registry.gauge("x")

    def test_snapshot_is_sorted_by_name(self):
        registry = MetricsRegistry()
        registry.counter("zeta").inc()
        registry.gauge("alpha").set(1)
        registry.histogram("mid").observe(2)
        assert [row["name"] for row in registry.snapshot()] == \
            ["alpha", "mid", "zeta"]

    def test_reset_clears_everything(self):
        """No value survives a reset: every metric reads as just created
        (the names stay listed)."""
        registry = MetricsRegistry()
        registry.counter("x").inc()
        registry.gauge("g").set(3)
        for value in (1.0, 5.0):
            registry.histogram("h").observe(value)
        registry.reset()
        fresh = MetricsRegistry()
        fresh.counter("x"), fresh.gauge("g"), fresh.histogram("h")
        assert registry.snapshot() == fresh.snapshot()
        assert registry.value("x") == 0.0

    def test_a_held_handle_survives_reset(self):
        """What a holder counts after a reset is read back by name."""
        registry = MetricsRegistry()
        counter = registry.counter("x")
        gauge = registry.gauge("g")
        histogram = registry.histogram("h")
        counter.inc(7)
        histogram.observe(9.0)
        registry.reset()
        counter.inc(2)
        gauge.set(4)
        histogram.observe(1.5)
        assert registry.counter("x") is counter
        assert registry.value("x") == 2
        assert registry.value("g") == 4
        row = registry.get("h").row()
        assert (row["count"], row["value"], row["min"], row["max"],
                row["p50"]) == (1, 1.5, 1.5, 1.5, 1.5)


class TestHistogram:
    def test_exact_aggregates(self):
        histogram = Histogram("latency")
        for value in (1.0, 2.0, 3.0, 4.0):
            histogram.observe(value)
        row = histogram.row()
        assert row["count"] == 4
        assert row["value"] == 10.0
        assert row["min"] == 1.0
        assert row["max"] == 4.0
        assert row["mean"] == 2.5

    def test_nearest_rank_percentiles(self):
        histogram = Histogram("latency")
        for value in range(1, 101):
            histogram.observe(float(value))
        assert histogram.percentile(0.50) == 50.0
        assert histogram.percentile(0.95) == 95.0
        assert histogram.percentile(0.99) == 99.0

    def test_window_bounds_percentile_memory(self):
        histogram = Histogram("latency", window=10)
        for value in range(1000):
            histogram.observe(float(value))
        # Percentiles see only the last 10 observations...
        assert histogram.percentile(0.5) >= 990.0
        # ...but the exact aggregates cover everything.
        assert histogram.row()["count"] == 1000
        assert histogram.row()["min"] == 0.0
        # The monotonic sum survives eviction too: sum(0..999).
        assert histogram.row()["sum"] == 499500.0
        assert histogram.sum == 499500.0

    def test_empty_histogram_has_null_stats(self):
        histogram = Histogram("latency")
        row = histogram.row()
        assert row["count"] == 0
        assert row["p50"] is None
        assert row["mean"] is None
