"""The shared metrics registry: series semantics, exposition, reset, and
the nearest-rank percentile the ``repro.obs`` CLI's p95 column uses."""

from __future__ import annotations

import threading

import pytest

from repro.obs.registry import (
    Counter,
    Gauge,
    MetricsRegistry,
    get_registry,
    percentile,
    publish_dict,
)


class TestSeries:
    def test_counter_get_or_create_and_inc(self):
        reg = MetricsRegistry()
        c = reg.counter("requests", {"kind": "classify"})
        assert reg.counter("requests", {"kind": "classify"}) is c
        c.inc()
        c.inc(3)
        assert c.value == 4
        # A different label set is a different series.
        other = reg.counter("requests", {"kind": "attack"})
        assert other is not c and other.value == 0

    def test_series_name_includes_sorted_labels(self):
        reg = MetricsRegistry()
        c = reg.counter("m", {"b": "2", "a": "1"})
        assert c.series == 'm{a="1",b="2"}'
        assert reg.counter("bare").series == "bare"

    def test_kind_mismatch_raises(self):
        reg = MetricsRegistry()
        reg.counter("x")
        with pytest.raises(ValueError, match="already registered as counter"):
            reg.gauge("x")

    def test_gauge_set_add(self):
        g = MetricsRegistry().gauge("g")
        g.set(2.5)
        g.add(0.5)
        assert g.value == 3.0
        g.reset()
        assert g.value == 0.0


class TestExposition:
    def test_snapshot_groups_by_kind(self):
        reg = MetricsRegistry()
        reg.counter("c").inc(7)
        reg.gauge("g").set(1.5)
        snap = reg.snapshot()
        assert snap == {"counters": {"c": 7}, "gauges": {"g": 1.5}}

    def test_reset_zeroes_but_keeps_series(self):
        reg = MetricsRegistry()
        c = reg.counter("c")
        c.inc(5)
        reg.reset()
        assert c.value == 0
        assert reg.counter("c") is c


class TestConcurrency:
    def test_parallel_increments_are_atomic(self):
        reg = MetricsRegistry()
        c = reg.counter("n")

        def work():
            for _ in range(5000):
                c.inc()

        threads = [threading.Thread(target=work) for _ in range(4)]
        for t in threads:
            t.start()
        for t in threads:
            t.join()
        assert c.value == 20000


class TestHelpers:
    def test_percentile_nearest_rank(self):
        assert percentile([], 50) == 0.0
        assert percentile([7.0], 99) == 7.0
        # Nearest rank over 1..100: round(0.5 * 99) = 50 -> the 51st value.
        assert percentile(list(range(1, 101)), 50) == 51.0

    def test_publish_dict_sets_gauges(self):
        reg = MetricsRegistry()
        publish_dict("train.compile", {"compiled_batches": 12, "note": "skip"}, registry=reg)
        assert reg.gauge("train.compile.compiled_batches").value == 12
        # Non-numeric values are skipped, not registered.
        assert all(m.name != "train.compile.note" for m in reg.metrics())

    def test_default_registry_is_shared(self):
        assert get_registry() is get_registry()


class TestPercentile:
    def test_empty_reservoir_is_zero(self):
        assert percentile([], 50) == 0.0
        assert percentile([], 99) == 0.0

    def test_singleton_reservoir_returns_its_value(self):
        for q in (0, 50, 95, 99, 100):
            assert percentile([0.25], q) == 0.25

    def test_nearest_rank_on_known_sequence(self):
        values = list(range(1, 101))
        assert percentile(values, 0) == 1.0
        # round(0.5 * 99) = 50 -> the 51st value (nearest-rank, half-to-even).
        assert percentile(values, 50) == 51.0
        assert percentile(values, 100) == 100.0

    def test_unsorted_input_is_sorted_first(self):
        assert percentile([3.0, 1.0, 2.0], 100) == 3.0
