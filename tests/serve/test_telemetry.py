"""Nearest-rank percentile edge cases.

:func:`repro.obs.registry.percentile` is the reservoir math behind every
registry histogram summary and the ``repro.obs`` CLI's p95 column.
"""

from __future__ import annotations

from repro.obs.registry import percentile


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
