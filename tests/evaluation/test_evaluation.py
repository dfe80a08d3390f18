"""Tests for the evaluation harness (metrics and Table 1-2 report rows)."""

from __future__ import annotations

import numpy as np
import pytest

from repro.attacks import FGSM, PGD, paper_suite_specs
from repro.evaluation import (
    PAPER_ATTACK_ORDER,
    RobustnessReport,
    accuracy,
    adversarial_accuracy,
    clean_accuracy,
    format_table,
)


class TestAccuracy:
    def test_perfect_and_zero(self):
        assert accuracy(np.array([1, 2, 3]), np.array([1, 2, 3])) == 1.0
        assert accuracy(np.array([0, 0, 0]), np.array([1, 2, 3])) == 0.0

    def test_empty(self):
        assert accuracy(np.array([]), np.array([])) == 0.0

    def test_length_mismatch(self):
        with pytest.raises(ValueError):
            accuracy(np.array([1]), np.array([1, 2]))

    def test_clean_accuracy_batched_matches_unbatched(self, trained_small_cnn, tiny_dataset):
        a = clean_accuracy(trained_small_cnn, tiny_dataset.x_test, tiny_dataset.y_test, batch_size=8)
        b = clean_accuracy(trained_small_cnn, tiny_dataset.x_test, tiny_dataset.y_test, batch_size=200)
        assert a == pytest.approx(b)

    def test_adversarial_accuracy_bounded(self, trained_small_cnn, tiny_dataset):
        value = adversarial_accuracy(
            trained_small_cnn,
            FGSM(trained_small_cnn),
            tiny_dataset.x_test[:24],
            tiny_dataset.y_test[:24],
        )
        assert 0.0 <= value <= 1.0

    def test_adversarial_not_above_clean_for_trained_model(self, trained_small_cnn, tiny_dataset):
        images, labels = tiny_dataset.x_test[:32], tiny_dataset.y_test[:32]
        clean = clean_accuracy(trained_small_cnn, images, labels)
        adv = adversarial_accuracy(trained_small_cnn, PGD(trained_small_cnn, steps=5), images, labels)
        assert adv <= clean + 1e-9


class TestRobustnessReport:
    def test_as_row_percentages(self):
        report = RobustnessReport("pgd", natural=0.75, adversarial={"pgd": 0.42})
        row = report.as_row()
        assert row["natural"] == 75.0
        assert row["pgd"] == 42.0

    def test_mean_adversarial(self):
        report = RobustnessReport("x", 0.5, {"a": 0.2, "b": 0.4})
        assert report.mean_adversarial() == pytest.approx(0.3)

    def test_mean_adversarial_empty(self):
        assert RobustnessReport("x", 0.5).mean_adversarial() == 0.0

    def test_paper_attack_suite_contains_all_five(self):
        specs = paper_suite_specs(pgd_steps=2, cw_steps=2)
        assert tuple(spec.name for spec in specs) == PAPER_ATTACK_ORDER

    def test_format_table_layout(self):
        reports = [
            RobustnessReport("PGD", 0.75, {"pgd": 0.42, "fgsm": 0.47}),
            RobustnessReport("PGD (IB-RAR)", 0.76, {"pgd": 0.45, "fgsm": 0.50}),
        ]
        text = format_table(reports)
        lines = text.splitlines()
        assert "Method" in lines[0] and "PGD" in lines[0]
        assert len(lines) == 4  # header + rule + two rows
        assert "IB-RAR" in text
