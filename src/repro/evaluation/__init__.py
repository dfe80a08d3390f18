"""Evaluation harness: clean/adversarial accuracy and multi-attack reports.

The multi-attack path runs on :class:`repro.attacks.engine.AttackEngine`:
suites are lists of model-free :class:`~repro.attacks.engine.AttackSpec`
objects, the clean forward pass is shared, and already-misclassified
examples are dropped from attack batches (early exit).
"""

from .metrics import accuracy, adversarial_accuracy, attack_success_rate, clean_accuracy
from .robustness import (
    PAPER_ATTACK_ORDER,
    RobustnessReport,
    evaluate_robustness,
    format_table,
    paper_attack_suite_specs,
)

__all__ = [
    "accuracy",
    "clean_accuracy",
    "adversarial_accuracy",
    "attack_success_rate",
    "RobustnessReport",
    "evaluate_robustness",
    "paper_attack_suite_specs",
    "format_table",
    "PAPER_ATTACK_ORDER",
]
