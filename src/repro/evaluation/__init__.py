"""Evaluation harness: clean/adversarial accuracy and Table 1-2 reports.

Multi-attack evaluation runs on :class:`repro.attacks.AttackEngine`: suites
are lists of model-free :class:`~repro.attacks.AttackSpec` objects (the
paper's five are :func:`repro.attacks.paper_suite_specs`), the clean forward
pass is shared, and already-misclassified examples are dropped from attack
batches (early exit).  This package holds the accuracy metrics and the
:class:`RobustnessReport` rows that :func:`format_table` renders.
"""

from .metrics import accuracy, adversarial_accuracy, clean_accuracy
from .robustness import PAPER_ATTACK_ORDER, RobustnessReport, format_table

__all__ = [
    "accuracy",
    "clean_accuracy",
    "adversarial_accuracy",
    "RobustnessReport",
    "format_table",
    "PAPER_ATTACK_ORDER",
]
