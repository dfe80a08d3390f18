"""Multi-attack robustness evaluation harness.

Produces the row format of Tables 1-2: natural accuracy plus adversarial
accuracy under each attack in the paper's suite (PGD, CW, FGSM, FAB, NIFGSM),
for one or many trained models.

Since the engine redesign this module is a thin veneer over
:mod:`repro.attacks.engine`:

* the paper's suite is a list of model-free :class:`AttackSpec` objects
  (:func:`paper_attack_suite_specs`) — build it once and reuse it for every
  model in a table row;
* :func:`evaluate_robustness` feeds the suite through an
  :class:`~repro.attacks.engine.AttackEngine`, which computes the clean
  forward pass once, drops already-misclassified examples from every attack
  batch (*early exit* — strictly fewer forward passes; accuracies identical
  for deterministic attacks, statistically equivalent for random-start
  ones), and records per-attack timing / forward-pass telemetry on the
  returned report.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, Iterable, List, Optional, Sequence

import numpy as np

from ..attacks import AttackSpec, paper_suite_specs
from ..attacks.engine import AttackEngine, EngineResult, SuiteLike
from ..models.base import ImageClassifier

__all__ = [
    "RobustnessReport",
    "evaluate_robustness",
    "paper_attack_suite_specs",
    "format_table",
]

# Attack order used in the paper's tables.
PAPER_ATTACK_ORDER = ("pgd", "cw", "fgsm", "fab", "nifgsm")


# The suite defaults (eps = 8/255, alpha = 2/255, pgd_steps = 10, cw_steps = 20,
# seed = 0) are defined once, in repro.attacks.engine.paper_suite_specs.
paper_attack_suite_specs = paper_suite_specs


@dataclass
class RobustnessReport:
    """Natural accuracy plus per-attack adversarial accuracy for one model."""

    method: str
    natural: float
    adversarial: Dict[str, float] = field(default_factory=dict)
    #: worst-case (ensemble) accuracy: fraction of examples no attack fooled.
    worst_case: Optional[float] = None
    #: full engine output (telemetry, per-example survivors) when available.
    result: Optional[EngineResult] = field(default=None, repr=False, compare=False)

    def as_row(self) -> Dict[str, float]:
        row = {"method": self.method, "natural": round(self.natural * 100, 2)}
        row.update({name: round(value * 100, 2) for name, value in self.adversarial.items()})
        return row

    def mean_adversarial(self) -> float:
        if not self.adversarial:
            return 0.0
        return float(np.mean(list(self.adversarial.values())))


def evaluate_robustness(
    model: ImageClassifier,
    images: np.ndarray,
    labels: np.ndarray,
    attacks: SuiteLike = None,
    method_name: str = "model",
    batch_size: int = 64,
    early_exit: bool = True,
    cascade: bool = False,
    compile: bool = False,
    engine: Optional[AttackEngine] = None,
) -> RobustnessReport:
    """Evaluate one model against a suite of attacks (defaults to the paper's).

    ``attacks`` accepts the same shapes as the engine: a list of
    :class:`AttackSpec` (preferred — model-free and reusable), a mapping of
    name to spec, or a legacy mapping of name to pre-built ``Attack``.  Pass
    ``engine`` to reuse a fully configured :class:`AttackEngine` instead.
    ``compile=True`` runs predictions and the PGD-family gradient loops
    through a static execution plan (:mod:`repro.compile`), falling back to
    eager execution whenever the model or a batch shape cannot be planned.
    """
    if engine is None:
        engine = AttackEngine(
            attacks,
            batch_size=batch_size,
            early_exit=early_exit,
            cascade=cascade,
            compile=compile,
        )
    result = engine.run(model, images, labels, method_name=method_name)
    return RobustnessReport(
        method=method_name,
        natural=result.natural,
        adversarial=dict(result.adversarial),
        worst_case=result.worst_case,
        result=result,
    )


def format_table(reports: Sequence[RobustnessReport], attack_order: Iterable[str] = PAPER_ATTACK_ORDER) -> str:
    """Render reports as an aligned text table (the bench output format)."""
    attack_names = [a for a in attack_order if any(a in r.adversarial for r in reports)]
    header = ["Method", "Natural"] + [name.upper() for name in attack_names]
    rows: List[List[str]] = [header]
    for report in reports:
        row = [report.method, f"{report.natural * 100:6.2f}"]
        for name in attack_names:
            value = report.adversarial.get(name)
            row.append(f"{value * 100:6.2f}" if value is not None else "   -  ")
        rows.append(row)
    widths = [max(len(row[i]) for row in rows) for i in range(len(header))]
    lines = []
    for index, row in enumerate(rows):
        lines.append("  ".join(cell.ljust(widths[i]) for i, cell in enumerate(row)))
        if index == 0:
            lines.append("-" * (sum(widths) + 2 * (len(widths) - 1)))
    return "\n".join(lines)
