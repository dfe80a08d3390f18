"""Robustness reports in the row format of Tables 1-2.

A :class:`RobustnessReport` holds natural accuracy plus adversarial accuracy
under each attack in the paper's suite (PGD, CW, FGSM, FAB, NIFGSM) for one
trained model; :func:`format_table` renders many of them as the benches
print them.  The numbers come from :class:`repro.attacks.AttackEngine` runs,
usually through :meth:`repro.experiments.ExperimentResult.robustness_report`.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, Iterable, List, Optional, Sequence

import numpy as np

from ..attacks.engine import EngineResult

__all__ = ["RobustnessReport", "format_table"]

# Attack order used in the paper's tables.
PAPER_ATTACK_ORDER = ("pgd", "cw", "fgsm", "fab", "nifgsm")


@dataclass
class RobustnessReport:
    """Natural accuracy plus per-attack adversarial accuracy for one model."""

    method: str
    natural: float
    adversarial: Dict[str, float] = field(default_factory=dict)
    #: worst-case accuracy: fraction of examples no attack of the suite fooled.
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
