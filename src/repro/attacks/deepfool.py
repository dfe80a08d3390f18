"""DeepFool (Moosavi-Dezfooli et al., 2016) — minimal L2 perturbation attack.

An extension beyond the paper's suite: DeepFool estimates the smallest
perturbation that crosses the nearest linearized decision boundary, which
makes it a useful diagnostic for how far IB-RAR pushes class boundaries apart
(the Figure 3 discussion).  The returned examples are additionally projected
into the shared L_inf eps-ball so accuracies are comparable with the other
attacks.
"""

from __future__ import annotations

import numpy as np

from ..nn import Tensor, no_grad
from ..models.base import ImageClassifier
from .base import Attack

__all__ = ["DeepFool"]


class DeepFool(Attack):
    """Iterative minimal-perturbation attack using per-class linearization."""

    name = "deepfool"

    def __init__(
        self,
        model: ImageClassifier,
        eps: float = 8.0 / 255.0,
        steps: int = 10,
        overshoot: float = 0.02,
        clip_min: float = 0.0,
        clip_max: float = 1.0,
    ) -> None:
        super().__init__(model, eps=eps, clip_min=clip_min, clip_max=clip_max)
        if steps < 1:
            raise ValueError("DeepFool needs at least one step")
        self.steps = steps
        self.overshoot = overshoot

    def _generate(self, images: np.ndarray, labels: np.ndarray) -> np.ndarray:
        adversarial = images.copy()
        for i in range(len(images)):
            current = images[i].copy()
            original_label = labels[i]
            for _ in range(self.steps):
                with no_grad():
                    prediction = self.model.predict(Tensor(current[None]))[0]
                if prediction != original_label:
                    break
                logits, jacobian = self._class_jacobian(current[None])
                logits, gradients = logits[0], jacobian[:, 0]
                margins = logits - logits[original_label]
                gradient_diffs = gradients - gradients[original_label]
                norms = np.sqrt((gradient_diffs.reshape(len(margins), -1) ** 2).sum(axis=1))
                norms[original_label] = np.inf
                with np.errstate(divide="ignore", invalid="ignore"):
                    distances = np.abs(margins) / np.maximum(norms, 1e-12)
                distances[original_label] = np.inf
                target = int(np.argmin(distances))
                step = (
                    (np.abs(margins[target]) + 1e-6)
                    / max(norms[target] ** 2, 1e-12)
                    * gradient_diffs[target]
                )
                current = current + (1.0 + self.overshoot) * step
                current = np.clip(current, self.clip_min, self.clip_max)
            adversarial[i] = current
        return self._project(adversarial, images)
