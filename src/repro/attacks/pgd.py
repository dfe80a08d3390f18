"""Projected Gradient Descent attack (Madry et al., 2018).

PGD is both the paper's main evaluation attack and the inner maximization of
the PGD adversarial-training benchmark.  Paper defaults: eps = 8/255,
step size alpha = 2/255, 10 steps, random start inside the eps-ball.
"""

from __future__ import annotations

from typing import Optional

import numpy as np

from .base import Attack, LossFn
from ..compile.kernels import pgd_loop
from ..models.base import ImageClassifier

__all__ = ["PGD"]


class PGD(Attack):
    """Iterative L_inf attack with projection onto the eps-ball."""

    name = "pgd"

    def __init__(
        self,
        model: ImageClassifier,
        eps: float = 8.0 / 255.0,
        alpha: float = 2.0 / 255.0,
        steps: int = 10,
        random_start: bool = True,
        clip_min: float = 0.0,
        clip_max: float = 1.0,
        loss_fn: Optional[LossFn] = None,
        seed: int = 0,
    ) -> None:
        super().__init__(model, eps=eps, clip_min=clip_min, clip_max=clip_max, loss_fn=loss_fn)
        if steps < 1:
            raise ValueError("PGD needs at least one step")
        self.alpha = alpha
        self.steps = steps
        self.random_start = random_start
        self.seed = seed
        self._rng = np.random.default_rng(seed)

    def _generate(self, images: np.ndarray, labels: np.ndarray) -> np.ndarray:
        return pgd_loop(
            lambda adversarial: self._input_gradient(adversarial, labels)[0],
            images,
            self.eps,
            self.alpha,
            self.steps,
            self._rng if self.random_start else None,
            self.clip_min,
            self.clip_max,
        )
