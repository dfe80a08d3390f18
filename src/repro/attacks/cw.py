"""Carlini & Wagner attack (Carlini & Wagner, 2017).

The paper evaluates with the Torchattacks ``CW`` implementation (L2 attack,
``steps = 200`` by default, swept from 10 to 50 steps in Figure 2b).  This
module reproduces that formulation: the perturbation is optimized in tanh
space with Adam, minimizing

    || x_adv - x ||_2^2  +  c * f(x_adv),
    f(x_adv) = max( Z_y - max_{i != y} Z_i, -kappa )

for an untargeted attack, where ``Z`` are the logits.  The best (lowest
distortion) adversarial example found over the optimization is returned; if
no misclassification is found, the final iterate is returned, matching the
Torchattacks behaviour of always returning a perturbed image.

The objective is defined once, as eager Tensor code over the logits; under
a compiled plan the logits come from :meth:`Attack._logits`, an autograd
node whose backward replays the plan's input-only backward.
"""

from __future__ import annotations

from typing import Optional

import numpy as np

from ..nn import Tensor
from ..models.base import ImageClassifier
from .base import Attack

__all__ = ["CW"]


def _atanh(x: np.ndarray) -> np.ndarray:
    return 0.5 * np.log((1 + x) / (1 - x))


class CW(Attack):
    """L2 Carlini-Wagner attack optimized with Adam in tanh space."""

    name = "cw"

    def __init__(
        self,
        model: ImageClassifier,
        c: float = 1.0,
        kappa: float = 0.0,
        steps: int = 200,
        lr: float = 0.01,
        clip_min: float = 0.0,
        clip_max: float = 1.0,
    ) -> None:
        # eps is unused by the L2 formulation but kept for the common interface.
        super().__init__(model, eps=0.0, clip_min=clip_min, clip_max=clip_max)
        if steps < 1:
            raise ValueError("CW needs at least one optimization step")
        self.c = c
        self.kappa = kappa
        self.steps = steps
        self.lr = lr

    def _generate(self, images: np.ndarray, labels: np.ndarray) -> np.ndarray:
        n = images.shape[0]
        span = self.clip_max - self.clip_min
        # Map images into tanh space; the 0.999999 margin avoids infinities.
        scaled = (images - self.clip_min) / span * 2.0 - 1.0
        w = _atanh(np.clip(scaled, -0.999999, 0.999999))

        best_adv = images.copy()
        best_l2 = np.full(n, np.inf)

        # Adam state for the perturbation variable.
        m = np.zeros_like(w)
        v = np.zeros_like(w)
        beta1, beta2, adam_eps = 0.9, 0.999, 1e-8

        one_hot = np.zeros((n, self.model.num_classes))
        one_hot[np.arange(n), labels] = 1.0
        pixel_axes = tuple(range(1, images.ndim))  # every non-batch axis

        for step in range(1, self.steps + 1):
            w_tensor = Tensor(w, requires_grad=True)
            adv = (w_tensor.tanh() + 1.0) * (span / 2.0) + self.clip_min
            logits = self._logits(adv)

            real = (logits * Tensor(one_hot)).sum(axis=1)
            other = (logits + Tensor(one_hot * (-1e4))).max(axis=1)
            # Untargeted: push the true-class logit below the best other logit.
            f_term = (real - other + self.kappa).maximum(0.0)
            l2 = ((adv - Tensor(images)) ** 2).sum(axis=pixel_axes)
            loss = (l2 + f_term * self.c).sum()
            loss.backward()
            gradient = w_tensor.grad

            # Track the best adversarial examples so far.
            adv_np = adv.data
            predictions = np.argmax(logits.data, axis=1)
            l2_np = ((adv_np - images) ** 2).sum(axis=pixel_axes)
            improved = (predictions != labels) & (l2_np < best_l2)
            best_l2[improved] = l2_np[improved]
            best_adv[improved] = adv_np[improved]

            m = beta1 * m + (1 - beta1) * gradient
            v = beta2 * v + (1 - beta2) * gradient * gradient
            m_hat = m / (1 - beta1 ** step)
            v_hat = v / (1 - beta2 ** step)
            w = w - self.lr * m_hat / (np.sqrt(v_hat) + adam_eps)

        # Examples never misclassified fall back to the final iterate.
        final_adv = (np.tanh(w) + 1.0) * (span / 2.0) + self.clip_min
        never_successful = np.isinf(best_l2)
        best_adv[never_successful] = final_adv[never_successful]
        return np.clip(best_adv, self.clip_min, self.clip_max)
