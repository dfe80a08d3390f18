"""Training-loss strategies: plain CE and the three adversarial-training benchmarks.

The paper combines IB-RAR with three adversarial-training methods:

* **PGD adversarial training** (Madry et al., 2018) — train on PGD examples
  only (Eq. 2's ``max_delta L_CE`` inner problem).
* **TRADES** (Zhang et al., 2019) — CE on clean examples plus a KL term
  between clean and adversarial predictions, weighted by ``beta``.
* **MART** (Wang et al., 2020) — boosted CE on adversarial examples plus a
  misclassification-aware KL term.

Each strategy is a callable ``(model, images, labels) -> scalar Tensor`` so
the :class:`repro.training.Trainer` and the IB-RAR wrapper in
:mod:`repro.core` can compose them freely.
"""

from __future__ import annotations

from typing import Optional, Protocol

import numpy as np

from ..nn import Tensor
from ..nn import functional as F
from ..models.base import ImageClassifier
from ..attacks.pgd import PGD

__all__ = [
    "LossStrategy",
    "CrossEntropyLoss",
    "PGDAdversarialLoss",
    "TRADESLoss",
    "MARTLoss",
    "ADVERSARIAL_TRAINING_REGISTRY",
    "build_training_loss",
]


class LossStrategy(Protocol):
    """Protocol for training-loss strategies."""

    name: str

    def __call__(self, model: ImageClassifier, images: np.ndarray, labels: np.ndarray) -> Tensor:
        ...

    def hyperparameters(self) -> dict:
        """Constructor arguments, JSON-ready (for :class:`repro.training.LossSpec`)."""
        ...


class CrossEntropyLoss:
    """Plain CE training (the undefended baseline, row (1) of Table 4)."""

    name = "ce"

    def hyperparameters(self) -> dict:
        return {}

    def loss_and_logits(self, model: ImageClassifier, images: np.ndarray, labels: np.ndarray) -> tuple:
        """Return ``(loss, clean logits)`` from a single forward pass.

        The trainer reuses the logits for the training-accuracy metric, so
        plain-CE epochs run one forward pass per batch instead of two.
        """
        logits = model.forward(Tensor(images))
        return F.cross_entropy(logits, labels), logits

    def __call__(self, model: ImageClassifier, images: np.ndarray, labels: np.ndarray) -> Tensor:
        return self.loss_and_logits(model, images, labels)[0]


class PGDAdversarialLoss:
    """Madry-style adversarial training: CE on PGD examples only.

    Paper setting: eps = 8/255, alpha = 2/255, 10 inner steps; clean examples
    are not used in the loss.
    """

    name = "pgd"

    def __init__(
        self,
        eps: float = 8.0 / 255.0,
        alpha: float = 2.0 / 255.0,
        steps: int = 10,
        random_start: bool = True,
        seed: int = 0,
    ) -> None:
        self.eps = eps
        self.alpha = alpha
        self.steps = steps
        self.random_start = random_start
        self.seed = seed

    def hyperparameters(self) -> dict:
        return {
            "eps": self.eps,
            "alpha": self.alpha,
            "steps": self.steps,
            "random_start": self.random_start,
            "seed": self.seed,
        }

    def generate(self, model: ImageClassifier, images: np.ndarray, labels: np.ndarray) -> np.ndarray:
        attack = PGD(
            model,
            eps=self.eps,
            alpha=self.alpha,
            steps=self.steps,
            random_start=self.random_start,
            seed=self.seed,
        )
        return attack.attack(images, labels)

    def __call__(self, model: ImageClassifier, images: np.ndarray, labels: np.ndarray) -> Tensor:
        adversarial = self.generate(model, images, labels)
        logits = model.forward(Tensor(adversarial))
        return F.cross_entropy(logits, labels)


class TRADESLoss:
    """TRADES: ``CE(clean) + beta * KL(p(x) || p(x_adv))``.

    The inner maximization perturbs ``x`` to maximize the KL divergence from
    the clean prediction, as in the reference implementation.
    """

    name = "trades"

    def __init__(
        self,
        beta: float = 6.0,
        eps: float = 8.0 / 255.0,
        alpha: float = 2.0 / 255.0,
        steps: int = 10,
        seed: int = 0,
    ) -> None:
        self.beta = beta
        self.eps = eps
        self.alpha = alpha
        self.steps = steps
        self.seed = seed

    def hyperparameters(self) -> dict:
        return {
            "beta": self.beta,
            "eps": self.eps,
            "alpha": self.alpha,
            "steps": self.steps,
            "seed": self.seed,
        }

    def generate(self, model: ImageClassifier, images: np.ndarray, labels: np.ndarray) -> np.ndarray:
        """Inner maximization of the KL term via PGD."""
        from ..nn import no_grad

        with no_grad():
            clean_logits = model.forward(Tensor(images)).data

        def kl_loss(m: ImageClassifier, x: Tensor, y: np.ndarray) -> Tensor:
            adv_logits = m.forward(x)
            return F.kl_div_with_logits(Tensor(clean_logits), adv_logits)

        attack = PGD(
            model,
            eps=self.eps,
            alpha=self.alpha,
            steps=self.steps,
            random_start=True,
            loss_fn=kl_loss,
            seed=self.seed,
        )
        return attack.attack(images, labels)

    def __call__(self, model: ImageClassifier, images: np.ndarray, labels: np.ndarray) -> Tensor:
        adversarial = self.generate(model, images, labels)
        clean_logits = model.forward(Tensor(images))
        adv_logits = model.forward(Tensor(adversarial))
        natural = F.cross_entropy(clean_logits, labels)
        robust = F.kl_div_with_logits(clean_logits, adv_logits)
        return natural + robust * self.beta


class MARTLoss:
    """MART: boosted CE on adversarial examples + misclassification-aware KL.

    ``L = BCE(p_adv, y) + beta * KL(p_clean || p_adv) * (1 - p_clean[y])``
    with ``BCE(p, y) = -log p_y - log(1 - max_{k != y} p_k)``.
    """

    name = "mart"

    def __init__(
        self,
        beta: float = 5.0,
        eps: float = 8.0 / 255.0,
        alpha: float = 2.0 / 255.0,
        steps: int = 10,
        seed: int = 0,
    ) -> None:
        self.beta = beta
        self.eps = eps
        self.alpha = alpha
        self.steps = steps
        self.seed = seed

    def hyperparameters(self) -> dict:
        return {
            "beta": self.beta,
            "eps": self.eps,
            "alpha": self.alpha,
            "steps": self.steps,
            "seed": self.seed,
        }

    def generate(self, model: ImageClassifier, images: np.ndarray, labels: np.ndarray) -> np.ndarray:
        attack = PGD(
            model,
            eps=self.eps,
            alpha=self.alpha,
            steps=self.steps,
            random_start=True,
            seed=self.seed,
        )
        return attack.attack(images, labels)

    def __call__(self, model: ImageClassifier, images: np.ndarray, labels: np.ndarray) -> Tensor:
        adversarial = self.generate(model, images, labels)
        adv_logits = model.forward(Tensor(adversarial))
        clean_logits = model.forward(Tensor(images))
        true_mask = Tensor(F.one_hot(labels, model.num_classes))
        return self.objective(adv_logits, clean_logits, true_mask)

    def objective(self, adv_logits: Tensor, clean_logits: Tensor, true_mask: Tensor) -> Tensor:
        """The MART loss of adversarial and clean logits under a one-hot label mask.

        The one definition of the objective: eager training calls it
        directly and compiled training traces it into the clean plan.
        """
        adv_probs = F.softmax(adv_logits, axis=1)
        clean_probs = F.softmax(clean_logits, axis=1)

        adv_true = (adv_probs * true_mask).sum(axis=1)
        # Largest wrong-class probability under the adversarial prediction.
        adv_wrong_max = (adv_probs + true_mask * (-1e9)).max(axis=1)
        boosted_ce = -((adv_true + 1e-12).log()) - ((1.0 - adv_wrong_max + 1e-12).log())

        kl_per_example = F.kl_div_with_logits(clean_logits, adv_logits, reduction="none")
        clean_true = (clean_probs * true_mask).sum(axis=1)
        weighted_kl = kl_per_example * (1.0 - clean_true)
        return boosted_ce.mean() + weighted_kl.mean() * self.beta


ADVERSARIAL_TRAINING_REGISTRY = {
    "ce": CrossEntropyLoss,
    "pgd": PGDAdversarialLoss,
    "trades": TRADESLoss,
    "mart": MARTLoss,
}


def build_training_loss(name: str, **kwargs) -> LossStrategy:
    """Instantiate a training-loss strategy by name ("ce", "pgd", "trades", "mart")."""
    key = name.lower()
    if key not in ADVERSARIAL_TRAINING_REGISTRY:
        raise KeyError(
            f"unknown training loss '{name}'; available: {sorted(ADVERSARIAL_TRAINING_REGISTRY)}"
        )
    return ADVERSARIAL_TRAINING_REGISTRY[key](**kwargs)
