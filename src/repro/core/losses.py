"""The IB-RAR mutual-information loss (Eq. 1 and Eq. 2 of the paper).

``MILoss`` implements

    L = L_base + alpha * sum_l I(X, T_l) - beta * sum_l I(Y, T_l)

where ``I`` is estimated with HSIC (Gaussian kernel on activations, linear
kernel on one-hot labels) and the sum ranges over a configurable set of
hidden layers (all layers, or the paper's *robust layers*).

``L_base`` is pluggable:

* plain cross-entropy on clean inputs  -> Eq. (1);
* an adversarial-training strategy (PGD-AT, TRADES, MART from
  :mod:`repro.training.adversarial`) -> Eq. (2), "method (IB-RAR)" in
  Tables 1-2.

The MI terms are computed on **clean** inputs by default; the paper remarks
that using adversarial inputs (``I(X + delta, T_l)``) helps specifically
against PGD but hurts other attacks, and this is available via
``mi_on_adversarial=True``.
"""

from __future__ import annotations

from typing import Dict, Mapping, Optional, Sequence

import numpy as np

from ..nn import Tensor
from ..nn import functional as F
from ..ib.hsic import center, gaussian_kernel, hsic, linear_kernel, normalized_hsic
from ..models.base import ImageClassifier
from ..training.adversarial import CrossEntropyLoss, LossStrategy
from .config import IBRARConfig

__all__ = [
    "MILoss",
    "AdversarialMILoss",
    "hsic_terms",
    "mi_regularizer_terms",
    "resolve_mi_layers",
]


def resolve_mi_layers(available, layers: Optional[Sequence[str]]) -> list:
    """Validate and order the hidden layers the MI regularizers sum over.

    Called by :func:`hsic_terms`, so eager and compiled training select
    (and reject) exactly the same layers.
    """
    available = list(available)
    selected = list(layers) if layers is not None else available
    if not selected:
        raise ValueError("at least one hidden layer must be selected for the MI loss")
    for name in selected:
        if name not in available:
            raise KeyError(
                f"layer '{name}' not found among hidden representations {available}"
            )
    return selected


def mi_regularizer_terms(
    inputs: Tensor,
    labels: np.ndarray,
    hidden: Mapping[str, Tensor],
    num_classes: int,
    layers: Optional[Sequence[str]] = None,
    normalized: bool = True,
    sigma: Optional[float] = None,
) -> tuple[Tensor, Tensor]:
    """Return ``(sum_l I(X, T_l), sum_l I(Y, T_l))`` as differentiable tensors.

    The eager entry point: one-hot encodes ``labels`` and evaluates
    :func:`hsic_terms`.
    """
    onehot = Tensor(F.one_hot(labels, num_classes))
    return hsic_terms(inputs, onehot, hidden, layers=layers, normalized=normalized, sigma=sigma)


def hsic_terms(
    inputs: Tensor,
    onehot: Tensor,
    hidden: Mapping[str, Tensor],
    layers: Optional[Sequence[str]] = None,
    normalized: bool = True,
    sigma: Optional[float] = None,
) -> tuple[Tensor, Tensor]:
    """``(sum_l I(X, T_l), sum_l I(Y, T_l))`` from one-hot labels.

    The one definition of the HSIC regularizers: eager training reaches it
    through :func:`mi_regularizer_terms`, compiled training traces it into
    the plan through :meth:`MILoss.regularizer`.  The input Gram matrix
    ``K_X`` and the label Gram matrix ``K_Y`` are built **once per batch**
    and shared by every layer's HSIC pair, and so are their self-HSIC
    normalizers (the nHSIC denominators).  Per layer, the layer kernel is
    centered exactly once — the one-sided trace identity
    ``tr(K_T H K H) = sum(center(K_T) * K)`` (see :func:`repro.ib.hsic.hsic`)
    lets the cross and normalizer terms reuse it, so no ``m x m`` centering
    matrix is materialized and no kernel is centered twice.
    """
    selected = resolve_mi_layers(hidden.keys(), layers)
    input_kernel = gaussian_kernel(inputs.detach(), sigma=sigma)
    label_kernel = linear_kernel(onehot)
    norm_input: Optional[Tensor] = None
    norm_label: Optional[Tensor] = None
    if normalized:
        norm_input = hsic(input_kernel, input_kernel)
        norm_label = hsic(label_kernel, label_kernel)
    sum_xt: Optional[Tensor] = None
    sum_yt: Optional[Tensor] = None
    for name in selected:
        layer_kernel = gaussian_kernel(hidden[name], sigma=sigma)
        centered = center(layer_kernel)
        if normalized:
            norm_layer = hsic(layer_kernel, layer_kernel, centered_x=centered)
            term_x = normalized_hsic(
                layer_kernel, input_kernel,
                centered_x=centered, norm_x=norm_layer, norm_y=norm_input,
            )
            term_y = normalized_hsic(
                layer_kernel, label_kernel,
                centered_x=centered, norm_x=norm_layer, norm_y=norm_label,
            )
        else:
            term_x = hsic(layer_kernel, input_kernel, centered_x=centered)
            term_y = hsic(layer_kernel, label_kernel, centered_x=centered)
        sum_xt = term_x if sum_xt is None else sum_xt + term_x
        sum_yt = term_y if sum_yt is None else sum_yt + term_y
    return sum_xt, sum_yt


class MILoss:
    """Eq. (1): base loss plus the two HSIC regularizers.

    Parameters
    ----------
    config:
        :class:`IBRARConfig` with ``alpha``, ``beta``, ``layers`` etc.
    num_classes:
        Number of classes (for the label kernel).
    base_loss:
        The ``L_CE``-like component; defaults to plain cross-entropy on clean
        inputs.  Pass an adversarial-training strategy for Eq. (2) — see
        :class:`AdversarialMILoss` for the convenience wrapper.
    """

    name = "ib-rar-mi"

    def __init__(
        self,
        config: IBRARConfig,
        num_classes: int,
        base_loss: Optional[LossStrategy] = None,
    ) -> None:
        self.config = config
        self.num_classes = num_classes
        self.base_loss = base_loss or CrossEntropyLoss()
        self.last_components: Dict[str, float] = {}

    def hyperparameters(self) -> Dict:
        """Constructor arguments, JSON-ready (nested base loss as a spec dict)."""
        from ..training.specs import LossSpec

        return {
            "config": self.config.to_dict(),
            "num_classes": self.num_classes,
            "base_loss": LossSpec.from_strategy(self.base_loss).as_dict(),
        }

    def side_term(self, sum_xt: Tensor, sum_yt: Tensor) -> Tensor:
        """The regularizer ``alpha * sum_l I(X, T_l) - beta * sum_l I(Y, T_l)``."""
        return sum_xt * self.config.alpha - sum_yt * self.config.beta

    def regularizer(
        self, inputs: Tensor, onehot: Tensor, **hidden: Tensor
    ) -> tuple[Tensor, Tensor, Tensor]:
        """``(side_term, sum_l I(X, T_l), sum_l I(Y, T_l))`` for one batch.

        The form compiled training traces
        (:meth:`~repro.compile.graph.Graph.append_traced`): every argument is
        a tensor — the MI inputs, the one-hot labels and each hidden
        representation by name — so each binds to a plan node.
        """
        config = self.config
        sum_xt, sum_yt = hsic_terms(
            inputs,
            onehot,
            hidden,
            layers=config.layers,
            normalized=config.normalized_hsic,
            sigma=config.sigma,
        )
        return self.side_term(sum_xt, sum_yt), sum_xt, sum_yt

    def _mi_inputs(self, model: ImageClassifier, images: np.ndarray, labels: np.ndarray) -> np.ndarray:
        """Choose which inputs the MI terms see (clean by default, Eq. 2 note)."""
        if not self.config.mi_on_adversarial:
            return images
        generate = getattr(self.base_loss, "generate", None)
        if generate is None:
            return images
        return generate(model, images, labels)

    def loss_and_logits(self, model: ImageClassifier, images: np.ndarray, labels: np.ndarray) -> tuple:
        """Return ``(loss, clean logits or None)``.

        When the base loss is plain CE on clean inputs (Eq. 1) the MI terms
        and the classification term share a single ``forward_with_hidden``
        pass — previously the hottest path of IB-RAR training ran the same
        clean forward twice per batch.  Adversarial base strategies (Eq. 2)
        keep their own forward passes and return ``None`` for the logits.
        """
        fused = isinstance(self.base_loss, CrossEntropyLoss) and not self.config.mi_on_adversarial
        if fused:
            inputs = Tensor(images)
            logits, hidden = model.forward_with_hidden(inputs)
            base = F.cross_entropy(logits, labels)
        else:
            logits = None
            base = self.base_loss(model, images, labels)
            inputs = Tensor(self._mi_inputs(model, images, labels))
            _, hidden = model.forward_with_hidden(inputs)
        sum_xt, sum_yt = mi_regularizer_terms(
            inputs,
            labels,
            hidden,
            num_classes=self.num_classes,
            layers=self.config.layers,
            normalized=self.config.normalized_hsic,
            sigma=self.config.sigma,
        )
        total = base + self.side_term(sum_xt, sum_yt)
        self.last_components = {
            "base": float(base.item()),
            "hsic_x": float(sum_xt.item()),
            "hsic_y": float(sum_yt.item()),
            "total": float(total.item()),
        }
        return total, logits

    def __call__(self, model: ImageClassifier, images: np.ndarray, labels: np.ndarray) -> Tensor:
        return self.loss_and_logits(model, images, labels)[0]


class AdversarialMILoss(MILoss):
    """Eq. (2): an adversarial-training benchmark combined with the MI terms.

    Equivalent to ``MILoss(config, num_classes, base_loss=strategy)`` but kept
    as a named class because it is the exact object the Tables 1-2 rows
    "PGD/TRADES/MART (IB-RAR)" are produced with.
    """

    name = "ib-rar-adversarial"

    def __init__(
        self,
        config: IBRARConfig,
        num_classes: int,
        adversarial_strategy: LossStrategy,
    ) -> None:
        super().__init__(config, num_classes, base_loss=adversarial_strategy)

    def hyperparameters(self) -> Dict:
        from ..training.specs import LossSpec

        return {
            "config": self.config.to_dict(),
            "num_classes": self.num_classes,
            "adversarial_strategy": LossSpec.from_strategy(self.base_loss).as_dict(),
        }
