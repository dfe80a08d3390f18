"""High-level IB-RAR trainer: Algorithm 1 of the paper end to end.

:class:`IBRAR` ties the pieces together:

1. build the Eq. (1)/(2) loss — base strategy (CE or an adversarial-training
   benchmark) plus the HSIC regularizers over the configured layers;
2. train with SGD + StepLR via :class:`repro.training.Trainer`;
3. periodically recompute and install the Eq. (3) feature-channel mask so
   that ``T_last = T_last * mask`` during both training and inference.

The resulting object exposes the trained model, the training history and the
final mask, which is everything the evaluation harness and the benches need.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Callable, Optional

import numpy as np

from ..data.loaders import ArrayDataset, DataLoader
from ..models.base import ImageClassifier
from ..nn.optim import SGD, StepLR
from ..training.adversarial import CrossEntropyLoss, LossStrategy
from ..training.history import EpochRecord, TrainingHistory
from ..training.trainer import Trainer
from .config import IBRARConfig
from .losses import MILoss
from .mask import FeatureChannelMask

__all__ = ["IBRAR", "IBRARResult"]


@dataclass
class IBRARResult:
    """Everything produced by an IB-RAR training run."""

    model: ImageClassifier
    history: TrainingHistory
    channel_mask: Optional[np.ndarray]
    config: IBRARConfig


class IBRAR:
    """Train a classifier with the IB-RAR defense.

    Parameters
    ----------
    model:
        The classifier to train (any :class:`ImageClassifier`).
    config:
        IB-RAR hyperparameters (:class:`IBRARConfig`).
    base_loss:
        ``L_CE``-like component of Eq. (1)/(2): plain CE (default) or one of
        the adversarial-training strategies (PGD-AT, TRADES, MART).
    lr, momentum, weight_decay, step_size, gamma:
        Optimizer / scheduler hyperparameters; defaults follow the paper
        (SGD lr 0.01, weight decay 1e-2, StepLR step 20 gamma 0.2).
    mask_examples:
        How many training examples are used to estimate channel MI when
        refreshing the Eq. (3) mask.
    eval_natural / eval_adversarial:
        Optional per-epoch evaluation hooks forwarded to the trainer.
    compile:
        Forwarded to :class:`~repro.training.Trainer`: run the IB-RAR loss
        (and its adversarial base strategies) through compiled training
        plans, with automatic eager fallback.  A mask refresh overwrites
        the model's Eq. (3) mask in place, which the plans read, so it
        keeps every plan.
    """

    def __init__(
        self,
        model: ImageClassifier,
        config: Optional[IBRARConfig] = None,
        base_loss: Optional[LossStrategy] = None,
        lr: float = 0.01,
        momentum: float = 0.9,
        weight_decay: float = 1e-2,
        step_size: int = 20,
        gamma: float = 0.2,
        mask_examples: int = 256,
        eval_natural: Optional[Callable[[ImageClassifier], float]] = None,
        eval_adversarial: Optional[Callable[[ImageClassifier], float]] = None,
        verbose: bool = False,
        compile: bool = False,
    ) -> None:
        self.model = model
        self.config = config or IBRARConfig()
        self.base_loss = base_loss or CrossEntropyLoss()
        self.loss = MILoss(self.config, num_classes=model.num_classes, base_loss=self.base_loss)
        self.mask_builder = FeatureChannelMask(fraction=self.config.mask_fraction)
        self.mask_examples = mask_examples
        optimizer = SGD(model.parameters(), lr=lr, momentum=momentum, weight_decay=weight_decay)
        scheduler = StepLR(optimizer, step_size=step_size, gamma=gamma)
        self._mask_data: Optional[tuple[np.ndarray, np.ndarray]] = None
        self.trainer = Trainer(
            model,
            loss_strategy=self.loss,
            optimizer=optimizer,
            scheduler=scheduler,
            eval_natural=eval_natural,
            eval_adversarial=eval_adversarial,
            verbose=verbose,
            compile=compile,
        )

    # -- mask refresh hook -------------------------------------------------------
    def _refresh_mask(self, trainer: Trainer, record: EpochRecord) -> None:
        if not self.config.use_mask or self._mask_data is None:
            return
        if record.epoch % self.config.mask_refresh_every != 0:
            return
        images, labels = self._mask_data
        mask = self.mask_builder.apply(self.model, images, labels)
        record.extra["masked_channels"] = float(len(mask) - mask.sum())

    # -- training ----------------------------------------------------------------
    def fit(
        self,
        x_train: np.ndarray,
        y_train: np.ndarray,
        epochs: int = 10,
        batch_size: int = 100,
        shuffle: bool = True,
        transform=None,
        seed: int = 0,
    ) -> IBRARResult:
        """Run Algorithm 1 for ``epochs`` epochs and return the trained model."""
        dataset = ArrayDataset(x_train, y_train)
        loader = DataLoader(
            dataset,
            batch_size=batch_size,
            shuffle=shuffle,
            transform=transform,
            drop_last=True,
            seed=seed,
        )
        if self.config.use_mask:
            subset = min(self.mask_examples, len(dataset))
            self._mask_data = (dataset.images[:subset], dataset.labels[:subset])
        # Hooked only while fitting: a bound method left on the trainer
        # would make this object and its trainer a reference cycle, keeping
        # the trainer's compiled plans alive after both are dropped until
        # the next cyclic garbage collection.
        self.trainer.epoch_callback = self._refresh_mask
        try:
            history = self.trainer.fit(loader, epochs=epochs)
        finally:
            self.trainer.epoch_callback = None
        return IBRARResult(
            model=self.model,
            history=history,
            channel_mask=self.model.channel_mask,
            config=self.config,
        )

    # -- conveniences -------------------------------------------------------------
    @property
    def history(self) -> TrainingHistory:
        return self.trainer.history

    def loss_components(self) -> dict:
        """Scalar values of the Eq. (1) components from the latest batch."""
        return dict(self.loss.last_components)
