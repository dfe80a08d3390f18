"""Generic training loop shared by every experiment in the reproduction.

The :class:`Trainer` follows Algorithm 1 of the paper: iterate mini-batches,
compute the configured loss strategy (plain CE, an adversarial-training loss,
or an IB-RAR wrapped loss from :mod:`repro.core`), back-propagate, and step
SGD + StepLR.  Optional per-epoch evaluation records the natural and
adversarial accuracy curves used by Figures 2d and 4.

``Trainer(compile=True)`` routes supported loss strategies through
:mod:`repro.compile.training`: the training-mode forward, the full
parameter-gradient backward and the optimizer update replay static,
buffer-pooled plans, with automatic per-batch eager fallback.  The per-epoch
evaluation hooks run eagerly either way.
"""

from __future__ import annotations

import time
from typing import Callable, Optional

import numpy as np

from ..nn import Tensor, advance_dropout_steps, no_grad
from ..nn.optim import Optimizer, SGD, StepLR, _Scheduler
from ..data.loaders import DataLoader
from ..models.base import ImageClassifier
from ..obs import records as _records, trace as _trace
from .adversarial import CrossEntropyLoss, LossStrategy
from .history import EpochRecord, TrainingHistory

__all__ = ["Trainer", "evaluate_accuracy"]


def evaluate_accuracy(
    model: ImageClassifier,
    images: np.ndarray,
    labels: np.ndarray,
    batch_size: int = 128,
) -> float:
    """Top-1 accuracy of ``model`` on an array of images (eval mode, no gradients)."""
    labels = np.asarray(labels).reshape(-1)
    correct = 0
    was_training = model.training
    model.eval()
    try:
        with no_grad():
            for start in range(0, len(images), batch_size):
                batch = images[start : start + batch_size]
                batch_labels = labels[start : start + batch_size]
                predictions = model.predict(Tensor(batch))
                correct += int((predictions == batch_labels).sum())
    finally:
        model.train(was_training)
    return correct / max(len(labels), 1)


class Trainer:
    """Mini-batch trainer with optional per-epoch evaluation hooks.

    Parameters
    ----------
    model:
        The classifier to optimize.
    loss_strategy:
        Callable ``(model, images, labels) -> Tensor`` computing the training
        loss for one batch; defaults to plain cross-entropy.
    optimizer:
        Defaults to the paper's SGD (lr 0.01, momentum 0.9, weight decay 1e-2).
    scheduler:
        Defaults to the paper's StepLR (step 20, gamma 0.2).
    eval_natural / eval_adversarial:
        Optional callables run at the end of every epoch as ``hook(model)``;
        their results populate the corresponding history columns.
    epoch_callback:
        Optional hook ``(trainer, record) -> None`` invoked after each epoch
        (used by the IB-RAR trainer to refresh the Eq. (3) mask and by the
        convergence-rescue experiment to switch loss strategies).
    compile:
        Execute supported training steps through static, buffer-pooled
        plans (:mod:`repro.compile.training`) — the adversarial and IB-RAR
        loss terms included, traced into the plans.  Unsupported strategies
        and unseen batch signatures fall back to eager per batch, so enabling
        this is always safe; :attr:`TrainingHistory.compile_stats` reports
        the compiled-vs-eager split, the capture count (one traced forward
        per batch signature) and the compiled forward-replay counters the
        experiment runner folds into ``train_forward_examples``.
    """

    def __init__(
        self,
        model: ImageClassifier,
        loss_strategy: Optional[LossStrategy] = None,
        optimizer: Optional[Optimizer] = None,
        scheduler: Optional[_Scheduler] = None,
        eval_natural: Optional[Callable[[ImageClassifier], float]] = None,
        eval_adversarial: Optional[Callable[[ImageClassifier], float]] = None,
        epoch_callback: Optional[Callable[["Trainer", EpochRecord], None]] = None,
        verbose: bool = False,
        compile: bool = False,
    ) -> None:
        self.model = model
        self.loss_strategy = loss_strategy or CrossEntropyLoss()
        self.optimizer = optimizer or SGD(model.parameters(), lr=0.01, momentum=0.9, weight_decay=1e-2)
        self.scheduler = scheduler or StepLR(self.optimizer, step_size=20, gamma=0.2)
        self.eval_natural = eval_natural
        self.eval_adversarial = eval_adversarial
        self.epoch_callback = epoch_callback
        self.verbose = verbose
        self.compile = bool(compile)
        self.history = TrainingHistory()
        self._compiled_trainer = None
        self._retired_compile_stats = None  # counters from replaced instances

    def _batch_loss(self, images: np.ndarray, labels: np.ndarray):
        """Compute the training loss, reusing the strategy's logits when it shares them.

        Strategies whose classification term is computed on the clean inputs
        (plain CE, and the fused IB-RAR CE path) expose ``loss_and_logits``;
        the logits they already computed double as the training-accuracy
        predictions.  Adversarial strategies (whose logits describe perturbed
        inputs) return ``None`` and the trainer falls back to an extra
        forward pass.
        """
        loss_and_logits = getattr(self.loss_strategy, "loss_and_logits", None)
        if loss_and_logits is not None:
            return loss_and_logits(self.model, images, labels)
        return self.loss_strategy(self.model, images, labels), None

    # ------------------------------------------------------------------ #
    # compiled execution
    # ------------------------------------------------------------------ #
    @property
    def compile_stats(self):
        """Compiled-training counters (``None`` until the first compiled epoch).

        Counters accumulate monotonically across the whole trainer lifetime:
        when a mid-fit loss-strategy swap retires a compiled-trainer
        instance, its counts merge into the total instead of resetting, so
        per-epoch snapshot deltas (and the final history telemetry) stay
        consistent.
        """
        live = self._compiled_trainer.stats if self._compiled_trainer is not None else None
        retired = self._retired_compile_stats
        if live is None:
            return retired
        if retired is None:
            return live
        return retired.merge(live)

    def _compiled_batch(self, images: np.ndarray, labels: np.ndarray):
        """Try one compiled train step; ``None`` means run the batch eagerly."""
        # Rebuild when the strategy (or optimizer) was swapped out — the
        # convergence-rescue pattern reassigns ``trainer.loss_strategy``
        # between fits, and a stale adapter would keep optimizing the old
        # objective on compiled batches.  The retired instance's counters
        # fold into the running total.
        if self._compiled_trainer is not None and (
            self._compiled_trainer.loss_strategy is not self.loss_strategy
            or self._compiled_trainer.optimizer is not self.optimizer
        ):
            retired = self._compiled_trainer.stats
            self._retired_compile_stats = (
                retired
                if self._retired_compile_stats is None
                else self._retired_compile_stats.merge(retired)
            )
            self._compiled_trainer = None
        if self._compiled_trainer is None:
            from ..compile.training import CompiledTrainer

            self._compiled_trainer = CompiledTrainer(
                self.model, self.optimizer, self.loss_strategy
            )
        return self._compiled_trainer.train_batch(images, labels)

    # ------------------------------------------------------------------ #
    # training
    # ------------------------------------------------------------------ #
    def _eager_batch(self, images: np.ndarray, labels: np.ndarray) -> tuple[float, np.ndarray]:
        """One eager training step; returns ``(loss, predictions)``.

        The loss and logits, and with them the batch's autograd graph, die
        when this returns, before the next batch runs.
        """
        loss, logits = self._batch_loss(images, labels)
        self.optimizer.zero_grad()
        loss.backward()
        # Training accuracy is measured on the pre-update weights for
        # every strategy (shared logits or the fallback pass alike).
        if logits is not None:
            predictions = np.argmax(logits.data, axis=1)
        else:
            with no_grad():
                predictions = self.model.predict(Tensor(images))
        # In place: live-parameter plans survive eager batches.
        self.optimizer.step()
        return float(loss.item()), predictions

    def train_epoch(self, loader: DataLoader) -> tuple[float, float]:
        """Run one epoch; returns (mean loss, training accuracy)."""
        self.model.train()
        total_loss = 0.0
        total_correct = 0
        total_examples = 0
        for images, labels in loader:
            outcome = self._compiled_batch(images, labels) if self.compile else None
            if outcome is None:
                outcome = self._eager_batch(images, labels)
            loss_value, predictions = outcome
            # Every batch is one optimizer step: advance the counter-based
            # dropout state so the next batch draws fresh masks.  Both the
            # compiled and the eager path read the same live buffers, so
            # advancing here (once, after the step) keeps them in lockstep.
            advance_dropout_steps(self.model)
            total_loss += loss_value * len(labels)
            total_correct += int((predictions == labels).sum())
            total_examples += len(labels)
        if total_examples == 0:
            raise RuntimeError("the data loader produced no batches")
        return total_loss / total_examples, total_correct / total_examples

    def fit(self, loader: DataLoader, epochs: int) -> TrainingHistory:
        """Train for ``epochs`` epochs, recording history.

        Under ``REPRO_RUNS`` (see :mod:`repro.obs.records`) the whole fit is
        bracketed by a :class:`~repro.obs.records.RunWindow` and persisted as
        a ``train`` run record — per-epoch series and the trainer's compile
        stats (``history``), span roll-up, executor profile and wall/CPU
        time — retrievable via ``python -m repro.obs runs list``.
        """
        if not _records.enabled():
            return self._fit(loader, epochs)
        window = _records.RunWindow("train", label=type(self.loss_strategy).__name__)
        with window:
            history = self._fit(loader, epochs)
        try:
            _records.save_record(
                window.build(
                    history=history.as_dict(),
                    profile=self.profile() or None,
                )
            )
        except OSError:
            pass  # recording must never fail the training run
        return history

    def _fit(self, loader: DataLoader, epochs: int) -> TrainingHistory:
        for epoch in range(1, epochs + 1):
            stats = self.compile_stats
            before = stats.snapshot() if stats is not None else None
            epoch_start = time.perf_counter()
            with _trace.span(
                "train.epoch", {"epoch": epoch} if _trace.enabled() else None
            ):
                train_loss, train_accuracy = self.train_epoch(loader)
            epoch_seconds = time.perf_counter() - epoch_start
            natural = None if self.eval_natural is None else self.eval_natural(self.model)
            adversarial = (
                None if self.eval_adversarial is None else self.eval_adversarial(self.model)
            )
            record = EpochRecord(
                epoch=epoch,
                train_loss=train_loss,
                train_accuracy=train_accuracy,
                learning_rate=self.optimizer.lr,
                natural_accuracy=natural,
                adversarial_accuracy=adversarial,
                seconds=epoch_seconds,
            )
            stats = self.compile_stats
            if stats is not None:
                compiled_now, eager_now = stats.snapshot()
                record.extra["compiled_batches"] = float(
                    compiled_now - (before[0] if before else 0)
                )
                record.extra["eager_batches"] = float(
                    eager_now - (before[1] if before else 0)
                )
            self.history.append(record)
            if self.epoch_callback is not None:
                self.epoch_callback(self, record)
            self.scheduler.step()
            if self.verbose:
                parts = [f"epoch {epoch:3d}", f"loss {train_loss:.4f}", f"train acc {train_accuracy:.3f}"]
                if natural is not None:
                    parts.append(f"nat {natural:.3f}")
                if adversarial is not None:
                    parts.append(f"adv {adversarial:.3f}")
                print("  ".join(parts))
        stats = self.compile_stats
        if stats is not None:
            self.history.compile_stats = stats.as_dict()
        return self.history

    def profile(self):
        """Per-signature executor profiles of the compiled training plans.

        Empty unless a :class:`~repro.compile.training.CompiledTrainer` ran
        with the obs profiler on for at least one replayed batch (see
        :mod:`repro.obs.profiler`).
        """
        if self._compiled_trainer is None:
            return {}
        return self._compiled_trainer.profile()
