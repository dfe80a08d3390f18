"""Tests for the training loop and the adversarial-training strategies."""

from __future__ import annotations

import numpy as np
import pytest

from repro.data import ArrayDataset, DataLoader
from repro.models import SmallCNN
from repro.nn.optim import SGD, StepLR
from repro.training import (
    CrossEntropyLoss,
    MARTLoss,
    PGDAdversarialLoss,
    TRADESLoss,
    Trainer,
    build_training_loss,
    evaluate_accuracy,
)
from repro.training.history import EpochRecord, TrainingHistory


def make_loader(dataset, batch_size=40, seed=0):
    return DataLoader(
        ArrayDataset(dataset.x_train, dataset.y_train),
        batch_size=batch_size,
        shuffle=True,
        drop_last=True,
        seed=seed,
    )


def fresh_model(seed=0):
    return SmallCNN(num_classes=10, image_size=16, base_channels=4, hidden_dim=16, seed=seed)


class TestHistory:
    def test_append_and_final(self):
        history = TrainingHistory()
        history.append(EpochRecord(1, 0.5, 0.6, 0.01))
        history.append(EpochRecord(2, 0.4, 0.7, 0.01, natural_accuracy=0.65))
        assert len(history) == 2
        assert history.final().epoch == 2
        assert history.train_loss == [0.5, 0.4]
        assert history.natural_accuracy == [None, 0.65]

    def test_final_on_empty_raises(self):
        with pytest.raises(IndexError):
            TrainingHistory().final()

    def test_as_dict_keys(self):
        history = TrainingHistory([EpochRecord(1, 0.1, 0.9, 0.01)])
        d = history.as_dict()
        assert set(d) == {"epoch", "train_loss", "train_accuracy", "natural_accuracy", "adversarial_accuracy"}

    def test_iterable(self):
        history = TrainingHistory([EpochRecord(1, 0.1, 0.9, 0.01)])
        assert [r.epoch for r in history] == [1]


class TestTrainer:
    def test_ce_training_improves_accuracy(self, tiny_dataset):
        model = fresh_model()
        trainer = Trainer(model, CrossEntropyLoss())
        before = evaluate_accuracy(model, tiny_dataset.x_test, tiny_dataset.y_test)
        optimizer = SGD(model.parameters(), lr=0.05, momentum=0.9)
        trainer = Trainer(model, CrossEntropyLoss(), optimizer=optimizer, scheduler=StepLR(optimizer))
        trainer.fit(make_loader(tiny_dataset), epochs=3)
        after = evaluate_accuracy(model, tiny_dataset.x_test, tiny_dataset.y_test)
        assert after > before
        assert after > 0.3  # well above 10-class chance

    def test_history_recorded_per_epoch(self, tiny_dataset):
        model = fresh_model()
        trainer = Trainer(model, CrossEntropyLoss())
        history = trainer.fit(make_loader(tiny_dataset), epochs=2)
        assert len(history) == 2
        assert all(np.isfinite(r.train_loss) for r in history)

    def test_eval_hooks_called(self, tiny_dataset):
        model = fresh_model()
        calls = {"nat": 0, "adv": 0}

        def nat(m):
            calls["nat"] += 1
            return 0.5

        def adv(m):
            calls["adv"] += 1
            return 0.25

        trainer = Trainer(model, CrossEntropyLoss(), eval_natural=nat, eval_adversarial=adv)
        history = trainer.fit(make_loader(tiny_dataset), epochs=2)
        assert calls == {"nat": 2, "adv": 2}
        assert history.final().natural_accuracy == 0.5
        assert history.final().adversarial_accuracy == 0.25

    def test_epoch_callback_invoked(self, tiny_dataset):
        model = fresh_model()
        seen = []
        trainer = Trainer(model, CrossEntropyLoss(), epoch_callback=lambda t, r: seen.append(r.epoch))
        trainer.fit(make_loader(tiny_dataset), epochs=2)
        assert seen == [1, 2]

    def test_scheduler_advances(self, tiny_dataset):
        model = fresh_model()
        optimizer = SGD(model.parameters(), lr=0.1)
        scheduler = StepLR(optimizer, step_size=1, gamma=0.5)
        trainer = Trainer(model, CrossEntropyLoss(), optimizer=optimizer, scheduler=scheduler)
        trainer.fit(make_loader(tiny_dataset), epochs=2)
        assert optimizer.lr == pytest.approx(0.1 * 0.25)

    def test_empty_loader_raises(self, tiny_dataset):
        model = fresh_model()
        empty = DataLoader(ArrayDataset(np.zeros((3, 3, 16, 16)), np.zeros(3)), batch_size=10, drop_last=True)
        with pytest.raises(RuntimeError):
            Trainer(model, CrossEntropyLoss()).train_epoch(empty)

    def test_evaluate_accuracy_batched(self, tiny_dataset, trained_small_cnn):
        value = evaluate_accuracy(trained_small_cnn, tiny_dataset.x_test, tiny_dataset.y_test, batch_size=8)
        assert 0.0 <= value <= 1.0

    def test_ce_epoch_runs_one_forward_per_batch(self, tiny_dataset):
        # Plain-CE strategies share their logits with the training-accuracy
        # metric, so an epoch issues exactly one forward pass per batch.
        from repro.attacks import ForwardPassCounter

        model = fresh_model()
        trainer = Trainer(model, CrossEntropyLoss())
        loader = make_loader(tiny_dataset)
        batches = sum(1 for _ in loader)
        with ForwardPassCounter(model) as counter:
            _, train_accuracy = trainer.train_epoch(loader)
        assert counter.calls == batches
        assert 0.0 <= train_accuracy <= 1.0

    def test_eager_batch_graph_is_freed_before_the_next_batch(self, tiny_dataset):
        # With compile=True the first batch of a signature runs eagerly, and
        # the next ones compiled.  The eager loss, and the autograd graph
        # behind it, must be unreachable by the time the next batch starts,
        # not held until the epoch ends; with the cyclic collector off, only
        # reference counting can have freed it.
        import gc
        import weakref

        trainer = Trainer(fresh_model(), PGDAdversarialLoss(steps=1, seed=0), compile=True)
        losses = []
        alive_at_batch_start = []
        batch_loss, compiled_batch = trainer._batch_loss, trainer._compiled_batch

        def recording_batch_loss(images, labels):
            loss, logits = batch_loss(images, labels)
            losses.append(weakref.ref(loss))
            return loss, logits

        def checking_compiled_batch(images, labels):
            alive_at_batch_start.append([ref() is not None for ref in losses])
            return compiled_batch(images, labels)

        trainer._batch_loss = recording_batch_loss
        trainer._compiled_batch = checking_compiled_batch
        gc.collect()
        gc.disable()
        try:
            trainer.train_epoch(make_loader(tiny_dataset))
        finally:
            gc.enable()
        assert len(losses) == 1 and trainer.compile_stats.compiled_batches >= 1
        assert alive_at_batch_start[0] == []
        assert all(alive == [False] for alive in alive_at_batch_start[1:])

    def test_adversarial_epoch_still_reports_accuracy(self, tiny_dataset):
        # Strategies without shared clean logits fall back to the extra pass.
        model = fresh_model()
        trainer = Trainer(model, PGDAdversarialLoss(steps=1))
        _, train_accuracy = trainer.train_epoch(make_loader(tiny_dataset))
        assert 0.0 <= train_accuracy <= 1.0


class TestAdversarialStrategies:
    def test_registry(self):
        assert isinstance(build_training_loss("trades", steps=1), TRADESLoss)
        assert isinstance(build_training_loss("mart", steps=1), MARTLoss)
        assert isinstance(build_training_loss("pgd", steps=1), PGDAdversarialLoss)
        with pytest.raises(KeyError):
            build_training_loss("unknown")

    def test_pgd_loss_scalar_and_finite(self, tiny_dataset):
        model = fresh_model()
        loss = PGDAdversarialLoss(steps=2)(model, tiny_dataset.x_train[:16], tiny_dataset.y_train[:16])
        assert np.isfinite(loss.item())

    def test_pgd_generate_respects_eps(self, tiny_dataset):
        model = fresh_model()
        strategy = PGDAdversarialLoss(eps=8 / 255, steps=2)
        adv = strategy.generate(model, tiny_dataset.x_train[:8], tiny_dataset.y_train[:8])
        assert np.abs(adv - tiny_dataset.x_train[:8]).max() <= 8 / 255 + 1e-10

    def test_trades_loss_larger_than_natural_ce(self, tiny_dataset):
        from repro.nn import Tensor
        from repro.nn import functional as F

        model = fresh_model()
        images, labels = tiny_dataset.x_train[:16], tiny_dataset.y_train[:16]
        trades = TRADESLoss(beta=6.0, steps=2)(model, images, labels).item()
        natural = F.cross_entropy(model.forward(Tensor(images)), labels).item()
        assert trades >= natural - 1e-6

    def test_mart_loss_finite_and_backward(self, tiny_dataset):
        model = fresh_model()
        images, labels = tiny_dataset.x_train[:16], tiny_dataset.y_train[:16]
        loss = MARTLoss(beta=5.0, steps=2)(model, images, labels)
        assert np.isfinite(loss.item())
        loss.backward()
        assert any(p.grad is not None for p in model.parameters())

    def test_adversarial_training_improves_robustness(self, tiny_dataset):
        from repro.attacks import PGD
        from repro.evaluation import adversarial_accuracy

        images, labels = tiny_dataset.x_test, tiny_dataset.y_test

        def train(strategy, seed):
            model = fresh_model(seed)
            optimizer = SGD(model.parameters(), lr=0.05, momentum=0.9)
            trainer = Trainer(model, strategy, optimizer=optimizer, scheduler=StepLR(optimizer))
            trainer.fit(make_loader(tiny_dataset), epochs=4)
            model.eval()
            return model

        ce_model = train(CrossEntropyLoss(), 0)
        at_model = train(PGDAdversarialLoss(steps=5), 0)
        ce_robust = adversarial_accuracy(ce_model, PGD(ce_model, steps=10, seed=1), images, labels)
        at_robust = adversarial_accuracy(at_model, PGD(at_model, steps=10, seed=1), images, labels)
        # Ordering claim at toy scale: allow a small noise margin so the test
        # checks the trend (adversarial training does not hurt robustness)
        # without being flaky on an 80-example evaluation set.
        assert at_robust >= ce_robust - 0.05
