"""Compiled counter-based dropout: parity, determinism, pooling, MI-on-adv."""

from __future__ import annotations

import numpy as np
import pytest

from repro.compile.training import CompiledTrainer
from repro.core.config import IBRARConfig
from repro.core.ibrar import IBRAR
from repro.data import ArrayDataset, DataLoader, synthetic_cifar10
from repro.models import build_model
from repro.nn.modules import Dropout
from repro.nn.optim import SGD, StepLR
from repro.nn.rng import new_dropout_mask
from repro.training import Trainer
from repro.training.adversarial import CrossEntropyLoss, PGDAdversarialLoss


@pytest.fixture(scope="module")
def dataset():
    return synthetic_cifar10(n_train=48, n_test=16, image_size=32, seed=0)


def dropout_vgg(seed: int = 7):
    return build_model(
        "vgg11",
        num_classes=10,
        image_size=32,
        width_multiplier=0.125,
        dropout=0.5,
        seed=seed,
    )


def fit_vgg(dataset, compile, epochs=2, strategy=None, momentum=0.9):
    model = dropout_vgg()
    optimizer = SGD(model.parameters(), lr=0.05, momentum=momentum)
    trainer = Trainer(
        model,
        strategy if strategy is not None else CrossEntropyLoss(),
        optimizer=optimizer,
        scheduler=StepLR(optimizer),
        compile=compile,
    )
    loader = DataLoader(
        ArrayDataset(dataset.x_train, dataset.y_train),
        batch_size=16,
        shuffle=True,
        drop_last=True,
        seed=3,
    )
    history = trainer.fit(loader, epochs=epochs)
    return model, history, trainer


def max_state_diff(a, b) -> float:
    return max(
        float(np.max(np.abs(a[k].astype(np.float64) - b[k].astype(np.float64))))
        for k in a
    )


class TestDropoutTrainingParity:
    def test_vgg_dropout_compiled_matches_eager(self, dataset):
        eager_model, eager_history, _ = fit_vgg(dataset, compile=False)
        compiled_model, compiled_history, trainer = fit_vgg(dataset, compile=True)
        stats = trainer.compile_stats
        assert stats.compiled_batches >= 1
        assert stats.fallbacks == 0
        assert np.allclose(
            eager_history.train_loss, compiled_history.train_loss, rtol=1e-10
        )
        # The acceptance bound: compiled trajectories track eager to <= 1e-12.
        assert max_state_diff(eager_model.state_dict(), compiled_model.state_dict()) <= 1e-12

    def test_dropout_state_advances_identically(self, dataset):
        eager_model, _, _ = fit_vgg(dataset, compile=False, epochs=1)
        compiled_model, _, _ = fit_vgg(dataset, compile=True, epochs=1)
        eager_state = eager_model.state_dict()
        compiled_state = compiled_model.state_dict()
        for key in ("dropout1.rng_state", "dropout2.rng_state"):
            assert np.array_equal(eager_state[key], compiled_state[key]), key


class TestMIOnAdversarialCompiled:
    def _run(self, dataset, compile):
        model = dropout_vgg()
        ibrar = IBRAR(
            model,
            IBRARConfig(alpha=0.05, beta=0.01, mi_on_adversarial=True),
            base_loss=PGDAdversarialLoss(steps=2, seed=0),
            lr=0.05,
            compile=compile,
        )
        result = ibrar.fit(dataset.x_train, dataset.y_train, epochs=2, batch_size=16, seed=0)
        return model, result.history

    def test_compiled_matches_eager(self, dataset):
        eager_model, eager_history = self._run(dataset, compile=False)
        compiled_model, compiled_history = self._run(dataset, compile=True)
        stats = compiled_history.compile_stats
        assert stats is not None
        assert stats["compiled_batches"] >= 1
        assert stats["fallbacks"] == 0
        assert stats["attack_grad_calls"] >= 1  # the MI replay ran the attack
        assert np.allclose(
            eager_history.train_loss, compiled_history.train_loss, rtol=1e-10
        )
        assert max_state_diff(eager_model.state_dict(), compiled_model.state_dict()) <= 1e-12


class TestRngMaskKernel:
    def test_plan_mask_matches_eager_mask_bitwise(self):
        # The compiled DropoutMask kernel and eager F.dropout share one
        # mask-fill implementation, so the masks are bitwise identical.
        rng = np.random.default_rng(0)
        model = dropout_vgg()
        model.train()
        x = rng.random((4, 3, 32, 32))
        y = rng.integers(0, 10, 4)
        optimizer = SGD(model.parameters(), lr=0.05, momentum=0.9)
        compiled = CompiledTrainer(model, optimizer, CrossEntropyLoss())
        assert compiled.train_batch(x, y) is None  # first sighting
        assert compiled.train_batch(x, y) is not None
        ctx = compiled._cache.get(np.asarray(x))
        masks = [
            node.meta["_rng"]
            for plan in ctx.plans
            for node in plan.graph.nodes
            if node.op == "rng_mask"
        ]
        assert masks, "training plan lost its rng_mask nodes"
        for dropout_mask in masks:
            state = dropout_mask.state
            expected = new_dropout_mask(
                dropout_mask.mask.shape,
                dropout_mask.mask.dtype,
                dropout_mask.p,
                int(state[0]),
                int(state[1]),
                int(state[2]),
            )
            np.testing.assert_array_equal(dropout_mask.mask, expected)

    def test_zero_steady_state_allocations(self, dataset):
        model, _, trainer = fit_vgg(dataset, compile=True, epochs=2)
        compiled = trainer._compiled_trainer
        assert compiled is not None and compiled.plans >= 1
        assert trainer.compile_stats.compiled_batches >= 1
        before = compiled.pool_allocations
        loader = DataLoader(
            ArrayDataset(dataset.x_train, dataset.y_train),
            batch_size=16,
            shuffle=True,
            drop_last=True,
            seed=3,
        )
        trainer.fit(loader, epochs=1)
        # Warm rng_mask replays (fresh Philox masks every step) must reuse
        # the pooled mask/scratch buffers, never allocate.
        assert compiled.pool_allocations - before == 0

    def test_eval_lowering_strips_dropout(self):
        from repro.nn import Tensor

        model = dropout_vgg()
        model.eval()
        rng = np.random.default_rng(0)
        x = rng.random((2, 3, 32, 32))
        compiled = model.compile(x)
        out = compiled(x)
        expected = model.forward(Tensor(np.asarray(x, dtype=np.float64))).data
        np.testing.assert_allclose(out, expected, rtol=1e-10, atol=1e-12)


class TestLegacyGeneratorDropout:
    def test_generator_driven_dropout_stays_eager(self, dataset):
        # The stateful-rng path is uncapturable; compile=True must degrade to
        # eager training and count the batches as genuine fallbacks.
        model = dropout_vgg()
        legacy_rng = np.random.default_rng(5)
        for module in model.modules():
            if isinstance(module, Dropout):
                module.rng = legacy_rng
        optimizer = SGD(model.parameters(), lr=0.05, momentum=0.9)
        trainer = Trainer(model, CrossEntropyLoss(), optimizer=optimizer, compile=True)
        loader = DataLoader(
            ArrayDataset(dataset.x_train, dataset.y_train),
            batch_size=16,
            shuffle=True,
            drop_last=True,
            seed=3,
        )
        trainer.fit(loader, epochs=1)
        stats = trainer.compile_stats
        assert stats.compiled_batches == 0
        assert stats.eager_batches >= 1
        assert stats.fallbacks >= 1  # memoized capture failure, counted once known
