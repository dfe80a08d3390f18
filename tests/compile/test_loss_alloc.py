"""Allocation and capture-count regressions for the in-plan losses.

* A warm compiled TRADES / MART / IB-RAR step must record **zero eager
  graph nodes** (``op_counter`` — every loss term is traced into the plan)
  and **zero steady-state pool allocations**, IB-RAR with the per-batch
  median bandwidth as well as a fixed one.
* PGD-AT performs exactly **one plan-pair capture per signature**
  (``TrainingCompileStats.captures``), with the attack plan derived from
  the training capture by the ``lower_to_eval`` pass — on a mode-invariant
  model (no batch norm, no dropout) too.
"""

from __future__ import annotations

import numpy as np
import pytest

from repro.core.config import IBRARConfig
from repro.core.losses import AdversarialMILoss
from repro.compile.training import CompiledTrainer
from repro.models import MLP, SmallCNN
from repro.nn.optim import SGD
from repro.nn.tensor import op_counter
from repro.training.adversarial import MARTLoss, PGDAdversarialLoss, TRADESLoss


def _compiled(strategy, model=None):
    model = model or SmallCNN(
        num_classes=10, image_size=16, base_channels=4, hidden_dim=16, seed=0
    )
    model.train()
    optimizer = SGD(model.parameters(), lr=0.05, momentum=0.9)
    return CompiledTrainer(model, optimizer, strategy)


def _warm(trainer, batches=3, n=20, shape=(3, 16, 16)):
    rng = np.random.default_rng(0)
    images = rng.random((n, *shape))
    labels = rng.integers(0, 10, n)
    outcomes = [trainer.train_batch(images, labels) for _ in range(batches)]
    assert outcomes[0] is None and outcomes[-1] is not None
    return images, labels


class TestZeroSteadyStateLoss:
    def _assert_steady(self, trainer, images, labels):
        before = trainer.pool_allocations
        with op_counter() as ops:
            outcome = trainer.train_batch(images, labels)
        assert outcome is not None, "warm batch fell back to eager"
        assert ops.count == 0, f"{ops.count} eager graph nodes built in a compiled step"
        assert trainer.pool_allocations - before == 0

    @pytest.mark.parametrize("strategy_cls", [TRADESLoss, MARTLoss], ids=["trades", "mart"])
    def test_step_is_allocation_free(self, strategy_cls):
        trainer = _compiled(strategy_cls(steps=2, seed=0))
        images, labels = _warm(trainer)
        self._assert_steady(trainer, images, labels)

    def _ibrar(self, sigma):
        strategy = AdversarialMILoss(
            IBRARConfig(alpha=0.05, beta=0.01, sigma=sigma),
            num_classes=10,
            adversarial_strategy=PGDAdversarialLoss(steps=2, seed=0),
        )
        trainer = _compiled(strategy)
        images, labels = _warm(trainer)
        self._assert_steady(trainer, images, labels)

    def test_ibrar_step_is_allocation_free(self):
        self._ibrar(sigma=1.5)

    def test_ibrar_median_sigma_builds_no_eager_nodes(self):
        # The paper-default sigma=None path re-derives the median bandwidth
        # per batch inside the plan (pooled scratch): still zero eager graph
        # nodes and zero steady-state allocations.
        self._ibrar(sigma=None)


class TestTelemetryRollback:
    def test_mid_step_failure_rolls_back_forward_counters(self):
        # A compiled batch that fails partway re-runs eagerly (where the
        # ForwardPassCounter sees it); whatever the partial step recorded
        # must be rolled back or the run double-counts those forwards.
        from repro.compile.graph import CompileError
        from repro.training.adversarial import CrossEntropyLoss

        trainer = _compiled(CrossEntropyLoss())
        images, labels = _warm(trainer)
        before = (
            trainer.stats.compiled_forward_calls,
            trainer.stats.compiled_forward_examples,
            trainer.stats.attack_grad_calls,
        )

        def failing_step(tr, ctx, batch_images, batch_labels):
            tr.count_forwards(3, 3 * len(batch_labels))
            tr.stats.attack_grad_calls += 5
            raise CompileError("mid-step failure")

        trainer.adapter.step = failing_step
        assert trainer.train_batch(images, labels) is None
        after = (
            trainer.stats.compiled_forward_calls,
            trainer.stats.compiled_forward_examples,
            trainer.stats.attack_grad_calls,
        )
        assert after == before


class TestCaptureCounts:
    def test_pgd_at_one_capture_per_signature(self):
        trainer = _compiled(PGDAdversarialLoss(steps=2, seed=0))
        rng = np.random.default_rng(0)
        full = rng.random((20, 3, 16, 16))
        labels = rng.integers(0, 10, 20)
        for _ in range(3):
            trainer.train_batch(full, labels)
        assert trainer.stats.captures == 1  # one trace serves the plan pair
        assert trainer.stats.plans_built == 2  # training plan + lowered attack plan
        ragged = full[:7]
        for _ in range(3):
            trainer.train_batch(ragged, labels[:7])
        assert trainer.stats.captures == 2  # exactly one more for the new signature
        assert trainer.stats.plans_built == 4

    def test_trades_one_capture_per_signature(self):
        trainer = _compiled(TRADESLoss(steps=2, seed=0))
        _warm(trainer)
        assert trainer.stats.captures == 1
        assert trainer.stats.plans_built == 3  # two training plans + attack plan

    def test_mode_invariant_model_builds_the_pair(self):
        # No batch norm: the eval lowering changes nothing, and one capture
        # still yields a parameter-gradient training plan and an input-
        # gradient attack plan.  The compiled step equals eager bitwise.
        import copy

        model = MLP(input_dim=48, num_classes=10, hidden_dims=(12, 8), seed=0)
        strategy = PGDAdversarialLoss(steps=2, seed=0)
        trainer = _compiled(strategy, model=model)
        rng = np.random.default_rng(0)
        images = rng.random((10, 48))
        labels = rng.integers(0, 10, 10)
        assert trainer.train_batch(images, labels) is None  # first sighting
        replica, optimizer = copy.deepcopy((model, trainer.optimizer))
        eager_loss = strategy(replica, images, labels)
        optimizer.zero_grad()
        eager_loss.backward()
        optimizer.step_with_grads([p.grad for p in optimizer.parameters])
        loss, _ = trainer.train_batch(images, labels)
        assert trainer.stats.captures == 1
        assert trainer.stats.plans_built == 2
        ctx = next(v for v in trainer._cache.entries.values() if v is not None)
        assert (ctx.train_a.grad_mode, ctx.attack.grad_mode) == ("params", "input")
        assert loss == float(eager_loss.item())
        for compiled, eager in zip(model.parameters(), replica.parameters()):
            assert np.array_equal(compiled.data, eager.data)
