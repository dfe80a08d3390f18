"""Compiled training: parameter gradcheck, eager parity, pooling, fallbacks."""

from __future__ import annotations

import numpy as np
import pytest

from repro.compile import Plan, capture_forward, optimize
from repro.compile.training import CompiledTrainer, build_adapter
from repro.core.config import IBRARConfig
from repro.core.ibrar import IBRAR
from repro.core.losses import MILoss
from repro.data import ArrayDataset, DataLoader, synthetic_cifar10
from repro.models import SmallCNN
from repro.nn import Tensor
from repro.nn import functional as F
from repro.nn.modules import BatchNorm2d
from repro.nn.optim import SGD, StepLR
from repro.training import Trainer
from repro.training.adversarial import (
    CrossEntropyLoss,
    MARTLoss,
    PGDAdversarialLoss,
    TRADESLoss,
)


def tiny_model(seed: int = 0) -> SmallCNN:
    return SmallCNN(num_classes=3, image_size=8, base_channels=2, hidden_dim=4, seed=seed)


def make_loader(dataset, batch_size=40, seed=0):
    return DataLoader(
        ArrayDataset(dataset.x_train, dataset.y_train),
        batch_size=batch_size,
        shuffle=True,
        drop_last=True,
        seed=seed,
    )


def bn_state(model):
    return [
        (m, m.running_mean.copy(), m.running_var.copy())
        for m in model.modules()
        if isinstance(m, BatchNorm2d)
    ]


def restore_bn(saved):
    for module, mean, var in saved:
        module.running_mean[...] = mean
        module.running_var[...] = var


class TestParameterGradcheck:
    """Finite-difference check of compiled *parameter* gradients.

    Covers every parameter kind of the paper's models: conv weights,
    batch-norm gamma/beta (training mode, through the batch statistics),
    and fully connected weights/biases.
    """

    def test_compiled_param_grads_match_finite_differences(self):
        rng = np.random.default_rng(0)
        x = rng.random((4, 3, 8, 8))
        y = rng.integers(0, 3, 4)
        model = tiny_model()
        model.train()
        saved = bn_state(model)
        graph = optimize(capture_forward(model, x, training=True, with_hidden=True))
        plan = Plan(graph, grad="params", seed_ids=tuple(graph.outputs.values()))
        plan.forward(x)
        _, seed = plan.ce_loss_and_seed(y)
        plan.run_backward({plan.graph.output_id: seed})
        analytic = {pid: np.array(g, copy=True) for pid, g in plan.param_grads().items()}
        restore_bn(saved)

        def eager_loss() -> float:
            value = float(F.cross_entropy(model.forward(Tensor(x)), y).item())
            restore_bn(saved)  # the training forward updates running stats
            return value

        eps = 1e-6
        checked = 0
        for name, param in model.named_parameters():
            grad = analytic[id(param)]
            flat = param.data.reshape(-1)
            grad_flat = grad.reshape(-1)
            # Check a deterministic subset of entries per parameter (all of
            # them for small tensors) to keep the test fast.
            indices = range(0, flat.size, max(1, flat.size // 12))
            for index in indices:
                original = flat[index]
                flat[index] = original + eps
                plus = eager_loss()
                flat[index] = original - eps
                minus = eager_loss()
                flat[index] = original
                numeric = (plus - minus) / (2.0 * eps)
                assert grad_flat[index] == pytest.approx(numeric, rel=1e-4, abs=1e-6), (
                    f"parameter gradient mismatch at {name}[{index}]"
                )
                checked += 1
        assert checked > 50  # conv + BN + fc entries were all exercised


class TestTrainingParity:
    """Compiled and eager training must follow the same trajectory."""

    @pytest.fixture(scope="class")
    def dataset(self):
        return synthetic_cifar10(n_train=160, n_test=64, image_size=16, seed=0)

    def _fit(self, dataset, strategy_factory, compile, epochs=2, seed=0):
        model = SmallCNN(num_classes=10, image_size=16, base_channels=4, hidden_dim=16, seed=seed)
        optimizer = SGD(model.parameters(), lr=0.05, momentum=0.9, weight_decay=1e-3)
        trainer = Trainer(
            model,
            strategy_factory(),
            optimizer=optimizer,
            scheduler=StepLR(optimizer),
            compile=compile,
        )
        history = trainer.fit(make_loader(dataset), epochs=epochs)
        return model, history, trainer

    def _assert_parity(self, dataset, strategy_factory, epochs=2, min_compiled=1):
        eager_model, eager_history, _ = self._fit(dataset, strategy_factory, False, epochs)
        compiled_model, compiled_history, trainer = self._fit(
            dataset, strategy_factory, True, epochs
        )
        stats = trainer.compile_stats
        assert stats is not None and stats.compiled_batches >= min_compiled
        assert np.allclose(eager_history.train_loss, compiled_history.train_loss, rtol=1e-7)
        assert eager_history.train_accuracy == compiled_history.train_accuracy
        eager_state = eager_model.state_dict()
        compiled_state = compiled_model.state_dict()
        for key, value in eager_state.items():
            assert np.allclose(value, compiled_state[key], rtol=1e-6, atol=1e-9), key

    def test_ce_parity(self, dataset):
        self._assert_parity(dataset, CrossEntropyLoss)

    def test_pgd_at_parity(self, dataset):
        self._assert_parity(dataset, lambda: PGDAdversarialLoss(steps=3, seed=0))

    def test_trades_parity(self, dataset):
        self._assert_parity(dataset, lambda: TRADESLoss(steps=2, seed=0), epochs=1)

    def test_mart_parity(self, dataset):
        self._assert_parity(dataset, lambda: MARTLoss(steps=2, seed=0), epochs=1)

    def test_pgd_at_ibrar_parity_with_mask_refresh(self, dataset):
        """The acceptance trajectory: >=2 epochs of PGD-AT + IB-RAR.

        ``mask_refresh_every=1`` also exercises the plans reading the Eq. (3)
        channel mask in place when it changes between epochs.
        """

        def run(compile):
            model = SmallCNN(
                num_classes=10, image_size=16, base_channels=4, hidden_dim=16, seed=0
            )
            ibrar = IBRAR(
                model,
                IBRARConfig(alpha=0.05, beta=0.01, mask_refresh_every=1),
                base_loss=PGDAdversarialLoss(steps=3, seed=0),
                lr=0.05,
                compile=compile,
            )
            result = ibrar.fit(
                dataset.x_train, dataset.y_train, epochs=2, batch_size=40, seed=0
            )
            return model, result.history

        eager_model, eager_history = run(False)
        compiled_model, compiled_history = run(True)
        assert compiled_history.compile_stats is not None
        assert compiled_history.compile_stats["compiled_batches"] >= 1
        assert np.allclose(eager_history.train_loss, compiled_history.train_loss, rtol=1e-7)
        eager_state = eager_model.state_dict()
        compiled_state = compiled_model.state_dict()
        for key, value in eager_state.items():
            assert np.allclose(value, compiled_state[key], rtol=1e-6, atol=1e-9), key
        # The Eq. (3) masks must agree as well.
        if eager_model.channel_mask is not None:
            assert np.array_equal(eager_model.channel_mask, compiled_model.channel_mask)

    def test_bn_running_stats_follow_eager(self, dataset):
        eager_model, _, _ = self._fit(dataset, CrossEntropyLoss, False, epochs=1)
        compiled_model, _, _ = self._fit(dataset, CrossEntropyLoss, True, epochs=1)
        for eager_bn, compiled_bn in zip(
            (m for m in eager_model.modules() if isinstance(m, BatchNorm2d)),
            (m for m in compiled_model.modules() if isinstance(m, BatchNorm2d)),
        ):
            assert np.allclose(eager_bn.running_mean, compiled_bn.running_mean, rtol=1e-9)
            assert np.allclose(eager_bn.running_var, compiled_bn.running_var, rtol=1e-9)


class TestBufferPooling:
    def test_zero_steady_state_allocations(self):
        dataset = synthetic_cifar10(n_train=120, n_test=16, image_size=16, seed=0)
        model = SmallCNN(num_classes=10, image_size=16, base_channels=4, hidden_dim=16, seed=0)
        optimizer = SGD(model.parameters(), lr=0.05, momentum=0.9)
        trainer = Trainer(
            model,
            PGDAdversarialLoss(steps=2, seed=0),
            optimizer=optimizer,
            scheduler=StepLR(optimizer),
            compile=True,
        )
        loader = make_loader(dataset)
        trainer.fit(loader, epochs=2)  # builds + warms plans (incl. CE scratch)
        compiled = trainer._compiled_trainer
        assert compiled is not None and compiled.plans >= 2
        before = compiled.pool_allocations
        trainer.fit(loader, epochs=1)
        assert compiled.pool_allocations - before == 0
        stats = trainer.compile_stats
        assert stats.compiled_batches >= 3


class TestFallbacks:
    def test_unsupported_strategy_stays_eager(self):
        dataset = synthetic_cifar10(n_train=80, n_test=16, image_size=16, seed=0)

        class CustomLoss:
            name = "custom"

            def __call__(self, model, images, labels):
                return F.cross_entropy(model.forward(Tensor(images)), labels)

        assert build_adapter(CustomLoss()) is None
        model = SmallCNN(num_classes=10, image_size=16, base_channels=4, hidden_dim=16, seed=0)
        trainer = Trainer(model, CustomLoss(), compile=True)
        history = trainer.fit(make_loader(dataset), epochs=1)
        stats = trainer.compile_stats
        assert stats.compiled_batches == 0 and stats.eager_batches >= 1
        assert history.compile_stats["compiled_batches"] == 0

    def test_custom_optimizer_without_fused_step_stays_eager(self):
        # A user optimizer implementing only step() has no in-place fused
        # path; compile=True must degrade to fully-eager training, not crash.
        from repro.nn.optim import Optimizer

        class PlainSGD(Optimizer):
            def step(self):
                for param in self.parameters:
                    if param.grad is not None:
                        param.data = param.data - self.lr * param.grad

        dataset = synthetic_cifar10(n_train=80, n_test=16, image_size=16, seed=0)
        model = SmallCNN(num_classes=10, image_size=16, base_channels=4, hidden_dim=16, seed=0)
        optimizer = PlainSGD(model.parameters(), lr=0.05)
        trainer = Trainer(
            model, CrossEntropyLoss(), optimizer=optimizer, scheduler=StepLR(optimizer),
            compile=True,
        )
        history = trainer.fit(make_loader(dataset), epochs=1)
        stats = trainer.compile_stats
        assert stats.compiled_batches == 0 and stats.eager_batches >= 1
        assert np.isfinite(history.final().train_loss)

    def test_mi_on_adversarial_is_compiled(self):
        # Since the in-plan MI lift, mi_on_adversarial=True no longer rejects
        # capture: the MI hidden forward replays the base attack in plan.
        strategy = MILoss(
            IBRARConfig(alpha=0.1, beta=0.01, mi_on_adversarial=True), num_classes=10
        )
        assert build_adapter(strategy) is not None

    def test_mi_on_adversarial_with_unsupported_base_stays_eager(self):
        class CustomLoss:
            name = "custom"

            def __call__(self, model, images, labels):
                return F.cross_entropy(model.forward(Tensor(images)), labels)

        strategy = MILoss(
            IBRARConfig(alpha=0.1, beta=0.01, mi_on_adversarial=True),
            num_classes=10,
            base_loss=CustomLoss(),
        )
        assert build_adapter(strategy) is None

    def test_second_sighting_compiles_ragged_batches_fall_back(self):
        rng = np.random.default_rng(0)
        model = SmallCNN(num_classes=10, image_size=16, base_channels=4, hidden_dim=16, seed=0)
        model.train()
        optimizer = SGD(model.parameters(), lr=0.05, momentum=0.9)
        compiled = CompiledTrainer(model, optimizer, CrossEntropyLoss())
        full = rng.random((10, 3, 16, 16))
        labels = rng.integers(0, 10, 10)
        assert compiled.train_batch(full, labels) is None  # first sighting
        assert compiled.train_batch(full, labels) is not None  # compiled
        ragged = full[:3]
        assert compiled.train_batch(ragged, labels[:3]) is None  # first sighting
        assert compiled.train_batch(ragged, labels[:3]) is not None
        assert compiled.stats.compiled_batches == 2
        assert compiled.stats.eager_batches == 2

    def test_full_signature_cache_counts_refused_batches_as_fallbacks(self):
        # Once the cache holds its capacity of signatures, one more never
        # compiles: its first sighting (the cache still had room) is the
        # benign warmup, and every later batch of it is a genuine fallback.
        from repro.compile.training import _MAX_SIGNATURES

        rng = np.random.default_rng(0)
        model = SmallCNN(num_classes=10, image_size=16, base_channels=4, hidden_dim=16, seed=0)
        model.train()
        optimizer = SGD(model.parameters(), lr=0.05, momentum=0.9)
        compiled = CompiledTrainer(model, optimizer, CrossEntropyLoss())
        sizes = range(_MAX_SIGNATURES + 1, 0, -1)  # the last one finds the cache full
        x = rng.random((len(sizes), 3, 16, 16))
        y = rng.integers(0, 10, len(sizes))
        path = ""
        for _ in range(6):
            for n in sizes:
                path += "E" if compiled.train_batch(x[:n], y[:n]) is None else "C"
            path += "|"
        full = "C" * _MAX_SIGNATURES + "E|"
        assert path == "E" * len(sizes) + "|" + full * 5
        assert compiled.stats.eager_batches == len(sizes) + 5
        assert compiled.stats.fallbacks == 5

    def test_reallocated_parameter_storage_falls_back_then_recompiles(self):
        rng = np.random.default_rng(0)
        model = SmallCNN(num_classes=10, image_size=16, base_channels=4, hidden_dim=16, seed=0)
        model.train()
        optimizer = SGD(model.parameters(), lr=0.05, momentum=0.9)
        compiled = CompiledTrainer(model, optimizer, CrossEntropyLoss())
        x = rng.random((6, 3, 16, 16))
        y = rng.integers(0, 10, 6)
        compiled.train_batch(x, y)
        assert compiled.train_batch(x, y) is not None
        # Rebinding param.data (as load_state_dict does) moves the storage
        # the plan aliases; the plan must notice and fall back for that batch...
        parameter = model.parameters()[0]
        parameter.data = parameter.data.copy()
        assert compiled.train_batch(x, y) is None
        assert compiled.stats.eager_batches >= 2
        # ...and the next sighting recompiles against the new storage.
        assert compiled.train_batch(x, y) is not None

    def test_milosss_subclass_with_overridden_math_stays_eager(self):
        class CustomMILoss(MILoss):
            def loss_and_logits(self, model, images, labels):
                loss, logits = super().loss_and_logits(model, images, labels)
                return loss * 2.0, logits

        strategy = CustomMILoss(IBRARConfig(alpha=0.1, beta=0.01), num_classes=10)
        assert build_adapter(strategy) is None


class TestStrategySwap:
    def test_reassigned_loss_strategy_rebuilds_adapter(self):
        # The convergence-rescue pattern: train under one loss, swap
        # trainer.loss_strategy, keep training.  Compiled batches must pick
        # the new objective up, not keep replaying the stale adapter.
        dataset = synthetic_cifar10(n_train=80, n_test=16, image_size=16, seed=0)
        loader = make_loader(dataset)
        model = SmallCNN(num_classes=10, image_size=16, base_channels=4, hidden_dim=16, seed=0)
        trainer = Trainer(model, CrossEntropyLoss(), compile=True)
        trainer.fit(loader, epochs=1)
        first = trainer._compiled_trainer
        assert first is not None and first.adapter is not None
        compiled_before_swap = trainer.compile_stats.compiled_batches
        trainer.loss_strategy = PGDAdversarialLoss(steps=2, seed=0)
        trainer.fit(loader, epochs=1)
        second = trainer._compiled_trainer
        assert second is not first
        assert second.loss_strategy is trainer.loss_strategy
        assert second.stats.attack_grad_calls > 0  # the PGD adapter really ran
        # Counters accumulate across the swap: the retired instance's batches
        # stay in the totals and per-epoch deltas never go negative.
        total = trainer.compile_stats
        assert total.compiled_batches >= compiled_before_swap
        for record in trainer.history:
            assert record.extra.get("compiled_batches", 0.0) >= 0.0
            assert record.extra.get("eager_batches", 0.0) >= 0.0
        assert total.as_dict() == trainer.history.compile_stats


class TestLiveModuleState:
    """Plans alias module state: mask changes and in-place steps keep them."""

    @pytest.mark.parametrize("dtype", ["float64", "float32"])
    def test_mask_and_steps_keep_plans(self, dtype):
        import copy

        from repro.compile import compile_model
        from repro.nn import no_grad, set_default_dtype
        from test_loss_parity import F32_LOSS_RTOL, F32_PARAM_TOL

        rtol, atol = (0.0, 1e-12) if dtype == "float64" else (F32_LOSS_RTOL, F32_PARAM_TOL)
        previous = set_default_dtype(dtype)
        try:
            rng = np.random.default_rng(0)
            model = SmallCNN(num_classes=10, image_size=16, base_channels=4, hidden_dim=16, seed=0)
            x = rng.random((6, 3, 16, 16)).astype(dtype)
            y = rng.integers(0, 10, 6)
            model.train()
            trainer = CompiledTrainer(
                model, SGD(model.parameters(), lr=0.05, momentum=0.9), CrossEntropyLoss()
            )
            for _ in range(2):  # the second sighting builds
                trainer.train_batch(x, y)
            model.eval()
            compiled = compile_model(model, x)
            model.train()
            captures, built = trainer.stats.captures, trainer.stats.plans_built

            first = np.ones(model.last_conv_channels)
            first[::3] = 0.0
            second = np.ones(model.last_conv_channels)
            second[1::2] = 0.0
            for mask in (first, second, None):  # install, change, clear
                model.set_channel_mask(mask)
                replica = copy.deepcopy(model)
                eager_loss = float(F.cross_entropy(replica.forward(Tensor(x)), y).item())
                outcome = trainer.train_batch(x, y)  # an in-place optimizer step
                assert outcome is not None, "the batch fell back to eager"
                assert outcome[0] == pytest.approx(eager_loss, rel=rtol, abs=atol)
                model.eval()
                with no_grad():
                    eager = model.forward(Tensor(x)).data
                np.testing.assert_allclose(compiled(x), eager, rtol=rtol, atol=atol)
                model.train()
        finally:
            set_default_dtype(previous)
        assert trainer.stats.captures == captures and trainer.stats.plans_built == built
        assert trainer.stats.compiled_batches == 4 and trainer.stats.fallbacks == 0
        assert compiled.stats.plans_built == 1 and compiled.stats.fallback_calls == 0
        mask = model._mask.data
        assert mask.dtype == np.dtype(dtype)
        plans = [plan for ctx in trainer._cache.entries.values() for plan in ctx.plans]
        plans += list(compiled._plans.values())
        assert len(plans) == 2
        for plan in plans:
            (leaf,) = [
                n for n in plan.graph.nodes if n.op == "const" and n.shape == mask.shape
            ]
            assert np.shares_memory(plan.values[leaf.id], mask)


class TestPlanLifetime:
    def test_dropped_owners_free_plans_at_once(self):
        # Training plans hold hundreds of MB on paper-sized models: dropping
        # their owner must free them at once, not at the next cyclic
        # collection.
        import gc
        import weakref

        rng = np.random.default_rng(0)
        x = rng.random((6, 3, 16, 16))
        y = rng.integers(0, 10, 6)
        model = SmallCNN(num_classes=10, image_size=16, base_channels=4, hidden_dim=16, seed=0)
        gc.collect()
        gc.disable()
        try:
            ibrar = IBRAR(model, IBRARConfig(alpha=0.05, beta=0.01), compile=True)
            ibrar.fit(x, y, epochs=2, batch_size=3)
            contexts = ibrar.trainer._compiled_trainer._cache.entries.values()
            plans = [weakref.ref(plan) for ctx in contexts for plan in ctx.plans]
            assert len(plans) == 1
            del ibrar, contexts
            assert [ref() for ref in plans] == [None]
        finally:
            gc.enable()

    def test_dropped_compiled_model_frees_plans_at_once(self):
        # An attack engine run builds a CompiledModel per run: its plans
        # must go with it, not wait for a cyclic collection.
        import gc
        import weakref

        from repro.compile import compile_model

        rng = np.random.default_rng(0)
        x = rng.random((6, 3, 16, 16))
        y = rng.integers(0, 10, 6)
        model = SmallCNN(num_classes=10, image_size=16, base_channels=4, hidden_dim=16, seed=0)
        model.eval()
        gc.collect()
        gc.disable()
        try:
            compiled = compile_model(model, x)
            compiled.value_and_grad(x, y)
            compiled(x[:3])
            compiled(x[:3])  # a second signature, built by the cache's builder
            plans = [weakref.ref(plan) for plan in compiled._plans.values()]
            assert len(plans) == 2
            del compiled
            assert [ref() for ref in plans] == [None, None]
        finally:
            gc.enable()


class TestCompiledEvalHooks:
    def test_hook_with_unrelated_second_parameter_stays_plain(self):
        # Eval hooks are always called as hook(model): neither an unrelated
        # second parameter nor one named ``compiled`` receives anything.
        dataset = synthetic_cifar10(n_train=80, n_test=16, image_size=16, seed=0)
        model = SmallCNN(num_classes=10, image_size=16, base_channels=4, hidden_dim=16, seed=0)
        seen = []

        def natural(m, batch_size=128):
            seen.append(("natural", m, batch_size))
            return 0.5

        def adversarial(m, compiled=None):
            seen.append(("adversarial", m, compiled))
            return 0.25

        trainer = Trainer(
            model, CrossEntropyLoss(), eval_natural=natural, eval_adversarial=adversarial,
            compile=True,
        )
        history = trainer.fit(make_loader(dataset), epochs=1)
        assert seen == [("natural", model, 128), ("adversarial", model, None)]
        assert history.final().natural_accuracy == 0.5
        assert history.final().adversarial_accuracy == 0.25


class TestSpecPlumbing:
    def test_train_compile_joins_training_hash_only_when_enabled(self):
        from repro.experiments import ExperimentSpec

        base = ExperimentSpec(dataset="synthetic", model="smallcnn", epochs=1)
        compiled = base.with_(train_compile=True)
        assert compiled.training_hash != base.training_hash
        assert compiled.content_hash != base.content_hash
        assert "train_compile" not in base.training_dict()
        revived = ExperimentSpec.from_json(compiled.to_json())
        assert revived.train_compile is True
        assert revived.training_hash == compiled.training_hash

    def test_hsic_estimator_version_splits_ibrar_hashes_only(self):
        # HSIC numerics changes (the cached-Gram fast path, then the traced
        # compiled terms and the tie-exact mask) version IB-RAR training
        # hashes (stale cached checkpoints recompute); HSIC-free specs keep
        # hash shape untouched.
        from repro.experiments import ExperimentSpec

        plain = ExperimentSpec(dataset="synthetic", model="smallcnn", epochs=1)
        ibrar = plain.with_(ibrar=IBRARConfig(alpha=0.1, beta=0.01))
        named = plain.with_(loss="ib-rar-mi")
        assert "hsic" not in plain.training_dict()
        assert ibrar.training_dict()["hsic"] == "traced-v3"
        assert named.training_dict()["hsic"] == "traced-v3"
        # Round trip through as_dict (which emits the derived key).
        revived = ExperimentSpec.from_dict(ibrar.as_dict())
        assert revived.training_hash == ibrar.training_hash

    def test_float32_spec_round_trips_within_matching_session(self):
        from repro.experiments import ExperimentSpec, ExperimentSpecError
        from repro.nn import set_default_dtype

        spec = ExperimentSpec(dataset="synthetic", model="smallcnn", epochs=1)
        previous = set_default_dtype("float32")
        try:
            payload = spec.as_dict()
            assert payload["dtype"] == "float32"
            revived = ExperimentSpec.from_dict(payload)
            assert revived.training_hash == spec.training_hash
        finally:
            set_default_dtype(previous)
        # Reviving a float32 spec in a float64 session is an error, not a
        # silent hash change.
        with pytest.raises(ExperimentSpecError):
            ExperimentSpec.from_dict(payload)
