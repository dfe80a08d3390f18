"""Plan-executor profiling: per-op tables, parity, span trees, attack telemetry."""

from __future__ import annotations

import numpy as np
import pytest

from repro.compile import compile_model
from repro.data import ArrayDataset, DataLoader, synthetic_cifar10
from repro.models import SmallCNN
from repro.nn import get_default_dtype
from repro.nn.optim import SGD, StepLR
from repro.obs import profiler, trace
from repro.training import Trainer
from repro.training.adversarial import PGDAdversarialLoss


@pytest.fixture(scope="module")
def dataset():
    return synthetic_cifar10(n_train=120, n_test=40, image_size=16, seed=0)


def signature(batch, channels=3, size=16):
    import numpy as np
    dtype = np.dtype(get_default_dtype()).name
    return f"{batch}x{channels}x{size}x{size}:{dtype}"


def eval_cnn(seed=0):
    model = SmallCNN(num_classes=10, image_size=16, seed=seed)
    model.eval()
    return model


def pgd_trainer(dataset, seed=0):
    model = SmallCNN(num_classes=10, image_size=16, seed=seed)
    optimizer = SGD(model.parameters(), lr=0.05, momentum=0.9)
    trainer = Trainer(
        model,
        PGDAdversarialLoss(steps=3, seed=seed),
        optimizer=optimizer,
        scheduler=StepLR(optimizer),
        compile=True,
    )
    loader = DataLoader(
        ArrayDataset(dataset.x_train, dataset.y_train),
        batch_size=40,
        shuffle=True,
        drop_last=True,
        seed=seed,
    )
    return model, trainer, loader


class TestCompiledModelProfile:
    def test_empty_until_enabled(self, dataset):
        compiled = compile_model(eval_cnn(), dataset.x_test[:8])
        compiled.predict(dataset.x_test[:8])
        assert compiled.profile() == {}

    def test_per_op_profile_after_warm_replay(self, dataset):
        compiled = compile_model(eval_cnn(), dataset.x_test[:8])
        compiled.predict(dataset.x_test[:8])  # warm replay, unprofiled
        profiler.enable()
        compiled.predict(dataset.x_test[:8])
        compiled.predict(dataset.x_test[:8])
        profile = compiled.profile()
        assert list(profile) == [signature(8)]
        entry = profile[signature(8)]
        ops = entry["ops"]
        assert "conv2d" in ops
        conv = ops["conv2d"]
        assert conv["calls"] > 0 and conv["total_ms"] >= 0 and conv["bytes"] > 0
        # The plan's buffer pool high-water marks ride along.
        assert entry["pool"]["allocations"] > 0 and entry["pool"]["bytes"] > 0

    def test_gradient_replay_records_bwd_kinds(self, dataset):
        compiled = compile_model(eval_cnn(), dataset.x_test[:8])
        labels = dataset.y_test[:8]
        compiled.value_and_grad(dataset.x_test[:8], labels)
        profiler.enable()
        compiled.value_and_grad(dataset.x_test[:8], labels)
        ops = compiled.profile()[signature(8)]["ops"]
        assert "conv2d.bwd" in ops
        assert "softmax_ce.fused" in ops


class TestCompiledTrainingProfile:
    def test_warm_pgd_at_step_produces_profile_and_span_tree(self, dataset):
        model, trainer, loader = pgd_trainer(dataset)
        trainer.fit(loader, epochs=1)  # plans build on second batch sighting
        events = []
        trace.enable(sink=events.append)
        profiler.enable()
        images, labels = next(iter(loader))
        with trace.span("test.step") as root:
            outcome = trainer._compiled_batch(images, labels)
        assert outcome is not None  # the step ran compiled, not eager

        # -- per-op profile, signature -> op kind -> {calls, total_ms, bytes}
        profile = trainer.profile()
        assert profile, "profiled warm step must produce a plan profile"
        plan_signature, entry = next(iter(profile.items()))
        sig_dtype = signature(0).split(":")[1]
        assert plan_signature.endswith(":" + sig_dtype) and "x" in plan_signature
        for kind in ("conv2d", "conv2d.bwd"):
            stat = entry["ops"][kind]
            assert stat["calls"] >= 1
            assert stat["total_ms"] >= 0.0
            assert stat["bytes"] > 0

        # -- coherent span tree: compile.train_batch under the test root
        step = next(e for e in events if e["name"] == "compile.train_batch")
        assert step["trace_id"] == root.trace_id
        assert step["parent_id"] == root.span_id

    def test_profiling_on_is_bitwise_identical_to_off(self, dataset):
        model_a, trainer_a, loader_a = pgd_trainer(dataset)
        trainer_a.fit(loader_a, epochs=2)

        profiler.enable()
        model_b, trainer_b, loader_b = pgd_trainer(dataset)
        trainer_b.fit(loader_b, epochs=2)
        profiler.disable()

        assert trainer_a.history.train_loss == trainer_b.history.train_loss
        state_a, state_b = model_a.state_dict(), model_b.state_dict()
        for key, value in state_a.items():
            assert value.tobytes() == state_b[key].tobytes(), key
        assert trainer_b.profile(), "the profiled run must also record ops"


class TestAttackTelemetryRegistry:
    def test_attack_telemetry_mirrors_onto_registry(self, dataset):
        from repro.attacks import AttackEngine, AttackSpec
        from repro.obs import get_registry

        model = SmallCNN(num_classes=10, image_size=16, seed=0)
        model.eval()
        engine = AttackEngine({"fgsm": AttackSpec("fgsm", dict(eps=8 / 255))})
        before = get_registry().counter(
            "attack.examples_attacked", {"attack": "fgsm"}
        ).value
        result = engine.run(model, dataset.x_test[:16], dataset.y_test[:16])
        after = get_registry().counter(
            "attack.examples_attacked", {"attack": "fgsm"}
        ).value
        entry = next(t for t in result.telemetry if t.name == "fgsm")
        assert after - before == entry.examples_attacked
        accuracy = get_registry().gauge("attack.accuracy", {"attack": "fgsm"}).value
        assert accuracy == entry.accuracy
