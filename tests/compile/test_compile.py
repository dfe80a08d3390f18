"""Compiled execution: capture, passes, identity, fallback, buffer pooling."""

from __future__ import annotations

from collections import OrderedDict

import numpy as np
import pytest

from repro.attacks import AttackEngine, AttackSpec
from repro.compile import (
    CompileError,
    capture_forward,
    compile_model,
    linf_step,
    lookahead_point,
    optimize,
)
from repro.compile.executor import Plan
from repro.compile.graph import Graph, Node
from repro.experiments import ExperimentSpec
from repro.models import MLP, SmallCNN, ResNet18, VGG16
from repro.models.base import ImageClassifier
from repro.models.wide_resnet import WideResNet
from repro.nn import Module, Tensor, no_grad
from repro.nn.modules import BatchNorm2d, Conv2d, Linear
from repro.nn import functional as F
from repro.nn import tensor as tensor_mod


@pytest.fixture()
def batch(rng):
    return rng.random((6, 3, 16, 16))


@pytest.fixture()
def labels():
    return np.arange(6) % 10


def eager_value_and_grad(model, images, labels):
    x = Tensor(images, requires_grad=True)
    loss = F.cross_entropy(model.forward(x), labels)
    loss.backward()
    return float(loss.item()), x.grad


class NamedConv(Module):
    """Conv (named hidden output ``pre``) -> optional BN -> ReLU -> Linear."""

    def __init__(self, batch_norm: bool) -> None:
        super().__init__()
        rng = np.random.default_rng(0)
        self.conv = Conv2d(3, 4, 3, padding=1, rng=rng)
        self.bn = BatchNorm2d(4) if batch_norm else None
        self.fc = Linear(4 * 8 * 8, 3, rng=rng)

    def forward_with_hidden(self, x):
        pre = self.conv(x)
        h = pre if self.bn is None else self.bn(pre)
        logits = self.fc(h.relu().reshape((x.shape[0], -1)))
        return logits, OrderedDict(pre=pre)

    def forward(self, x):
        return self.forward_with_hidden(x)[0]


class TestCapture:
    def test_capture_requires_eval_mode(self, small_cnn, batch):
        small_cnn.train()
        with pytest.raises(CompileError):
            capture_forward(small_cnn, batch)

    def test_capture_records_model_ops(self, small_cnn, batch):
        small_cnn.eval()
        graph = capture_forward(small_cnn, batch)
        counts = graph.op_counts()
        assert counts["conv2d"] == 2
        assert counts["batch_norm2d"] == 2
        assert counts["max_pool2d"] == 2
        assert counts["input"] == 1

    def test_tracing_leaves_eager_untouched(self, small_cnn, batch):
        small_cnn.eval()
        capture_forward(small_cnn, batch)
        with no_grad():
            out = small_cnn.forward(Tensor(batch))
        assert not hasattr(out, "_op")


class TestPasses:
    def test_bn_folding_removes_bn_nodes(self, small_cnn, batch):
        small_cnn.eval()
        graph = capture_forward(small_cnn, batch)
        optimized = optimize(graph)
        counts = optimized.op_counts()
        assert "batch_norm2d" not in counts
        assert counts["conv2d"] == 2

    def test_relu_and_affine_fusion(self, small_cnn, batch):
        small_cnn.eval()
        optimized = optimize(capture_forward(small_cnn, batch))
        counts = optimized.op_counts()
        assert "relu" not in counts  # all fused into conv / bias-add producers
        assert counts["matmul"] == 3  # fc1..fc3, each followed by its bias add
        assert len(optimized) < len(capture_forward(small_cnn, batch))

    def test_maximum_stays_out_of_chains_and_compiles(self, rng):
        class WithMaximum(Module):
            def forward(self, x):
                return (x.maximum(0.3) * 2.0 + 0.1).sum()

        module = WithMaximum()
        module.eval()
        x = rng.random((4, 5))
        plan = Plan(optimize(capture_forward(module, x)))
        x_t = Tensor(x, requires_grad=True)
        eager = (x_t.maximum(0.3) * 2.0 + 0.1).sum()
        assert np.allclose(plan.forward(x), eager.data)
        eager.backward()
        assert np.allclose(plan.backward(np.ones(())), x_t.grad)

    def test_relu_fusion_keeps_aux_inputs(self, rng):
        # fuse_relu rebuilds the graph; its aux leaves must survive so a
        # plan can still bind and differentiate them.
        nodes = [
            Node(0, "input", (), {}, (4, 5), np.float64),
            Node(1, "aux", (), {"name": "other"}, (4, 5), np.float64),
            Node(2, "add", (0, 1), {}, (4, 5), np.float64),
            Node(3, "relu", (2,), {}, (4, 5), np.float64),
        ]
        optimized = optimize(Graph(nodes, input_id=0, output_id=3, aux={"other": 1}))
        assert optimized.aux == {"other": 1}
        x, other = rng.normal(size=(4, 5)), rng.normal(size=(4, 5))
        plan = Plan(optimized, aux={"other": other}, grad_aux=("other",))
        assert np.array_equal(plan.forward(x), np.maximum(x + other, 0.0))
        plan.backward(np.ones((4, 5)))
        assert np.array_equal(plan.aux_grad("other"), (x + other > 0).astype(np.float64))

    def test_bn_folding_keeps_aux_inputs(self, small_cnn, batch):
        small_cnn.eval()
        graph = capture_forward(small_cnn, batch)
        logits = graph.output_node
        aux_id = graph.add_aux("other", logits.shape, logits.dtype)
        graph.add_op("add", (graph.output_id, aux_id), logits.shape, logits.dtype, name="sum")
        optimized = optimize(graph)
        assert "batch_norm2d" not in optimized.op_counts()
        assert optimized.aux == {"other": aux_id}

    def test_relu_fusion_keeps_named_output_value(self, rng):
        # A hidden output feeding a ReLU keeps its pre-activation value, and
        # a gradient seeded there is not ReLU-masked.
        model = NamedConv(batch_norm=False)
        model.train()
        x = rng.normal(size=(2, 3, 8, 8))
        graph = optimize(
            capture_forward(model, x, training=True, with_hidden=True, live_params=True)
        )
        pre_id = graph.outputs["pre"]
        plan = Plan(graph, grad="params", seed_ids=(pre_id,))
        plan.forward(x)
        logits, hidden = model.forward_with_hidden(Tensor(x))
        np.testing.assert_allclose(
            plan.output_value("pre"), hidden["pre"].data, rtol=0, atol=1e-12
        )
        seed_out = rng.normal(size=logits.shape)
        seed_pre = rng.normal(size=hidden["pre"].shape)
        plan.run_backward({graph.output_id: seed_out, pre_id: seed_pre})
        ((logits * seed_out).sum() + (hidden["pre"] * seed_pre).sum()).backward()
        grads = plan.param_grads()
        for param in model.parameters():
            np.testing.assert_allclose(grads[id(param)], param.grad, rtol=1e-12, atol=1e-12)

    def test_bn_folding_keeps_named_output_value(self, rng):
        # A hidden conv output feeding BN then ReLU is not folded over.
        model = NamedConv(batch_norm=True)
        x = rng.normal(size=(2, 3, 8, 8))
        with no_grad():
            model.forward(Tensor(x))  # non-trivial running statistics
        model.eval()
        plan = Plan(optimize(capture_forward(model, x, with_hidden=True)))
        plan.forward(x)
        with no_grad():
            _, hidden = model.forward_with_hidden(Tensor(x))
        np.testing.assert_allclose(
            plan.output_value("pre"), hidden["pre"].data, rtol=0, atol=1e-12
        )


class TestIdentity:
    def test_small_cnn_forward_and_grad(self, small_cnn, batch, labels):
        small_cnn.eval()
        compiled = compile_model(small_cnn, batch)
        with no_grad():
            eager = small_cnn.forward(Tensor(batch)).data
        assert np.allclose(eager, compiled(batch), rtol=1e-8, atol=1e-10)
        eager_loss, eager_grad = eager_value_and_grad(small_cnn, batch, labels)
        loss, grad = compiled.value_and_grad(batch, labels)
        assert np.isclose(eager_loss, loss, rtol=1e-10)
        assert np.allclose(eager_grad, grad, rtol=1e-7, atol=1e-12)

    def test_unfolded_eval_batch_norm(self, rng):
        # Each pre-activation block's input BN and the final BN read an add
        # or a conv with a second consumer (the identity shortcut), so they
        # cannot fold: the eval BN kernel pair over constant parameters
        # stays on the path, checked against eager.
        model = WideResNet(depth=10, widen_factor=1, num_classes=10, width_multiplier=0.5, seed=0)
        x = rng.random((4, 3, 16, 16))
        y = np.arange(4)
        with no_grad():
            for _ in range(2):
                model.forward(Tensor(x))  # non-trivial running statistics
        model.eval()
        compiled = compile_model(model, x)
        (plan,) = compiled._plans.values()
        assert plan.graph.op_counts()["batch_norm2d"] == 4
        with no_grad():
            eager = model.forward(Tensor(x)).data
        np.testing.assert_allclose(compiled(x), eager, rtol=0, atol=1e-12)
        eager_loss, eager_grad = eager_value_and_grad(model, x, y)
        loss, grad = compiled.value_and_grad(x, y)
        assert abs(loss - eager_loss) <= 1e-12
        np.testing.assert_allclose(grad, eager_grad, rtol=0, atol=1e-12)

    def test_channel_masked_model(self, batch, labels):
        model = SmallCNN(num_classes=10, image_size=16, base_channels=4, hidden_dim=16, seed=0)
        mask = np.ones(model.last_conv_channels)
        mask[::2] = 0.0
        model.set_channel_mask(mask)
        model.eval()
        compiled = compile_model(model, batch)
        _, eager_grad = eager_value_and_grad(model, batch, labels)
        _, grad = compiled.value_and_grad(batch, labels)
        assert np.allclose(eager_grad, grad, rtol=1e-7, atol=1e-12)

    def test_mlp(self, batch, labels):
        model = MLP(input_dim=3 * 16 * 16, num_classes=10, hidden_dims=(24, 12), seed=0)
        model.eval()
        compiled = compile_model(model, batch)
        _, eager_grad = eager_value_and_grad(model, batch, labels)
        _, grad = compiled.value_and_grad(batch, labels)
        assert np.allclose(eager_grad, grad, rtol=1e-7, atol=1e-12)

    @pytest.mark.parametrize("model_cls", [VGG16, ResNet18])
    def test_deep_models(self, rng, model_cls):
        model = model_cls(num_classes=10, width_multiplier=0.125, seed=0)
        model.eval()
        x = rng.random((3, 3, 32, 32))
        y = np.array([0, 1, 2])
        compiled = compile_model(model, x)
        with no_grad():
            eager = model.forward(Tensor(x)).data
        assert np.allclose(eager, compiled(x), rtol=1e-8, atol=1e-10)
        _, eager_grad = eager_value_and_grad(model, x, y)
        _, grad = compiled.value_and_grad(x, y)
        assert np.allclose(eager_grad, grad, rtol=1e-7, atol=1e-12)

    def test_pool_tie_breaking_matches_eager(self, rng, labels):
        # Quantized inputs force exact ties inside max-pool windows; the
        # compiled winner masks must pick the same (first) element as the
        # eager argmax.
        model = SmallCNN(num_classes=10, image_size=16, base_channels=4, hidden_dim=16, seed=0)
        model.eval()
        x = np.round(rng.random((6, 3, 16, 16)), 1)
        compiled = compile_model(model, x)
        _, eager_grad = eager_value_and_grad(model, x, labels)
        _, grad = compiled.value_and_grad(x, labels)
        assert np.allclose(eager_grad, grad, rtol=1e-7, atol=1e-14)


class TestFallback:
    def test_unseen_shape_falls_back_then_compiles(self, small_cnn, batch, labels):
        small_cnn.eval()
        compiled = compile_model(small_cnn, batch)
        assert compiled.plans == 1
        other = batch[:3]
        # First sighting of a new signature runs eagerly...
        compiled.value_and_grad(other, labels[:3])
        assert compiled.stats.fallback_calls == 1
        assert compiled.plans == 1
        # ...the second compiles a dedicated plan.
        compiled.value_and_grad(other, labels[:3])
        assert compiled.plans == 2
        assert compiled.stats.grad_calls >= 1

    def test_training_mode_falls_back(self, small_cnn, batch):
        small_cnn.eval()
        compiled = compile_model(small_cnn, batch)
        small_cnn.train()
        compiled(batch)
        assert compiled.stats.fallback_calls == 1
        small_cnn.eval()
        compiled(batch)
        assert compiled.stats.forward_calls == 1

    def test_unknown_loss_raises_after_fallback_check(self, small_cnn, batch, labels):
        small_cnn.eval()
        compiled = compile_model(small_cnn, batch)
        with pytest.raises(ValueError):
            compiled.value_and_grad(batch, labels, loss="margin")

    def test_backward_failure_memoized_but_forward_plan_kept(
        self, small_cnn, batch, labels, monkeypatch
    ):
        small_cnn.eval()
        compiled = compile_model(small_cnn, batch)
        plan = next(iter(compiled._plans.values()))
        attempts = []

        def broken(x, y):
            attempts.append(1)
            raise CompileError("backward unavailable")

        monkeypatch.setattr(plan, "value_and_grad_ce", broken)
        first = compiled.value_and_grad(batch, labels)
        assert compiled.stats.fallback_calls == 1 and len(attempts) == 1
        second = compiled.value_and_grad(batch, labels)
        # The failure is remembered: the broken plan is not retried...
        assert compiled.stats.fallback_calls == 2 and len(attempts) == 1
        assert np.isclose(first[0], second[0])
        assert np.allclose(first[1], second[1])
        # ...while forward-only execution keeps using the plan.
        compiled(batch)
        assert compiled.stats.forward_calls == 1

    def test_results_identical_across_fallback_and_plan(self, small_cnn, batch, labels):
        small_cnn.eval()
        compiled = compile_model(small_cnn, batch)
        other = batch[:4]
        eager_first = compiled.value_and_grad(other, labels[:4])  # fallback
        grad_first = np.array(eager_first[1], copy=True)
        plan_second = compiled.value_and_grad(other, labels[:4])  # compiled
        assert np.isclose(eager_first[0], plan_second[0], rtol=1e-10)
        assert np.allclose(grad_first, plan_second[1], rtol=1e-7, atol=1e-12)


class TestBufferPool:
    def test_steady_state_allocates_nothing_and_less_than_eager(
        self, small_cnn, batch, labels
    ):
        small_cnn.eval()
        compiled = compile_model(small_cnn, batch)
        compiled.value_and_grad(batch, labels)  # warm (binds CE scratch)
        allocations_after_warmup = compiled.pool_allocations
        with tensor_mod.op_counter() as eager_ops:
            eager_value_and_grad(small_cnn, batch, labels)
        for _ in range(5):
            compiled.value_and_grad(batch, labels)
        steady_allocations = compiled.pool_allocations - allocations_after_warmup
        assert steady_allocations == 0
        # The eager engine allocates at least one fresh array per recorded
        # op per iteration; the compiled plan allocates strictly fewer
        # (zero) once bound.
        assert eager_ops.count > 0
        assert steady_allocations < eager_ops.count

    def test_invalidate_drops_plans(self, small_cnn, batch):
        small_cnn.eval()
        compiled = compile_model(small_cnn, batch)
        assert compiled.plans == 1
        compiled.invalidate()
        assert compiled.plans == 0


class _GetItemClassifier(ImageClassifier):
    """Forward uses an op without a compiled kernel (``getitem``)."""

    def __init__(self):
        super().__init__(num_classes=2)
        self._weight = np.ones((2, 3))

    @property
    def hidden_layer_names(self):
        return ["h"]

    def forward_with_hidden(self, x):
        h = x.flatten(start_dim=1)
        h = h[:, :3]
        logits = h @ Tensor(self._weight.T)
        return logits, OrderedDict(h=h)


class TestEngineIntegration:
    def test_compiled_engine_matches_eager_accuracies(
        self, trained_small_cnn, tiny_dataset
    ):
        images, labels = tiny_dataset.x_test[:48], tiny_dataset.y_test[:48]
        suite = [
            AttackSpec("fgsm", dict(eps=8 / 255)),
            AttackSpec("pgd", dict(steps=3, seed=1)),
            AttackSpec("nifgsm", dict(steps=3)),
        ]
        eager = AttackEngine(suite, batch_size=16).run(trained_small_cnn, images, labels)
        compiled = AttackEngine(suite, batch_size=16, compile=True).run(
            trained_small_cnn, images, labels
        )
        assert compiled.compiled and compiled.compile_error is None
        assert compiled.natural == eager.natural
        assert dict(compiled.adversarial) == dict(eager.adversarial)
        assert compiled.worst_case == eager.worst_case

    def test_compiled_telemetry_counts_plan_passes(self, trained_small_cnn, tiny_dataset):
        images, labels = tiny_dataset.x_test[:32], tiny_dataset.y_test[:32]
        suite = [AttackSpec("pgd", dict(steps=4, seed=0))]
        result = AttackEngine(suite, batch_size=32, compile=True).run(
            trained_small_cnn, images, labels
        )
        pgd = result.telemetry[-1]
        # Every PGD step is a gradient query: plan replays plus (at most one,
        # for the unseen early-exit batch shape) eager fallbacks.
        assert pgd.compiled_grad_calls >= 1
        assert pgd.compiled_grad_calls + pgd.compiled_fallbacks == 4
        assert result.telemetry[0].compiled_forward_calls >= 1
        revived = type(result).from_dict(result.as_dict())
        assert revived.compiled
        assert revived.telemetry[-1].compiled_grad_calls == pgd.compiled_grad_calls

    def test_uncapturable_model_reports_error_and_still_evaluates(self, rng):
        model = _GetItemClassifier()
        images = rng.random((8, 3, 1, 1))
        labels = np.zeros(8, dtype=np.int64)
        result = AttackEngine([AttackSpec("fgsm")], compile=True).run(model, images, labels)
        assert not result.compiled
        assert result.compile_error
        assert "fgsm" in result.adversarial

    def test_eager_run_clears_stale_plan_from_prebuilt_attack(
        self, trained_small_cnn, tiny_dataset
    ):
        from repro.attacks import PGD

        images, labels = tiny_dataset.x_test[:8], tiny_dataset.y_test[:8]
        attack = PGD(trained_small_cnn, steps=2, seed=0)
        suite = {"pgd": attack}
        result = AttackEngine(suite, batch_size=8, compile=True).run(
            trained_small_cnn, images, labels
        )
        # The plan drove the run but must not outlive it: a later direct
        # attack.attack() (after further training) would replay stale weights.
        assert result.compiled
        assert result.telemetry[-1].compiled_grad_calls + result.telemetry[-1].compiled_fallbacks == 2
        assert attack._compiled is None
        eager = AttackEngine(suite, batch_size=8).run(trained_small_cnn, images, labels)
        assert attack._compiled is None
        assert not eager.compiled

    def test_run_restores_train_mode_on_attack_error(self, trained_small_cnn, tiny_dataset):
        images, labels = tiny_dataset.x_test[:8], tiny_dataset.y_test[:8]
        # steps=0 raises while building the attack, mid-run with eval pinned.
        engine = AttackEngine([AttackSpec("pgd", dict(steps=0))])
        trained_small_cnn.train()
        try:
            with pytest.raises(ValueError):
                engine.run(trained_small_cnn, images, labels)
            assert trained_small_cnn.training
        finally:
            trained_small_cnn.eval()

    def test_ensemble_propagates_compiled_plan(self, trained_small_cnn, tiny_dataset):
        images, labels = tiny_dataset.x_test[:16], tiny_dataset.y_test[:16]
        suite = [AttackSpec("ensemble", dict(specs=(AttackSpec("fgsm"), AttackSpec("pgd", dict(steps=2, seed=0)))))]
        eager = AttackEngine(suite, batch_size=16).run(trained_small_cnn, images, labels)
        compiled = AttackEngine(suite, batch_size=16, compile=True).run(
            trained_small_cnn, images, labels
        )
        assert dict(compiled.adversarial) == dict(eager.adversarial)


class TestExperimentSpecCompile:
    def test_eval_compile_round_trip_and_hash(self):
        base = ExperimentSpec(dataset="synthetic", model="smallcnn", epochs=1)
        compiled = base.with_(eval_compile=True)
        assert compiled.training_hash == base.training_hash
        assert compiled.content_hash != base.content_hash
        revived = ExperimentSpec.from_json(compiled.to_json())
        assert revived.eval_compile is True
        assert revived.content_hash == compiled.content_hash


class TestFusedKernels:
    def test_linf_step_matches_unfused_expression(self, rng):
        adversarial = rng.random((4, 3, 5, 5))
        gradient = rng.normal(size=adversarial.shape)
        original = rng.random(adversarial.shape)
        eps, alpha = 8 / 255, 2 / 255
        reference = np.clip(
            original + np.clip(adversarial + alpha * np.sign(gradient) - original, -eps, eps),
            0.0,
            1.0,
        )
        out = np.empty_like(adversarial)
        fused = linf_step(adversarial, gradient, alpha, original, eps, 0.0, 1.0, out=out)
        assert fused is out
        assert np.array_equal(fused, reference)

    def test_lookahead_point_matches_unfused_expression(self, rng):
        adversarial = rng.random((4, 3, 5, 5))
        momentum = rng.normal(size=adversarial.shape)
        scale = 2 / 255
        reference = np.clip(adversarial + scale * momentum, 0.0, 1.0)
        assert np.array_equal(
            lookahead_point(adversarial, momentum, scale, 0.0, 1.0), reference
        )
