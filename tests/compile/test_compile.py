"""Compiled execution: capture, passes, identity, fallback, buffer pooling."""

from __future__ import annotations

from collections import OrderedDict

import numpy as np
import pytest

from repro.attacks import AttackEngine, AttackSpec
from repro.compile import (
    CompileError,
    SignatureCache,
    capture_forward,
    compile_model,
    linf_step,
    lookahead_point,
    optimize,
)
from repro.compile.executor import Plan
from repro.compile.graph import Graph, Node
from repro.compile.model import eager_jacobian
from repro.experiments import ExperimentSpec
from repro.models import MLP, SmallCNN, ResNet18, VGG16
from repro.models.base import ImageClassifier
from repro.models.wide_resnet import WideResNet
from repro.nn import Module, Tensor, no_grad
from repro.nn.modules import BatchNorm2d, Conv2d, Linear
from repro.nn.optim import SGD
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

    def test_relu_fusion_keeps_named_output_value(self, rng):
        # A hidden output feeding a ReLU keeps its pre-activation value, and
        # a gradient seeded there is not ReLU-masked.
        model = NamedConv(batch_norm=False)
        model.train()
        x = rng.normal(size=(2, 3, 8, 8))
        graph = optimize(capture_forward(model, x, training=True, with_hidden=True))
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
        # No BN is folded: all seven eval BNs of the pre-activation blocks
        # run the eval BN kernel pair over the live parameters and running
        # buffers, checked against eager.
        model = WideResNet(depth=10, widen_factor=1, num_classes=10, width_multiplier=0.5, seed=0)
        x = rng.random((4, 3, 16, 16))
        y = np.arange(4)
        with no_grad():
            for _ in range(2):
                model.forward(Tensor(x))  # non-trivial running statistics
        model.eval()
        compiled = compile_model(model, x)
        (plan,) = compiled._plans.values()
        assert plan.graph.op_counts()["batch_norm2d"] == 7
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

    @pytest.mark.parametrize(
        "build, shape",
        [
            (lambda: SmallCNN(num_classes=10, image_size=16, base_channels=4, hidden_dim=16, seed=0),
             (5, 3, 16, 16)),
            (lambda: VGG16(num_classes=10, width_multiplier=0.125, seed=0), (3, 3, 32, 32)),
        ],
        ids=["smallcnn", "vgg16"],
    )
    def test_jacobian_matches_eager(self, rng, build, shape):
        # One plan forward plus K input-only backward replays against K
        # eager forward+backward passes, every class column.
        model = build()
        model.eval()
        x = rng.random(shape)
        compiled = compile_model(model, x)
        logits, jacobian = compiled.jacobian(x)
        eager_logits, eager_jac = eager_jacobian(model, x)
        assert jacobian.shape == (10,) + x.shape and jacobian.dtype == np.float64
        np.testing.assert_allclose(logits, eager_logits, rtol=0, atol=1e-12)
        np.testing.assert_allclose(jacobian, eager_jac, rtol=0, atol=1e-12)
        assert compiled.stats.forward_calls == 1 and compiled.stats.grad_calls == 10
        assert compiled.stats.fallback_calls == 0

    @pytest.mark.parametrize(
        "build, shape, quantize",
        [
            (lambda: SmallCNN(num_classes=10, image_size=16, base_channels=4, hidden_dim=16, seed=0),
             (6, 3, 16, 16), False),
            (lambda: SmallCNN(num_classes=10, image_size=16, base_channels=4, hidden_dim=16, seed=0),
             (6, 3, 16, 16), True),
            (lambda: VGG16(num_classes=10, width_multiplier=0.125, seed=0), (3, 3, 32, 32), False),
            (lambda: ResNet18(num_classes=10, width_multiplier=0.125, seed=0), (3, 3, 32, 32), False),
        ],
        ids=["smallcnn", "smallcnn-ties", "vgg16", "resnet18"],
    )
    def test_eval_is_bitwise_eager(self, rng, build, shape, quantize):
        # Convolution, batch norm and pooling run the kernels eager autograd
        # runs, with C-order outputs on both sides, so logits, the fused CE
        # loss and input gradient, and the class Jacobian are equal, not
        # close.  Two training-mode forwards leave non-trivial running
        # statistics; quantized inputs tie elements inside max-pool windows.
        model = build()
        with no_grad():
            for _ in range(2):
                model.forward(Tensor(rng.random(shape)))
        model.eval()
        x = rng.random(shape)
        if quantize:
            x = np.round(x, 1)
        labels = np.arange(shape[0]) % 10
        compiled = compile_model(model, x)
        with no_grad():
            eager = model.forward(Tensor(x)).data
        assert np.array_equal(compiled(x), eager)
        eager_loss, eager_grad = eager_value_and_grad(model, x, labels)
        loss, grad = compiled.value_and_grad(x, labels)
        assert loss == eager_loss
        assert np.array_equal(grad, eager_grad)
        logits, jacobian = compiled.jacobian(x)
        eager_logits, eager_jac = eager_jacobian(model, x)
        assert np.array_equal(logits, eager_logits)
        assert np.array_equal(jacobian, eager_jac)
        assert compiled.stats.fallback_calls == 0

    def test_eval_params_plan_matches_eager_gradients(self, rng):
        # A parameter-gradient plan over an eval-mode capture: eval batch
        # norms hand gamma and beta their gradients like every other layer.
        model = SmallCNN(num_classes=10, image_size=16, base_channels=4, hidden_dim=16, seed=0)
        x = rng.random((6, 3, 16, 16))
        with no_grad():
            model.forward(Tensor(rng.random(x.shape)))  # non-trivial running statistics
        model.eval()
        plan = Plan(optimize(capture_forward(model, x)), grad="params")
        seed = rng.normal(size=(6, 10))
        plan.forward(x)
        plan.run_backward({plan.graph.output_id: seed})
        model.zero_grad()
        (model.forward(Tensor(x)) * Tensor(seed)).sum().backward()
        grads = plan.param_grads()
        for param in model.parameters():
            assert np.array_equal(grads[id(param)], param.grad)
        bn_grads = [
            grads[id(p)] for m in model.modules() if isinstance(m, BatchNorm2d)
            for p in (m.weight, m.bias)
        ]
        assert bn_grads and all(np.abs(g).max() > 0 for g in bn_grads)

    def test_forward_node_gradient_matches_eager(self, small_cnn, batch, rng):
        # An eager objective over the plan-backed logits: the node's backward
        # joins the eager graph like any other op.
        small_cnn.eval()
        compiled = compile_model(small_cnn, batch)
        weights = rng.normal(size=(len(batch), 10))

        def objective(logits, x):
            return (logits * Tensor(weights)).max(axis=1).sum() + (x * x).sum()

        grads = []
        for forward in (compiled.forward, small_cnn.forward):
            w = Tensor(batch, requires_grad=True)
            x = w.tanh() * 0.5 + 0.5
            objective(forward(x), x).backward()
            grads.append(w.grad)
        np.testing.assert_allclose(grads[0], grads[1], rtol=0, atol=1e-12)
        assert compiled.stats.forward_calls == 1 and compiled.stats.grad_calls == 1

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

    def test_jacobian_and_forward_node_fall_back_like_value_and_grad(self, small_cnn, batch):
        small_cnn.eval()
        compiled = compile_model(small_cnn, batch)
        eager_logits, eager_jac = eager_jacobian(small_cnn, batch)

        def run_both():
            logits, jacobian = compiled.jacobian(batch)
            x = Tensor(batch, requires_grad=True)
            compiled.forward(x).sum().backward()
            return logits, jacobian, x.grad

        # A signature whose plan cannot backward runs eagerly and counts.
        compiled._grad_failed.add(SignatureCache.key(batch))
        logits, jacobian, _ = run_both()
        assert np.array_equal(logits, eager_logits) and np.array_equal(jacobian, eager_jac)
        assert compiled.stats.fallback_calls == 2 and compiled.stats.grad_calls == 0
        compiled._grad_failed.clear()
        # So does a training-mode module (batch statistics are not replayed).
        small_cnn.train()
        run_both()
        assert compiled.stats.fallback_calls == 4
        assert compiled.stats.forward_calls == 0 and compiled.stats.grad_calls == 0
        small_cnn.eval()
        # Back in eval mode both replay the plan (over the running
        # statistics the training-mode passes updated): one forward and ten
        # backwards for the Jacobian, one of each for the node.
        _, jacobian, _ = run_both()
        np.testing.assert_allclose(
            jacobian, eager_jacobian(small_cnn, batch)[1], rtol=0, atol=1e-12
        )
        assert compiled.stats.forward_calls == 2 and compiled.stats.grad_calls == 11
        assert compiled.stats.fallback_calls == 4

    def test_plan_without_input_gradient_is_remembered(self, rng):
        class Detached(Module):
            def forward(self, x):
                return (x.detach() * 2.0).sum(axis=(2, 3))

        module = Detached()
        module.eval()
        x = rng.random((4, 3, 2, 2))
        compiled = compile_model(module, x)
        x_t = Tensor(x, requires_grad=True)
        out = compiled.forward(x_t)
        np.testing.assert_array_equal(out.data, (x * 2.0).sum(axis=(2, 3)))
        assert SignatureCache.key(x) in compiled._grad_failed
        assert compiled.stats.fallback_calls == 1
        compiled.forward(x_t)  # skipped without retrying the plan
        assert compiled.stats.fallback_calls == 2 and compiled.stats.forward_calls == 0
        compiled(x)  # forward-only use keeps the plan
        assert compiled.stats.forward_calls == 1

    def test_forward_node_refuses_backward_after_another_replay(self, small_cnn, batch):
        small_cnn.eval()
        compiled = compile_model(small_cnn, batch)
        x = Tensor(batch, requires_grad=True)
        logits = compiled.forward(x)
        compiled(batch[::-1].copy())  # the plan now holds other activations
        with pytest.raises(CompileError):
            logits.sum().backward()
        assert x.grad is None
        # A fresh node over the current replay differentiates again.
        logits = compiled.forward(x)
        logits.sum().backward()
        assert x.grad is not None and compiled.stats.grad_calls == 1

    def test_stale_parameter_evicts_for_jacobian_and_forward_node(self, small_cnn, batch):
        small_cnn.eval()
        compiled = compile_model(small_cnn, batch)
        parameter = small_cnn.parameters()[0]
        parameter.data = parameter.data.copy()
        _, jacobian = compiled.jacobian(batch)
        assert compiled.stats.fallback_calls == 1 and compiled.plans == 0
        np.testing.assert_array_equal(jacobian, eager_jacobian(small_cnn, batch)[1])
        x = Tensor(batch, requires_grad=True)
        compiled.forward(x).sum().backward()  # second sighting: rebuilt plan
        assert compiled.stats.plans_built == 2 and compiled.stats.grad_calls == 1

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

    def test_in_place_step_kept_and_reallocation_rebuilds(self, small_cnn, batch, labels):
        small_cnn.eval()
        compiled = compile_model(small_cnn, batch)
        (plan,) = compiled._plans.values()
        # An in-place SGD step: the same plan replays the new weights.
        eager_value_and_grad(small_cnn, batch, labels)
        optimizer = SGD(small_cnn.parameters(), lr=0.5)
        optimizer.step_with_grads([p.grad for p in small_cnn.parameters()])
        with no_grad():
            stepped = small_cnn.forward(Tensor(batch)).data
        np.testing.assert_allclose(compiled(batch), stepped, rtol=0, atol=1e-12)
        assert compiled._plans[SignatureCache.key(batch)] is plan
        assert compiled.stats.plans_built == 1 and compiled.stats.fallback_calls == 0
        # Reallocated storage: the call falls back to eager and evicts the
        # stale plan; the next call rebuilds against the new storage.
        parameter = small_cnn.parameters()[0]
        parameter.data = parameter.data.copy()
        np.testing.assert_array_equal(compiled(batch), stepped)
        assert compiled.stats.fallback_calls == 1 and compiled.plans == 0
        loss, grad = compiled.value_and_grad(batch, labels)
        assert compiled.stats.plans_built == 2 and compiled.stats.grad_calls == 1
        eager_loss, eager_grad = eager_value_and_grad(small_cnn, batch, labels)
        assert abs(loss - eager_loss) <= 1e-12
        np.testing.assert_allclose(grad, eager_grad, rtol=0, atol=1e-12)


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


class _TanhClassifier(ImageClassifier):
    """Forward uses an op without a compiled kernel (``tanh``)."""

    def __init__(self):
        super().__init__(num_classes=2)
        self.fc = Linear(3, 2, rng=np.random.default_rng(0))

    @property
    def hidden_layer_names(self):
        return ["h"]

    def forward_with_hidden(self, x):
        h = x.flatten(start_dim=1).tanh()
        return self.fc(h), OrderedDict(h=h)


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
        images = rng.random((8, 3, 1, 1))
        labels = np.zeros(8, dtype=np.int64)
        for model, op in ((_GetItemClassifier(), "getitem"), (_TanhClassifier(), "tanh")):
            result = AttackEngine([AttackSpec("fgsm")], compile=True).run(model, images, labels)
            assert not result.compiled
            assert f"op '{op}' has no compiled kernel" in result.compile_error
            assert "fgsm" in result.adversarial

    def test_unsupported_op_trains_eagerly(self, rng):
        from repro.compile import CompiledTrainer
        from repro.data import ArrayDataset, DataLoader
        from repro.training import Trainer
        from repro.training.adversarial import CrossEntropyLoss

        images = rng.random((8, 3, 1, 1))
        labels = rng.integers(0, 2, 8)
        model = _TanhClassifier()
        model.train()
        trainer = CompiledTrainer(model, SGD(model.parameters(), lr=0.1), CrossEntropyLoss())
        assert [trainer.train_batch(images, labels) for _ in range(3)] == [None] * 3
        # The first sighting is the benign deferral; the failed bind is
        # remembered and every later batch counts as a fallback.
        assert trainer.stats.compiled_batches == 0 and trainer.stats.fallbacks == 2
        ends = []
        for compiled in (False, True):
            model = _TanhClassifier()
            loader = DataLoader(ArrayDataset(images, labels), batch_size=4, shuffle=False)
            Trainer(model, CrossEntropyLoss(), compile=compiled).fit(loader, epochs=2)
            ends.append([p.data.copy() for p in model.parameters()])
        assert all(np.array_equal(a, b) for a, b in zip(*ends))

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

    def test_compiled_cw_and_fab_match_eager(self, trained_small_cnn, tiny_dataset):
        images, labels = tiny_dataset.x_test[:40], tiny_dataset.y_test[:40]
        suite = [
            AttackSpec("cw", dict(steps=8, c=5.0, lr=0.05)),
            AttackSpec("fab", dict(eps=0.1, steps=4)),
        ]
        eager = AttackEngine(suite, batch_size=16).run(trained_small_cnn, images, labels)
        compiled = AttackEngine(suite, batch_size=16, compile=True).run(
            trained_small_cnn, images, labels
        )
        assert compiled.compiled
        assert dict(compiled.adversarial) == dict(eager.adversarial)
        assert compiled.worst_case == eager.worst_case
        for entry in compiled.telemetry[1:]:
            assert entry.compiled_grad_calls > 0
        # Per example: the plan's adversarial examples are eager's up to
        # rounding (the plan's eval batch norm is a scale-and-shift).
        plan = compile_model(trained_small_cnn, images[:16])
        for spec in suite:
            reference = spec.build(trained_small_cnn).attack(images[:16], labels[:16])
            fast = spec.build(trained_small_cnn).use_compiled(plan).attack(
                images[:16], labels[:16]
            )
            np.testing.assert_allclose(fast, reference, rtol=0, atol=1e-10)

    def test_compiled_fab_and_cw_run_no_eager_passes(self, trained_small_cnn, tiny_dataset):
        # Without early exit the attacked batch has the compiled sample's
        # signature, so its plan exists before the first step.
        images, labels = tiny_dataset.x_test[:16], tiny_dataset.y_test[:16]
        steps = 3
        suite = [AttackSpec("fab", dict(steps=steps)), AttackSpec("cw", dict(steps=steps))]
        result = AttackEngine(suite, batch_size=16, early_exit=False, compile=True).run(
            trained_small_cnn, images, labels
        )
        fab, cw = result.telemetry[1:]
        assert fab.forward_calls == 0 and cw.forward_calls == 0
        assert fab.compiled_fallbacks == 0 and cw.compiled_fallbacks == 0
        assert fab.compiled_grad_calls == steps * trained_small_cnn.num_classes
        assert cw.compiled_grad_calls == steps
        # FAB: a forward per step and its final forward; both: the engine's
        # prediction on the adversarial batch.
        assert fab.compiled_forward_calls == steps + 2
        assert cw.compiled_forward_calls == steps + 1


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
