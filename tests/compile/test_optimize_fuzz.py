"""Differential fuzzing of the one pass pipeline against eager float64.

Hypothesis draws small conv stacks over 8 or 16 px images: 1-3 blocks of
``conv2d`` (1-12 channels, kernel 1 or 3, stride 1 or 2, padding 0-2, bias
on or off), each optionally followed by batch norm, ReLU and a max- or
avg-pool (kernel 2 or 3, stride 1 or 2, so windows may overlap or leave a
remainder), then flatten -> Linear -> ReLU -> Linear.  The draws reach both
input-gradient paths of the shared conv kernels: the gather (stride 1,
``padding <= k - 1``) and the scatter (stride 2, or a 1x1 kernel padded by
1 or 2, where the gather would need a negative pad).  Some batches are
quantized to one decimal, so max-pool windows hold tied maxima.  Batch
norms start from random running statistics.  One hidden output is named
at a random point of a random block: after its conv, BN, ReLU or pool.
Every plan built through :func:`~repro.compile.optimize` must match eager
execution from the same batch-norm state, to 1e-12 relative to
``max(1, |eager|)``:

* eval: ``compile_model`` logits and the fused ``value_and_grad`` loss and
  input gradient, plus the named hidden value of an
  ``optimize(capture_forward(..., with_hidden=True))`` plan;
* training: the plan's logits, hidden value and running statistics, and
  every parameter gradient (``|eager|`` over the whole gradient vector)
  under random seeds at the output and the hidden node;
* a second warm replay allocates nothing.
"""

from __future__ import annotations

from collections import OrderedDict

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.compile import Plan, capture_forward, compile_model, optimize
from repro.nn import Module, Tensor, no_grad
from repro.nn import functional as F
from repro.nn.modules import BatchNorm2d, Conv2d, Linear

CLASSES = 3
TOL = 1e-12


def assert_close(actual, expected, scale=None) -> None:
    """``max|actual - expected| <= TOL * max(1, scale)``; ``scale`` defaults to
    ``max|expected|``."""
    expected = np.asarray(expected)
    if scale is None:
        scale = np.max(np.abs(expected))
    scale = max(1.0, float(scale))
    error = float(np.max(np.abs(np.asarray(actual) - expected)))
    assert error <= TOL * scale, f"error {error:.3e} at scale {scale:.3e}"


class Stack(Module):
    """Conv blocks plus a two-layer head, one hidden output named ``hidden``."""

    def __init__(
        self, blocks, features: int, hidden_block: int, hidden_point: str, seed: int
    ) -> None:
        super().__init__()
        rng = np.random.default_rng(seed)
        self.blocks = blocks
        self.hidden_block = hidden_block
        self.hidden_point = hidden_point
        channels = 3
        for index, block in enumerate(blocks):
            conv = Conv2d(
                channels,
                block["channels"],
                block["kernel"],
                stride=block["stride"],
                padding=block["padding"],
                bias=block["bias"],
                rng=rng,
            )
            setattr(self, f"conv{index}", conv)
            if block["bn"]:
                setattr(self, f"bn{index}", BatchNorm2d(block["channels"]))
            channels = block["channels"]
        self.fc1 = Linear(features, 5, rng=rng)
        self.fc2 = Linear(5, CLASSES, rng=rng)
        # Random biases and BN affines.  With the zero/one defaults a
        # batch-1 training BN averaged over its whole map is exactly its
        # beta, 0, so the ReLU after the zero-bias fc1 sits on its kink,
        # where two correct evaluations that differ by one rounding pick
        # different subgradients.
        for module in self.modules():
            if isinstance(module, BatchNorm2d):
                module.weight.data[...] = rng.uniform(0.5, 1.5, module.weight.shape)
            if getattr(module, "bias", None) is not None:
                module.bias.data[...] = rng.normal(size=module.bias.shape)

    def forward_with_hidden(self, x):
        hidden = OrderedDict()
        h = x
        for index, block in enumerate(self.blocks):
            points = {}
            h = points["conv"] = getattr(self, f"conv{index}")(h)
            if block["bn"]:
                h = points["bn"] = getattr(self, f"bn{index}")(h)
            if block["relu"]:
                h = points["relu"] = h.relu()
            if block["pool"] is not None:
                pool = F.max_pool2d if block["pool"] == "max" else F.avg_pool2d
                h = points["pool"] = pool(h, block["pool_kernel"], block["pool_stride"])
            if index == self.hidden_block:
                hidden["hidden"] = points[self.hidden_point]
        h = self.fc1(h.reshape((x.shape[0], -1))).relu()
        return self.fc2(h), hidden

    def forward(self, x):
        return self.forward_with_hidden(x)[0]


def draw_stack(data):
    """A random :class:`Stack` and the image size it takes."""
    image = data.draw(st.sampled_from([8, 16]), label="image")
    blocks = []
    size = image
    for _ in range(data.draw(st.integers(1, 3), label="blocks")):
        kernel = data.draw(st.sampled_from([1, 3]), label="kernel")
        padding = data.draw(st.integers(0, 2), label="padding")
        if size + 2 * padding < kernel:
            padding = 1  # keep the output at least 1x1
        stride = data.draw(st.sampled_from([1, 2]), label="stride")
        size = (size + 2 * padding - kernel) // stride + 1
        pool = data.draw(st.sampled_from([None, "max", "avg"]), label="pool")
        pool_kernel = data.draw(st.sampled_from([2, 3]), label="pool kernel")
        pool_stride = data.draw(st.sampled_from([1, 2]), label="pool stride")
        if size < pool_kernel:
            pool = None
        elif pool is not None:
            size = (size - pool_kernel) // pool_stride + 1
        blocks.append(
            {
                "channels": data.draw(st.integers(1, 12), label="channels"),
                "kernel": kernel,
                "stride": stride,
                "padding": padding,
                "bias": data.draw(st.booleans(), label="bias"),
                "bn": data.draw(st.booleans(), label="bn"),
                "relu": data.draw(st.booleans(), label="relu"),
                "pool": pool,
                "pool_kernel": pool_kernel,
                "pool_stride": pool_stride,
            }
        )
    hidden_block = data.draw(st.integers(0, len(blocks) - 1), label="hidden block")
    block = blocks[hidden_block]
    points = ["conv"] + [name for name in ("bn", "relu", "pool") if block[name]]
    hidden_point = data.draw(st.sampled_from(points), label="hidden point")
    features = blocks[-1]["channels"] * size * size
    seed = data.draw(st.integers(0, 2**16), label="weight seed")
    return Stack(blocks, features, hidden_block, hidden_point, seed), image


def bn_state(model):
    return [
        (m, m.running_mean.copy(), m.running_var.copy())
        for m in model.modules()
        if isinstance(m, BatchNorm2d)
    ]


def restore_bn(saved) -> None:
    for module, mean, var in saved:
        module.running_mean[...] = mean
        module.running_var[...] = var


def check_eval(model, x, y) -> None:
    model.eval()
    with no_grad():
        logits, hidden = model.forward_with_hidden(Tensor(x))
    compiled = compile_model(model, x)
    assert_close(compiled(x), logits.data)
    x_t = Tensor(x, requires_grad=True)
    eager_loss = F.cross_entropy(model.forward(x_t), y)
    eager_loss.backward()
    loss, grad = compiled.value_and_grad(x, y)
    assert_close(loss, eager_loss.item())
    assert_close(grad, x_t.grad)
    allocations = compiled.pool_allocations
    compiled.value_and_grad(x, y)
    assert compiled.pool_allocations == allocations

    plan = Plan(optimize(capture_forward(model, x, with_hidden=True)))
    plan.forward(x)
    assert_close(plan.output_value("hidden"), hidden["hidden"].data)


def check_training(model, x, rng) -> None:
    model.train()
    saved = bn_state(model)
    graph = optimize(capture_forward(model, x, training=True, with_hidden=True))
    hidden_id = graph.outputs["hidden"]
    plan = Plan(graph, grad="params", seed_ids=(hidden_id,))
    out = plan.forward(x)
    planned_stats = [(m.running_mean.copy(), m.running_var.copy()) for m, _, _ in saved]
    restore_bn(saved)
    logits, hidden = model.forward_with_hidden(Tensor(x))
    assert_close(out, logits.data)
    assert_close(plan.output_value("hidden"), hidden["hidden"].data)
    for (module, _, _), (mean, var) in zip(saved, planned_stats):
        assert_close(mean, module.running_mean)
        assert_close(var, module.running_var)

    seed_out = rng.normal(size=logits.shape)
    seed_hidden = rng.normal(size=hidden["hidden"].shape)
    seeds = {graph.output_id: seed_out, hidden_id: seed_hidden}
    plan.run_backward(seeds)
    model.zero_grad()  # drop the eval check's parameter gradients
    ((logits * seed_out).sum() + (hidden["hidden"] * seed_hidden).sum()).backward()
    grads = plan.param_grads()
    # One scale for the whole gradient vector: a gradient that is zero in
    # exact arithmetic (a conv bias in front of a training-mode BN) comes
    # out of cancelling terms as large as the other gradients, so its
    # rounding error is relative to them, not to its own ~1e-13.
    scale = max(float(np.max(np.abs(param.grad))) for param in model.parameters())
    for param in model.parameters():
        assert_close(grads[id(param)], param.grad, scale)

    allocations = plan.pool.allocations
    plan.forward(x)
    plan.run_backward(seeds)
    assert plan.pool.allocations == allocations


@settings(max_examples=25, deadline=None)
@given(data=st.data())
def test_optimized_plans_match_eager(data):
    model, image = draw_stack(data)
    batch = data.draw(st.integers(1, 3), label="batch")
    rng = np.random.default_rng(data.draw(st.integers(0, 2**16), label="input seed"))
    x = rng.normal(size=(batch, 3, image, image))
    if data.draw(st.booleans(), label="quantize"):
        x = np.round(x, 1)  # tied maxima inside pooling windows
    y = rng.integers(0, CLASSES, batch)
    for module, _, _ in bn_state(model):
        module.running_mean[...] = rng.normal(size=module.running_mean.shape)
        module.running_var[...] = rng.uniform(0.25, 4.0, module.running_var.shape)
    check_eval(model, x, y)
    check_training(model, x, rng)
