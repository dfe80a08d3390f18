"""Eager steps and compiled plans hold only memory that is still live.

* Eager ``F.conv2d`` keeps its input, not its im2col columns, for the
  backward, and a ``grad="params"`` plan pools no per-conv columns: both
  rebuild the columns in the weight-gradient step, with the forward's
  stride and padding.
* The plans of one compiled training context bind their step-local views
  into one scratch region, sized to the largest step among them.  TRADES
  and MART, whose two training plans interleave forwards and backwards
  over that region, stay bitwise eager in ``test_loss_parity.py``.
"""

from __future__ import annotations

import numpy as np
import pytest

from repro.compile import CompileError, Plan, capture_forward, optimize
from repro.compile.executor import step_scratch_nbytes
from repro.compile.training import TrainingCompileStats, _SignatureContext, build_adapter
from repro.core.config import IBRARConfig
from repro.core.losses import AdversarialMILoss, MILoss
from repro.models import build_model
from repro.nn import Tensor
from repro.nn import functional as F
from repro.training.adversarial import MARTLoss, PGDAdversarialLoss, TRADESLoss

MIB = 2**20


@pytest.mark.parametrize(
    "kernel, stride, padding",
    [(3, 1, 1), (1, 2, 0), (3, 2, 0)],
    ids=["same", "shortcut-1x1-s2", "3x3-s2-unpadded"],
)
def test_eager_conv_backward_rebuilds_columns(kernel, stride, padding):
    rng = np.random.default_rng(0)
    x = Tensor(rng.normal(size=(2, 3, 9, 9)), requires_grad=True)
    weight = Tensor(rng.normal(size=(4, 3, kernel, kernel)), requires_grad=True)
    out = F.conv2d(x, weight, stride=stride, padding=padding)
    held = [cell.cell_contents for cell in out._backward.__closure__]
    assert not [value for value in held if isinstance(value, np.ndarray)]
    grad = rng.normal(size=out.shape)
    out.backward(grad)
    grad_mat = grad.transpose(0, 2, 3, 1).reshape(-1, 4)
    cols = F.conv2d_columns(x.data, kernel, stride, padding)
    assert np.array_equal(weight.grad, F.conv2d_weight_grad(grad_mat, cols, kernel))


def _conv_columns_shapes(graph):
    return {
        F.conv2d_buffers(
            graph.node(node.inputs[0]).shape,
            graph.node(node.inputs[1]).shape,
            node.meta["stride"],
            node.meta["padding"],
        )["cols"]
        for node in graph.nodes
        if node.op == "conv2d"
    }


def test_params_plan_pools_no_columns_and_matches_eager():
    # ResNet-18's shortcuts are 1x1, stride-2, unpadded convolutions: the
    # rebuilt columns must follow each convolution's own stride and padding.
    model = build_model("resnet18", num_classes=5, width_multiplier=0.0625, seed=0)
    rng = np.random.default_rng(0)
    x, y = rng.random((4, 3, 16, 16)), rng.integers(0, 5, 4)
    graph = optimize(capture_forward(model, x, training=True))
    assert any(
        node.meta["stride"] == 2 and node.meta["padding"] == 0
        for node in graph.nodes
        if node.op == "conv2d"
    )
    plan = Plan(graph, grad="params")
    columns = _conv_columns_shapes(graph)
    assert not [b.shape for b in plan.pool._buffers if b.shape in columns]

    plan.forward(x)
    _, seed = plan.ce_loss_and_seed(y)
    plan.run_backward({graph.output_id: seed})
    compiled = plan.param_grads()
    F.cross_entropy(model(Tensor(x)), y).backward()
    for param in model.parameters():
        assert np.array_equal(compiled[id(param)], param.grad)


LOSSES = {
    "trades": lambda: TRADESLoss(steps=2, seed=0),
    "mart": lambda: MARTLoss(steps=2, seed=0),
    "pgd": lambda: PGDAdversarialLoss(steps=2, seed=0),
    "ibrar_trades": lambda: AdversarialMILoss(
        IBRARConfig(alpha=0.05, beta=0.01),
        num_classes=10,
        adversarial_strategy=TRADESLoss(steps=2, seed=0),
    ),
}


def _context(model, sample, strategy):
    return _SignatureContext(model, sample, build_adapter(strategy), TrainingCompileStats())


@pytest.mark.parametrize("loss_key", sorted(LOSSES))
def test_context_plans_share_one_scratch_region(loss_key):
    model = build_model("smallcnn", num_classes=10, image_size=16, base_channels=4, hidden_dim=16, seed=0)
    sample = np.random.default_rng(0).random((8, 3, 16, 16))
    ctx = _context(model, sample, LOSSES[loss_key]())
    assert len(ctx.plans) >= 2
    assert all(plan._scratch is ctx.scratch for plan in ctx.plans)
    assert ctx.scratch.nbytes == max(step_scratch_nbytes(plan.graph) for plan in ctx.plans)


def test_plan_refuses_a_shared_region_smaller_than_its_largest_step():
    model = build_model("smallcnn", num_classes=10, image_size=16, base_channels=4, hidden_dim=16, seed=0)
    graph = optimize(capture_forward(model, np.zeros((2, 3, 16, 16)), training=True))
    need = step_scratch_nbytes(graph)
    with pytest.raises(CompileError, match="scratch region"):
        Plan(graph, grad="params", scratch=np.empty((need - 64,), np.uint8))
    region = np.empty((need,), np.uint8)
    assert Plan(graph, grad="params", scratch=region)._scratch is region


def test_train_cell_context_fits_its_memory_budget():
    # The Table-1 train cell: IB-RAR over PGD-AT on VGG16 (width 0.25) at
    # batch 32.  Its three plans once held a 48.6 MiB region each, and the
    # two training plans ~107 MiB of pooled columns each: 657 MiB in all.
    model = build_model("vgg16", num_classes=10, image_size=32, width_multiplier=0.25, seed=1)
    sample = np.random.default_rng(0).random((32, 3, 32, 32))
    strategy = MILoss(
        IBRARConfig(alpha=0.05, beta=0.01), num_classes=10,
        base_loss=PGDAdversarialLoss(steps=5, seed=1),
    )
    ctx = _context(model, sample, strategy)
    assert len(ctx.plans) == 3
    assert all(plan._scratch is ctx.scratch for plan in ctx.plans)
    assert ctx.scratch.nbytes == max(step_scratch_nbytes(plan.graph) for plan in ctx.plans)
    assert ctx.scratch.nbytes <= 48.6 * MIB
    assert ctx.scratch.nbytes + sum(plan.pool.bytes_allocated for plan in ctx.plans) <= 400 * MIB
