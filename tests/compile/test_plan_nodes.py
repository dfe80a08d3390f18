"""Finite-difference gradcheck for the in-plan loss terms and fused backward.

The TRADES KL and the MART objective are traced from their eager code by
:meth:`~repro.compile.graph.Graph.append_traced` and run on the generic
per-primitive kernels; each traced loss is checked against central finite
differences of the plan's own forward (with the input in every logits slot)
and against the eager value.  A tie test pins the ``max`` kernel's eager
gradient split through MART's margin term.  The IB-RAR HSIC terms are
traced the same way, from the kernel/trace primitives up to the whole
``MILoss.regularizer`` block, with the median bandwidth and a fixed one,
normalized and raw.  The fused input+param backward (``grad="both"``) is
checked end to end on a captured model: the input gradient and every
parameter gradient come out of the *same* plan.
"""

from __future__ import annotations

import sys
from pathlib import Path

import numpy as np
import pytest

sys.path.insert(0, str(Path(__file__).resolve().parent.parent))

from nn.gradcheck import plan_gradcheck  # noqa: E402

from repro.compile.executor import Plan
from repro.compile.graph import Graph, Node, capture_forward
from repro.compile.passes import optimize
from repro.models import MLP
from repro.nn import Tensor
from repro.nn import functional as F
from repro.ib.hsic import gaussian_kernel, hsic, normalized_hsic
from repro.training.adversarial import MARTLoss


def _run(plan, x):
    plan.forward(x)
    plan.run_backward({plan.graph.output_id: np.array(1.0)})
    return plan


def _traced_plan(fn, input_name, shape, others=None, grad_aux=()):
    """Plan of ``fn`` traced with ``input_name`` bound to a ``shape`` input leaf.

    ``others`` maps each remaining argument to its array, bound as a
    same-named aux leaf; names in ``grad_aux`` are differentiated.
    """
    others = others or {}
    graph = Graph([Node(0, "input", (), {}, shape, np.float64)], input_id=0, output_id=0)
    bindings = {input_name: 0}
    for name, value in others.items():
        bindings[name] = graph.add_aux(name, value.shape, np.float64)
    graph.output_id = graph.append_traced(fn, bindings)
    return Plan(graph, grad="input", aux=others, grad_aux=grad_aux)


def _check_traced(fn, input_name, x, others, grad_aux):
    """Gradcheck the input and every ``grad_aux`` leaf; return the plan's value."""
    plan = _traced_plan(fn, input_name, x.shape, others, grad_aux)

    def value():
        return float(_run(plan, x).values[plan.graph.output_id])

    value()
    pairs = [(input_name, x, np.array(plan.grads[0]))]
    pairs += [(name, others[name], np.array(plan.aux_grad(name))) for name in grad_aux]
    ok, message = plan_gradcheck(value, pairs)
    assert ok, message
    return value()


class TestSoftmaxKL:
    """TRADES' KL, traced from ``F.kl_div_with_logits`` in both orientations."""

    def _check(self, input_name: str, other_name: str):
        rng = np.random.default_rng(0)
        x = rng.normal(size=(5, 4))
        other = rng.normal(size=(5, 4))
        value = _check_traced(
            F.kl_div_with_logits, input_name, x, {other_name: other}, (other_name,)
        )
        tensors = {input_name: Tensor(x), other_name: Tensor(other)}
        eager = float(F.kl_div_with_logits(**tensors).item())
        assert value == pytest.approx(eager, rel=1e-12)

    def test_kl_input_as_p(self):
        self._check("p_logits", "q_logits")

    def test_kl_input_as_q(self):
        self._check("q_logits", "p_logits")


class TestMARTObjective:
    """``MARTLoss.objective`` traced over both logits and the label mask."""

    def _check(self, input_name: str, other_name: str):
        rng = np.random.default_rng(1)
        n, k = 5, 4
        x = rng.normal(size=(n, k))
        other = rng.normal(size=(n, k))
        mask = np.zeros((n, k))
        mask[np.arange(n), rng.integers(0, k, n)] = 1.0
        loss = MARTLoss(beta=5.0)
        value = _check_traced(
            loss.objective, input_name, x, {other_name: other, "true_mask": mask},
            (other_name,),
        )
        tensors = {input_name: Tensor(x), other_name: Tensor(other)}
        eager = float(loss.objective(true_mask=Tensor(mask), **tensors).item())
        assert value == pytest.approx(eager, rel=1e-12)

    def test_objective_input_as_adv(self):
        self._check("adv_logits", "clean_logits")

    def test_objective_input_as_clean(self):
        self._check("clean_logits", "adv_logits")

    def test_tied_wrong_class_maxima_split_the_gradient(self):
        # Two equal wrong-class logits per row tie the margin term's max;
        # eager Tensor.max splits the gradient evenly between them, and so
        # must the compiled max kernel.  Classes 1 and 3 are interchangeable
        # everywhere else too, so only an even split gives them equal grads.
        rng = np.random.default_rng(2)
        n, k = 4, 5
        adv = rng.normal(size=(n, k))
        adv[:, 1] = adv[:, 3] = adv.max(axis=1) + 0.5
        clean = rng.normal(size=(n, k))
        clean[:, 3] = clean[:, 1]
        mask = np.zeros((n, k))
        mask[:, 0] = 1.0
        loss = MARTLoss(beta=5.0)
        plan = _traced_plan(
            loss.objective, "adv_logits", adv.shape, {"clean_logits": clean, "true_mask": mask}
        )
        _run(plan, adv)
        adv_t = Tensor(adv, requires_grad=True)
        loss.objective(adv_t, Tensor(clean), Tensor(mask)).backward()
        assert np.allclose(plan.grads[0], adv_t.grad, rtol=1e-12, atol=1e-15)
        assert np.array_equal(plan.grads[0][:, 1], plan.grads[0][:, 3])


class TestMaxKernel:
    @pytest.mark.parametrize("axis,keepdims", [(1, False), (1, True), (None, False)])
    def test_tied_maxima_match_eager_backward(self, axis, keepdims):
        x = np.array([[1.0, 3.0, 3.0, 0.5], [2.0, 2.0, 2.0, 2.0], [0.0, -1.0, 4.0, 4.0]])

        def fn(x):
            return (x.max(axis=axis, keepdims=keepdims) * 1.5).sum()

        plan = _run(_traced_plan(fn, "x", x.shape), x)
        x_t = Tensor(x, requires_grad=True)
        fn(x_t).backward()
        assert np.array_equal(plan.values[plan.graph.output_id], fn(Tensor(x)).data)
        assert np.array_equal(plan.grads[0], x_t.grad)

    def test_detached_row_max_is_off_the_gradient_path(self):
        # A stabilized softmax consumes its row max only through detach, so
        # the max never receives a gradient and gets no backward step.
        graph = _traced_plan(lambda x: F.log_softmax(x, axis=1).sum(), "x", (3, 4)).graph
        (max_id,) = [node.id for node in graph.nodes if node.op == "max"]
        path = graph.grad_path()
        assert 0 in path and graph.output_id in path
        assert max_id not in path


def _hold_bandwidth(plan):
    """Drop the plan's ``rbf_scale`` replay steps.

    The median bandwidth is detached — a constant to autograd — so finite
    differences must hold it at the base point's value too; this replays
    every other step and leaves the latest scale in place.
    """
    kept = [
        (step, meta)
        for step, meta in zip(plan._forward_steps, plan._forward_meta)
        if meta[0] != "rbf_scale"
    ]
    plan._forward_steps = [step for step, _ in kept]
    plan._forward_meta = [meta for _, meta in kept]


class TestHSICNodes:
    """The IB-RAR HSIC terms, traced from ``repro.ib.hsic`` / ``MILoss``."""

    def _kernel_pair(self, seed):
        rng = np.random.default_rng(seed)
        n, d = 5, 3
        x = rng.normal(size=(n, d))
        other = np.abs(rng.normal(size=(n, n)))
        return x, (other + other.T) / 2.0

    def test_gaussian_kernel_through_cross_hsic(self):
        x, other = self._kernel_pair(3)

        def fn(x, other):
            return hsic(gaussian_kernel(x, sigma=1.3), other)

        value = _check_traced(fn, "x", x, {"other": other}, ())
        eager = hsic(gaussian_kernel(Tensor(x), sigma=1.3), Tensor(other))
        assert value == pytest.approx(float(eager.item()), rel=1e-12)

    def test_self_trace_same_input_normalizer(self):
        x, _ = self._kernel_pair(4)

        def fn(x):
            kernel = gaussian_kernel(x, sigma=1.3)
            return hsic(kernel, kernel)

        value = _check_traced(fn, "x", x, {}, ())
        assert value == pytest.approx(float(fn(Tensor(x)).item()), rel=1e-12)

    def test_normalized_composition_matches_eager(self):
        # One layer's normalized term: kernel, self normalizer, cross trace,
        # sqrt/eps denominator and division, against a differentiated kernel.
        x, other = self._kernel_pair(5)

        def fn(x, other):
            return normalized_hsic(gaussian_kernel(x, sigma=1.3), other)

        plan = _traced_plan(fn, "x", x.shape, {"other": other}, ("other",))

        def value():
            return float(_run(plan, x).values[plan.graph.output_id])

        value()
        pairs = [
            ("x", x, np.array(plan.grads[0])),
            ("other", other, np.array(plan.aux_grad("other"))),
        ]
        ok, message = plan_gradcheck(value, pairs, rtol=1e-3, atol=1e-7)
        assert ok, message
        eager = fn(Tensor(x), Tensor(other))
        assert value() == pytest.approx(float(eager.item()), rel=1e-12)

    @pytest.mark.parametrize("normalized", [True, False], ids=["nhsic", "raw"])
    @pytest.mark.parametrize("sigma", [None, 1.5], ids=["median", "fixed"])
    def test_mi_regularizer_block(self, sigma, normalized):
        """``MILoss.regularizer`` as the IB-RAR adapter appends it.

        Two hidden layers (a conv map as the plan input, a vector as a
        differentiated aux leaf), the detached input batch and the one-hot
        labels; the side term and both HSIC sums come back as one id each.
        """
        from repro.core.config import IBRARConfig
        from repro.core.losses import MILoss

        rng = np.random.default_rng(8)
        n, classes = 6, 3
        conv = rng.normal(size=(n, 2, 3, 3))
        arrays = {
            "inputs": rng.random((n, 3, 4, 4)),
            "onehot": np.eye(classes)[rng.integers(0, classes, n)],
            "fc": rng.normal(size=(n, 5)),
        }
        loss = MILoss(
            IBRARConfig(alpha=0.05, beta=0.01, sigma=sigma, normalized_hsic=normalized),
            num_classes=classes,
        )
        graph = Graph([Node(0, "input", (), {}, conv.shape, np.float64)], input_id=0, output_id=0)
        bindings = {"conv": 0}
        for name, value in arrays.items():
            bindings[name] = graph.add_aux(name, value.shape, np.float64)
        ids = graph.append_traced(
            loss.regularizer, bindings, name=("mi_side", "mi_sum_x", "mi_sum_y")
        )
        assert len(ids) == 3 and graph.outputs["mi_side"] == ids[0]
        graph.output_id = ids[0]
        plan = Plan(graph.rebuild(), grad="input", aux=arrays, grad_aux=("fc",))
        _run(plan, conv)

        tensors = {name: Tensor(value) for name, value in arrays.items()}
        conv_t = Tensor(conv, requires_grad=True)
        tensors["fc"] = Tensor(arrays["fc"], requires_grad=True)
        side, sum_x, sum_y = loss.regularizer(conv=conv_t, **tensors)
        for key, eager in (("mi_side", side), ("mi_sum_x", sum_x), ("mi_sum_y", sum_y)):
            assert float(plan.output_value(key)) == pytest.approx(float(eager.item()), rel=1e-12)
        side.backward()
        assert np.allclose(plan.grads[0], conv_t.grad, rtol=1e-12, atol=1e-15)
        assert np.allclose(plan.aux_grad("fc"), tensors["fc"].grad, rtol=1e-12, atol=1e-15)

        pairs = [
            ("conv", conv, np.array(plan.grads[0])),
            ("fc", arrays["fc"], np.array(plan.aux_grad("fc"))),
        ]
        _hold_bandwidth(plan)

        def value():
            return float(_run(plan, conv).values[plan.graph.output_id])

        ok, message = plan_gradcheck(value, pairs, rtol=1e-3, atol=1e-7)
        assert ok, message


class TestFusedInputParamBackward:
    def test_input_and_param_grads_from_one_plan(self):
        # grad="both": one run_backward emits the input gradient and every
        # parameter gradient; all are finite-difference checked against the
        # same plan's forward.
        rng = np.random.default_rng(6)
        model = MLP(input_dim=6, num_classes=3, hidden_dims=(5, 4), seed=0)
        model.train()
        x = rng.random((4, 6))
        y = rng.integers(0, 3, 4)
        graph = capture_forward(model, x, training=True)
        plan = Plan(optimize(graph), grad="both")

        def value():
            plan.forward(x)
            loss, _ = plan.ce_loss_and_seed(y)
            return loss

        plan.forward(x)
        loss, seed = plan.ce_loss_and_seed(y)
        plan.run_backward({plan.graph.output_id: seed})
        pairs = [("input", x, np.array(plan.input_grad()))]
        grads = plan.param_grads()
        for name, param in model.named_parameters():
            pairs.append((name, param.data, np.array(grads[id(param)])))
        ok, message = plan_gradcheck(value, pairs)
        assert ok, message
        assert len(pairs) == len(model.parameters()) + 1

    def test_input_program_matches_full_program_input_grad(self):
        # The attack fast path (backward) and the fused full program
        # (run_backward) must agree on the input gradient bit for bit.
        rng = np.random.default_rng(7)
        model = MLP(input_dim=6, num_classes=3, hidden_dims=(5,), seed=1)
        model.train()
        x = rng.random((4, 6))
        y = rng.integers(0, 3, 4)
        graph = capture_forward(model, x, training=True)
        plan = Plan(optimize(graph), grad="both")
        plan.forward(x)
        _, seed = plan.ce_loss_and_seed(y)
        seed = np.array(seed, copy=True)
        fast = np.array(plan.backward(seed), copy=True)
        plan.run_backward({plan.graph.output_id: seed})
        assert np.array_equal(fast, plan.input_grad())
