"""Finite-difference gradcheck for the in-plan loss terms and fused backward.

The TRADES KL and the MART objective are traced from their eager code by
:meth:`~repro.compile.graph.Graph.append_traced` and run on the generic
per-primitive kernels; each traced loss is checked against central finite
differences of the plan's own forward (with the input in every logits slot)
and against the eager value.  A tie test pins the ``max`` kernel's eager
gradient split through MART's margin term.  The IB-RAR nodes — the RBF Gram
matrix and the one-sided-centered HSIC trace — are checked through tiny
hand-built graphs.  The fused input+param backward (``grad="both"``) is
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


class TestHSICNodes:
    def _gram_trace_plan(self, n, d, other, sigma=1.3, same=False):
        nodes = [
            Node(0, "input", (), {}, (n, d), np.float64),
            Node(1, "rbf_gram", (0,), {"sigma": sigma}, (n, n), np.float64),
        ]
        aux = {}
        if same:
            nodes.append(Node(2, "hsic_trace", (1, 1), {}, (), np.float64))
        else:
            nodes.append(Node(2, "aux", (), {"name": "other"}, (n, n), np.float64))
            nodes.append(Node(3, "hsic_trace", (1, 2), {}, (), np.float64))
            aux["other"] = 2
        output_id = 2 if same else 3
        graph = Graph(nodes, input_id=0, output_id=output_id, aux=aux)
        bindings = {} if same else {"other": other}
        return Plan(graph, grad="input", aux=bindings)

    def test_rbf_gram_through_cross_trace(self):
        rng = np.random.default_rng(3)
        n, d = 5, 3
        x = rng.normal(size=(n, d))
        other = np.abs(rng.normal(size=(n, n)))
        other = (other + other.T) / 2.0
        plan = self._gram_trace_plan(n, d, other)

        def value():
            return float(_run(plan, x).values[plan.graph.output_id])

        value()
        ok, message = plan_gradcheck(value, [("x", x, np.array(plan.grads[0]))])
        assert ok, message
        eager = hsic(gaussian_kernel(Tensor(x), sigma=1.3), Tensor(other))
        assert value() == pytest.approx(float(eager.item()), rel=1e-12)

    def test_self_trace_same_input_normalizer(self):
        rng = np.random.default_rng(4)
        n, d = 5, 3
        x = rng.normal(size=(n, d))
        plan = self._gram_trace_plan(n, d, None, same=True)

        def value():
            return float(_run(plan, x).values[plan.graph.output_id])

        value()
        ok, message = plan_gradcheck(value, [("x", x, np.array(plan.grads[0]))])
        assert ok, message
        kernel = gaussian_kernel(Tensor(x), sigma=1.3)
        eager = hsic(kernel, kernel)
        assert value() == pytest.approx(float(eager.item()), rel=1e-12)

    def test_normalized_composition_matches_eager(self):
        # The full per-layer chain the IB-RAR adapter builds: gram, self
        # normalizer, cross trace, sqrt/eps denominator, division.
        rng = np.random.default_rng(5)
        n, d = 5, 3
        x = rng.normal(size=(n, d))
        other = np.abs(rng.normal(size=(n, n)))
        other = (other + other.T) / 2.0
        norm_other = float(hsic(Tensor(other), Tensor(other)).item())
        nodes = [
            Node(0, "input", (), {}, (n, d), np.float64),
            Node(1, "rbf_gram", (0,), {"sigma": 1.3}, (n, n), np.float64),
            Node(2, "aux", (), {"name": "other"}, (n, n), np.float64),
            Node(3, "aux", (), {"name": "norm_other"}, (), np.float64),
            Node(4, "hsic_trace", (1, 2), {}, (), np.float64),  # cross
            Node(5, "hsic_trace", (1, 1), {}, (), np.float64),  # self norm
            Node(6, "const", (), {}, (), np.float64, value=np.array(1e-9)),
            Node(7, "mul", (5, 3), {}, (), np.float64),
            Node(8, "add", (7, 6), {}, (), np.float64),
            Node(9, "sqrt", (8,), {}, (), np.float64),
            Node(10, "add", (9, 6), {}, (), np.float64),
            Node(11, "div", (4, 10), {}, (), np.float64),
        ]
        graph = Graph(nodes, input_id=0, output_id=11, aux={"other": 2, "norm_other": 3})
        plan = Plan(
            graph, grad="input",
            aux={"other": other, "norm_other": np.array(norm_other)},
        )

        def value():
            return float(_run(plan, x).values[11])

        value()
        ok, message = plan_gradcheck(
            value, [("x", x, np.array(plan.grads[0]))], rtol=1e-3, atol=1e-7
        )
        assert ok, message
        eager = normalized_hsic(gaussian_kernel(Tensor(x), sigma=1.3), Tensor(other))
        assert value() == pytest.approx(float(eager.item()), rel=1e-10)


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
        graph = capture_forward(model, x, training=True, live_params=True)
        plan = Plan(optimize(graph, fold_bn=False, fuse=True), grad="both")

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
        graph = capture_forward(model, x, training=True, live_params=True)
        plan = Plan(optimize(graph, fold_bn=False, fuse=True), grad="both")
        plan.forward(x)
        _, seed = plan.ce_loss_and_seed(y)
        seed = np.array(seed, copy=True)
        fast = np.array(plan.backward(seed), copy=True)
        plan.run_backward({plan.graph.output_id: seed})
        assert np.array_equal(fast, plan.input_grad())
