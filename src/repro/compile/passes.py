"""Optimization passes over captured graphs.

:func:`optimize` is the one pass pipeline every plan goes through — eval
snapshots, training plans and the attack plans derived from them alike:

1. **constant folding** — subgraphs depending only on constants are
   evaluated once at compile time.  The big win is ``transpose(weight)``
   inside every ``Linear``: the transposed weight matrix becomes a
   precomputed constant instead of a per-forward allocation.
2. **batch-norm folding** — an eval-mode ``batch_norm2d`` whose input is a
   single-consumer ``conv2d`` with constant weights is folded into the
   convolution's weights and bias
   (``W' = W * gamma/std``, ``b' = beta - mean * gamma/std + b * gamma/std``),
   removing the BN node from both the forward and the backward pass.
   Training-mode BNs, BNs over live parameters and BNs whose conv output
   is a named graph output are left in place; the executor's
   ``batch_norm2d`` kernel runs them (eval mode as a scale-and-shift).
3. **ReLU fusion** — a ``relu`` directly after ``conv2d`` / ``add`` /
   ``matmul`` / ``batch_norm2d`` is folded into the producer
   (``fuse_relu`` flag) and applied in place on the producer's buffer.
4. **dead-node elimination** — nodes no longer reachable from the output
   (detached BN parameters, folded duplicates) are dropped.

Both rewriting passes leave a named graph output (a hidden representation a
training plan exposes and seeds) with its own value.
"""

from __future__ import annotations

from typing import Callable, Dict, List, Tuple

import numpy as np

from .graph import Graph, Node

__all__ = [
    "optimize",
    "fold_constants",
    "fold_batchnorm",
    "fuse_relu",
    "eliminate_dead",
    "bn_scale_shift",
    "lower_to_eval",
]


def lower_to_eval(graph: Graph) -> Tuple[Graph, bool]:
    """Derive the eval-semantics graph from a training-mode capture.

    Returns ``(eval_graph, changed)``.  The expensive part of building an
    attack plan is the traced forward; this pass re-derives the eval-mode
    graph from the *training* capture instead of tracing a second time, so
    one capture per signature serves both the training plan and the
    eval-semantics attack plan.

    A capturable graph can diverge from eval semantics in two ways.  Each
    batch-stat ``batch_norm2d`` node is rewritten to normalize with the
    module's **live running buffers** — exactly the statistics an eager
    attack sees after ``model.eval()``, re-read on every replay because the
    training plan updates them in place.  Each ``rng_mask`` (counter-based
    dropout) node is stripped: eval-mode dropout is the identity, so its
    consumers are rewired straight to the masked input.  ``changed=False``
    means the graph is mode-invariant: the training plan replays the eval
    forward bit for bit, and a single fused input+param plan can serve both
    roles.
    """
    lowered = graph.copy()
    changed = False
    rewired: Dict[int, int] = {}
    for node in lowered.nodes:
        if node.op == "rng_mask":
            rewired[node.id] = node.inputs[0]
            changed = True
            continue
        if node.op != "batch_norm2d" or not node.meta.get("training"):
            continue
        node.meta = {
            "training": False,
            "mean": node.meta["running_mean"],
            "var": node.meta["running_var"],
            "eps": node.meta["eps"],
        }
        changed = True
    if rewired:
        for node in lowered.nodes:
            node.inputs = tuple(_resolve(rewired, i) for i in node.inputs)
        lowered.output_id = _resolve(rewired, lowered.output_id)
    # The attack plan neither exposes hidden representations nor carries
    # loss subgraphs; dropping the named outputs unprotects those nodes for
    # BN folding and ReLU fusion.
    lowered.outputs = {}
    return lowered.rebuild(), changed


def optimize(graph: Graph) -> Graph:
    """Run the pass pipeline (see module docstring)."""
    graph = fold_constants(graph)
    graph = fold_batchnorm(graph)
    graph = fuse_relu(graph)
    return eliminate_dead(graph)


# --------------------------------------------------------------------------- #
# constant folding
# --------------------------------------------------------------------------- #
_CONST_EVAL: Dict[str, Callable] = {
    "add": lambda m, a, b: a + b,
    "mul": lambda m, a, b: a * b,
    "div": lambda m, a, b: a / b,
    "maximum": lambda m, a, b: np.maximum(a, b),
    "matmul": lambda m, a, b: a @ b,
    "neg": lambda m, a: -a,
    "exp": lambda m, a: np.exp(a),
    "log": lambda m, a: np.log(a),
    "sqrt": lambda m, a: np.sqrt(a),
    "abs": lambda m, a: np.abs(a),
    "tanh": lambda m, a: np.tanh(a),
    "sigmoid": lambda m, a: 1.0 / (1.0 + np.exp(-a)),
    "relu": lambda m, a: np.maximum(a, 0.0),
    "pow": lambda m, a: a ** m["exponent"],
    "clip": lambda m, a: np.clip(a, m["low"], m["high"]),
    "reshape": lambda m, a: a.reshape(m["shape"]),
    "transpose": lambda m, a: np.ascontiguousarray(np.transpose(a, m["axes"])),
    "sum": lambda m, a: a.sum(axis=m["axis"], keepdims=m["keepdims"]),
    "detach": lambda m, a: a,
}


def fold_constants(graph: Graph) -> Graph:
    """Evaluate ops whose every input is constant; replace them with consts."""
    for node in graph.nodes:
        if node.op in ("input", "const") or node.op not in _CONST_EVAL:
            continue
        inputs = [graph.node(i) for i in node.inputs]
        if not all(n.is_const() for n in inputs):
            continue
        value = _CONST_EVAL[node.op](node.meta, *[n.value for n in inputs])
        node.op = "const"
        node.inputs = ()
        node.meta = {}
        node.value = np.asarray(value, dtype=node.dtype)
    return graph.rebuild()


# --------------------------------------------------------------------------- #
# batch-norm folding / lowering
# --------------------------------------------------------------------------- #
def bn_scale_shift(gamma, beta, mean, var, eps, dtype) -> Tuple[np.ndarray, np.ndarray]:
    """Per-channel ``(scale, shift)`` of an eval-mode batch norm.

    Shared by the folding pass and the executor's standalone BN kernel so
    the affine form of eval batch norm is derived in exactly one place.
    """
    scale = gamma / np.sqrt(var + eps)
    shift = beta - mean * scale
    return scale.astype(dtype), shift.astype(dtype)


def fold_batchnorm(graph: Graph) -> Graph:
    """Fold eval-mode BN into a preceding single-consumer convolution.

    Only an all-constant conv + BN pair folds: training-mode BNs and live
    (``param``) weights or gamma/beta are left to the executor, and so is a
    conv whose output is a named graph output, which must keep its value.
    """
    consumers = graph.consumer_counts()
    protected = set(graph.outputs.values())
    rewired: Dict[int, int] = {}
    next_id = max(n.id for n in graph.nodes) + 1
    new_consts: List[Node] = []
    for node in graph.nodes:
        if node.op != "batch_norm2d" or node.meta.get("training"):
            continue
        conv = graph.node(node.inputs[0])
        if conv.op != "conv2d" or consumers[conv.id] != 1 or conv.id in protected:
            continue
        weight = graph.node(conv.inputs[1])
        bias = graph.node(conv.inputs[2]) if len(conv.inputs) > 2 else None
        gamma, beta = graph.node(node.inputs[1]), graph.node(node.inputs[2])
        operands = [weight, gamma, beta] + ([] if bias is None else [bias])
        if not all(n.is_const() for n in operands):
            continue
        scale, shift = bn_scale_shift(
            gamma.value, beta.value, node.meta["mean"], node.meta["var"], node.meta["eps"],
            node.dtype,
        )
        folded_weight = (weight.value * scale[:, None, None, None]).astype(conv.dtype)
        folded_bias = shift if bias is None else (shift + scale * bias.value).astype(conv.dtype)
        w_node = Node(next_id, "const", (), {}, folded_weight.shape, conv.dtype, value=folded_weight)
        b_node = Node(next_id + 1, "const", (), {}, folded_bias.shape, conv.dtype, value=folded_bias)
        next_id += 2
        new_consts.extend([w_node, b_node])
        conv.inputs = (conv.inputs[0], w_node.id, b_node.id)
        rewired[node.id] = conv.id
    if not rewired:
        return graph
    nodes = graph.nodes + new_consts
    for node in nodes:
        node.inputs = tuple(_resolve(rewired, i) for i in node.inputs)
    output_id = _resolve(rewired, graph.output_id)
    outputs = {k: _resolve(rewired, v) for k, v in graph.outputs.items()}
    return Graph(nodes, graph.input_id, output_id, outputs, graph.aux).rebuild()


def _resolve(rewired: Dict[int, int], node_id: int) -> int:
    while node_id in rewired:
        node_id = rewired[node_id]
    return node_id


# --------------------------------------------------------------------------- #
# ReLU fusion
# --------------------------------------------------------------------------- #
_RELU_FUSABLE = ("conv2d", "add", "matmul", "batch_norm2d")


def fuse_relu(graph: Graph) -> Graph:
    """Fold a ``relu`` into its single-consumer producer (in-place activation).

    A producer that is a named graph output keeps its pre-activation value:
    plans read and seed those nodes (hidden representations), so it is
    skipped.
    """
    consumers = graph.consumer_counts()
    protected = set(graph.outputs.values())
    rewired: Dict[int, int] = {}
    for node in graph.nodes:
        if node.op != "relu":
            continue
        producer = graph.node(node.inputs[0])
        if producer.op not in _RELU_FUSABLE or consumers[producer.id] != 1:
            continue
        if producer.id in protected or producer.meta.get("fuse_relu"):
            continue
        producer.meta["fuse_relu"] = True
        rewired[node.id] = producer.id
    if not rewired:
        return graph
    for node in graph.nodes:
        node.inputs = tuple(_resolve(rewired, i) for i in node.inputs)
    outputs = {k: _resolve(rewired, v) for k, v in graph.outputs.items()}
    return Graph(
        graph.nodes, graph.input_id, _resolve(rewired, graph.output_id), outputs, graph.aux
    ).rebuild()


def eliminate_dead(graph: Graph) -> Graph:
    """Drop nodes unreachable from the output (rebuild walks from it)."""
    return graph.rebuild()
