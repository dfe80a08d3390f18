"""Optimization passes over captured graphs.

The pass pipeline (:func:`optimize`) mirrors what a small deep-learning
compiler does before code generation:

1. **constant folding** — subgraphs depending only on constants are
   evaluated once at compile time.  The big win is ``transpose(weight)``
   inside every ``Linear``: the transposed weight matrix becomes a
   precomputed constant instead of a per-forward allocation.
2. **batch-norm folding** — an eval-mode ``batch_norm2d`` whose input is a
   single-consumer ``conv2d`` is folded into the convolution's weights and
   bias (``W' = W * gamma/std``, ``b' = beta - mean * gamma/std + b * gamma/std``),
   removing the BN node from both the forward and the backward pass.
   Eval-mode BNs that cannot fold are lowered to a precomputed
   scale-and-shift (handled by the executor's ``batch_norm2d`` kernel).
3. **affine fusion** — ``add(matmul(x, W), b)`` with constant ``W``/``b``
   becomes a single ``affine`` node executed as one BLAS call plus an
   in-place bias add.
4. **ReLU fusion** — a ``relu`` directly after ``conv2d`` / ``affine`` /
   ``add`` / ``matmul`` / ``batch_norm2d`` is folded into the producer
   (``fuse_relu`` flag) and applied in place on the producer's buffer.
5. **elementwise-chain fusion** — runs of single-consumer elementwise ops
   (negate, clip, add/mul/div/maximum with a constant) collapse into one
   ``ew`` node replayed in a single buffer.
6. **dead-node elimination** — nodes no longer reachable from the output
   (detached BN parameters, unfused duplicates) are dropped.
"""

from __future__ import annotations

from typing import Callable, Dict, List, Optional, Tuple

import numpy as np

from .graph import CompileError, Graph, Node

__all__ = [
    "optimize",
    "fold_constants",
    "fold_batchnorm",
    "fuse_affine",
    "fuse_relu",
    "fuse_elementwise",
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
    # the fusion passes.
    lowered.outputs = {}
    return lowered.rebuild(), changed


def optimize(graph: Graph, fold_bn: bool = True, fuse: bool = True) -> Graph:
    """Run the default pass pipeline (see module docstring)."""
    graph = fold_constants(graph)
    if fold_bn:
        graph = fold_batchnorm(graph)
    if fuse:
        graph = fuse_affine(graph)
        graph = fuse_relu(graph)
        graph = fuse_elementwise(graph)
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


def _bn_scale_shift(node: Node, graph: Graph) -> Tuple[np.ndarray, np.ndarray]:
    """``bn_scale_shift`` for a graph node, validating constant gamma/beta."""
    gamma = graph.node(node.inputs[1])
    beta = graph.node(node.inputs[2])
    if not (gamma.is_const() and beta.is_const()):
        raise CompileError("batch-norm gamma/beta must be constants in a plan")
    return bn_scale_shift(
        gamma.value, beta.value, node.meta["mean"], node.meta["var"], node.meta["eps"], node.dtype
    )


def fold_batchnorm(graph: Graph) -> Graph:
    """Fold eval-mode BN into a preceding single-consumer convolution."""
    consumers = graph.consumer_counts()
    rewired: Dict[int, int] = {}
    next_id = max(n.id for n in graph.nodes) + 1
    new_consts: List[Node] = []
    for node in graph.nodes:
        if node.op != "batch_norm2d":
            continue
        if node.meta.get("training"):
            raise CompileError("cannot plan a training-mode batch norm")
        conv = graph.node(node.inputs[0])
        if conv.op != "conv2d" or consumers[conv.id] != 1:
            continue
        weight = graph.node(conv.inputs[1])
        bias = graph.node(conv.inputs[2]) if len(conv.inputs) > 2 else None
        if not weight.is_const() or (bias is not None and not bias.is_const()):
            continue
        scale, shift = _bn_scale_shift(node, graph)
        folded_weight = (weight.value * scale[:, None, None, None]).astype(conv.dtype)
        folded_bias = shift if bias is None else (shift + scale * bias.value).astype(conv.dtype)
        w_node = Node(next_id, "const", (), {}, folded_weight.shape, conv.dtype, value=folded_weight)
        b_node = Node(next_id + 1, "const", (), {}, folded_bias.shape, conv.dtype, value=folded_bias)
        next_id += 2
        new_consts.extend([w_node, b_node])
        conv.inputs = (conv.inputs[0], w_node.id, b_node.id)
        rewired[node.id] = conv.id
    if not rewired and not new_consts:
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
# fusion passes
# --------------------------------------------------------------------------- #
def fuse_affine(graph: Graph) -> Graph:
    """Collapse ``add(matmul(x, W), b)`` with constant ``W``/``b`` into ``affine``."""
    consumers = graph.consumer_counts()
    for node in graph.nodes:
        if node.op != "add" or len(node.inputs) != 2:
            continue
        matmul, bias = graph.node(node.inputs[0]), graph.node(node.inputs[1])
        if matmul.op != "matmul":
            matmul, bias = bias, matmul
        if matmul.op != "matmul" or consumers[matmul.id] != 1 or not bias.is_const():
            continue
        weight = graph.node(matmul.inputs[1])
        if not weight.is_const() or weight.value.ndim != 2 or bias.value.ndim != 1:
            continue
        node.op = "affine"
        node.inputs = (matmul.inputs[0], matmul.inputs[1], bias.id)
    return graph.rebuild()


_RELU_FUSABLE = ("conv2d", "affine", "add", "matmul", "batch_norm2d")


def fuse_relu(graph: Graph) -> Graph:
    """Fold a ``relu`` into its single-consumer producer (in-place activation)."""
    consumers = graph.consumer_counts()
    rewired: Dict[int, int] = {}
    for node in graph.nodes:
        if node.op != "relu":
            continue
        producer = graph.node(node.inputs[0])
        if producer.op not in _RELU_FUSABLE or consumers[producer.id] != 1:
            continue
        if producer.meta.get("fuse_relu"):
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


#: elementwise ops a chain may contain.  ``maximum`` is deliberately absent:
#: its backward needs a winner mask against the *intermediate* value, which a
#: fused chain does not keep, so it stays a standalone (fully differentiable)
#: node instead of poisoning the whole plan at bind time.
_EW_UNARY = ("neg", "relu", "clip")
_EW_BINARY = ("add", "mul", "div")


def _chain_source(node: Node, graph: Graph) -> Optional[int]:
    """The id of ``node``'s variable (non-const) input when it is a fusable step."""
    if node.meta.get("fuse_relu"):
        return None
    if node.op in _EW_UNARY and len(node.inputs) == 1:
        return node.inputs[0]
    if node.op in _EW_BINARY and len(node.inputs) == 2:
        first, second = (graph.node(i) for i in node.inputs)
        if second.is_const() and not first.is_const():
            return node.inputs[0]
        if first.is_const() and not second.is_const():
            if node.op == "div":
                return None  # const / x needs the intermediate value; don't fuse
            return node.inputs[1]
    return None


def _ew_step(node: Node, graph: Graph, source: int) -> dict:
    """Describe ``node`` (a validated chain link) as an executable step."""
    if node.op in _EW_UNARY:
        return {"op": node.op, "const": None, **{k: v for k, v in node.meta.items() if k != "fuse_relu"}}
    const_id = node.inputs[1] if node.inputs[0] == source else node.inputs[0]
    return {"op": node.op, "const": const_id}


def fuse_elementwise(graph: Graph) -> Graph:
    """Collapse runs (length >= 2) of single-consumer elementwise ops into ``ew``.

    Named graph outputs (hidden representations a training plan must expose
    and seed gradients into) may only sit at a chain's *tail*: interior chain
    members lose their materialized values, so a protected node ends the
    upward walk instead of joining it.
    """
    consumers = graph.consumer_counts()
    protect = set(graph.outputs.values())
    fused: set = set()
    for node in reversed(graph.nodes):  # visit chain tails before their members
        if node.id in fused:
            continue
        chain: List[Node] = []
        current = node
        while current.id not in fused:
            if chain and current.id in protect:
                break
            source = _chain_source(current, graph)
            # Broadcast constants must not grow the running shape.
            if source is None or current.shape != graph.node(source).shape:
                break
            chain.append(current)
            producer = graph.node(source)
            if consumers[producer.id] != 1 or producer.id in fused:
                break
            current = producer
        if len(chain) < 2:
            continue
        chain.reverse()  # execution order
        head_input = _chain_source(chain[0], graph)
        steps = []
        const_ids = []
        source = head_input
        for link in chain:
            step = _ew_step(link, graph, source)
            if step["const"] is not None:
                const_ids.append(step["const"])
            steps.append(step)
            source = link.id
        tail = chain[-1]
        tail.op = "ew"
        tail.meta = {"steps": steps}
        tail.inputs = (head_input, *const_ids)
        fused.update(link.id for link in chain)
    return graph.rebuild()


def eliminate_dead(graph: Graph) -> Graph:
    """Drop nodes unreachable from the output (rebuild walks from it)."""
    return graph.rebuild()
