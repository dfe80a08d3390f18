"""Optimization passes over captured graphs.

:func:`optimize` is the one pass pipeline every plan goes through — eval
plans, training plans and the attack plans derived from them alike:

1. **ReLU fusion** — a ``relu`` directly after ``conv2d`` / ``add`` /
   ``matmul`` / ``batch_norm2d`` is folded into the producer
   (``fuse_relu`` flag) and applied in place on the producer's buffer.
2. **dead-node elimination** — nodes no longer reachable from the output
   are dropped.

Nothing is folded: parameters, batch-norm buffers and the channel mask are
live state that plans read in place, so a subgraph over them is not
constant for the life of a plan.  ReLU fusion leaves a named graph output
(a hidden representation a training plan exposes and seeds) with its own
value.
"""

from __future__ import annotations

from typing import Dict, Tuple

from .graph import Graph

__all__ = ["optimize", "fuse_relu", "eliminate_dead", "lower_to_eval"]


def lower_to_eval(graph: Graph) -> Tuple[Graph, bool]:
    """Derive the eval-semantics graph from a training-mode capture.

    Returns ``(eval_graph, changed)``.  The expensive part of building an
    attack plan is the traced forward; this pass re-derives the eval-mode
    graph from the *training* capture instead of tracing a second time, so
    one capture per signature serves both the training plan and the
    eval-semantics attack plan.

    A capturable graph can diverge from eval semantics in two ways.  Each
    batch-stat ``batch_norm2d`` node has its ``training`` flag cleared, so
    it normalizes with the module's **live running buffers** (the node's
    ``running_mean``/``running_var``) — exactly the statistics an eager
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
        if node.op == "batch_norm2d" and node.meta["training"]:
            node.meta["training"] = False  # a copy's own meta dict
            changed = True
    if rewired:
        for node in lowered.nodes:
            node.inputs = tuple(_resolve(rewired, i) for i in node.inputs)
        lowered.output_id = _resolve(rewired, lowered.output_id)
    # The attack plan neither exposes hidden representations nor carries
    # loss subgraphs; dropping the named outputs unprotects those nodes for
    # ReLU fusion.
    lowered.outputs = {}
    return lowered.rebuild(), changed


def optimize(graph: Graph) -> Graph:
    """Run the pass pipeline (see module docstring)."""
    return eliminate_dead(fuse_relu(graph))


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
