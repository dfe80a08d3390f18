"""Static-graph IR and dynamic-graph capture.

The eager engine (:mod:`repro.nn.tensor`) builds a fresh Python closure graph
on every forward pass.  This module lifts one such pass into a static
:class:`Graph`: a topologically ordered list of :class:`Node` records —
``input``, ``param`` (live parameters), ``const`` (every other leaf: the
Eq. 3 channel mask, literals) and primitive ops annotated with their static
parameters (strides, axes, clip bounds).

A captured graph has a *fixed input shape and dtype*; the plan built from it
is replayed for inputs of exactly that signature, with callers falling back
to eager execution for anything else (see :class:`repro.compile.CompiledModel`).
No leaf is copied: parameters, batch-norm buffers and the channel mask are
bound by reference, so a plan reads the module's current state on every
replay and in-place updates (optimizer steps, mask refreshes) need no
recapture.

The same walk extends a graph with an eager loss function applied to its
nodes (:meth:`Graph.append_traced`), so a compiled loss is the traced eager
code rather than a second, hand-written definition.
"""

from __future__ import annotations

import sys
from dataclasses import dataclass, field
from typing import Callable, Dict, List, Mapping, Optional, Sequence, Set, Tuple, Union

import numpy as np

from ..nn.tensor import Tensor, get_default_dtype
from ..nn import tensor as _tensor_mod

__all__ = ["CompileError", "Node", "Graph", "capture_forward"]


class CompileError(RuntimeError):
    """Raised when a module's forward cannot be captured or planned.

    Callers (the attack engine, :class:`~repro.compile.CompiledModel`) treat
    this as "use the eager path", never as a hard failure.
    """


@dataclass
class Node:
    """One operation (or leaf) of a captured graph."""

    id: int
    op: str  # "input", "param", "const", or a primitive op name ("conv2d", ...)
    inputs: Tuple[int, ...]
    meta: dict = field(default_factory=dict)
    shape: Tuple[int, ...] = ()
    dtype: np.dtype = None
    #: the array a "const" leaf aliases (the channel mask, a literal) —
    #: bound by reference, never copied.
    value: Optional[np.ndarray] = None


#: leaf ops — nodes with no compute step and no backward rule of their own.
LEAF_OPS = ("input", "const", "detach", "param", "aux")


class Graph:
    """A topologically ordered static graph with one input and one output.

    ``outputs`` optionally names extra observation points (the hidden
    representations a training plan exposes, and the loss scalars an
    extended graph computes in plan); each maps a name to the node id whose
    forward value realizes it.  Named outputs are roots of the topological
    walk alongside the primary output, so in-plan loss subgraphs hanging
    *off* the logits survive :meth:`rebuild`.

    ``aux`` names auxiliary input leaves (op ``"aux"``): per-batch arrays
    that are not the traced input — another plan's logits buffer, a one-hot
    label matrix.  The executor binds each to a caller-provided alias or to
    a pooled buffer the caller fills per batch.
    """

    def __init__(
        self,
        nodes: List[Node],
        input_id: int,
        output_id: int,
        outputs: Optional[Dict[str, int]] = None,
        aux: Optional[Dict[str, int]] = None,
    ) -> None:
        self.nodes = nodes
        self.input_id = input_id
        self.output_id = output_id
        self.outputs: Dict[str, int] = dict(outputs or {})
        self.aux: Dict[str, int] = dict(aux or {})
        self._by_id: Dict[int, Node] = {n.id: n for n in nodes}

    def node(self, node_id: int) -> Node:
        return self._by_id[node_id]

    def __len__(self) -> int:
        return len(self.nodes)

    @property
    def input_node(self) -> Node:
        return self._by_id[self.input_id]

    @property
    def output_node(self) -> Node:
        return self._by_id[self.output_id]

    def op_counts(self) -> Dict[str, int]:
        counts: Dict[str, int] = {}
        for node in self.nodes:
            counts[node.op] = counts.get(node.op, 0) + 1
        return counts

    def consumer_counts(self) -> Dict[int, int]:
        """How many graph edges consume each node's output."""
        counts: Dict[int, int] = {n.id: 0 for n in self.nodes}
        for node in self.nodes:
            for input_id in node.inputs:
                counts[input_id] += 1
        return counts

    def param_nodes(self) -> List[Node]:
        """Live-parameter leaves (``op == "param"``), in topological order."""
        return [n for n in self.nodes if n.op == "param"]

    def grad_path(
        self,
        include_input: bool = True,
        include_params: bool = False,
        extra: Tuple[int, ...] = (),
    ) -> Set[int]:
        """Ids of nodes through which a gradient flows from the output.

        The chosen leaves (the input, the live parameters, and/or the
        ``extra`` leaf ids — differentiated aux inputs) seed the set; an op
        joins it when any of its inputs is in it, except across ``detach``
        (an explicit gradient stop).  A node must also lead, without
        crossing a ``detach``, to a root of the graph — the output or a
        named output, where gradient seeds enter: an op consumed only
        through a ``detach`` (the row max of a stabilized softmax) never
        receives a gradient and stays out.
        """
        path: Set[int] = set()
        if include_input:
            path.add(self.input_id)
        if include_params:
            path.update(n.id for n in self.nodes if n.op == "param")
        path.update(extra)
        for node in self.nodes:  # topo order: inputs precede consumers
            if node.op in LEAF_OPS:
                continue
            if any(i in path for i in node.inputs):
                path.add(node.id)
        reaches = {self.output_id, *self.outputs.values()}
        for node in reversed(self.nodes):
            if node.id in reaches and node.op not in LEAF_OPS:
                reaches.update(node.inputs)
        return path & reaches

    def rebuild(self) -> "Graph":
        """Re-derive the id index and re-sort topologically (after passes).

        Walks from every root — the primary output plus each named output —
        so loss subgraphs attached downstream of the logits are preserved.
        """
        roots = [self.output_id] + [
            i for i in self.outputs.values() if i != self.output_id
        ]
        order = _topo_sort(self._by_id, roots, self.input_id)
        kept = {n.id for n in order}
        aux = {name: i for name, i in self.aux.items() if i in kept}
        return Graph(order, self.input_id, self.output_id, self.outputs, aux)

    def copy(self) -> "Graph":
        """Independent node records (meta dicts copied, leaf values shared).

        Plans stash bound buffers inside ``node.meta`` and passes rewrite
        ``op``/``inputs`` in place, so two plans must never share ``Node``
        objects; constant *values* and live parameter/buffer references are
        safely shared.
        """
        nodes = [
            Node(n.id, n.op, n.inputs, dict(n.meta), n.shape, n.dtype, n.value)
            for n in self.nodes
        ]
        return Graph(nodes, self.input_id, self.output_id, self.outputs, self.aux)

    # ------------------------------------------------------------------ #
    # programmatic extension (in-plan loss subgraphs)
    # ------------------------------------------------------------------ #
    def _next_id(self) -> int:
        return max(n.id for n in self.nodes) + 1

    def _append(self, node: Node) -> int:
        self.nodes.append(node)
        self._by_id[node.id] = node
        return node.id

    def add_aux(self, name: str, shape: Tuple[int, ...], dtype) -> int:
        """Append a named auxiliary input leaf; returns its node id."""
        if name in self.aux:
            raise CompileError(f"aux input '{name}' already exists")
        node_id = self._append(
            Node(self._next_id(), "aux", (), {"name": name}, tuple(shape), np.dtype(dtype))
        )
        self.aux[name] = node_id
        return node_id

    def add_op(
        self,
        op: str,
        inputs: Tuple[int, ...],
        shape: Tuple[int, ...],
        dtype,
        meta: Optional[dict] = None,
        name: Optional[str] = None,
    ) -> int:
        """Append an op node; optionally register it as the named output ``name``."""
        node_id = self._append(
            Node(self._next_id(), op, tuple(inputs), dict(meta or {}), tuple(shape), np.dtype(dtype))
        )
        if name is not None:
            self.outputs[name] = node_id
        return node_id

    def append_traced(
        self,
        fn: Callable[..., object],
        bindings: Mapping[str, int],
        name: Union[None, str, Sequence[Optional[str]]] = None,
    ) -> Union[int, Tuple[int, ...]]:
        """Append the ops of an eager Tensor function applied to existing nodes.

        ``fn`` runs once under tracing, called with one keyword argument per
        ``bindings`` entry: a placeholder Tensor shaped like the bound node
        (the graph output, an :meth:`add_aux` leaf, ...).  The recorded ops
        are lifted by the walk :func:`capture_forward` uses, with each
        placeholder resolving to its bound node and every other leaf
        becoming a ``param`` or by-reference ``const`` leaf.  Returns the
        result's node id, registered as the named output ``name`` when
        given; when ``fn`` returns a tuple of Tensors, returns one id per
        element and ``name`` is a matching sequence (``None`` entries stay
        unnamed).  A loss written once as eager code thus compiles with no
        executor code of its own: each primitive it records already has a
        forward and a backward kernel.
        """
        placeholders: Dict[str, Tensor] = {}
        ids: Dict[int, int] = {}
        for key, node_id in bindings.items():
            node = self.node(node_id)
            tensor = Tensor(np.zeros(node.shape, dtype=node.dtype))
            placeholders[key] = tensor
            ids[id(tensor)] = node_id
        # Placeholder values are zeros; only the recorded ops matter, so
        # warnings about their arithmetic (log(0), ...) are silenced.
        with _tensor_mod.trace(), np.errstate(all="ignore"):
            result = fn(**placeholders)
        single = not isinstance(result, tuple)
        results = (result,) if single else result
        for item in results:
            if not isinstance(item, Tensor):
                raise CompileError(
                    f"traced function returned {type(item).__name__}, expected a Tensor"
                )
        nodes, result_ids = _lift(results, ids, self._next_id(), _leaf)
        for node in nodes:
            self._append(node)
        names = (name,) if single else (name or ())
        for key, result_id in zip(names, result_ids):
            if key is not None:
                self.outputs[key] = result_id
        return result_ids[0] if single else tuple(result_ids)


def _topo_sort(by_id: Dict[int, Node], roots: List[int], input_id: int) -> List[Node]:
    order: List[Node] = []
    visited: Set[int] = set()
    for root in roots:
        stack: List[Tuple[int, bool]] = [(root, False)]
        while stack:
            node_id, processed = stack.pop()
            if processed:
                order.append(by_id[node_id])
                continue
            if node_id in visited:
                continue
            visited.add(node_id)
            stack.append((node_id, True))
            for input_id_ in by_id[node_id].inputs:
                if input_id_ not in visited:
                    stack.append((input_id_, False))
    if input_id not in visited:
        raise CompileError("the module's output does not depend on its input")
    return order


def capture_forward(
    module,
    sample_input,
    training: bool = False,
    with_hidden: bool = False,
) -> Graph:
    """Run one forward under tracing and lift it into a :class:`Graph`.

    ``module`` is any :class:`repro.nn.Module` whose ``forward`` maps one
    tensor to one tensor.

    ``training=False`` (the default) captures the eval-mode forward and
    rejects a module left in training mode: batch-norm statistics and
    dropout masks captured from one batch must not be baked into a plan
    replayed on others.  ``training=True`` captures the **training-mode**
    forward instead — batch-stat batch norms become replayable nodes that
    update the module's running buffers in place (the traced forward's own
    running-stat update is rolled back, so a replay reproduces the eager
    sequence exactly) — and dropout traces into ``rng_mask`` nodes whose
    masks are a pure function of the module's live ``(seed, layer_id, step)``
    state.

    ``with_hidden=True`` traces ``module.forward_with_hidden`` and names
    each hidden representation in :attr:`Graph.outputs` (training plans
    expose those nodes to eager-composed loss terms).

    :class:`~repro.nn.modules.Parameter` leaves become ``"param"`` nodes
    aliasing the live parameter storage, which plans re-read on every
    replay, so one plan survives every in-place optimizer step.  Every
    other leaf becomes a ``"const"`` node bound to the leaf's own array (a
    model's channel mask, overwritten in place by a refresh, included).
    """
    from ..nn.modules import BatchNorm2d

    arr = np.asarray(sample_input, dtype=get_default_dtype())
    if training != bool(module.training):
        if training:
            raise CompileError("training capture requires train mode; call module.train() first")
        raise CompileError("compile() requires eval mode; call module.eval() first")
    bn_saved = []
    if training:
        for sub in module.modules():
            if isinstance(sub, BatchNorm2d):
                bn_saved.append((sub, sub.running_mean.copy(), sub.running_var.copy()))
    x = Tensor(arr, requires_grad=True)
    hidden = {}
    try:
        with _tensor_mod.trace():
            if with_hidden:
                out, hidden = module.forward_with_hidden(x)
            else:
                out = module.forward(x)
    finally:
        # The traced forward already applied one running-stat update; roll it
        # back so replaying the plan (which applies the update itself) leaves
        # the module exactly where an eager run would.
        for sub, mean, var in bn_saved:
            sub.running_mean[...] = mean
            sub.running_var[...] = var
    if not isinstance(out, Tensor):
        raise CompileError(f"forward returned {type(out).__name__}, expected a Tensor")

    def leaf(tensor: Tensor, node_id: int) -> Node:
        if tensor is x:
            return Node(node_id, "input", (), {}, tensor.shape, tensor.dtype)
        return _leaf(tensor, node_id)

    ids: Dict[int, int] = {}  # id(tensor) -> node id
    nodes, (output_id, *hidden_ids) = _lift([out, *hidden.values()], ids, 0, leaf)
    if id(x) not in ids:
        raise CompileError("the module's output does not depend on its input")
    if not training and any(
        n.op == "batch_norm2d" and n.meta.get("training") for n in nodes
    ):
        raise CompileError("cannot capture a training-mode batch norm")
    outputs = dict(zip(hidden, hidden_ids))
    return Graph(nodes, ids[id(x)], output_id, outputs)


def _leaf(tensor: Tensor, node_id: int) -> Node:
    """A live leaf for an untraced tensor: a ``param`` node for a parameter,
    else a ``const`` node aliasing the tensor's array."""
    from ..nn.modules import Parameter

    if isinstance(tensor, Parameter):
        return Node(node_id, "param", (), {"parameter": tensor}, tensor.shape, tensor.dtype)
    return Node(node_id, "const", (), {}, tensor.shape, tensor.dtype, value=tensor.data)


def _lift(
    roots: Sequence[Tensor],
    ids: Dict[int, int],
    next_id: int,
    leaf: Callable[[Tensor, int], Node],
) -> Tuple[List[Node], List[int]]:
    """Lift traced tensors and their recorded ancestry into graph nodes.

    The one walk behind :func:`capture_forward` and
    :meth:`Graph.append_traced`.  ``ids`` maps ``id(tensor)`` to the node id
    of every tensor that already has a node and is extended in place;
    tensors without a recorded op become ``leaf(tensor, node_id)``.  New
    nodes are numbered from ``next_id`` and returned in post-order (a
    topological order), followed by the node id of each root.
    """
    nodes: List[Node] = []

    def visit(tensor: Tensor) -> int:
        nonlocal next_id
        key = id(tensor)
        if key in ids:
            return ids[key]
        parents = getattr(tensor, "_op_parents", None)
        op = getattr(tensor, "_op", None)
        if op is None or parents is None:
            node = leaf(tensor, next_id)
        else:
            input_ids = tuple(visit(parent) for parent in parents)
            node = Node(
                next_id,
                op,
                input_ids,
                dict(tensor._op_meta or {}),
                tensor.shape,
                tensor.dtype,
            )
        ids[key] = next_id
        nodes.append(node)
        next_id += 1
        return node.id

    # The walk recurses one frame per graph edge; deep models (ResNet-34 at
    # full depth) can exceed the default limit, so raise it for the walk.
    limit = sys.getrecursionlimit()
    try:
        sys.setrecursionlimit(max(limit, 10000))
        root_ids = [visit(root) for root in roots]
    finally:
        sys.setrecursionlimit(limit)
    return nodes, root_ids
