"""Buffer-bound plan execution: ``out=`` kernels over a :class:`BufferPool`.

A :class:`Plan` binds an optimized :class:`~repro.compile.graph.Graph` to
pre-allocated buffers: every op output, gradient accumulator and mask is
allocated once at bind time, and replays write into those arrays with
``out=``-style NumPy kernels — zero steady-state pool allocations, the
property the attack hot path (tens of gradient steps per batch) is bought
with.  Scratch that dies with its step — a convolution's padded input,
columns and output-gradient matrix, batch norm's backward temporaries —
comes from one step-local region sized to the largest step: steps never
overlap, so plans that never replay at the same time (the plans of one
compiled training context) can bind into one shared region.  A
convolution's weight-gradient step rebuilds the forward's columns there
from its input instead of keeping them pooled between forward and
backward, and its input-gradient step then reuses those bytes.
Convolution, batch norm and pooling, forward and backward, call the
kernels eager autograd calls (the ``conv2d_*``, ``batch_norm2d_*`` and pool
kernels of :mod:`repro.nn.functional`): eager passes fresh C-order arrays,
the binders here pooled and step-local ones, so both round identically and
their binders hold no arithmetic of their own beyond a fused ReLU.

Each plan binds one backward program, in one of two gradient modes.
``grad="input"`` (the attack/eval default) computes the gradient **with
respect to the input only**: parameters are read but not differentiated,
so no weight-gradient matmul runs.  ``grad="params"`` (the training mode)
instead seeds the differentiation set from the graph's live ``"param"``
nodes and accumulates **full parameter gradients** into pre-allocated
pooled buffers.  :meth:`Plan.run_backward` drives either program and
additionally accepts gradient seeds at named intermediate nodes
(registered via ``seed_ids``); :meth:`Plan.backward` is the input-mode
shortcut returning the input gradient.

Graphs may carry named ``aux`` input leaves (per-batch arrays that are not
the traced input: another plan's logits buffer, a one-hot label matrix).
Each binds to a caller-supplied alias or to a pooled buffer the caller
fills in place through :attr:`Plan.aux_values`; names listed in
``grad_aux`` additionally receive
gradient accumulators, which is how an in-plan loss term hands its gradient
to the plan that produced the aliased buffer (TRADES' KL gradient with
respect to the clean logits).  Every loss term other than the fused CE —
TRADES' KL, the MART objective, the IB-RAR HSIC regularizers — is traced
from its eager code (:meth:`~repro.compile.graph.Graph.append_traced`), so
it binds the same generic per-primitive kernels as the model itself; the
only loss-specific kernel is the forward-only ``rbf_scale`` (the Gaussian
kernel's per-batch median bandwidth).  Gradients follow eager autograd's
operation order.

Plans copy no module state: ``param`` leaves alias ``param.data``, ``const``
leaves (the Eq. 3 channel mask, literals) alias their arrays, and batch
norms read the module's running buffers, all re-read on every replay — one
plan survives every in-place optimizer step and mask refresh.  Eval-mode
batch norms re-derive their per-channel scale and shift per replay;
training-mode batch norms recompute batch statistics and update the running
buffers in place, as the shared kernel does for eager.

Losses are fused: :meth:`Plan.value_and_grad_ce` evaluates softmax
cross-entropy and seeds the backward pass with the closed-form
``softmax(z) - onehot(y)`` gradient in scratch buffers.

Kernels exist only for the ops some captured model or traced loss
contains; binding a graph with any other op raises :class:`CompileError`,
which every caller turns into eager execution.
"""

from __future__ import annotations

from time import perf_counter as _perf_counter
from typing import Callable, Dict, List, Mapping, Optional, Sequence, Set, Tuple

import numpy as np

from ..nn.functional import (
    avg_pool2d_grad,
    avg_pool2d_values,
    batch_norm2d_buffers,
    batch_norm2d_grad,
    batch_norm2d_saved,
    batch_norm2d_values,
    conv2d_buffers,
    conv2d_columns,
    conv2d_input_grad,
    conv2d_weight_grad,
    max_pool2d_grad,
    max_pool2d_values,
)
from ..obs.profiler import PROFILER as _PROFILER
from .graph import CompileError, Graph, LEAF_OPS as _LEAF_OPS, Node
from .pool import BufferPool

__all__ = ["Plan", "step_scratch_nbytes"]


def _reduction_spec(from_shape: Tuple[int, ...], to_shape: Tuple[int, ...]):
    """Axes summing a ``from_shape`` gradient down to ``to_shape`` (broadcast inverse)."""
    extra = len(from_shape) - len(to_shape)
    axes = list(range(extra))
    for index, size in enumerate(to_shape):
        if size == 1 and from_shape[extra + index] != 1:
            axes.append(extra + index)
    kept = tuple(
        1 if i in axes else from_shape[i] for i in range(len(from_shape))
    )
    return tuple(axes), kept


def _slot_nbytes(shape: Tuple[int, ...], dtype) -> int:
    """Bytes of a ``shape`` buffer, rounded up to a 64-byte cache line."""
    return -(-int(np.prod(shape)) * np.dtype(dtype).itemsize // 64) * 64


def _group_nbytes(group: Mapping[str, Tuple[int, ...]], dtype) -> int:
    return sum(_slot_nbytes(shape, dtype) for shape in group.values())


def step_scratch_nbytes(graph: Graph) -> int:
    """Bytes of step-local scratch the largest step of a plan over ``graph``
    takes: the size of the region :class:`Plan` binds its step views into."""
    sizes = [
        _group_nbytes(shared, node.dtype)
        + max((_group_nbytes(group, node.dtype) for group in overlays), default=0)
        for node in graph.nodes if node.op in _STEP_SCRATCH
        for shared, *overlays in _STEP_SCRATCH[node.op](graph, node)
    ]
    return max(sizes, default=0)


class Plan:
    """An executable, buffer-bound instance of an optimized graph.

    One plan serves exactly one ``(input shape, dtype)`` signature; the
    shape-dispatching caches live in :class:`~repro.compile.CompiledModel`
    (eval) and :class:`~repro.compile.training.CompiledTrainer` (training).

    Parameters
    ----------
    grad:
        ``"input"`` differentiates with respect to the input batch (the
        attack hot path); ``"params"`` with respect to every live ``param``
        node (the training step — parameter gradients land in pooled
        buffers exposed via :meth:`param_grads`).
    seed_ids:
        Node ids that may receive external gradient seeds through
        :meth:`run_backward` (hidden-output nodes, in-plan loss scalars) —
        named graph outputs, or nodes upstream of the output.
        Registering them as extra contributors keeps the dead-write
        elimination from overwriting injected seeds.
    aux:
        ``name -> array`` aliases for the graph's aux input leaves; unbound
        names get pooled buffers, filled per batch in place through
        :attr:`aux_values`.
    grad_aux:
        Aux names to include in the differentiation set; their accumulated
        gradients are read back through :meth:`aux_grad`.
    scratch:
        A ``uint8`` region of at least :func:`step_scratch_nbytes` bytes to
        bind the step-local views into, shared with plans that never replay
        at the same time; by default the plan allocates its own.
    """

    #: the kernel set every plan replays: the one serial set of NumPy
    #: ``out=`` kernels bound below.
    provider_name = "numpy"

    def __init__(
        self,
        graph: Graph,
        grad: str = "input",
        seed_ids: Sequence[int] = (),
        aux: Optional[Mapping[str, np.ndarray]] = None,
        grad_aux: Sequence[str] = (),
        scratch: Optional[np.ndarray] = None,
    ) -> None:
        if grad not in ("input", "params"):
            raise ValueError(f"unknown grad mode '{grad}'; use 'input' or 'params'")
        self.graph = graph
        self.grad_mode = grad
        self.pool = BufferPool()
        #: node id -> forward value (aliased leaves, bound buffers, or views).
        self.values: Dict[int, np.ndarray] = {}
        #: node id -> gradient accumulator.
        self.grads: Dict[int, np.ndarray] = {}
        #: aux name -> bound array (aliases and pooled buffers alike).
        self.aux_values: Dict[str, np.ndarray] = {}
        #: (Parameter, node id) pairs of the graph's ``param`` leaves.
        self.params: List[Tuple[object, int]] = [
            (n.meta["parameter"], n.id) for n in graph.param_nodes()
        ]
        self._forward_steps: List[Callable[[], None]] = []
        #: per-step (op kind, output bytes), parallel to _forward_steps —
        #: recorded at bind time so profiled replays need no graph walks.
        self._forward_meta: List[Tuple[str, int]] = []
        #: lazily created when the obs profiler is enabled at replay time.
        self._profile = None
        self._aux_bindings: Dict[str, np.ndarray] = dict(aux or {})
        for name in grad_aux:
            if name not in graph.aux:
                raise CompileError(f"unknown aux input '{name}'")
        self._grad_aux = tuple(grad_aux)
        self._seed_requested = tuple(seed_ids)
        self._scratch = scratch
        #: the bound backward step list (``None``: no gradient path from
        #: the output to the differentiated leaves), its per-step meta and
        #: the gradient buffers zeroed before each run.
        self._backward_steps: Optional[List[Callable[[], None]]] = None
        self._backward_meta: List[Tuple[str, int]] = []
        self._fill: List[np.ndarray] = []
        self._seed_ids: Set[int] = set()
        self._ce: Optional[dict] = None
        #: forward replays so far; a caller holding a forward's activations
        #: for a later backward checks it is unchanged.
        self.forward_count = 0
        self._bind()

    @property
    def input_dtype(self) -> np.dtype:
        return np.dtype(self.graph.input_node.dtype)

    @property
    def signature(self) -> str:
        """Human-readable input signature, e.g. ``"32x1x28x28:float32"``."""
        shape = "x".join(str(dim) for dim in self.graph.input_node.shape)
        return f"{shape}:{self.input_dtype.name}"

    # ------------------------------------------------------------------ #
    # profiling (repro.obs)
    # ------------------------------------------------------------------ #
    def _replay_profiled(self, steps, meta) -> None:
        """Run a bound step list, timing each kernel into the plan profile.

        Only reached when the obs profiler is enabled — the replay entry
        points branch on one flag read, so the disabled path pays nothing.
        """
        profile = self._profile
        if profile is None:
            profile = self._profile = _PROFILER.profile_for(self)
        record = profile.record
        for (kind, nbytes), step in zip(meta, steps):
            started = _perf_counter()
            step()
            record(kind, _perf_counter() - started, nbytes)

    # ------------------------------------------------------------------ #
    # binding
    # ------------------------------------------------------------------ #
    def _bind(self) -> None:
        graph = self.graph
        # One step-local region serves every step's scratch: a plan's steps
        # never overlap, and none reads what another left there.
        need = step_scratch_nbytes(graph)
        if self._scratch is None:
            self._scratch = self.pool.empty((need,), np.uint8)
        elif self._scratch.nbytes < need:
            raise CompileError(
                f"shared scratch region holds {self._scratch.nbytes} bytes; a step needs {need}"
            )
        self._input = self.pool.empty(graph.input_node.shape, graph.input_node.dtype)
        self.values[graph.input_id] = self._input
        for node in graph.nodes:
            if node.op == "input":
                continue
            if node.op == "const":
                # By reference: in-place writes (a mask refresh) reach replays.
                self.values[node.id] = node.value
                continue
            if node.op == "param":
                # Alias the parameter's storage.  Replays re-read it, so
                # in-place optimizer updates flow into the plan; the identity
                # guard in :meth:`forward` catches reallocation.
                self.values[node.id] = node.meta["parameter"].data
                continue
            if node.op == "aux":
                name = node.meta["name"]
                bound = self._aux_bindings.get(name)
                if bound is None:
                    bound = self.pool.empty(node.shape, node.dtype)
                elif tuple(bound.shape) != tuple(node.shape):
                    raise CompileError(
                        f"aux '{name}' binding shape {bound.shape} != {node.shape}"
                    )
                self.values[node.id] = bound
                self.aux_values[name] = bound
                continue
            binder = _FORWARD.get(node.op)
            if binder is None:
                raise CompileError(f"op '{node.op}' has no compiled kernel")
            step, out = binder(self, node)
            self.values[node.id] = out
            if step is not None:
                self._forward_steps.append(step)
                self._forward_meta.append((node.op, out.nbytes))

        self._diff = graph.grad_path(
            include_input=self.grad_mode == "input",
            include_params=self.grad_mode == "params",
            extra=tuple(graph.aux[name] for name in self._grad_aux),
        )
        if graph.output_id in self._diff:
            self._bind_backward()

    def _bind_backward(self) -> None:
        """Bind the backward program over the differentiation set ``_diff``."""
        graph = self.graph
        # Dead-write elimination: a gradient buffer that receives exactly one
        # contribution is written directly by its contributing kernel (via
        # `_sink`), skipping both the zero-fill and the accumulate add.  The
        # output seed counts as the output node's single contribution, and so
        # does each registered external-seed injection point.
        self._seed_ids = set(self._seed_requested) & self._diff
        self._contributions = {graph.output_id: 1}
        for node in graph.nodes:
            if node.id not in self._diff or node.op in _LEAF_OPS:
                continue
            for input_id in node.inputs:
                if input_id in self._diff:
                    self._contributions[input_id] = self._contributions.get(input_id, 0) + 1
        for seed_id in self._seed_ids:
            self._contributions[seed_id] = self._contributions.get(seed_id, 0) + 1
        self._fill_ids: Set[int] = set()
        for node in graph.nodes:
            if node.id in self._diff:
                self.grads[node.id] = self.pool.empty(node.shape, node.dtype)
                self._fill_ids.add(node.id)
        self._fill_ids.discard(graph.output_id)  # seeded by copyto
        steps: List[Callable[[], None]] = []
        for node in reversed(graph.nodes):
            if node.id not in self._diff or node.op in _LEAF_OPS:
                continue
            binder = _BACKWARD.get(node.op)
            if binder is None:
                raise CompileError(f"op '{node.op}' has no compiled backward kernel")
            step = binder(self, node)
            if step is not None:
                steps.append(step)
                self._backward_meta.append((node.op + ".bwd", self.values[node.id].nbytes))
        self._backward_steps = steps
        self._fill = [self.grads[node_id] for node_id in self._fill_ids]

    def _step_scratch(self, node: Node, backward: bool) -> Dict[str, np.ndarray]:
        """Named views of ``node``'s forward or backward step-local buffers,
        laid out as its :data:`_STEP_SCRATCH` groups say."""
        views: Dict[str, np.ndarray] = {}
        shared, *overlays = _STEP_SCRATCH[node.op](self.graph, node)[int(backward)]
        start = self._pack(shared, node.dtype, 0, views)
        for group in overlays:
            self._pack(group, node.dtype, start, views)
        return views

    def _pack(self, group, dtype, offset: int, views: Dict[str, np.ndarray]) -> int:
        """Add views of ``group``'s shapes, packed from byte ``offset``, to
        ``views``; returns the offset past them."""
        for name, shape in group.items():
            views[name] = self._scratch[offset:].view(dtype)[: int(np.prod(shape))].reshape(shape)
            offset += _slot_nbytes(shape, dtype)
        return offset

    def _sink(self, target_id: int, supports_write: bool = True) -> Tuple[bool, np.ndarray]:
        """``(write, buffer)`` for a kernel contributing a gradient to ``target_id``.

        ``write=True`` means the caller is the buffer's only contributor and
        may overwrite it (the buffer is then excluded from per-run zeroing);
        kernels whose scatter pattern needs a zeroed base pass
        ``supports_write=False``.
        """
        write = supports_write and self._contributions.get(target_id) == 1
        if write:
            self._fill_ids.discard(target_id)
        return write, self.grads[target_id]

    # ------------------------------------------------------------------ #
    # execution
    # ------------------------------------------------------------------ #
    def stale(self) -> bool:
        """Whether a parameter's storage was reallocated after binding."""
        for param, node_id in self.params:
            if self.values[node_id] is not param.data:
                return True
        return False

    @property
    def differentiable(self) -> bool:
        """Whether :meth:`backward` has an input-gradient program to replay."""
        return self.grad_mode == "input" and self._backward_steps is not None

    def forward(self, x: np.ndarray) -> np.ndarray:
        """Replay the forward pass; returns the (plan-owned) output array."""
        if self.stale():
            raise CompileError(
                "parameter storage was reallocated (non-in-place update); recompile the plan"
            )
        np.copyto(self._input, x)
        self.forward_count += 1
        if _PROFILER.enabled:
            self._replay_profiled(self._forward_steps, self._forward_meta)
        else:
            for step in self._forward_steps:
                step()
        return self.values[self.graph.output_id]

    def backward(self, output_grad: np.ndarray) -> np.ndarray:
        """Input gradient for the most recent :meth:`forward` call."""
        if self.grad_mode == "params":
            raise CompileError("backward() needs an input-gradient plan; use run_backward()")
        self._replay_backward({self.graph.output_id: output_grad})
        return self.grads[self.graph.input_id]

    def run_backward(self, seeds: Mapping[int, np.ndarray]) -> None:
        """Replay the backward pass from per-node gradient seeds.

        ``seeds`` maps node ids to gradient arrays: the output node's seed is
        copied in (zero when absent), every other seed is **added** to that
        node's freshly zeroed accumulator before the kernels run — the form
        composite losses need, where the fused-CE output seed and the
        in-plan loss scalars' seeds join one pass.  Non-output seed ids must
        have been registered via ``seed_ids`` at bind time (otherwise a
        single-contribution writer overwrites them).
        """
        self._replay_backward(seeds)

    def _replay_backward(self, seeds: Mapping[int, np.ndarray]) -> None:
        if self._backward_steps is None:
            raise CompileError("this plan has no gradient path to its leaves")
        for buffer in self._fill:
            buffer.fill(0)
        output_id = self.graph.output_id
        output_seed = seeds.get(output_id)
        if output_seed is not None:
            np.copyto(self.grads[output_id], output_seed)
        else:
            self.grads[output_id].fill(0)
        for node_id, seed in seeds.items():
            if node_id == output_id:
                continue
            if node_id not in self._seed_ids:
                raise CompileError(f"node {node_id} was not registered as a seed point")
            target = self.grads[node_id]
            np.add(target, seed, out=target)
        if _PROFILER.enabled:
            self._replay_profiled(self._backward_steps, self._backward_meta)
        else:
            for step in self._backward_steps:
                step()

    def input_grad(self) -> np.ndarray:
        """The input-gradient buffer of the most recent backward replay."""
        grad = self.grads.get(self.graph.input_id)
        if grad is None:
            raise CompileError("this plan does not differentiate its input")
        return grad

    def aux_grad(self, name: str) -> np.ndarray:
        """Accumulated gradient of a ``grad_aux`` input after a backward replay."""
        return self.grads[self.graph.aux[name]]

    def output_value(self, name: str) -> np.ndarray:
        """Forward value of the named graph output (hidden or loss node)."""
        return self.values[self.graph.outputs[name]]

    def param_grads(self) -> Dict[int, np.ndarray]:
        """``id(parameter) -> pooled gradient buffer`` after a backward replay."""
        return {id(param): self.grads[node_id] for param, node_id in self.params
                if node_id in self.grads}

    def ce_loss_and_seed(self, labels: np.ndarray) -> Tuple[float, np.ndarray]:
        """Fused softmax-CE loss of the latest forward and its logit gradient.

        Evaluates mean CE over ``labels`` in scratch buffers and returns the
        closed-form ``(softmax(z) - onehot(y)) / N`` seed (a plan-owned
        scratch array, rounded as eager autograd rounds it) ready for
        :meth:`backward` / :meth:`run_backward` — no loss graph is ever
        built.
        """
        logits = self.values[self.graph.output_id]
        if logits.ndim != 2:
            raise CompileError("ce_loss_and_seed expects (N, classes) logits")
        if self._ce is None:
            n, k = logits.shape
            self._ce = {
                "max": self.pool.empty((n, 1), logits.dtype),
                "p": self.pool.empty((n, k), logits.dtype),
                "z": self.pool.empty((n, 1), logits.dtype),
                "logz": self.pool.empty((n, 1), logits.dtype),
                "picked": self.pool.empty((n,), logits.dtype),
                "arange": np.arange(n),
            }
        ce = self._ce
        started = _perf_counter() if _PROFILER.enabled else 0.0
        labels = np.asarray(labels, dtype=np.int64).reshape(-1)
        max_b, p, z, logz, picked, arange = (
            ce["max"], ce["p"], ce["z"], ce["logz"], ce["picked"], ce["arange"],
        )
        np.max(logits, axis=1, keepdims=True, out=max_b)
        np.subtract(logits, max_b, out=p)
        picked[...] = p[arange, labels]
        np.exp(p, out=p)
        np.sum(p, axis=1, keepdims=True, out=z)
        np.log(z, out=logz)
        # Eager's order: the loss is sum(log z - picked) * (1/N), the seed
        # e * ((1/N) / z) - (1/N) at the labels.
        inverse = 1.0 / len(labels)
        np.subtract(logz.reshape(-1), picked, out=picked)
        loss = float(np.sum(picked) * inverse)
        np.divide(inverse, z, out=z)
        np.multiply(p, z, out=p)
        p[arange, labels] -= inverse
        if _PROFILER.enabled:
            profile = self._profile
            if profile is None:
                profile = self._profile = _PROFILER.profile_for(self)
            profile.record("softmax_ce.fused", _perf_counter() - started, p.nbytes)
        return loss, p

    def value_and_grad_ce(self, x: np.ndarray, labels: np.ndarray) -> Tuple[float, np.ndarray]:
        """Fused softmax cross-entropy loss and its input gradient."""
        self.forward(x)
        loss, seed = self.ce_loss_and_seed(labels)
        return loss, self.backward(seed)


# --------------------------------------------------------------------------- #
# forward binders: node -> (step callable | None, output array)
# --------------------------------------------------------------------------- #
def _conv_scratch(graph: Graph, node: Node):
    """``(forward, backward)`` step-local layouts of one convolution.

    The backward's weight-gradient step rebuilds the forward's columns, and
    its input-gradient step then reuses those bytes; both read ``grad_mat``.
    """
    weight_shape = graph.node(node.inputs[1]).shape
    shapes = conv2d_buffers(
        graph.node(node.inputs[0]).shape, weight_shape, node.meta["stride"], node.meta["padding"]
    )
    forward = {name: shapes[name] for name in ("xpad", "cols", "w_mat")}
    weight_step = {name: shapes[name] for name in ("xpad", "cols", "gw_mat")}
    input_step = {name: shapes[name] for name in ("w_mat", "gpad", "gcols", "out") if name in shapes}
    return (forward,), ({"grad_mat": shapes["grad_mat"]}, dict(weight_step, gw=weight_shape), input_step)


def _bind_conv2d(plan: Plan, node: Node):
    x = plan.values[node.inputs[0]]
    weight = plan.values[node.inputs[1]]
    bias = plan.values[node.inputs[2]] if len(node.inputs) > 2 else None
    stride, padding = node.meta["stride"], node.meta["padding"]
    fuse_relu = node.meta.get("fuse_relu", False)
    n, c = x.shape[:2]
    oc, _, kernel, _ = weight.shape
    _, _, out_h, out_w = node.shape
    dtype = node.dtype
    scratch = plan._step_scratch(node, backward=False)
    xpad, cols = scratch["xpad"], scratch["cols"]
    # Weights change under the optimizer every step: each replay refreshes
    # their (k, k, C)-ordered copy, as the eager kernel builds it per call.
    w_mat = scratch["w_mat"].reshape(oc, -1)
    w_kkc = w_mat.reshape(oc, kernel, kernel, c)
    w_src = weight.transpose(0, 2, 3, 1)
    w_t = w_mat.T
    out2d = plan.pool.empty((n * out_h * out_w, oc), dtype)
    # The NCHW output is a transpose view of the matmul result (same trick as
    # the eager kernel) — consumers read it through its strides, so the
    # materialization copy is never paid.
    out = out2d.reshape(n, out_h, out_w, oc).transpose(0, 3, 1, 2)
    if fuse_relu:
        # Mask recorded on the contiguous 2-D layout; the backward kernel
        # applies it to grad_mat (same layout) with fully contiguous ops.
        mask2d = plan.pool.empty(out2d.shape, bool)
        node.meta["_relu_mask2d"] = mask2d
    else:
        mask2d = None

    def step() -> None:
        conv2d_columns(x, kernel, stride, padding, out=cols, xpad=xpad)
        np.copyto(w_kkc, w_src)
        np.matmul(cols, w_t, out=out2d)
        if bias is not None:
            np.add(out2d, bias, out=out2d)
        if fuse_relu:
            np.maximum(out2d, 0.0, out=out2d)
            np.greater(out2d, 0.0, out=mask2d)

    return step, out


def _bind_matmul(plan: Plan, node: Node):
    a = plan.values[node.inputs[0]]
    b = plan.values[node.inputs[1]]
    if a.ndim != 2 or b.ndim != 2:
        raise CompileError("compiled matmul supports 2-D operands only")
    fuse_relu = node.meta.get("fuse_relu", False)
    out = plan.pool.empty(node.shape, node.dtype)

    def step() -> None:
        np.matmul(a, b, out=out)
        if fuse_relu:
            np.maximum(out, 0.0, out=out)

    return step, out


def _bind_binary(ufunc):
    def bind(plan: Plan, node: Node):
        a = plan.values[node.inputs[0]]
        b = plan.values[node.inputs[1]]
        fuse_relu = node.meta.get("fuse_relu", False)
        out = plan.pool.empty(node.shape, node.dtype)

        def step() -> None:
            ufunc(a, b, out=out)
            if fuse_relu:
                np.maximum(out, 0.0, out=out)

        return step, out

    return bind


def _bind_unary(compute: Callable[[np.ndarray, np.ndarray], None]):
    def bind(plan: Plan, node: Node):
        x = plan.values[node.inputs[0]]
        out = plan.pool.empty(node.shape, node.dtype)
        return (lambda: compute(x, out)), out

    return bind


def _bind_batch_norm(plan: Plan, node: Node):
    """Training or eval batch norm: the shared kernel over a pooled output and
    pooled saved buffers (read by the backward), then the fused ReLU."""
    meta = node.meta
    training = bool(meta["training"])
    x, gamma, beta = (plan.values[i] for i in node.inputs)
    out = plan.pool.empty(node.shape, node.dtype)
    saved = meta["_saved"] = batch_norm2d_saved(node.shape, node.dtype, training, plan.pool.empty)
    stats = (meta["running_mean"], meta["running_var"], training, meta["momentum"], meta["eps"])
    fuse_relu = meta.get("fuse_relu", False)

    def step() -> None:
        batch_norm2d_values(x, gamma, beta, *stats, out=out, saved=saved)
        if fuse_relu:
            np.maximum(out, 0.0, out=out)

    return step, out


def _bind_max_pool(plan: Plan, node: Node):
    x = plan.values[node.inputs[0]]
    kernel, stride = node.meta["kernel"], node.meta["stride"]
    out = plan.pool.empty(node.shape, node.dtype)
    return (lambda: max_pool2d_values(x, kernel, stride, out=out)), out


def _bind_avg_pool(plan: Plan, node: Node):
    x = plan.values[node.inputs[0]]
    kernel, stride = node.meta["kernel"], node.meta["stride"]
    out = plan.pool.empty(node.shape, node.dtype)
    return (lambda: avg_pool2d_values(x, kernel, stride, out=out)), out


def _bind_sum(plan: Plan, node: Node):
    x = plan.values[node.inputs[0]]
    axis, keepdims = node.meta["axis"], node.meta["keepdims"]
    out = plan.pool.empty(node.shape, node.dtype)
    return (lambda: np.sum(x, axis=axis, keepdims=keepdims, out=out)), out


def _bind_max(plan: Plan, node: Node):
    x = plan.values[node.inputs[0]]
    axis, keepdims = node.meta["axis"], node.meta["keepdims"]
    out = plan.pool.empty(node.shape, node.dtype)
    return (lambda: np.max(x, axis=axis, keepdims=keepdims, out=out)), out


def _bind_reshape(plan: Plan, node: Node):
    x = plan.values[node.inputs[0]]
    view = x.reshape(node.meta["shape"])
    if np.shares_memory(view, x):
        return None, view
    # Non-contiguous source: materialize through a bound buffer instead.
    out = plan.pool.empty(node.shape, node.dtype)
    out_as_in = out.reshape(x.shape)
    return (lambda: np.copyto(out_as_in, x)), out


def _bind_transpose(plan: Plan, node: Node):
    x = plan.values[node.inputs[0]]
    return None, np.transpose(x, node.meta["axes"])


def _bind_detach(plan: Plan, node: Node):
    return None, plan.values[node.inputs[0]]


# --------------------------------------------------------------------------- #
# the Gaussian-kernel bandwidth scale and counter dropout
#
# Both replay an eager helper that lives once outside the compiler
# (``repro.ib.hsic``'s median bandwidth, ``repro.nn.rng``'s dropout masks);
# every loss term, the IB-RAR HSIC regularizers included, is traced from its
# eager code onto the generic kernels above.
# --------------------------------------------------------------------------- #
def _bind_rbf_scale(plan: Plan, node: Node):
    """The Gaussian kernel's bandwidth scale ``-1 / (2 sigma^2)``, forward only.

    Replays :func:`repro.ib.hsic.rbf_scale`, whose input is detached, so the
    node never joins a gradient path and has no backward kernel.  A fixed
    ``meta["sigma"]`` is filled once at bind time; ``None`` re-derives the
    median bandwidth every replay through the shared
    :func:`~repro.ib.hsic.median_bandwidth_rows` over pooled scratch —
    bitwise the eager scale, with no per-replay allocation.
    """
    from ..ib.hsic import bandwidth_scale, median_bandwidth_rows

    x = plan.values[node.inputs[0]]
    out = plan.pool.empty((), node.dtype)
    sigma = node.meta["sigma"]
    if sigma is not None:
        out.fill(bandwidth_scale(sigma))
        return None, out
    n, dim = x.shape
    diffs = plan.pool.empty((max(n - 1, 0), dim), x.dtype)
    upper = plan.pool.empty((n * (n - 1) // 2,), x.dtype)
    return (lambda: out.fill(bandwidth_scale(median_bandwidth_rows(x, diffs, upper)))), out


def _bind_rng_mask(plan: Plan, node: Node):
    """Counter-based dropout: multiply by a pooled, replayable mask.

    The mask is a pure function of the owning module's live
    ``[seed, layer_id, step]`` state buffer (``meta["state"]`` aliases it,
    so in-place step advancement reaches the plan) and is refilled only
    when that triple moves — repeated forwards within one optimizer step
    (the TRADES anchor, the MI side forward) reuse one mask, exactly like
    the eager path.  The mask arithmetic lives once, in
    :class:`repro.compile.kernels.DropoutMask`, shared with eager
    ``F.dropout``, so eager and compiled masks are bitwise identical.
    """
    from .kernels import DropoutMask

    x = plan.values[node.inputs[0]]
    dm = DropoutMask(plan.pool, node.shape, node.dtype, node.meta["p"], node.meta["state"])
    out = plan.pool.empty(node.shape, node.dtype)
    node.meta["_rng"] = dm
    return (lambda: dm.run(x, out)), out


def _back_rng_mask(plan: Plan, node: Node):
    x_id = node.inputs[0]
    if x_id not in plan._diff:
        return None
    dm = node.meta["_rng"]
    mask = dm.mask
    g = plan.grads[node.id]
    write, gx = plan._sink(x_id)
    target = gx if write else plan.pool.empty(node.shape, node.dtype)

    def run() -> None:
        np.multiply(g, mask, out=target)
        if not write:
            np.add(gx, target, out=gx)

    return run


_FORWARD = {
    "conv2d": _bind_conv2d,
    "matmul": _bind_matmul,
    "add": _bind_binary(np.add),
    "mul": _bind_binary(np.multiply),
    "div": _bind_binary(np.divide),
    "maximum": _bind_binary(np.maximum),
    "neg": _bind_unary(lambda x, out: np.negative(x, out=out)),
    "relu": _bind_unary(lambda x, out: np.maximum(x, 0.0, out=out)),
    "exp": _bind_unary(lambda x, out: np.exp(x, out=out)),
    "log": _bind_unary(lambda x, out: np.log(x, out=out)),
    "sqrt": _bind_unary(lambda x, out: np.sqrt(x, out=out)),
    "batch_norm2d": _bind_batch_norm,
    "max_pool2d": _bind_max_pool,
    "avg_pool2d": _bind_avg_pool,
    "sum": _bind_sum,
    "max": _bind_max,
    "reshape": _bind_reshape,
    "transpose": _bind_transpose,
    "detach": _bind_detach,
    "rbf_scale": _bind_rbf_scale,
    "rng_mask": _bind_rng_mask,
}


# --------------------------------------------------------------------------- #
# backward binders
# --------------------------------------------------------------------------- #
def _relu_mask_step(plan: Plan, node: Node) -> Optional[Callable[[], None]]:
    """In-place ``g *= (out > 0)`` for producers with a fused ReLU."""
    if not node.meta.get("fuse_relu"):
        return None
    out = plan.values[node.id]
    g = plan.grads[node.id]
    mask = plan.pool.empty(node.shape, bool)

    def run() -> None:
        np.greater(out, 0.0, out=mask)
        np.multiply(g, mask, out=g)

    return run


def _accumulate_into(plan: Plan, target_id: int, source: np.ndarray):
    """A step sinking ``source`` (shaped like the node output) into a target grad.

    Handles broadcast inverses: when the target is smaller than the node
    output (a broadcast operand), the source is summed down into a bound
    scratch buffer first.  Single-contribution targets are overwritten
    instead of accumulated (see :meth:`Plan._sink`).
    """
    write, target = plan._sink(target_id)
    if target.shape == source.shape:
        if write:
            return lambda: np.copyto(target, source)
        return lambda: np.add(target, source, out=target)
    axes, kept = _reduction_spec(source.shape, target.shape)
    reduced = plan.pool.empty(kept, target.dtype)
    reduced_view = reduced.reshape(target.shape)

    def run() -> None:
        np.sum(source, axis=tuple(axes), keepdims=True, out=reduced)
        if write:
            np.copyto(target, reduced_view)
        else:
            np.add(target, reduced_view, out=target)

    return run


def _back_conv2d(plan: Plan, node: Node):
    x_id = node.inputs[0]
    w_id = node.inputs[1]
    b_id = node.inputs[2] if len(node.inputs) > 2 else None
    need_x = x_id in plan._diff
    need_w = w_id in plan._diff
    need_b = b_id is not None and b_id in plan._diff
    if not (need_x or need_w or need_b):
        # Unreachable for well-formed graphs (a conv is always on some
        # gradient path), kept as a safe default.
        return _relu_mask_step(plan, node)
    stride, padding = node.meta["stride"], node.meta["padding"]
    n, oc, out_h, out_w = node.shape
    x, weight = plan.values[x_id], plan.values[w_id]
    kernel = weight.shape[2]
    dtype = node.dtype
    g = plan.grads[node.id]
    mask2d = node.meta.get("_relu_mask2d")
    scratch = plan._step_scratch(node, backward=True)
    grad_mat = scratch["grad_mat"]
    gm_nhwc = grad_mat.reshape(n, out_h, out_w, oc)
    g_nhwc = g.transpose(0, 2, 3, 1)

    steps: List[Callable[[], None]] = []
    if need_w:
        xpad, cols, gw_mat = scratch["xpad"], scratch["cols"], scratch["gw_mat"]
        write_w, gw = plan._sink(w_id)
        part = gw if write_w else scratch["gw"]

        def weight_step() -> None:
            # The columns are rebuilt from the forward's input rather than
            # pooled between the forward and this step.  No later step
            # overwrites that input, which the max-pool and eval batch-norm
            # backward rely on too.
            conv2d_columns(x, kernel, stride, padding, out=cols, xpad=xpad)
            conv2d_weight_grad(grad_mat, cols, kernel, out=part, gw_mat=gw_mat)
            if not write_w:
                np.add(gw, part, out=gw)

        steps.append(weight_step)
    if need_b:
        write_b, gb = plan._sink(b_id)
        if write_b:
            steps.append(lambda: np.sum(grad_mat, axis=0, out=gb))
        else:
            scratch_b = plan.pool.empty(gb.shape, dtype)
            steps.append(
                lambda: (np.sum(grad_mat, axis=0, out=scratch_b), np.add(gb, scratch_b, out=gb))
            )
    if need_x:
        x_shape = plan.graph.node(x_id).shape
        write, gx = plan._sink(x_id)

        def input_step() -> None:
            result = conv2d_input_grad(grad_mat, weight, x_shape, stride, padding, scratch)
            if write:
                np.copyto(gx, result)
            else:
                np.add(gx, result, out=gx)

        steps.append(input_step)

    def run() -> None:
        gm_nhwc[...] = g_nhwc
        if mask2d is not None:
            np.multiply(grad_mat, mask2d, out=grad_mat)
        for step in steps:
            step()

    return run


def _back_matmul(plan: Plan, node: Node):
    a_id, b_id = node.inputs
    a, b = plan.values[a_id], plan.values[b_id]
    g = plan.grads[node.id]
    relu_step = _relu_mask_step(plan, node)
    steps: List[Callable[[], None]] = []
    if a_id in plan._diff:
        write_a, ga = plan._sink(a_id)
        # A ``Linear`` right operand is a transposed weight view, so ``.T``
        # is the contiguous weight of the eager ``grad @ weight``.
        b_t = b.T
        target_a = ga if write_a else plan.pool.empty(ga.shape, ga.dtype)
        if write_a:
            steps.append(lambda: np.matmul(g, b_t, out=target_a))
        else:
            steps.append(lambda: (np.matmul(g, b_t, out=target_a), np.add(ga, target_a, out=ga)))
    if b_id in plan._diff:
        write_b, gb = plan._sink(b_id)
        a_t = a.T
        target_b = gb if write_b else plan.pool.empty(gb.shape, gb.dtype)
        if write_b:
            steps.append(lambda: np.matmul(a_t, g, out=target_b))
        else:
            steps.append(lambda: (np.matmul(a_t, g, out=target_b), np.add(gb, target_b, out=gb)))

    def run() -> None:
        if relu_step is not None:
            relu_step()
        for step in steps:
            step()

    return run


def _back_add(plan: Plan, node: Node):
    g = plan.grads[node.id]
    relu_step = _relu_mask_step(plan, node)
    steps = [
        _accumulate_into(plan, input_id, g)
        for input_id in node.inputs
        if input_id in plan._diff
    ]

    def run() -> None:
        if relu_step is not None:
            relu_step()
        for step in steps:
            step()

    return run


def _back_mul(plan: Plan, node: Node):
    a_id, b_id = node.inputs
    g = plan.grads[node.id]
    scratch = plan.pool.empty(node.shape, node.dtype)
    steps: List[Callable[[], None]] = []
    for this_id, other_id in ((a_id, b_id), (b_id, a_id)):
        if this_id not in plan._diff:
            continue
        other = plan.values[other_id]
        accumulate = _accumulate_into(plan, this_id, scratch)
        steps.append(
            lambda other=other, accumulate=accumulate: (
                np.multiply(g, other, out=scratch),
                accumulate(),
            )
        )
    return lambda: [step() for step in steps]


def _back_div(plan: Plan, node: Node):
    a_id, b_id = node.inputs
    g = plan.grads[node.id]
    a = plan.values[a_id]
    b = plan.values[b_id]
    scratch = plan.pool.empty(node.shape, node.dtype)
    steps: List[Callable[[], None]] = []
    if a_id in plan._diff:
        accumulate_a = _accumulate_into(plan, a_id, scratch)
        steps.append(
            lambda accumulate=accumulate_a: (np.divide(g, b, out=scratch), accumulate())
        )
    if b_id in plan._diff:
        accumulate_b = _accumulate_into(plan, b_id, scratch)
        b_squared = plan.pool.empty(b.shape, node.dtype)

        def db() -> None:
            # d(a/b)/db = -a / b^2, in eager autograd's order ((-g) * a) / b**2
            np.negative(g, out=scratch)
            np.multiply(scratch, a, out=scratch)
            np.square(b, out=b_squared)
            np.divide(scratch, b_squared, out=scratch)
            accumulate_b()

        steps.append(db)
    return lambda: [step() for step in steps]


def _back_maximum(plan: Plan, node: Node):
    a_id, b_id = node.inputs
    a, b = plan.values[a_id], plan.values[b_id]
    g = plan.grads[node.id]
    mask = plan.pool.empty(node.shape, bool)
    scratch = plan.pool.empty(node.shape, node.dtype)
    steps: List[Callable[[], None]] = []
    if a_id in plan._diff:
        accumulate_a = _accumulate_into(plan, a_id, scratch)
        steps.append(
            lambda accumulate=accumulate_a: (
                np.greater_equal(a, b, out=mask),
                np.multiply(g, mask, out=scratch),
                accumulate(),
            )
        )
    if b_id in plan._diff:
        accumulate_b = _accumulate_into(plan, b_id, scratch)
        steps.append(
            lambda accumulate=accumulate_b: (
                np.less(a, b, out=mask),
                np.multiply(g, mask, out=scratch),
                accumulate(),
            )
        )
    return lambda: [step() for step in steps]


def _back_neg(plan: Plan, node: Node):
    g = plan.grads[node.id]
    write, gx = plan._sink(node.inputs[0])
    if write:
        return lambda: np.negative(g, out=gx)
    return lambda: np.subtract(gx, g, out=gx)


def _back_relu(plan: Plan, node: Node):
    out = plan.values[node.id]
    g = plan.grads[node.id]
    write, gx = plan._sink(node.inputs[0])
    mask = plan.pool.empty(node.shape, bool)
    target = gx if write else plan.pool.empty(node.shape, node.dtype)

    def run() -> None:
        np.greater(out, 0.0, out=mask)
        np.multiply(g, mask, out=target)
        if not write:
            np.add(gx, target, out=gx)

    return run


def _back_unary(grad: Callable[..., None]):
    """Backward for unary ops: ``grad(g, x, out, target, tmp)`` writes the
    input gradient into ``target`` in eager autograd's operation order."""

    def bind(plan: Plan, node: Node):
        x = plan.values[node.inputs[0]]
        out = plan.values[node.id]
        g = plan.grads[node.id]
        write, gx = plan._sink(node.inputs[0])
        target = gx if write else plan.pool.empty(node.shape, node.dtype)
        tmp = plan.pool.empty(node.shape, node.dtype)

        def run() -> None:
            grad(g, x, out, target, tmp)
            if not write:
                np.add(gx, target, out=gx)

        return run

    return bind


def _back_batch_norm(plan: Plan, node: Node):
    relu_step = _relu_mask_step(plan, node)
    targets: Dict[str, np.ndarray] = {}
    adds: List[Tuple[np.ndarray, np.ndarray]] = []
    for name, input_id in zip(("grad_x", "grad_gamma", "grad_beta"), node.inputs):
        if input_id in plan._diff:
            write, grad = plan._sink(input_id)
            targets[name] = grad if write else plan.pool.empty(grad.shape, grad.dtype)
            if not write:
                adds.append((grad, targets[name]))
    if not targets:
        return relu_step
    g = plan.grads[node.id]
    x, gamma = plan.values[node.inputs[0]], plan.values[node.inputs[1]]
    saved, training = node.meta["_saved"], bool(node.meta["training"])
    scratch = plan._step_scratch(node, backward=True)

    def run() -> None:
        if relu_step is not None:
            relu_step()
        batch_norm2d_grad(g, x, gamma, saved, training, scratch=scratch, **targets)
        for grad, target in adds:
            np.add(grad, target, out=grad)

    return run


def _back_max_pool(plan: Plan, node: Node):
    kernel, stride = node.meta["kernel"], node.meta["stride"]
    x, out, g = plan.values[node.inputs[0]], plan.values[node.id], plan.grads[node.id]
    _, gx = plan._sink(node.inputs[0], supports_write=False)
    scratch = (
        plan.pool.empty(node.shape, bool),
        plan.pool.empty(node.shape, bool),
        plan.pool.empty(node.shape, node.dtype),
    )
    return lambda: max_pool2d_grad(g, x, out, kernel, stride, gx, scratch)


def _back_avg_pool(plan: Plan, node: Node):
    kernel, stride = node.meta["kernel"], node.meta["stride"]
    g = plan.grads[node.id]
    _, gx = plan._sink(node.inputs[0], supports_write=False)
    scratch = plan.pool.empty(node.shape, node.dtype)
    return lambda: avg_pool2d_grad(g, kernel, stride, gx, scratch)


def _back_sum(plan: Plan, node: Node):
    axis, keepdims = node.meta["axis"], node.meta["keepdims"]
    g = plan.grads[node.id]
    write, gx = plan._sink(node.inputs[0])
    if axis is None or keepdims:
        g_view = g
    else:
        axes = axis if isinstance(axis, tuple) else (axis,)
        axes = tuple(a % gx.ndim for a in axes)
        expanded = tuple(1 if i in axes else s for i, s in enumerate(gx.shape))
        g_view = g.reshape(expanded)
    if write:
        return lambda: np.copyto(gx, g_view)  # broadcasts the reduced grad
    return lambda: np.add(gx, g_view, out=gx)


def _back_max(plan: Plan, node: Node):
    """Eager :meth:`Tensor.max` backward: tied maxima split the gradient evenly."""
    x = plan.values[node.inputs[0]]
    axis = node.meta["axis"]
    if axis is not None:
        axis = tuple(a % x.ndim for a in (axis if isinstance(axis, tuple) else (axis,)))
    kept = tuple(
        1 if axis is None or i in axis else size for i, size in enumerate(x.shape)
    )
    out = plan.values[node.id].reshape(kept)
    g = plan.grads[node.id].reshape(kept)
    mask = plan.pool.empty(x.shape, bool)
    counts = plan.pool.empty(kept, node.dtype)
    write, gx = plan._sink(node.inputs[0])
    target = gx if write else plan.pool.empty(x.shape, node.dtype)

    def run() -> None:
        np.equal(x, out, out=mask)
        np.sum(mask, axis=axis, keepdims=True, out=counts)
        np.maximum(counts, 1.0, out=counts)
        np.multiply(mask, g, out=target)
        np.divide(target, counts, out=target)
        if not write:
            np.add(gx, target, out=gx)

    return run


def _back_reshape(plan: Plan, node: Node):
    g = plan.grads[node.id]
    write, gx = plan._sink(node.inputs[0])
    g_view = g.reshape(gx.shape)
    if write:
        return lambda: np.copyto(gx, g_view)
    return lambda: np.add(gx, g_view, out=gx)


def _back_transpose(plan: Plan, node: Node):
    g = plan.grads[node.id]
    write, gx = plan._sink(node.inputs[0])
    axes = node.meta["axes"]
    inverse = None if axes is None else np.argsort(axes)
    g_view = np.transpose(g, inverse)
    if write:
        return lambda: np.copyto(gx, g_view)
    return lambda: np.add(gx, g_view, out=gx)


#: op -> ``(graph, node) -> (forward, backward)`` layouts of the step-local
#: buffers its binders take from :meth:`Plan._step_scratch`.  A layout is a
#: tuple of ``name -> shape`` groups: the first is packed from the region's
#: start, each later one from the end of the first, all over the same bytes
#: (buffers of parts of the step that run one after another).
_STEP_SCRATCH = {
    "conv2d": _conv_scratch,
    "batch_norm2d": lambda graph, node: (
        ({},), (batch_norm2d_buffers(node.shape, node.meta["training"]),)
    ),
}

_BACKWARD = {
    "conv2d": _back_conv2d,
    "matmul": _back_matmul,
    "add": _back_add,
    "mul": _back_mul,
    "div": _back_div,
    "maximum": _back_maximum,
    "neg": _back_neg,
    "relu": _back_relu,
    "exp": _back_unary(lambda g, x, out, t, tmp: np.multiply(g, out, out=t)),
    "log": _back_unary(lambda g, x, out, t, tmp: np.divide(g, x, out=t)),
    "sqrt": _back_unary(
        lambda g, x, out, t, tmp: (
            np.multiply(g, 0.5, out=t),
            np.maximum(out, 1e-12, out=tmp),
            np.divide(t, tmp, out=t),
        )
    ),
    "batch_norm2d": _back_batch_norm,
    "max_pool2d": _back_max_pool,
    "avg_pool2d": _back_avg_pool,
    "sum": _back_sum,
    "max": _back_max,
    "reshape": _back_reshape,
    "transpose": _back_transpose,
    "rng_mask": _back_rng_mask,
}
