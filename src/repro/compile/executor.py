"""Buffer-bound plan execution: ``out=`` kernels over a :class:`BufferPool`.

A :class:`Plan` binds an optimized :class:`~repro.compile.graph.Graph` to
pre-allocated buffers: every op output, gradient accumulator and scratch
array (im2col columns, pooling argmax indices, ReLU masks) is allocated once
at bind time, and replays write into those same arrays with ``out=``-style
NumPy kernels.  Steady-state iterations therefore perform zero pool
allocations — the property the attack hot path (tens of gradient steps per
batch) is bought with.

Three gradient modes exist.  ``grad="input"`` (the attack/eval default)
computes the gradient **with respect to the input only** — parameters are
baked in (or aliased, for live-parameter plans), so the weight-gradient
matmuls the eager engine performs on every attack step (and throws away)
are never executed.  ``grad="params"`` (the training mode) instead seeds
the differentiation set from the graph's live ``"param"`` nodes and
accumulates **full parameter gradients** into pre-allocated pooled buffers;
:meth:`Plan.run_backward` additionally accepts gradient seeds at named
intermediate nodes (registered via ``seed_ids``).  ``grad="both"`` binds
**two backward programs over shared gradient buffers**: a fused
input+param program (one im2col read and one col2im scatter per
convolution emit the input gradient *and* the weight/bias gradients in a
single pass) driven by :meth:`run_backward`, and an input-only program
driven by :meth:`backward` — the attack hot path, which skips every
weight-gradient matmul.  A mode-invariant graph (no batch norm) can then
serve PGD-AT's inner attack loop and its outer optimizer step from one
plan.

Graphs may carry named ``aux`` input leaves (per-batch arrays that are not
the traced input: another plan's logits buffer, a one-hot label matrix).
Each binds to a caller-supplied alias or to a pooled buffer filled through
:meth:`Plan.set_aux`; names listed in ``grad_aux`` additionally receive
gradient accumulators, which is how an in-plan loss term hands its gradient
to the plan that produced the aliased buffer (TRADES' KL gradient with
respect to the clean logits).  Every loss term other than the fused CE —
TRADES' KL, the MART objective, the IB-RAR HSIC regularizers — is traced
from its eager code (:meth:`~repro.compile.graph.Graph.append_traced`), so
it binds the same generic per-primitive kernels as the model itself; the
only loss-specific kernel is the forward-only ``rbf_scale`` (the Gaussian
kernel's per-batch median bandwidth).

Live-parameter plans (graphs captured with ``live_params=True``) alias
``param.data`` directly and re-read it on every replay — one plan survives
every in-place optimizer step.  Training-mode batch norms recompute batch
statistics per replay and update the module's running buffers in place,
reproducing the eager update sequence bit for bit.

Losses are fused: :meth:`Plan.value_and_grad_ce` evaluates softmax
cross-entropy and seeds the backward pass with the closed-form
``softmax(z) - onehot(y)`` gradient in scratch buffers.
"""

from __future__ import annotations

from time import perf_counter as _perf_counter
from typing import Callable, Dict, List, Mapping, Optional, Sequence, Set, Tuple

import numpy as np
from numpy.lib.stride_tricks import as_strided

from ..obs.profiler import PROFILER as _PROFILER
from .graph import CompileError, Graph, LEAF_OPS as _LEAF_OPS, Node
from .passes import bn_scale_shift
from .pool import BufferPool

__all__ = ["Plan"]


def _patch_view(x: np.ndarray, kernel: int, stride: int, out_h: int, out_w: int) -> np.ndarray:
    """(N, C, out_h, out_w, k, k) sliding-window view over an NCHW array."""
    n, c = x.shape[:2]
    s0, s1, s2, s3 = x.strides
    return as_strided(
        x,
        shape=(n, c, out_h, out_w, kernel, kernel),
        strides=(s0, s1, s2 * stride, s3 * stride, s2, s3),
    )


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
        buffers exposed via :meth:`param_grads`); ``"both"`` binds a fused
        input+param backward program plus a fast input-only program.
    seed_ids:
        Node ids that may receive external gradient seeds through
        :meth:`run_backward` (hidden-output nodes, in-plan loss scalars) —
        named graph outputs, or nodes upstream of the output.
        Registering them as extra contributors keeps the dead-write
        elimination from overwriting injected seeds.
    aux:
        ``name -> array`` aliases for the graph's aux input leaves; unbound
        names get pooled buffers, filled per batch via :meth:`set_aux`.
    grad_aux:
        Aux names to include in the differentiation set; their accumulated
        gradients are read back through :meth:`aux_grad`.
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
    ) -> None:
        if grad not in ("input", "params", "both"):
            raise ValueError(f"unknown grad mode '{grad}'; use 'input', 'params' or 'both'")
        self.graph = graph
        self.grad_mode = grad
        self.pool = BufferPool()
        #: node id -> forward value (const arrays, bound buffers, or views).
        self.values: Dict[int, np.ndarray] = {}
        #: node id -> gradient accumulator (shared across backward programs).
        self.grads: Dict[int, np.ndarray] = {}
        #: aux name -> bound array (aliases and pooled buffers alike).
        self.aux_values: Dict[str, np.ndarray] = {}
        #: (Parameter, node id) pairs for live-parameter graphs.
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
        #: backward programs by name ("full" and/or "input"); each holds the
        #: bound step list, the buffers to zero per run, its diff set and
        #: the seed ids it honours.
        self._programs: Dict[str, dict] = {}
        self._ce: Optional[dict] = None
        self._bind()

    @property
    def input_shape(self) -> Tuple[int, ...]:
        return self.graph.input_node.shape

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

    def profile_snapshot(self) -> Optional[dict]:
        """Per-op-kind profile plus pool high-water marks; ``None`` if never
        profiled (the profiler was off for every replay of this plan)."""
        if self._profile is None:
            return None
        allocations, nbytes = self.pool.snapshot()
        return {
            "signature": self.signature,
            "ops": self._profile.as_dict(),
            "pool": {"allocations": allocations, "bytes": nbytes},
        }

    # ------------------------------------------------------------------ #
    # binding
    # ------------------------------------------------------------------ #
    def _bind(self) -> None:
        graph = self.graph
        self._input = self.pool.empty(graph.input_node.shape, graph.input_node.dtype)
        self.values[graph.input_id] = self._input
        for node in graph.nodes:
            if node.op == "input":
                continue
            if node.op == "const":
                # ascontiguousarray promotes 0-d scalars to (1,); keep them 0-d.
                self.values[node.id] = (
                    node.value if node.value.ndim == 0 else np.ascontiguousarray(node.value)
                )
                continue
            if node.op == "param":
                # Live leaf: alias the parameter's storage.  Replays re-read
                # it, so in-place optimizer updates flow into the plan; the
                # identity guard in :meth:`forward` catches reallocation.
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

        aux_grad_ids = tuple(graph.aux[name] for name in self._grad_aux)
        if self.grad_mode == "input":
            specs = [("input", True, False, aux_grad_ids)]
        elif self.grad_mode == "params":
            specs = [("full", False, True, aux_grad_ids)]
        else:  # both: the fused full program plus the attack-loop fast path
            specs = [("full", True, True, aux_grad_ids), ("input", True, False, ())]
        for name, include_input, include_params, extra in specs:
            program = self._bind_program(include_input, include_params, extra)
            if program is not None:
                self._programs[name] = program
        # The binders communicate through _diff/_seed_ids/_contributions/
        # _fill_ids, which are rebound per program during binding; afterwards
        # re-point the public-ish pair at the *primary* program (the fullest
        # differentiation set) and drop the binding-only scratch, so nothing
        # can read a stale secondary-program view after __init__.
        primary = self._programs.get("full") or self._programs.get("input")
        self._diff = set(primary["diff"]) if primary is not None else set()
        self._seed_ids = set(primary["seeds"]) if primary is not None else set()
        for scratch in ("_contributions", "_fill_ids"):
            if hasattr(self, scratch):  # absent on forward-only plans
                delattr(self, scratch)

    def _bind_program(
        self, include_input: bool, include_params: bool, extra: Tuple[int, ...]
    ) -> Optional[dict]:
        """Bind one backward program; ``None`` when no gradient path exists.

        Programs share the per-node gradient buffers in :attr:`grads` but
        own their step list, zero-fill set and dead-write (sink) decisions —
        the same buffer may be overwritten by its sole contributor in one
        program and accumulated into in another.
        """
        graph = self.graph
        self._diff = graph.grad_path(
            include_input=include_input, include_params=include_params, extra=extra
        )
        if graph.output_id not in self._diff:
            return None
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
                if node.id not in self.grads:
                    self.grads[node.id] = self.pool.empty(node.shape, node.dtype)
                self._fill_ids.add(node.id)
        self._fill_ids.discard(graph.output_id)  # seeded by copyto
        steps: List[Callable[[], None]] = []
        meta: List[Tuple[str, int]] = []
        for node in reversed(graph.nodes):
            if node.id not in self._diff or node.op in _LEAF_OPS:
                continue
            binder = _BACKWARD.get(node.op)
            if binder is None:
                raise CompileError(f"op '{node.op}' has no compiled backward kernel")
            step = binder(self, node)
            if step is not None:
                steps.append(step)
                meta.append((node.op + ".bwd", self.values[node.id].nbytes))
        return {
            "steps": steps,
            "meta": meta,
            "fill": [self.grads[node_id] for node_id in self._fill_ids],
            "diff": frozenset(self._diff),
            "seeds": set(self._seed_ids),
        }

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
    def forward(self, x: np.ndarray) -> np.ndarray:
        """Replay the forward pass; returns the (plan-owned) output array."""
        for param, node_id in self.params:
            if self.values[node_id] is not param.data:
                raise CompileError(
                    "parameter storage was reallocated (non-in-place update); recompile the plan"
                )
        np.copyto(self._input, x)
        if _PROFILER.enabled:
            self._replay_profiled(self._forward_steps, self._forward_meta)
        else:
            for step in self._forward_steps:
                step()
        return self.values[self.graph.output_id]

    def backward(self, output_grad: np.ndarray) -> np.ndarray:
        """Input gradient for the most recent :meth:`forward` call.

        Runs the input-only backward program: on a ``grad="both"`` plan this
        is the attack fast path, skipping every parameter-gradient kernel.
        """
        program = self._programs.get("input")
        if program is None:
            if self.grad_mode == "params":
                raise CompileError("backward() needs an input-gradient plan; use run_backward()")
            raise CompileError("this plan has no gradient path from output to input")
        self._run_program(program, {self.graph.output_id: output_grad})
        return self.grads[self.graph.input_id]

    def run_backward(self, seeds: Mapping[int, np.ndarray]) -> None:
        """Replay the backward pass from per-node gradient seeds.

        ``seeds`` maps node ids to gradient arrays: the output node's seed is
        copied in (zero when absent), every other seed is **added** to that
        node's freshly zeroed accumulator before the kernels run — the form
        composite losses need, where the fused-CE output seed and the
        in-plan loss scalars' seeds join one pass.  Non-output seed ids must
        have been registered via ``seed_ids`` at bind time (otherwise a
        single-contribution writer overwrites them).  On a ``grad="both"``
        plan this drives the fused input+param program.
        """
        program = self._programs.get("full") or self._programs.get("input")
        if program is None:
            raise CompileError("this plan has no gradient path to its leaves")
        self._run_program(program, seeds)

    def _run_program(self, program: dict, seeds: Mapping[int, np.ndarray]) -> None:
        for buffer in program["fill"]:
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
            if node_id not in program["seeds"]:
                raise CompileError(f"node {node_id} was not registered as a seed point")
            target = self.grads[node_id]
            np.add(target, seed, out=target)
        if _PROFILER.enabled:
            self._replay_profiled(program["steps"], program["meta"])
        else:
            for step in program["steps"]:
                step()

    def input_grad(self) -> np.ndarray:
        """The input-gradient buffer of the most recent backward replay."""
        grad = self.grads.get(self.graph.input_id)
        if grad is None:
            raise CompileError("this plan does not differentiate its input")
        return grad

    def set_aux(self, name: str, value: np.ndarray) -> None:
        """Copy ``value`` into the named aux buffer (fill-per-batch form)."""
        np.copyto(self.aux_values[name], value)

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
        scratch array) ready for :meth:`backward` / :meth:`run_backward` —
        no loss graph is ever built.
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
        loss = float(np.mean(logz) - np.mean(picked))
        np.divide(p, z, out=p)
        p[arange, labels] -= 1.0
        p *= 1.0 / len(labels)
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
def _is_live(plan: Plan, node_id: int) -> bool:
    """Whether ``node_id`` is a live-parameter leaf (re-read every replay)."""
    return plan.graph.node(node_id).op == "param"


def _bind_conv2d(plan: Plan, node: Node):
    x = plan.values[node.inputs[0]]
    weight = plan.values[node.inputs[1]]
    bias = plan.values[node.inputs[2]] if len(node.inputs) > 2 else None
    stride, padding = node.meta["stride"], node.meta["padding"]
    fuse_relu = node.meta.get("fuse_relu", False)
    n, c, h, w = x.shape
    oc = weight.shape[0]
    kernel = weight.shape[2]
    _, _, out_h, out_w = node.shape
    dtype = node.dtype

    if _is_live(plan, node.inputs[1]):
        # Live weights change under the optimizer every step: matmul against
        # a transposed *view* so each replay reads the current values (BLAS
        # handles the transposed operand natively, same math as the eager
        # ``cols @ w_mat.T``).
        w_t = weight.reshape(oc, -1).T
    else:
        w_t = np.ascontiguousarray(weight.reshape(oc, -1).T)

    if padding:
        padded = plan.pool.zeros((n, c, h + 2 * padding, w + 2 * padding), dtype)
        interior = padded[:, :, padding:-padding, padding:-padding]
        source = padded
    else:
        interior = None
        source = x
    patches = _patch_view(source, kernel, stride, out_h, out_w).transpose(0, 2, 3, 1, 4, 5)
    cols = plan.pool.empty((n * out_h * out_w, c * kernel * kernel), dtype)
    node.meta["_cols"] = cols  # the weight-gradient matmul reads these
    cols6 = cols.reshape(n, out_h, out_w, c, kernel, kernel)
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
        if interior is not None:
            interior[...] = x
        cols6[...] = patches
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


def _bind_clip(plan: Plan, node: Node):
    x = plan.values[node.inputs[0]]
    low, high = node.meta["low"], node.meta["high"]
    out = plan.pool.empty(node.shape, node.dtype)
    return (lambda: np.clip(x, low, high, out=out)), out


def _bind_pow(plan: Plan, node: Node):
    x = plan.values[node.inputs[0]]
    exponent = node.meta["exponent"]
    out = plan.pool.empty(node.shape, node.dtype)
    return (lambda: np.power(x, exponent, out=out)), out


def _bind_batch_norm(plan: Plan, node: Node):
    if node.meta.get("training"):
        return _bind_batch_norm_train(plan, node)
    x = plan.values[node.inputs[0]]
    gamma = plan.values[node.inputs[1]]
    beta = plan.values[node.inputs[2]]
    c = node.shape[1]
    dtype = node.dtype
    fuse_relu = node.meta.get("fuse_relu", False)
    out = plan.pool.empty(node.shape, dtype)
    live = _is_live(plan, node.inputs[1]) or _is_live(plan, node.inputs[2])

    if not live:
        scale, shift = bn_scale_shift(
            gamma, beta, node.meta["mean"], node.meta["var"], node.meta["eps"], dtype
        )
        scale_r = scale.reshape(1, c, 1, 1)
        shift_r = shift.reshape(1, c, 1, 1)
        node.meta["_scale"] = scale_r

        def step() -> None:
            np.multiply(x, scale_r, out=out)
            np.add(out, shift_r, out=out)
            if fuse_relu:
                np.maximum(out, 0.0, out=out)

        return step, out

    # Live gamma/beta (and live running stats, updated by interleaved
    # training forwards): re-derive the per-channel affine every replay, in
    # float64 like :func:`bn_scale_shift`, into persistent buffers.
    mean_ref, var_ref = node.meta["mean"], node.meta["var"]
    eps = node.meta["eps"]
    scale64 = plan.pool.empty((c,), np.float64)
    shift64 = plan.pool.empty((c,), np.float64)
    scale_r = plan.pool.empty((1, c, 1, 1), dtype)
    shift_r = plan.pool.empty((1, c, 1, 1), dtype)
    scale_cast = scale_r.reshape(c)
    shift_cast = shift_r.reshape(c)
    node.meta["_scale"] = scale_r

    def step() -> None:
        np.add(var_ref, eps, out=shift64)
        np.sqrt(shift64, out=shift64)
        np.divide(gamma, shift64, out=scale64)
        np.multiply(mean_ref, scale64, out=shift64)
        np.subtract(beta, shift64, out=shift64)
        scale_cast[...] = scale64
        shift_cast[...] = shift64
        np.multiply(x, scale_r, out=out)
        np.add(out, shift_r, out=out)
        if fuse_relu:
            np.maximum(out, 0.0, out=out)

    return step, out


def _bind_batch_norm_train(plan: Plan, node: Node):
    """Batch-stat batch norm with in-place running-statistic updates.

    Reproduces :func:`repro.nn.functional.batch_norm2d`'s training branch
    operation for operation: batch mean/var in the input dtype, running
    buffers (kept in their own dtype) updated with the eager expression's
    evaluation order, normalization through ``x_hat`` (stored for the
    backward kernel) and the unbiased-variance correction on the running
    update.
    """
    x = plan.values[node.inputs[0]]
    gamma = plan.values[node.inputs[1]]
    beta = plan.values[node.inputs[2]]
    n, c, h, w = node.shape
    dtype = node.dtype
    fuse_relu = node.meta.get("fuse_relu", False)
    momentum = node.meta["momentum"]
    eps = node.meta["eps"]
    running_mean = node.meta["running_mean"]
    running_var = node.meta["running_var"]
    count = n * h * w
    var_factor = count / max(count - 1, 1)

    mean_c = plan.pool.empty((c,), dtype)
    var_c = plan.pool.empty((c,), dtype)
    std_c = plan.pool.empty((c,), dtype)
    scratch_c = plan.pool.empty((c,), dtype)
    x_hat = plan.pool.empty(node.shape, dtype)
    out = plan.pool.empty(node.shape, dtype)
    mean_r = mean_c.reshape(1, c, 1, 1)
    std_r = std_c.reshape(1, c, 1, 1)
    gamma_r = gamma.reshape(1, c, 1, 1)
    beta_r = beta.reshape(1, c, 1, 1)
    node.meta["_x_hat"] = x_hat
    node.meta["_std"] = std_r
    node.meta["_gamma_r"] = gamma_r

    def step() -> None:
        np.mean(x, axis=(0, 2, 3), out=mean_c)
        np.var(x, axis=(0, 2, 3), out=var_c)
        np.multiply(running_mean, 1.0 - momentum, out=running_mean)
        np.multiply(mean_c, momentum, out=scratch_c)
        np.add(running_mean, scratch_c, out=running_mean)
        np.multiply(running_var, 1.0 - momentum, out=running_var)
        np.multiply(var_c, momentum, out=scratch_c)
        np.multiply(scratch_c, var_factor, out=scratch_c)
        np.add(running_var, scratch_c, out=running_var)
        np.add(var_c, eps, out=std_c)
        np.sqrt(std_c, out=std_c)
        np.subtract(x, mean_r, out=x_hat)
        np.divide(x_hat, std_r, out=x_hat)
        np.multiply(x_hat, gamma_r, out=out)
        np.add(out, beta_r, out=out)
        if fuse_relu:
            np.maximum(out, 0.0, out=out)

    return step, out


def _bind_max_pool(plan: Plan, node: Node):
    x = plan.values[node.inputs[0]]
    kernel, stride = node.meta["kernel"], node.meta["stride"]
    n, c, out_h, out_w = node.shape

    if kernel == 2 and stride == 2:
        # Specialized 2x2/stride-2 pool: a maximum tree over four strided
        # window views — no patch materialization, no argmax pass.  The
        # backward kernel re-derives the winner masks from the stored output
        # with argmax (first-index) tie-breaking.
        windows = [
            x[:, :, ki : ki + 2 * out_h : 2, kj : kj + 2 * out_w : 2]
            for ki in (0, 1)
            for kj in (0, 1)
        ]
        node.meta["_windows"] = windows
        scratch = plan.pool.empty(node.shape, node.dtype)
        out = plan.pool.empty(node.shape, node.dtype)

        def step() -> None:
            np.maximum(windows[0], windows[1], out=out)
            np.maximum(windows[2], windows[3], out=scratch)
            np.maximum(out, scratch, out=out)

        return step, out

    patches = _patch_view(x, kernel, stride, out_h, out_w)
    flat = plan.pool.empty((n, c, out_h, out_w, kernel * kernel), node.dtype)
    flat6 = flat.reshape(n, c, out_h, out_w, kernel, kernel)
    flat2 = flat.reshape(-1, kernel * kernel)
    argmax = np.empty((n, c, out_h, out_w), dtype=np.intp)
    plan.pool._register(argmax)
    argmax_flat = argmax.reshape(-1)
    rows = np.arange(n * c * out_h * out_w)
    plan.pool._register(rows)
    node.meta["_argmax"] = argmax
    node.meta["_rows"] = rows
    out = plan.pool.empty(node.shape, node.dtype)
    out_flat = out.reshape(-1)

    def step() -> None:
        flat6[...] = patches
        np.argmax(flat, axis=-1, out=argmax)
        # Gather the winners through the argmax (cheaper than a second
        # full reduction, and tie-breaking matches the eager kernel).
        out_flat[...] = flat2[rows, argmax_flat]

    return step, out


def _bind_avg_pool(plan: Plan, node: Node):
    x = plan.values[node.inputs[0]]
    kernel, stride = node.meta["kernel"], node.meta["stride"]
    n, c, out_h, out_w = node.shape
    patches = _patch_view(x, kernel, stride, out_h, out_w)
    out = plan.pool.empty(node.shape, node.dtype)
    return (lambda: np.mean(patches, axis=(-1, -2), out=out)), out


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


def _bind_pad2d(plan: Plan, node: Node):
    x = plan.values[node.inputs[0]]
    padding = node.meta["padding"]
    out = plan.pool.zeros(node.shape, node.dtype)
    interior = out[..., padding:-padding, padding:-padding]
    return (lambda: np.copyto(interior, x)), out


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
    "abs": _bind_unary(lambda x, out: np.abs(x, out=out)),
    "tanh": _bind_unary(lambda x, out: np.tanh(x, out=out)),
    "sigmoid": _bind_unary(
        lambda x, out: (
            np.negative(x, out=out),
            np.exp(out, out=out),
            np.add(out, 1.0, out=out),
            np.divide(1.0, out, out=out),
        )
    ),
    "clip": _bind_clip,
    "pow": _bind_pow,
    "batch_norm2d": _bind_batch_norm,
    "max_pool2d": _bind_max_pool,
    "avg_pool2d": _bind_avg_pool,
    "sum": _bind_sum,
    "max": _bind_max,
    "reshape": _bind_reshape,
    "transpose": _bind_transpose,
    "pad2d": _bind_pad2d,
    "detach": _bind_detach,
    "rbf_scale": _bind_rbf_scale,
    "rng_mask": _bind_rng_mask,
}


# --------------------------------------------------------------------------- #
# backward binders (input-gradient only; parameters are plan constants)
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
    _, oc, out_h, out_w = node.shape
    weight = plan.values[w_id]
    kernel = weight.shape[2]
    dtype = node.dtype
    g = plan.grads[node.id]
    mask2d = node.meta.get("_relu_mask2d")
    cols = node.meta["_cols"]

    n = node.shape[0]
    grad_mat = plan.pool.empty((n * out_h * out_w, oc), dtype)
    gm_nhwc = grad_mat.reshape(n, out_h, out_w, oc)
    g_nhwc = g.transpose(0, 2, 3, 1)

    steps: List[Callable[[], None]] = []
    if need_w:
        # grad_w = grad_mat.T @ cols — the exact matmul the eager kernel
        # runs, reading the im2col buffer the forward replay just filled.
        write_w, gw = plan._sink(w_id)
        gw2d = gw.reshape(oc, -1)
        grad_mat_t = grad_mat.T
        if write_w:
            steps.append(lambda: np.matmul(grad_mat_t, cols, out=gw2d))
        else:
            scratch_w = plan.pool.empty(gw2d.shape, dtype)
            steps.append(
                lambda: (np.matmul(grad_mat_t, cols, out=scratch_w), np.add(gw2d, scratch_w, out=gw2d))
            )
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
        x_node = plan.graph.node(x_id)
        n, c, h, w = x_node.shape
        write, gx = plan._sink(x_id)
        grad_cols = plan.pool.empty((n * out_h * out_w, kernel * kernel * c), dtype)
        live_w = _is_live(plan, w_id)

        # The col2im scatter is k*k strided slice-adds; pick the layout whose
        # innermost contiguous run is longest.  Wide feature maps with few
        # channels (stem convolutions) scatter fastest over NCHW rows; deep
        # layers (channels >= spatial width) over NHWC channel vectors.
        nhwc = c >= out_w
        if nhwc:
            if live_w:
                # Refresh a persistent buffer from the live weights each
                # replay (a strided copy — no allocation).
                w_mat = plan.pool.empty((oc, kernel * kernel * c), dtype)
                w_mat_src = weight.transpose(0, 2, 3, 1)
                w_mat_view = w_mat.reshape(oc, kernel, kernel, c)
                refresh = lambda: np.copyto(w_mat_view, w_mat_src)
            else:
                w_mat = np.ascontiguousarray(weight.transpose(0, 2, 3, 1).reshape(oc, -1))
                refresh = None
            gc = grad_cols.reshape(n, out_h, out_w, kernel, kernel, c)
            gpad = plan.pool.empty((n, h + 2 * padding, w + 2 * padding, c), dtype)
            interior = gpad[:, padding : padding + h, padding : padding + w, :].transpose(0, 3, 1, 2)

            def slice_of(target, ki: int, kj: int):
                return target[:, ki : ki + stride * out_h : stride, kj : kj + stride * out_w : stride, :]

            def col_of(ki: int, kj: int):
                return gc[:, :, :, ki, kj, :]

        else:
            # weight.reshape on the contiguous parameter array is a view, so
            # live weights need no refresh here.
            w_mat = weight.reshape(oc, -1)
            refresh = None
            gc = grad_cols.reshape(n, out_h, out_w, c, kernel, kernel).transpose(0, 3, 1, 2, 4, 5)
            gpad = plan.pool.empty((n, c, h + 2 * padding, w + 2 * padding), dtype)
            interior = gpad[:, :, padding : padding + h, padding : padding + w]

            def slice_of(target, ki: int, kj: int):
                return target[:, :, ki : ki + stride * out_h : stride, kj : kj + stride * out_w : stride]

            def col_of(ki: int, kj: int):
                return gc[:, :, :, :, ki, kj]

        # The col2im (scatter target view, column view) pairs, built once.
        pairs = [
            (slice_of(gpad, ki, kj), col_of(ki, kj))
            for ki in range(kernel)
            for kj in range(kernel)
        ]

        def input_step() -> None:
            if refresh is not None:
                refresh()
            np.matmul(grad_mat, w_mat, out=grad_cols)
            gpad.fill(0)
            for target, column in pairs:
                np.add(target, column, out=target)
            if write:
                np.copyto(gx, interior)
            else:
                np.add(gx, interior, out=gx)

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
        # A constant right operand is a folded ``Linear`` weight transpose:
        # multiply by the contiguous weight, the operand layout of the eager
        # ``grad @ weight`` (a live operand's ``.T`` already is that view).
        b_t = np.ascontiguousarray(b.T) if plan.graph.node(b_id).is_const() else b.T
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
    out = plan.values[node.id]
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

        def db() -> None:
            # d(a/b)/db = -a / b^2 = -(a/b) / b = -out / b
            np.multiply(g, out, out=scratch)
            np.divide(scratch, b, out=scratch)
            np.negative(scratch, out=scratch)
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


def _back_clip(plan: Plan, node: Node):
    x = plan.values[node.inputs[0]]
    low, high = node.meta["low"], node.meta["high"]
    g = plan.grads[node.id]
    write, gx = plan._sink(node.inputs[0])
    mask = plan.pool.empty(node.shape, bool)
    scratch_mask = plan.pool.empty(node.shape, bool)
    target = gx if write else plan.pool.empty(node.shape, node.dtype)

    def run() -> None:
        np.greater_equal(x, low, out=mask)
        np.less_equal(x, high, out=scratch_mask)
        np.logical_and(mask, scratch_mask, out=mask)
        np.multiply(g, mask, out=target)
        if not write:
            np.add(gx, target, out=gx)

    return run


def _back_pow(plan: Plan, node: Node):
    x = plan.values[node.inputs[0]]
    exponent = node.meta["exponent"]
    g = plan.grads[node.id]
    write, gx = plan._sink(node.inputs[0])
    target = gx if write else plan.pool.empty(node.shape, node.dtype)

    def run() -> None:
        np.power(x, exponent - 1, out=target)
        np.multiply(target, exponent, out=target)
        np.multiply(target, g, out=target)
        if not write:
            np.add(gx, target, out=gx)

    return run


def _back_unary_from_out(factor: Callable[[np.ndarray, np.ndarray, np.ndarray], None]):
    """Backward for unary ops whose derivative is a function of x and out."""

    def bind(plan: Plan, node: Node):
        x = plan.values[node.inputs[0]]
        out = plan.values[node.id]
        g = plan.grads[node.id]
        write, gx = plan._sink(node.inputs[0])
        target = gx if write else plan.pool.empty(node.shape, node.dtype)

        def run() -> None:
            factor(x, out, target)
            np.multiply(target, g, out=target)
            if not write:
                np.add(gx, target, out=gx)

        return run

    return bind


def _back_batch_norm(plan: Plan, node: Node):
    if node.meta.get("training"):
        return _back_batch_norm_train(plan, node)
    x_id = node.inputs[0]
    if x_id not in plan._diff:
        return _relu_mask_step(plan, node)
    g = plan.grads[node.id]
    scale = node.meta["_scale"]
    relu_step = _relu_mask_step(plan, node)
    write, gx = plan._sink(x_id)
    target = gx if write else plan.pool.empty(node.shape, node.dtype)

    def run() -> None:
        if relu_step is not None:
            relu_step()
        np.multiply(g, scale, out=target)
        if not write:
            np.add(gx, target, out=gx)

    return run


def _back_batch_norm_train(plan: Plan, node: Node):
    """Full training-mode BN backward (through the batch statistics).

    Mirrors the eager kernel: gamma gets ``sum(grad * x_hat)``, beta gets
    ``sum(grad)``, and the input gradient is
    ``(grad_xhat - sum(grad_xhat)/m - x_hat * sum(grad_xhat * x_hat)/m) / std``.
    """
    x_id, gamma_id, beta_id = node.inputs[0], node.inputs[1], node.inputs[2]
    need_x = x_id in plan._diff
    need_gamma = gamma_id in plan._diff
    need_beta = beta_id in plan._diff
    if not (need_x or need_gamma or need_beta):
        return _relu_mask_step(plan, node)
    n, c, h, w = node.shape
    dtype = node.dtype
    count = n * h * w
    g = plan.grads[node.id]
    x_hat = node.meta["_x_hat"]
    std_r = node.meta["_std"]
    gamma_r = node.meta["_gamma_r"]
    relu_step = _relu_mask_step(plan, node)

    s1 = plan.pool.empty(node.shape, dtype)
    s2 = plan.pool.empty(node.shape, dtype)
    sg = plan.pool.empty((1, c, 1, 1), dtype)
    sgx = plan.pool.empty((1, c, 1, 1), dtype)
    steps: List[Callable[[], None]] = []
    if need_gamma:
        write_g, gg = plan._sink(gamma_id)
        if write_g:
            steps.append(lambda: (np.multiply(g, x_hat, out=s1), np.sum(s1, axis=(0, 2, 3), out=gg)))
        else:
            scratch_g = plan.pool.empty(gg.shape, dtype)
            steps.append(
                lambda: (
                    np.multiply(g, x_hat, out=s1),
                    np.sum(s1, axis=(0, 2, 3), out=scratch_g),
                    np.add(gg, scratch_g, out=gg),
                )
            )
    if need_beta:
        write_b, gb = plan._sink(beta_id)
        if write_b:
            steps.append(lambda: np.sum(g, axis=(0, 2, 3), out=gb))
        else:
            scratch_b = plan.pool.empty(gb.shape, dtype)
            steps.append(
                lambda: (np.sum(g, axis=(0, 2, 3), out=scratch_b), np.add(gb, scratch_b, out=gb))
            )
    if need_x:
        write, gx = plan._sink(x_id)

        def input_step() -> None:
            np.multiply(g, gamma_r, out=s1)  # grad_xhat
            np.sum(s1, axis=(0, 2, 3), keepdims=True, out=sg)
            np.multiply(s1, x_hat, out=s2)
            np.sum(s2, axis=(0, 2, 3), keepdims=True, out=sgx)
            np.divide(sg, count, out=sg)
            np.multiply(x_hat, sgx, out=s2)
            np.divide(s2, count, out=s2)
            np.subtract(s1, sg, out=s1)
            np.subtract(s1, s2, out=s1)
            np.divide(s1, std_r, out=s1)
            if write:
                np.copyto(gx, s1)
            else:
                np.add(gx, s1, out=gx)

        steps.append(input_step)

    def run() -> None:
        if relu_step is not None:
            relu_step()
        for step in steps:
            step()

    return run


def _back_max_pool(plan: Plan, node: Node):
    kernel, stride = node.meta["kernel"], node.meta["stride"]
    n, c, out_h, out_w = node.shape
    g = plan.grads[node.id]
    _, gx = plan._sink(node.inputs[0], supports_write=False)

    if kernel == 2 and stride == 2:
        out = plan.values[node.id]
        windows = node.meta["_windows"]
        grad_windows = [
            gx[:, :, ki : ki + 2 * out_h : 2, kj : kj + 2 * out_w : 2]
            for ki in (0, 1)
            for kj in (0, 1)
        ]
        mask = plan.pool.empty(node.shape, bool)
        taken = plan.pool.empty(node.shape, bool)
        free = plan.pool.empty(node.shape, bool)
        scratch = plan.pool.empty(node.shape, node.dtype)

        def run() -> None:
            # First window equal to the max wins, matching argmax order.
            taken.fill(False)
            for window, grad_window in zip(windows, grad_windows):
                np.equal(window, out, out=mask)
                np.logical_not(taken, out=free)
                np.logical_and(mask, free, out=mask)
                np.multiply(g, mask, out=scratch)
                np.add(grad_window, scratch, out=grad_window)
                np.logical_or(taken, mask, out=taken)

        return run

    argmax = node.meta["_argmax"]

    if stride >= kernel:
        # Non-overlapping windows: scatter the grad to its argmax slot in a
        # (n, c, oh, ow, k*k) buffer and add it through a disjoint patch view
        # of gx — fully vectorized, no np.add.at.
        flat_grad = plan.pool.empty((n, c, out_h, out_w, kernel * kernel), node.dtype)
        fg2 = flat_grad.reshape(-1, kernel * kernel)
        fg6 = flat_grad.reshape(n, c, out_h, out_w, kernel, kernel)
        rows = node.meta["_rows"]
        argmax_flat = argmax.reshape(-1)
        g_flat = g.reshape(-1)
        patch_target = _patch_view(gx, kernel, stride, out_h, out_w)

        def run() -> None:
            flat_grad.fill(0)
            fg2[rows, argmax_flat] = g_flat
            np.add(patch_target, fg6, out=patch_target)

        return run

    # Overlapping windows: fall back to an indexed scatter-add.
    n_idx, c_idx, i_idx, j_idx = np.meshgrid(
        np.arange(n), np.arange(c), np.arange(out_h), np.arange(out_w), indexing="ij"
    )
    rows_base = i_idx * stride
    cols_base = j_idx * stride
    ki = np.empty(argmax.shape, dtype=np.intp)
    kj = np.empty(argmax.shape, dtype=np.intp)
    for buffer in (n_idx, c_idx, rows_base, cols_base, ki, kj):
        plan.pool._register(buffer)

    def run() -> None:
        np.floor_divide(argmax, kernel, out=ki)
        np.remainder(argmax, kernel, out=kj)
        np.add(ki, rows_base, out=ki)
        np.add(kj, cols_base, out=kj)
        np.add.at(gx, (n_idx, c_idx, ki, kj), g)

    return run


def _back_avg_pool(plan: Plan, node: Node):
    kernel, stride = node.meta["kernel"], node.meta["stride"]
    _, _, out_h, out_w = node.shape
    g = plan.grads[node.id]
    _, gx = plan._sink(node.inputs[0], supports_write=False)
    scratch = plan.pool.empty(node.shape, node.dtype)
    inverse_area = 1.0 / (kernel * kernel)

    def run() -> None:
        np.multiply(g, inverse_area, out=scratch)
        for ki in range(kernel):
            for kj in range(kernel):
                gx[
                    :, :, ki : ki + stride * out_h : stride, kj : kj + stride * out_w : stride
                ] += scratch

    return run


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


def _back_pad2d(plan: Plan, node: Node):
    padding = node.meta["padding"]
    g = plan.grads[node.id]
    write, gx = plan._sink(node.inputs[0])
    interior = g[..., padding:-padding, padding:-padding]
    if write:
        return lambda: np.copyto(gx, interior)
    return lambda: np.add(gx, interior, out=gx)


_BACKWARD = {
    "conv2d": _back_conv2d,
    "matmul": _back_matmul,
    "add": _back_add,
    "mul": _back_mul,
    "div": _back_div,
    "maximum": _back_maximum,
    "neg": _back_neg,
    "relu": _back_relu,
    "clip": _back_clip,
    "pow": _back_pow,
    "exp": _back_unary_from_out(lambda x, out, s: np.copyto(s, out)),
    "log": _back_unary_from_out(lambda x, out, s: np.divide(1.0, x, out=s)),
    "sqrt": _back_unary_from_out(
        lambda x, out, s: (np.maximum(out, 1e-12, out=s), np.divide(0.5, s, out=s))
    ),
    "abs": _back_unary_from_out(lambda x, out, s: np.sign(x, out=s)),
    "tanh": _back_unary_from_out(
        lambda x, out, s: (np.multiply(out, out, out=s), np.subtract(1.0, s, out=s))
    ),
    "sigmoid": _back_unary_from_out(
        lambda x, out, s: (np.subtract(1.0, out, out=s), np.multiply(s, out, out=s))
    ),
    "batch_norm2d": _back_batch_norm,
    "max_pool2d": _back_max_pool,
    "avg_pool2d": _back_avg_pool,
    "sum": _back_sum,
    "max": _back_max,
    "reshape": _back_reshape,
    "transpose": _back_transpose,
    "pad2d": _back_pad2d,
    "rng_mask": _back_rng_mask,
}
