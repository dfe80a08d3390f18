"""`CompiledModel`: shape-dispatching plan cache with eager fallback.

``compile_model(module, sample_input)`` captures the module's eval-mode
forward once, optimizes it and binds it to buffers; the resulting
:class:`CompiledModel` replays the plan for every input matching the
captured ``(shape, dtype)`` signature.  Plans read the module's parameters,
batch-norm buffers and channel mask in place, so in-place updates need no
recompile.  Unseen shapes (the ragged last batch of an evaluation,
shrinking early-exit attack batches) are compiled on the fly up to
:data:`_MAX_PLANS` signatures; beyond that — or when capture/planning fails, the
module is in training mode, a parameter's storage was reallocated (that
plan is evicted and rebuilt on the next sighting), or a non-CE loss is
requested — the call **falls back to eager execution**, so opting in is
always safe.

Four entry points replay a plan: logits (``__call__``), the fused CE loss
and input gradient (:meth:`CompiledModel.value_and_grad`, PGD-family
attacks), the per-class input Jacobian (:meth:`CompiledModel.jacobian`,
FAB: one forward plus one input-only backward per class), and
differentiable logits (:meth:`CompiledModel.forward`, CW: an autograd node
whose backward is the plan's input-only backward, so an eager objective
built on the logits differentiates through the plan).
:attr:`CompiledModel.stats` counts compiled vs eager passes; the attack
engine surfaces those counters as telemetry.
"""

from __future__ import annotations

import functools
from dataclasses import dataclass
from typing import Dict, Optional, Tuple

import numpy as np

from ..nn.tensor import Tensor, get_default_dtype, no_grad
from .cache import SignatureCache
from .executor import Plan
from .graph import CompileError, capture_forward
from .passes import optimize

__all__ = ["CompiledModel", "CompiledStats", "compile_model", "eager_jacobian"]

#: signatures one :class:`CompiledModel` compiles; later ones run eagerly
#: (an attack engine run sees its batch size, a ragged tail and the
#: shrinking early-exit batches).
_MAX_PLANS = 8


def eager_jacobian(module, images: np.ndarray) -> Tuple[np.ndarray, np.ndarray]:
    """Logits and per-class input gradients by eager autograd.

    One forward and one backward per class, each seeded with that logit
    column's one-hot cotangent (the eager graph accumulates into every
    node, so each class needs a fresh one).  Returns ``(logits, jacobian)``
    with ``jacobian`` of shape ``(num_classes,) + images.shape`` (float64).
    """
    columns = []
    logits = None
    while logits is None or len(columns) < logits.shape[1]:
        x = Tensor(images, requires_grad=True)
        logits = module.forward(x)
        mask = np.zeros_like(logits.data)
        mask[:, len(columns)] = 1.0
        (logits * Tensor(mask)).sum().backward()
        columns.append(x.grad)
    return logits.data, np.array(columns, dtype=np.float64)


def _build_plan(module, stats: "CompiledStats", sample: np.ndarray) -> Plan:
    plan = Plan(optimize(capture_forward(module, sample)))
    stats.plans_built += 1
    return plan


@dataclass
class CompiledStats:
    """Compiled-vs-eager pass accounting for one :class:`CompiledModel`."""

    plans_built: int = 0
    forward_calls: int = 0
    forward_examples: int = 0
    grad_calls: int = 0
    grad_examples: int = 0
    fallback_calls: int = 0
    fallback_examples: int = 0

    def snapshot(self) -> Tuple[int, int, int]:
        """``(forward_calls, grad_calls, fallback_calls)`` — diff across a block."""
        return self.forward_calls, self.grad_calls, self.fallback_calls

    def as_dict(self) -> Dict[str, int]:
        return {
            "plans_built": self.plans_built,
            "forward_calls": self.forward_calls,
            "forward_examples": self.forward_examples,
            "grad_calls": self.grad_calls,
            "grad_examples": self.grad_examples,
            "fallback_calls": self.fallback_calls,
            "fallback_examples": self.fallback_examples,
        }


class CompiledModel:
    """A module bound to static, buffer-pooled execution plans.

    Parameters
    ----------
    module:
        Any :class:`repro.nn.Module` mapping one tensor to one tensor
        (every :class:`~repro.models.base.ImageClassifier` qualifies).
    sample_input:
        Array whose shape/dtype signature seeds the first plan.  Compilation
        errors on this first plan propagate (so callers learn immediately
        that the module cannot be captured); later auto-compiled signatures
        fail soft into eager fallback.

    Plans alias the module's state, so every replay sees the current
    weights and channel mask.  Every differentiated entry point
    (:meth:`value_and_grad`, :meth:`jacobian`, :meth:`forward`) shares one
    fallback rule: a first sighting, a training-mode module and a signature
    whose plan cannot backward run eagerly, and a plan whose parameter
    storage was reallocated is evicted; :attr:`stats` counts plan forwards,
    backward replays and fallbacks.
    """

    def __init__(self, module, sample_input) -> None:
        self.module = module
        self.stats = CompiledStats()
        #: the shared compile-on-second-sighting policy (one implementation
        #: serves CompiledModel and CompiledTrainer alike).  The builder
        #: does not reference this object, so dropping it frees its plans
        #: at once instead of at the next cyclic collection.
        self._cache = SignatureCache(
            functools.partial(_build_plan, module, self.stats), capacity=_MAX_PLANS
        )
        #: signatures whose plan forwards but cannot backward (kept for
        #: forward use; value_and_grad skips them without re-trying).
        self._grad_failed: set = set()
        sample = np.asarray(sample_input, dtype=get_default_dtype())
        # The caller-provided sample compiles immediately (errors propagate);
        # later signatures go through the second-sighting policy.
        self._cache.insert(sample, _build_plan(module, self.stats, sample))

    # ------------------------------------------------------------------ #
    # plan management
    # ------------------------------------------------------------------ #
    @staticmethod
    def _key(x: np.ndarray) -> Tuple[Tuple[int, ...], str]:
        return SignatureCache.key(x)

    @property
    def _plans(self) -> Dict[Tuple[Tuple[int, ...], str], Optional[Plan]]:
        return self._cache.entries

    def _plan_for(self, x: np.ndarray) -> Optional[Plan]:
        # Compile an unseen signature on its *second* sighting: a shape
        # that appears once (the ragged clean-prediction batch) is cheaper
        # to run eagerly than to capture and bind, while any shape inside
        # an iterated attack loop comes back immediately.
        return self._cache.lookup(x)

    def _grad_plan(self, x: np.ndarray) -> Optional[Plan]:
        """The plan for a differentiated call, or ``None`` to run eagerly."""
        key = self._key(x)
        if self.module.training or key in self._grad_failed:
            return None
        plan = self._plan_for(x)
        if plan is not None and not plan.differentiable:
            self._grad_failed.add(key)
            return None
        return plan

    def _replay_failed(self, plan: Plan, x: np.ndarray) -> None:
        """Handle a ``CompileError`` from a differentiated replay."""
        if plan.stale():  # parameter storage reallocated: rebuild
            self._cache.evict(x)
        else:
            # Any other failure repeats for this signature; remember it so
            # later calls skip the wasted compiled forward while keeping the
            # plan alive for forward-only use.
            self._grad_failed.add(self._key(x))

    def _fallback(self, x: np.ndarray) -> None:
        self.stats.fallback_calls += 1
        self.stats.fallback_examples += len(x)

    def profile(self) -> Dict[str, dict]:
        """Per-op-kind executor profile by plan signature (see :mod:`repro.obs`).

        Empty until the obs profiler (``repro.obs.profiler.enable()`` or
        ``REPRO_PROFILE=1``) has been on for at least one replay.  Each
        entry maps ``signature -> {"ops": {kind: {calls, total_ms, bytes}},
        "pool": {allocations, bytes}}``.
        """
        from ..obs.profiler import merge_profile

        profiles: Dict[str, dict] = {}
        for plan in self._cache.entries.values():
            if plan is not None:
                merge_profile(profiles, plan._profile)
        return profiles

    @property
    def plans(self) -> int:
        """Number of live plans (excluding remembered failures)."""
        return sum(1 for plan in self._cache.entries.values() if plan is not None)

    @property
    def pool_allocations(self) -> int:
        """Total buffer allocations across every plan's pool."""
        return sum(
            p.pool.allocations for p in self._cache.entries.values() if p is not None
        )

    # ------------------------------------------------------------------ #
    # execution
    # ------------------------------------------------------------------ #
    def __call__(self, x) -> np.ndarray:
        """Logits for a batch, as a plan-owned array (consume before the next call)."""
        arr = np.asarray(x.data if isinstance(x, Tensor) else x, dtype=get_default_dtype())
        plan = None if self.module.training else self._plan_for(arr)
        if plan is not None:
            try:
                logits = plan.forward(arr)
            except CompileError:  # parameter storage reallocated: rebuild
                self._cache.evict(arr)
            else:
                self.stats.forward_calls += 1
                self.stats.forward_examples += len(arr)
                return logits
        self._fallback(arr)
        with no_grad():
            return self.module.forward(Tensor(arr)).data

    def predict(self, x) -> np.ndarray:
        """Hard class predictions (argmax over :meth:`__call__` logits)."""
        return np.argmax(self(x), axis=1)

    def value_and_grad(self, x, labels, loss: str = "ce") -> Tuple[float, np.ndarray]:
        """Loss value and input gradient for a batch.

        ``loss`` currently supports ``"ce"`` (fused softmax cross-entropy —
        the loss every PGD-family attack drives); other names raise
        ``ValueError``.  A training-mode module, an uncompilable signature
        or reallocated parameter storage falls back to the eager
        cross-entropy graph.  The returned gradient is plan-owned: consume
        it before the next compiled call.
        """
        arr = np.asarray(x.data if isinstance(x, Tensor) else x, dtype=get_default_dtype())
        labels = np.asarray(labels, dtype=np.int64).reshape(-1)
        plan = self._grad_plan(arr) if loss == "ce" else None
        if plan is not None:
            try:
                value, grad = plan.value_and_grad_ce(arr, labels)
            except CompileError:
                self._replay_failed(plan, arr)
            else:
                self.stats.grad_calls += 1
                self.stats.grad_examples += len(arr)
                return value, grad
        if loss != "ce":
            raise ValueError(f"unknown compiled loss '{loss}'; supported: 'ce'")
        self._fallback(arr)
        from ..nn import functional as F

        x_t = Tensor(arr, requires_grad=True)
        loss_t = F.cross_entropy(self.module.forward(x_t), labels)
        loss_t.backward()
        return float(loss_t.item()), x_t.grad

    def jacobian(self, x) -> Tuple[np.ndarray, np.ndarray]:
        """Logits and the per-class input Jacobian of a batch.

        Returns ``(logits, jacobian)`` with ``jacobian[k]`` the input
        gradient of logit column ``k``, shape ``(num_classes,) + x.shape``
        (float64).  A plan runs one forward, then one input-only backward
        replay per class seeded with that column's one-hot cotangent — the
        eager oracle (:func:`eager_jacobian`) runs a forward *and* a
        parameter-differentiating backward per class.  Falls back to that
        oracle by the shared rule; both arrays are caller-owned.
        """
        arr = np.asarray(x.data if isinstance(x, Tensor) else x, dtype=get_default_dtype())
        plan = self._grad_plan(arr)
        if plan is not None:
            try:
                logits = plan.forward(arr).copy()
                jacobian = np.empty((logits.shape[1],) + arr.shape)
                seed = np.zeros_like(logits)
                for class_index in range(len(jacobian)):
                    seed[:, class_index] = 1.0
                    jacobian[class_index] = plan.backward(seed)
                    seed[:, class_index] = 0.0
            except CompileError:
                self._replay_failed(plan, arr)
            else:
                self.stats.forward_calls += 1
                self.stats.forward_examples += len(arr)
                self.stats.grad_calls += len(jacobian)
                self.stats.grad_examples += len(jacobian) * len(arr)
                return logits, jacobian
        self._fallback(arr)
        return eager_jacobian(self.module, arr)

    def forward(self, x: Tensor) -> Tensor:
        """Differentiable logits: one plan forward as a single autograd node.

        The node's backward is the plan's input-only backward — the adjoint
        of the forward it replayed — accumulated into ``x``, so an eager
        objective built on the logits (CW's margin and L2 terms) keeps its
        one definition and differentiates through the plan.  It raises
        :class:`CompileError` rather than return a wrong gradient if the
        plan has replayed another forward since the node was made.  Falls
        back to ``module.forward(x)`` by the shared rule.
        """
        arr = np.asarray(x.data, dtype=get_default_dtype())
        plan = self._grad_plan(arr)
        if plan is not None:
            try:
                logits = plan.forward(arr).copy()
            except CompileError:
                self._replay_failed(plan, arr)
            else:
                self.stats.forward_calls += 1
                self.stats.forward_examples += len(arr)
                replay = plan.forward_count

                def backward(grad: np.ndarray) -> None:
                    if plan.forward_count != replay:
                        raise CompileError(
                            "the plan replayed another forward after this node was "
                            "made; its activations no longer match the node's input"
                        )
                    x._accumulate(plan.backward(grad))
                    self.stats.grad_calls += 1
                    self.stats.grad_examples += len(arr)

                return Tensor._make(logits, (x,), backward)
        self._fallback(arr)
        return self.module.forward(x)

    def __repr__(self) -> str:
        return (
            f"CompiledModel({type(self.module).__name__}, plans={self.plans}, "
            f"stats={self.stats.as_dict()})"
        )


def compile_model(module, sample_input) -> CompiledModel:
    """Capture, optimize and bind ``module`` for ``sample_input``'s signature.

    The canonical entry point (``module.compile(sample)`` forwards here).
    Raises :class:`CompileError` when the module's forward cannot be
    captured — callers that want best-effort behaviour catch it and stay on
    the eager path.
    """
    return CompiledModel(module, sample_input)
