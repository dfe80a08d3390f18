"""`CompiledModel`: shape-dispatching plan cache with eager fallback.

``compile_model(module, sample_input)`` captures the module's eval-mode
forward once, optimizes it and binds it to buffers; the resulting
:class:`CompiledModel` replays the plan for every input matching the
captured ``(shape, dtype)`` signature.  Plans read the module's parameters,
batch-norm buffers and channel mask in place, so in-place updates need no
recompile.  Unseen shapes (the ragged last batch of an evaluation,
shrinking early-exit attack batches) are compiled on the fly up to
``max_plans`` signatures; beyond that — or when capture/planning fails, the
module is in training mode, a parameter's storage was reallocated (that
plan is evicted and rebuilt on the next sighting), or a non-CE loss is
requested — the call **falls back to eager execution**, so opting in is
always safe.
:attr:`CompiledModel.stats` counts compiled vs eager passes; the attack
engine surfaces those counters as telemetry.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, Optional, Tuple

import numpy as np

from ..nn.tensor import Tensor, get_default_dtype, no_grad
from .cache import SignatureCache
from .executor import Plan
from .graph import CompileError, capture_forward
from .passes import optimize

__all__ = ["CompiledModel", "CompiledStats", "compile_model"]


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
    max_plans:
        Bound on cached plans; further signatures run eagerly.

    Plans alias the module's state, so every replay sees the current
    weights and channel mask.
    """

    def __init__(
        self,
        module,
        sample_input,
        max_plans: int = 8,
    ) -> None:
        self.module = module
        self.max_plans = max_plans
        self.stats = CompiledStats()
        #: the shared compile-on-second-sighting policy (one implementation
        #: serves CompiledModel, CompiledTrainer and LiveEvalModel alike).
        self._cache = SignatureCache(self._build_plan, capacity=max_plans, name="model")
        #: signatures whose plan forwards but cannot backward (kept for
        #: forward use; value_and_grad skips them without re-trying).
        self._grad_failed: set = set()
        sample = np.asarray(sample_input, dtype=get_default_dtype())
        # The caller-provided sample compiles immediately (errors propagate);
        # later signatures go through the second-sighting policy.
        self._cache.insert(sample, self._build_plan(sample))

    # ------------------------------------------------------------------ #
    # plan management
    # ------------------------------------------------------------------ #
    @staticmethod
    def _key(x: np.ndarray) -> Tuple[Tuple[int, ...], str]:
        return SignatureCache.key(x)

    @property
    def _plans(self) -> Dict[Tuple[Tuple[int, ...], str], Optional[Plan]]:
        return self._cache.entries

    def _build_plan(self, sample: np.ndarray) -> Plan:
        plan = Plan(optimize(capture_forward(self.module, sample)))
        self.stats.plans_built += 1
        return plan

    def _plan_for(self, x: np.ndarray) -> Optional[Plan]:
        # Compile an unseen signature on its *second* sighting: a shape
        # that appears once (the ragged clean-prediction batch) is cheaper
        # to run eagerly than to capture and bind, while any shape inside
        # an iterated attack loop comes back immediately.
        return self._cache.lookup(x)

    def profile(self) -> Dict[str, dict]:
        """Per-op-kind executor profile by plan signature (see :mod:`repro.obs`).

        Empty until the obs profiler (``repro.obs.profiler.enable()`` or
        ``REPRO_PROFILE=1``) has been on for at least one replay.  Each
        entry maps ``signature -> {"ops": {kind: {calls, total_ms, bytes}},
        "pool": {allocations, bytes}}``.
        """
        from ..obs.profiler import merge_snapshot

        profiles: Dict[str, dict] = {}
        for plan in self._cache.entries.values():
            if plan is not None:
                merge_snapshot(profiles, plan.profile_snapshot())
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
        self.stats.fallback_calls += 1
        self.stats.fallback_examples += len(arr)
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
        plan = None
        if loss == "ce" and not self.module.training and self._key(arr) not in self._grad_failed:
            plan = self._plan_for(arr)
        if plan is not None:
            try:
                value, grad = plan.value_and_grad_ce(arr, labels)
            except CompileError:
                if plan.stale():  # parameter storage reallocated: rebuild
                    self._cache.evict(arr)
                else:
                    # A plan that forwards but cannot backward (e.g. a detach
                    # on the only input path) will never succeed here;
                    # remember the failure so later calls skip the wasted
                    # compiled forward while keeping the plan alive for
                    # forward-only use.
                    self._grad_failed.add(self._key(arr))
            else:
                self.stats.grad_calls += 1
                self.stats.grad_examples += len(arr)
                return value, grad
        if loss != "ce":
            raise ValueError(f"unknown compiled loss '{loss}'; supported: 'ce'")
        self.stats.fallback_calls += 1
        self.stats.fallback_examples += len(arr)
        from ..nn import functional as F

        x_t = Tensor(arr, requires_grad=True)
        loss_t = F.cross_entropy(self.module.forward(x_t), labels)
        loss_t.backward()
        return float(loss_t.item()), x_t.grad

    def __repr__(self) -> str:
        return (
            f"CompiledModel({type(self.module).__name__}, plans={self.plans}, "
            f"stats={self.stats.as_dict()})"
        )


def compile_model(module, sample_input, **options) -> CompiledModel:
    """Capture, optimize and bind ``module`` for ``sample_input``'s signature.

    The canonical entry point (``module.compile(sample)`` forwards here).
    Raises :class:`CompileError` when the module's forward cannot be
    captured — callers that want best-effort behaviour catch it and stay on
    the eager path.
    """
    return CompiledModel(module, sample_input, **options)
