"""Compiled training: static plans for the full train step.

This module extends :mod:`repro.compile` from eval-mode inference to the
training loop itself.  A :class:`CompiledTrainer` owns, per input signature,
a plan *context* built from **exactly one traced capture** of the model:

* one (or two, for two-forward losses like TRADES/MART) **training plans** —
  the training-mode forward reading the live parameters and channel mask,
  batch-stat batch norms (running statistics updated in place, exactly like
  eager), and a full parameter-gradient backward accumulated into pooled
  buffers;
* one **attack plan** — derived from the *same* capture by the
  :func:`~repro.compile.passes.lower_to_eval` pass (eval-semantics batch
  norms over the live running buffers), with an input-gradient backward
  driving the inner maximization.  For mode-invariant models (no batch
  norm) the training plan itself is bound with the fused input+param
  backward (``grad="both"``) and serves both roles: PGD-AT's inner attack
  loop and its outer optimizer step then share one plan.

Loss strategies are mapped to *adapters* that build the **entire loss in
plan**: the classification term runs as the fused softmax-CE seed, and the
composite side terms are appended to the captured graphs reading the
logits/hidden buffers directly (cross-plan logits flow through aliased
``aux`` inputs; per-batch one-hot label matrices fill pooled buffers).
TRADES' KL, the MART objective and the IB-RAR HSIC regularizers are *traced
from their eager code* (:func:`~repro.nn.functional.kl_div_with_logits`,
:meth:`~repro.training.adversarial.MARTLoss.objective`,
:meth:`~repro.core.losses.MILoss.regularizer`) by
:meth:`~repro.compile.graph.Graph.append_traced`, so each loss's math lives
once and the adapters only wire plans together.  A compiled step therefore
records **zero eager graph nodes and zero steady-state pool allocations**
across the whole loss.
Parameter gradients from every backward replay are summed into
per-parameter accumulators, and the optimizer applies them with its fused
in-place :meth:`~repro.nn.optim.Optimizer.step_with_grads` kernels — which
is what keeps the plans, which alias the parameters, valid across steps.
The Eq. (3) mask refresh overwrites the model's mask in place, so it keeps
every plan too.

Counter-based dropout traces into ``rng_mask`` plan nodes (masks re-derived
from the module's live ``(seed, layer_id, step)`` state every replay), and
``mi_on_adversarial=True`` runs in plan: the MI hidden forward replays on a
re-generated adversarial batch, reproducing the eager loss's second
``generate()`` call exactly.  Anything the trainer cannot compile (unknown
strategies, ragged batch signatures on their first sighting, signatures past
``max_signatures``) falls back to the eager path batch by batch; opting in
is always safe.
"""

from __future__ import annotations

import functools
from dataclasses import dataclass
from typing import Callable, Dict, List, Optional, Tuple

import numpy as np

from ..nn.tensor import Tensor, get_default_dtype
from ..nn import functional as F
from ..obs import trace as _trace
from ..obs.profiler import merge_snapshot as _merge_snapshot
from ..obs.registry import get_registry
from .cache import SignatureCache
from .executor import Plan
from .graph import CompileError, Graph, capture_forward
from .kernels import linf_step
from .passes import lower_to_eval, optimize

__all__ = ["CompiledTrainer", "LiveEvalModel", "TrainingCompileStats", "build_adapter"]


@dataclass
class TrainingCompileStats:
    """Compiled-vs-eager accounting for one :class:`CompiledTrainer`.

    ``captures`` counts traced forwards (``capture_forward`` calls) — one
    per signature, regardless of how many plans the context derives from
    the capture.  ``compiled_forward_calls``/``compiled_forward_examples``
    count plan forward replays the way :class:`repro.attacks.engine.
    ForwardPassCounter` counts eager forwards, so a compiled run's
    ``train_forward_examples`` telemetry stays consistent with eager.
    """

    compiled_batches: int = 0
    eager_batches: int = 0
    plans_built: int = 0
    attack_grad_calls: int = 0
    captures: int = 0
    compiled_forward_calls: int = 0
    compiled_forward_examples: int = 0
    #: *genuine* eager fallbacks — batches that will stay eager forever
    #: (unsupported strategy, memoized capture failure, a signature the full
    #: cache will not build, replay failure).  The policy's benign
    #: first-sighting deferral is excluded, so a fully compiled run asserts
    #: ``fallbacks == 0`` even though its first batch per signature ran
    #: eagerly.
    fallbacks: int = 0

    def as_dict(self) -> Dict[str, int]:
        return {
            "compiled_batches": self.compiled_batches,
            "eager_batches": self.eager_batches,
            "plans_built": self.plans_built,
            "attack_grad_calls": self.attack_grad_calls,
            "captures": self.captures,
            "compiled_forward_calls": self.compiled_forward_calls,
            "compiled_forward_examples": self.compiled_forward_examples,
            "fallbacks": self.fallbacks,
        }

    def snapshot(self) -> Tuple[int, int]:
        """``(compiled_batches, eager_batches)`` — diff across an epoch."""
        return self.compiled_batches, self.eager_batches

    def merge(self, other: "TrainingCompileStats") -> "TrainingCompileStats":
        """Counter-wise sum (combining retired and live trainer instances)."""
        return TrainingCompileStats(
            compiled_batches=self.compiled_batches + other.compiled_batches,
            eager_batches=self.eager_batches + other.eager_batches,
            plans_built=self.plans_built + other.plans_built,
            attack_grad_calls=self.attack_grad_calls + other.attack_grad_calls,
            captures=self.captures + other.captures,
            compiled_forward_calls=self.compiled_forward_calls + other.compiled_forward_calls,
            compiled_forward_examples=(
                self.compiled_forward_examples + other.compiled_forward_examples
            ),
            fallbacks=self.fallbacks + other.fallbacks,
        )


# --------------------------------------------------------------------------- #
# plan construction
# --------------------------------------------------------------------------- #
def _train_graph(captured: Graph) -> Graph:
    """An independently optimized copy of the training capture (per plan)."""
    return optimize(captured.copy())


def _eval_graph(captured: Graph) -> Tuple[Graph, bool]:
    """The eval-semantics (attack) graph derived from the same capture."""
    lowered, changed = lower_to_eval(captured)
    return optimize(lowered), changed


def _attack_plan(model, sample: np.ndarray) -> Plan:
    was_training = model.training
    model.eval()
    try:
        graph = capture_forward(model, sample)
    finally:
        model.train(was_training)
    return Plan(optimize(graph), grad="input")


def _trace_kl(graph: Graph) -> int:
    """Trace TRADES' ``KL(clean || output)`` onto ``graph``; returns its node id.

    The clean side is a ``clean_logits`` aux leaf (the adapter aliases it to
    the clean plan's logits buffer); the math is the eager
    :func:`~repro.nn.functional.kl_div_with_logits`, traced.
    """
    logits = graph.output_node
    clean_id = graph.add_aux("clean_logits", logits.shape, logits.dtype)
    return graph.append_traced(
        F.kl_div_with_logits,
        {"p_logits": clean_id, "q_logits": graph.output_id},
        name="kl",
    )


def _fill_onehot(buffer: np.ndarray, arange: np.ndarray, labels: np.ndarray) -> None:
    """Refill a pooled ``(n, classes)`` aux buffer with ``F.one_hot(labels)``."""
    buffer.fill(0.0)
    buffer[arange, labels] = 1.0


def _supports_fused_step(optimizer) -> bool:
    """Whether the optimizer overrides the in-place fused update path.

    The base :class:`~repro.nn.optim.Optimizer.step_with_grads` raises
    ``NotImplementedError``; a custom subclass implementing only ``step()``
    cannot keep live-parameter plans valid, so compiled training declines.
    """
    from ..nn.optim import Optimizer

    return type(optimizer).step_with_grads is not Optimizer.step_with_grads


class _SignatureContext:
    """The plans serving one ``(input shape, dtype)`` signature.

    Exactly **one** :func:`~repro.compile.graph.capture_forward` trace runs
    per signature; the adapter derives every plan from copies of that
    capture — the training plan(s) directly, the attack plan through the
    :func:`~repro.compile.passes.lower_to_eval` rewrite.  Per-context state
    the adapters need (loss node ids, seed scalars, the label row index)
    hangs off the context, since node ids differ between signatures.
    """

    def __init__(self, model, sample: np.ndarray, adapter, stats: TrainingCompileStats) -> None:
        self.model = model
        #: distinct plans (for pool accounting; an aliased attack plan on a
        #: mode-invariant model appears once).
        self.plans: List[Plan] = []
        self.train_a: Optional[Plan] = None
        self.train_b: Optional[Plan] = None
        self.train_mi: Optional[Plan] = None
        self.attack: Optional[Plan] = None
        self.ids: Dict[str, int] = {}  # adapter-chosen loss node ids
        self.one: Optional[np.ndarray] = None
        self.beta_seed: Optional[np.ndarray] = None
        self.arange: Optional[np.ndarray] = None
        captured = capture_forward(
            model, sample, training=True, with_hidden=adapter.needs_hidden_seeds
        )
        stats.captures += 1
        adapter.build(self, captured)
        stats.plans_built += len(self.plans)

    def register(self, plan: Plan) -> Plan:
        if all(plan is not existing for existing in self.plans):
            self.plans.append(plan)
        return plan

    def scalar(self, value: float, dtype) -> np.ndarray:
        """A bind-time scalar seed array (allocated once, never per batch)."""
        return np.array(value, dtype=dtype)

    @property
    def pool_allocations(self) -> int:
        return sum(plan.pool.allocations for plan in self.plans)


def _pgd_loop(
    grad_step: Callable[[np.ndarray], np.ndarray],
    images: np.ndarray,
    eps: float,
    alpha: float,
    steps: int,
    random_start: bool,
    seed: int,
    clip_min: float = 0.0,
    clip_max: float = 1.0,
) -> np.ndarray:
    """Replay :class:`repro.attacks.PGD`'s generation loop through a plan.

    Reproduces the eager attack exactly — the same fresh per-batch RNG and
    random-start draw, the same fused ``linf_step`` ping-pong buffers — with
    the per-step gradient query served by ``grad_step`` (a fused-CE or
    in-plan-KL replay over the attack plan).
    """
    images = np.asarray(images, dtype=get_default_dtype())
    rng = np.random.default_rng(seed)
    adversarial = images.copy()
    if random_start and eps > 0:
        adversarial = adversarial + rng.uniform(-eps, eps, size=images.shape)
        adversarial = np.clip(adversarial, clip_min, clip_max)
    buffers = (np.empty_like(images), np.empty_like(images))
    for step in range(steps):
        gradient = grad_step(adversarial)
        adversarial = linf_step(
            adversarial, gradient, alpha, images, eps, clip_min, clip_max,
            out=buffers[step % 2],
        )
    return adversarial


class LiveEvalModel:
    """Eval-mode predictions for a model in training, reusable forever.

    Binds eval-semantics plans (like the adapters' attack plans) to a
    module that may be left in training mode between calls: one capture per
    batch signature serves every epoch of in-training evaluation, tracking
    in-place weight updates, mask refreshes and the running batch-norm
    statistics automatically.  The interface mirrors ``CompiledModel``
    (``__call__``/``predict``/``value_and_grad``) with per-batch eager
    fallback; reallocated parameter storage evicts that signature's plan.
    """

    def __init__(self, module, max_plans: int = 8) -> None:
        self.module = module
        # The builder does not reference this object (see CompiledTrainer).
        self._cache = SignatureCache(
            functools.partial(_attack_plan, module), capacity=max_plans, name="live-eval"
        )

    def profile(self) -> Dict[str, dict]:
        """Per-op-kind executor profile by plan signature (see :mod:`repro.obs`)."""
        profiles: Dict[str, dict] = {}
        for plan in self._cache.entries.values():
            if plan is not None:
                _merge_snapshot(profiles, plan.profile_snapshot())
        return profiles

    @property
    def _plans(self) -> Dict[Tuple[Tuple[int, ...], str], Optional[Plan]]:
        return self._cache.entries

    def _plan_for(self, arr: np.ndarray) -> Optional[Plan]:
        # Eval shapes recur every epoch, so from the second epoch on every
        # hook batch replays a plan.
        return self._cache.lookup(arr)

    def __call__(self, x) -> np.ndarray:
        arr = np.asarray(x.data if isinstance(x, Tensor) else x, dtype=get_default_dtype())
        plan = self._plan_for(arr)
        if plan is not None:
            try:
                return plan.forward(arr)
            except CompileError:  # e.g. parameter storage reallocated
                self._cache.evict(arr)
        from ..nn.tensor import no_grad

        was_training = self.module.training
        self.module.eval()
        try:
            with no_grad():
                return self.module.forward(Tensor(arr)).data
        finally:
            self.module.train(was_training)

    def predict(self, x) -> np.ndarray:
        return np.argmax(self(x), axis=1)

    def value_and_grad(self, x, labels, loss: str = "ce") -> Tuple[float, np.ndarray]:
        if loss != "ce":
            raise ValueError(f"unknown compiled loss '{loss}'; supported: 'ce'")
        arr = np.asarray(x.data if isinstance(x, Tensor) else x, dtype=get_default_dtype())
        labels = np.asarray(labels, dtype=np.int64).reshape(-1)
        plan = self._plan_for(arr)
        if plan is not None:
            try:
                return plan.value_and_grad_ce(arr, labels)
            except CompileError:
                self._cache.evict(arr)
        was_training = self.module.training
        self.module.eval()
        try:
            x_t = Tensor(arr, requires_grad=True)
            loss_t = F.cross_entropy(self.module.forward(x_t), labels)
            loss_t.backward()
            return float(loss_t.item()), x_t.grad
        finally:
            self.module.train(was_training)


# --------------------------------------------------------------------------- #
# loss adapters
# --------------------------------------------------------------------------- #
class _CEAdapter:
    """Plain cross-entropy: one training forward, fused-CE seed."""

    needs_hidden_seeds = False

    def build(self, ctx: _SignatureContext, captured: Graph) -> None:
        ctx.train_a = ctx.register(Plan(_train_graph(captured), grad="params"))

    def replay_generate(self, trainer, ctx, images, labels) -> np.ndarray:
        # CE has no ``generate``; the eager MI wrapper falls back to the
        # clean batch, and so does the compiled one.
        return images

    def step(self, trainer: "CompiledTrainer", ctx, images, labels):
        plan = ctx.train_a
        logits = plan.forward(images)
        trainer.count_forwards(1, len(labels))
        loss, seed = plan.ce_loss_and_seed(labels)
        plan.run_backward({plan.graph.output_id: seed})
        trainer.accumulate(plan)
        return loss, logits


class _PGDAdversarialAdapter:
    """Madry PGD-AT: compiled inner maximization + fused CE on the result.

    One capture serves the whole step.  On a model whose training forward
    is mode-invariant (no batch norm) the training plan binds the fused
    input+param backward (``grad="both"``) and doubles as the attack plan:
    the inner loop drives its input-only backward program, the outer step
    its fused full program — one plan, one capture.  Batch-norm models get
    the plan pair, with the attack plan derived by the ``lower_to_eval``
    rewrite of the same capture instead of a second trace.
    """

    needs_hidden_seeds = False

    def __init__(self, strategy) -> None:
        self.strategy = strategy

    def build(self, ctx: _SignatureContext, captured: Graph) -> None:
        attack_graph, mode_divergent = _eval_graph(captured)
        if mode_divergent:
            ctx.train_a = ctx.register(Plan(_train_graph(captured), grad="params"))
            ctx.attack = ctx.register(Plan(attack_graph, grad="input"))
        else:
            ctx.train_a = ctx.register(Plan(_train_graph(captured), grad="both"))
            ctx.attack = ctx.train_a

    def _generate(self, trainer, ctx, images, labels, random_start: bool) -> np.ndarray:
        """One fresh CE-guided PGD generation — the eager ``generate()``."""
        s = self.strategy
        labels = np.asarray(labels, dtype=np.int64).reshape(-1)
        attack = ctx.attack

        def grad_step(adversarial: np.ndarray) -> np.ndarray:
            _, gradient = attack.value_and_grad_ce(adversarial, labels)
            return gradient

        adversarial = _pgd_loop(
            grad_step, images,
            eps=s.eps, alpha=s.alpha, steps=s.steps,
            random_start=random_start, seed=s.seed,
        )
        trainer.stats.attack_grad_calls += s.steps
        trainer.count_forwards(s.steps, s.steps * len(labels))
        return adversarial

    def replay_generate(self, trainer, ctx, images, labels) -> np.ndarray:
        # The eager MI wrapper's second ``generate()`` builds a fresh attack
        # with the same seed — identical draws, re-run against the current
        # (post-base-step) running statistics, which the live-buffer attack
        # plan reads automatically.
        return self._generate(trainer, ctx, images, labels, self.strategy.random_start)

    def step(self, trainer: "CompiledTrainer", ctx, images, labels):
        labels = np.asarray(labels, dtype=np.int64).reshape(-1)
        adversarial = self._generate(
            trainer, ctx, images, labels, self.strategy.random_start
        )
        plan = ctx.train_a
        plan.forward(adversarial)
        trainer.count_forwards(1, len(labels))
        loss, seed = plan.ce_loss_and_seed(labels)
        plan.run_backward({plan.graph.output_id: seed})
        trainer.accumulate(plan)
        return loss, None


class _TRADESAdapter:
    """TRADES, fully in plan: KL inner maximization + in-plan CE/KL outer.

    The adversarial plan's graph carries the robust KL term, traced from
    the eager :func:`~repro.nn.functional.kl_div_with_logits`, whose ``p``
    side is an aux leaf **aliasing the clean plan's logits buffer** — no
    copies, no eager graphs.  Seeding the KL with ``beta`` yields the
    parameter gradients of the robust term plus, through the aux gradient
    accumulator, the KL gradient with respect to the clean logits, which
    joins the fused-CE seed in the clean plan's backward.  The attack plan
    (same capture, eval-lowered) carries its own traced KL against the same
    aliased anchor for the inner loop.
    """

    needs_hidden_seeds = False

    def __init__(self, strategy) -> None:
        self.strategy = strategy

    def build(self, ctx: _SignatureContext, captured: Graph) -> None:
        s = self.strategy
        ctx.train_a = ctx.register(Plan(_train_graph(captured), grad="params"))
        clean_logits = ctx.train_a.values[ctx.train_a.graph.output_id]
        dtype = clean_logits.dtype

        graph_b = _train_graph(captured)
        kl_id = _trace_kl(graph_b)
        ctx.train_b = ctx.register(
            Plan(
                graph_b.rebuild(),
                grad="params",
                seed_ids=(kl_id,),
                aux={"clean_logits": clean_logits},
                grad_aux=("clean_logits",),
            )
        )
        ctx.ids["kl"] = kl_id

        attack_graph, _ = _eval_graph(captured)
        attack_kl_id = _trace_kl(attack_graph)
        ctx.attack = ctx.register(
            Plan(
                attack_graph.rebuild(),
                grad="input",
                seed_ids=(attack_kl_id,),
                aux={"clean_logits": clean_logits},
            )
        )
        ctx.ids["attack_kl"] = attack_kl_id
        ctx.one = ctx.scalar(1.0, dtype)
        ctx.beta_seed = ctx.scalar(s.beta, dtype)

    def _generate(self, trainer, ctx, images, labels) -> np.ndarray:
        """One fresh TRADES generation: training-mode anchor + KL-guided PGD.

        The eager ``generate()`` anchors the KL on a training-mode clean
        forward (running stats update once here, exactly like eager — and
        the same-step dropout mask reapplies bitwise); the attack plan's
        aux aliases that logits buffer, so no copy is taken.
        """
        s = self.strategy
        n = np.asarray(labels).reshape(-1).shape[0]
        plan_a, attack = ctx.train_a, ctx.attack
        plan_a.forward(images)
        trainer.count_forwards(1, n)
        attack_kl = ctx.ids["attack_kl"]

        def grad_step(adversarial: np.ndarray) -> np.ndarray:
            attack.forward(adversarial)
            attack.run_backward({attack_kl: ctx.one})
            return attack.input_grad()

        adversarial = _pgd_loop(
            grad_step, images,
            eps=s.eps, alpha=s.alpha, steps=s.steps,
            random_start=True, seed=s.seed,
        )
        trainer.stats.attack_grad_calls += s.steps
        trainer.count_forwards(s.steps, s.steps * n)
        return adversarial

    def replay_generate(self, trainer, ctx, images, labels) -> np.ndarray:
        return self._generate(trainer, ctx, images, labels)

    def step(self, trainer: "CompiledTrainer", ctx, images, labels):
        s = self.strategy
        labels = np.asarray(labels, dtype=np.int64).reshape(-1)
        n = len(labels)
        plan_a, plan_b = ctx.train_a, ctx.train_b
        adversarial = self._generate(trainer, ctx, images, labels)
        # Outer term order matches eager: clean forward, then adversarial.
        plan_a.forward(images)
        natural, ce_seed = plan_a.ce_loss_and_seed(labels)
        plan_b.forward(adversarial)
        trainer.count_forwards(2, 2 * n)
        robust = float(plan_b.values[ctx.ids["kl"]])
        plan_b.run_backward({ctx.ids["kl"]: ctx.beta_seed})
        trainer.accumulate(plan_b)
        np.add(ce_seed, plan_b.aux_grad("clean_logits"), out=ce_seed)
        plan_a.run_backward({plan_a.graph.output_id: ce_seed})
        trainer.accumulate(plan_a)
        return natural + robust * s.beta, None


class _MARTAdapter:
    """MART, fully in plan: the eager :meth:`MARTLoss.objective`, traced.

    The clean plan's graph carries the whole objective — boosted CE and
    misclassification-weighted KL — over two aux leaves: the adversarial
    logits (aliasing the adversarial plan's output buffer) and a pooled
    one-hot ``true_mask`` filled in place per batch.  One seed at the
    in-plan total drives the whole backward; the adversarial plan is
    seeded with the aux gradient.
    """

    needs_hidden_seeds = False

    def __init__(self, strategy) -> None:
        self.strategy = strategy

    def build(self, ctx: _SignatureContext, captured: Graph) -> None:
        # Eager MART forwards the adversarial batch first, then the clean
        # one; the loss lives on the (later) clean plan.
        ctx.train_b = ctx.register(Plan(_train_graph(captured), grad="params"))
        adv_logits = ctx.train_b.values[ctx.train_b.graph.output_id]
        graph_a = _train_graph(captured)
        logits = graph_a.output_node
        total_id = graph_a.append_traced(
            self.strategy.objective,
            {
                "adv_logits": graph_a.add_aux("adv_logits", logits.shape, logits.dtype),
                "clean_logits": graph_a.output_id,
                "true_mask": graph_a.add_aux("true_mask", logits.shape, logits.dtype),
            },
            name="total",
        )
        ctx.train_a = ctx.register(
            Plan(
                graph_a.rebuild(),
                grad="params",
                seed_ids=(total_id,),
                aux={"adv_logits": adv_logits},
                grad_aux=("adv_logits",),
            )
        )
        ctx.ids["total"] = total_id
        ctx.attack = ctx.register(Plan(_eval_graph(captured)[0], grad="input"))
        ctx.one = ctx.scalar(1.0, logits.dtype)
        ctx.arange = np.arange(logits.shape[0])

    def _generate(self, trainer, ctx, images, labels) -> np.ndarray:
        """One fresh MART generation (CE-guided PGD, forced random start)."""
        s = self.strategy
        labels = np.asarray(labels, dtype=np.int64).reshape(-1)
        attack = ctx.attack

        def grad_step(adversarial: np.ndarray) -> np.ndarray:
            _, gradient = attack.value_and_grad_ce(adversarial, labels)
            return gradient

        adversarial = _pgd_loop(
            grad_step, images,
            eps=s.eps, alpha=s.alpha, steps=s.steps,
            random_start=True, seed=s.seed,
        )
        trainer.stats.attack_grad_calls += s.steps
        trainer.count_forwards(s.steps, s.steps * len(labels))
        return adversarial

    def replay_generate(self, trainer, ctx, images, labels) -> np.ndarray:
        return self._generate(trainer, ctx, images, labels)

    def step(self, trainer: "CompiledTrainer", ctx, images, labels):
        labels = np.asarray(labels, dtype=np.int64).reshape(-1)
        n = len(labels)
        adversarial = self._generate(trainer, ctx, images, labels)
        plan_a, plan_b = ctx.train_a, ctx.train_b
        plan_b.forward(adversarial)
        _fill_onehot(plan_a.aux_values["true_mask"], ctx.arange, labels)
        plan_a.forward(images)
        trainer.count_forwards(2, 2 * n)
        total = float(plan_a.values[ctx.ids["total"]])
        plan_a.run_backward({ctx.ids["total"]: ctx.one})
        trainer.accumulate(plan_a)
        plan_b.run_backward({plan_b.graph.output_id: plan_a.aux_grad("adv_logits")})
        trainer.accumulate(plan_b)
        return total, None


class _MILossAdapter:
    """IB-RAR wrapper: base term through plans + the traced HSIC side term.

    The HSIC regularizers are the eager :meth:`MILoss.regularizer
    <repro.core.losses.MILoss.regularizer>`, traced onto the MI plan: its
    MI inputs bind to the plan's own input (the eager ``inputs.detach()``
    keeps the input Gram gradient-free), its one-hot labels to a pooled
    ``onehot`` aux leaf filled per batch, and each hidden representation to
    the plan's hidden output of that name.  Eq. (1) shares one plan between
    the fused-CE seed and the side term; Eq. (2) runs the adversarial base
    through its own plans and a dedicated hidden plan for the MI terms —
    matching the extra ``forward_with_hidden`` pass the eager loss
    performs.  With ``mi_on_adversarial=True`` that pass (and the input
    Gram) sees a **re-generated** adversarial batch: the base adapter's
    ``replay_generate`` reruns its attack with a fresh same-seeded RNG
    against the post-base-step running statistics, exactly like the eager
    wrapper's second ``generate()`` call.
    """

    needs_hidden_seeds = True

    def __init__(self, strategy, base_adapter) -> None:
        self.strategy = strategy
        self.base = base_adapter  # None => fused clean-CE base (Eq. 1)

    def build(self, ctx: _SignatureContext, captured: Graph) -> None:
        mi_graph = _train_graph(captured)
        hidden = dict(mi_graph.outputs)
        if "inputs" in hidden or "onehot" in hidden:
            raise CompileError("a hidden output name shadows an MI regularizer argument")
        n = mi_graph.input_node.shape[0]
        dtype = mi_graph.output_node.dtype
        onehot_id = mi_graph.add_aux("onehot", (n, self.strategy.num_classes), dtype)
        side_id, _, _ = mi_graph.append_traced(
            self.strategy.regularizer,
            {"inputs": mi_graph.input_id, "onehot": onehot_id, **hidden},
            name=("mi_side", "mi_sum_x", "mi_sum_y"),
        )
        mi_plan = Plan(mi_graph.rebuild(), grad="params", seed_ids=(side_id,))
        ctx.ids["mi_side"] = side_id
        ctx.one = ctx.scalar(1.0, dtype)
        ctx.arange = np.arange(n)
        if self.base is None:
            ctx.train_a = ctx.register(mi_plan)
            ctx.train_mi = mi_plan
        else:
            self.base.build(ctx, captured)
            ctx.train_mi = ctx.register(mi_plan)

    def _side_values(self, plan: Plan) -> Tuple[float, float, float]:
        side = float(plan.output_value("mi_side"))
        hsic_x = float(plan.output_value("mi_sum_x"))
        hsic_y = float(plan.output_value("mi_sum_y"))
        return side, hsic_x, hsic_y

    def step(self, trainer: "CompiledTrainer", ctx, images, labels):
        labels = np.asarray(labels, dtype=np.int64).reshape(-1)
        if self.base is None:
            # Eq. (1) fused path: one training forward shares the CE term,
            # the HSIC terms and the training-accuracy logits.
            plan = ctx.train_a
            _fill_onehot(plan.aux_values["onehot"], ctx.arange, labels)
            logits = plan.forward(images)
            trainer.count_forwards(1, len(labels))
            base_value, ce_seed = plan.ce_loss_and_seed(labels)
            side_value, hsic_x, hsic_y = self._side_values(plan)
            plan.run_backward(
                {plan.graph.output_id: ce_seed, ctx.ids["mi_side"]: ctx.one}
            )
            trainer.accumulate(plan)
            returned_logits = logits
        else:
            # Eq. (2): the adversarial base runs through its own adapter,
            # then the MI terms get their dedicated hidden forward — on the
            # clean batch, or (mi_on_adversarial) on a fresh re-generation.
            base_value, _ = self.base.step(trainer, ctx, images, labels)
            mi_inputs = images
            if self.strategy.config.mi_on_adversarial:
                mi_inputs = self.base.replay_generate(trainer, ctx, images, labels)
            plan = ctx.train_mi
            _fill_onehot(plan.aux_values["onehot"], ctx.arange, labels)
            plan.forward(mi_inputs)
            trainer.count_forwards(1, len(labels))
            side_value, hsic_x, hsic_y = self._side_values(plan)
            plan.run_backward({ctx.ids["mi_side"]: ctx.one})
            trainer.accumulate(plan)
            returned_logits = None
        total = base_value + side_value
        self.strategy.last_components = {
            "base": base_value,
            "hsic_x": hsic_x,
            "hsic_y": hsic_y,
            "total": total,
        }
        return total, returned_logits


def build_adapter(strategy):
    """Map a loss strategy to its compiled adapter (``None`` = stay eager).

    Exact-type matches only (a user subclass may override the math, and the
    adapters replay the *base-class* computation — mixing those silently
    would train the wrong objective).  The one ``isinstance`` is the CE base
    inside the IB-RAR wrapper, which mirrors the eager fused-path condition
    exactly: eager ``MILoss.loss_and_logits`` also dispatches CE subclasses
    to the plain CE term without calling their overrides.
    """
    from ..core.losses import AdversarialMILoss, MILoss
    from ..training.adversarial import (
        CrossEntropyLoss,
        MARTLoss,
        PGDAdversarialLoss,
        TRADESLoss,
    )

    if type(strategy) in (MILoss, AdversarialMILoss):
        # The fused single-forward path mirrors the eager ``fused`` flag
        # exactly: CE base (subclasses included) *and* clean MI inputs.
        # ``mi_on_adversarial`` instead takes the non-fused route — the
        # base through its own adapter (which must replay its generate),
        # the MI terms on a re-generated batch.
        if isinstance(strategy.base_loss, CrossEntropyLoss):
            if not strategy.config.mi_on_adversarial:
                return _MILossAdapter(strategy, None)
            if type(strategy.base_loss) is not CrossEntropyLoss:
                return None  # a CE subclass may override the eager base call
            return _MILossAdapter(strategy, _CEAdapter())
        inner = build_adapter(strategy.base_loss)
        if inner is None:
            return None
        return _MILossAdapter(strategy, inner)
    if type(strategy) is CrossEntropyLoss:
        return _CEAdapter()
    if type(strategy) is PGDAdversarialLoss:
        return _PGDAdversarialAdapter(strategy)
    if type(strategy) is TRADESLoss:
        return _TRADESAdapter(strategy)
    if type(strategy) is MARTLoss:
        return _MARTAdapter(strategy)
    return None


# --------------------------------------------------------------------------- #
# the trainer-facing cache
# --------------------------------------------------------------------------- #
class CompiledTrainer:
    """Shape-dispatching training-plan cache for one (model, optimizer, loss).

    :meth:`train_batch` runs one full training step — inner attack, loss,
    parameter gradients, fused in-place optimizer update — through compiled
    plans, or returns ``None`` when the batch must take the eager path
    (unsupported strategy, first sighting of a signature, capture failure,
    a new signature past ``max_signatures``, reallocated parameter storage).
    Plans read the channel mask in place, so an IB-RAR Eq. (3) refresh
    changes no plan.
    """

    def __init__(self, model, optimizer, loss_strategy, max_signatures: int = 4) -> None:
        self.model = model
        self.optimizer = optimizer
        self.loss_strategy = loss_strategy
        self.adapter = build_adapter(loss_strategy)
        # Compiled training needs in-place updates (live plans alias
        # parameter storage); a custom Optimizer subclass that implements
        # only step() has no fused path, so the whole trainer stays eager.
        if self.adapter is not None and not _supports_fused_step(optimizer):
            self.adapter = None
        self.stats = TrainingCompileStats()
        # The builder holds no reference to this trainer: a bound method in
        # its own cache would form a reference cycle, keeping every plan alive
        # after the trainer is dropped until the next cyclic collection.
        self._cache = SignatureCache(
            functools.partial(_SignatureContext, model, adapter=self.adapter, stats=self.stats),
            capacity=max_signatures,
            name="trainer",
        )
        self._accums: Dict[int, np.ndarray] = {}
        self._fallback_counter = get_registry().counter("trainer.fallback")

    def _fallback(self) -> None:
        """Record a *genuine* eager fallback (a batch that stays eager forever)."""
        self.stats.fallbacks += 1
        self._fallback_counter.inc()

    @property
    def supported(self) -> bool:
        """Whether the strategy (and optimizer) have a compiled path at all."""
        return self.adapter is not None

    def count_forwards(self, calls: int, examples: int) -> None:
        """Record plan forward replays (the compiled ForwardPassCounter)."""
        self.stats.compiled_forward_calls += calls
        self.stats.compiled_forward_examples += examples

    @property
    def pool_allocations(self) -> int:
        """Total buffer allocations across every live context's pools."""
        return sum(
            ctx.pool_allocations
            for ctx in self._cache.entries.values()
            if ctx is not None
        )

    def profile(self) -> Dict[str, dict]:
        """Per-op-kind executor profile by plan signature (see :mod:`repro.obs`).

        Aggregates every plan a signature context owns (training plans and
        the derived attack plan alike), so one warm PGD-AT step shows the
        inner-attack replays and the fused training backward in one table.
        """
        profiles: Dict[str, dict] = {}
        for ctx in self._cache.entries.values():
            if ctx is None:
                continue
            for plan in ctx.plans:
                _merge_snapshot(profiles, plan.profile_snapshot())
        return profiles

    @property
    def plans(self) -> int:
        return sum(len(ctx.plans) for ctx in self._cache.entries.values() if ctx is not None)

    # -- gradient accumulation --------------------------------------------------
    def accumulate(self, plan: Plan) -> None:
        """Add ``plan``'s parameter gradients into the per-parameter sums."""
        for param_id, buffer in plan.param_grads().items():
            accumulator = self._accums.get(param_id)
            if accumulator is None:
                accumulator = np.zeros_like(buffer)
                self._accums[param_id] = accumulator
            np.add(accumulator, buffer, out=accumulator)

    def _zero_accumulators(self) -> None:
        for accumulator in self._accums.values():
            accumulator.fill(0)

    # -- the batch step ----------------------------------------------------------
    def train_batch(self, images, labels) -> Optional[Tuple[float, np.ndarray]]:
        """One compiled training step; ``None`` means "run this batch eagerly".

        Returns ``(loss, predictions)`` on success.  The optimizer update has
        already been applied (in place, via ``step_with_grads``) and the
        predictions reproduce the eager trainer's training-accuracy pass —
        shared clean logits where the strategy provides them, an extra
        training-mode forward (with its running-stat update) otherwise.
        """
        if self.adapter is None:
            self.stats.eager_batches += 1
            self._fallback()  # no compiled path for this strategy/optimizer
            return None
        images = np.asarray(images, dtype=get_default_dtype())
        labels = np.asarray(labels, dtype=np.int64).reshape(-1)
        ctx = self._cache.lookup(images)
        if ctx is None:
            self.stats.eager_batches += 1
            if self._cache.refuses(images):
                self._fallback()  # memoized capture failure or a full cache
            return None
        self._zero_accumulators()
        counters_before = (
            self.stats.compiled_forward_calls,
            self.stats.compiled_forward_examples,
            self.stats.attack_grad_calls,
        )
        try:
            with _trace.span("compile.train_batch"):
                loss, logits = self.adapter.step(self, ctx, images, labels)
                if logits is not None:
                    predictions = np.argmax(logits, axis=1)
                else:
                    predictions = np.argmax(ctx.train_a.forward(images), axis=1)
                    self.count_forwards(1, len(labels))
        except CompileError:
            # A replay failure (e.g. parameter storage reallocated behind the
            # plan's back by an interleaved eager ``optimizer.step()``).
            # Unlike a capture failure — deterministic, remembered as None —
            # this is recoverable: drop the context so the next sighting of
            # this signature recompiles against the current storage.  The
            # batch re-runs eagerly (where ForwardPassCounter sees it), so
            # whatever this partial step already recorded is rolled back —
            # otherwise the run's forward telemetry would double-count it.
            (
                self.stats.compiled_forward_calls,
                self.stats.compiled_forward_examples,
                self.stats.attack_grad_calls,
            ) = counters_before
            self._cache.evict(images)
            self.stats.eager_batches += 1
            self._fallback()
            return None
        grads = [self._accums.get(id(p)) for p in self.optimizer.parameters]
        self.optimizer.step_with_grads(grads)
        self.stats.compiled_batches += 1
        return float(loss), predictions
