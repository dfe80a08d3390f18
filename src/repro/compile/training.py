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
  norms over the live running buffers, dropout stripped), with an
  input-gradient backward driving the inner maximization.

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
the cache's :data:`_MAX_SIGNATURES`) falls back to the eager path batch by
batch; opting in is always safe.
"""

from __future__ import annotations

import functools
from dataclasses import dataclass
from typing import Callable, Dict, List, Optional, Tuple

import numpy as np

from ..nn.tensor import get_default_dtype
from ..nn import functional as F
from ..obs import trace as _trace
from ..obs.profiler import merge_profile as _merge_profile
from .cache import SignatureCache
from .executor import Plan, step_scratch_nbytes
from .graph import CompileError, Graph, capture_forward
from .kernels import pgd_loop
from .model import CompiledModel
from .passes import lower_to_eval, optimize

__all__ = ["CompiledTrainer", "TrainingCompileStats", "build_adapter"]

#: batch signatures one :class:`CompiledTrainer` compiles; later ones run
#: eagerly (a training run sees one full and at most one ragged signature).
_MAX_SIGNATURES = 4


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


def _eval_graph(captured: Graph) -> Graph:
    """The eval-semantics (attack) graph derived from the same capture."""
    return optimize(lower_to_eval(captured))


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

    The context's plans never replay at the same time, so they bind their
    step-local views into one :attr:`scratch` region.  It is sized to the
    capture's largest step: the plans copy the capture's convolutions and
    batch norms, and lowering to eval only shrinks a batch norm's step.
    """

    def __init__(self, model, sample: np.ndarray, adapter, stats: TrainingCompileStats) -> None:
        self.model = model
        #: every plan of the context (for pool accounting and profiles).
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
        #: the step-local region every plan of the context binds into.
        self.scratch = np.empty((step_scratch_nbytes(captured),), np.uint8)
        adapter.build(self, captured)
        stats.plans_built += len(self.plans)

    def plan(self, graph: Graph, **kwargs) -> Plan:
        """Bind a plan of this context over its shared scratch region."""
        plan = Plan(graph, scratch=self.scratch, **kwargs)
        self.plans.append(plan)
        return plan

    def scalar(self, value: float, dtype) -> np.ndarray:
        """A bind-time scalar seed array (allocated once, never per batch)."""
        return np.array(value, dtype=dtype)

    @property
    def pool_allocations(self) -> int:
        return sum(plan.pool.allocations for plan in self.plans)


def _replay_pgd(trainer, strategy, gradient, images: np.ndarray, random_start: bool) -> np.ndarray:
    """One fresh generation of ``strategy``'s PGD attack through a plan.

    The eager ``generate()`` builds a new :class:`repro.attacks.PGD` per
    call, so each generation draws its random start from a fresh RNG seeded
    with ``strategy.seed``; ``gradient`` serves the per-step query from an
    attack plan (a fused-CE or in-plan-KL replay).
    """
    rng = np.random.default_rng(strategy.seed) if random_start else None
    adversarial = pgd_loop(
        gradient, images, strategy.eps, strategy.alpha, strategy.steps, rng, 0.0, 1.0
    )
    trainer.stats.attack_grad_calls += strategy.steps
    trainer.count_forwards(strategy.steps, strategy.steps * len(images))
    return adversarial


def _ce_gradient(attack: Plan, labels: np.ndarray) -> Callable[[np.ndarray], np.ndarray]:
    """The CE input gradient of ``labels`` through the attack plan."""
    return lambda adversarial: attack.value_and_grad_ce(adversarial, labels)[1]


class LiveEvalModel(CompiledModel):
    """No caller constructs this class.

    ``cellbench/instrument.py`` imports it and wraps its ``predict``, and
    cellbench changes only in a benchmark change; the name goes with the
    benchmark-change backlog (ROADMAP item 7).
    """


# --------------------------------------------------------------------------- #
# loss adapters
# --------------------------------------------------------------------------- #
class _CEAdapter:
    """Plain cross-entropy: one training forward, fused-CE seed."""

    needs_hidden_seeds = False

    def build(self, ctx: _SignatureContext, captured: Graph) -> None:
        ctx.train_a = ctx.plan(_train_graph(captured), grad="params")

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

    One capture serves the whole step: the training plan, and the attack
    plan derived by the ``lower_to_eval`` rewrite of the same capture
    instead of a second trace.
    """

    needs_hidden_seeds = False

    def __init__(self, strategy) -> None:
        self.strategy = strategy

    def build(self, ctx: _SignatureContext, captured: Graph) -> None:
        ctx.train_a = ctx.plan(_train_graph(captured), grad="params")
        ctx.attack = ctx.plan(_eval_graph(captured), grad="input")

    def replay_generate(self, trainer, ctx, images, labels) -> np.ndarray:
        # Serves the base step and the eager MI wrapper's second
        # ``generate()`` alike: the same draws, re-run against the current
        # (post-base-step) running statistics, which the live-buffer attack
        # plan reads automatically.
        s = self.strategy
        return _replay_pgd(trainer, s, _ce_gradient(ctx.attack, labels), images, s.random_start)

    def step(self, trainer: "CompiledTrainer", ctx, images, labels):
        labels = np.asarray(labels, dtype=np.int64).reshape(-1)
        adversarial = self.replay_generate(trainer, ctx, images, labels)
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
        ctx.train_a = ctx.plan(_train_graph(captured), grad="params")
        clean_logits = ctx.train_a.values[ctx.train_a.graph.output_id]
        dtype = clean_logits.dtype

        graph_b = _train_graph(captured)
        kl_id = _trace_kl(graph_b)
        ctx.train_b = ctx.plan(
            graph_b.rebuild(),
            grad="params",
            seed_ids=(kl_id,),
            aux={"clean_logits": clean_logits},
            grad_aux=("clean_logits",),
        )
        ctx.ids["kl"] = kl_id

        attack_graph = _eval_graph(captured)
        attack_kl_id = _trace_kl(attack_graph)
        ctx.attack = ctx.plan(
            attack_graph.rebuild(),
            grad="input",
            seed_ids=(attack_kl_id,),
            aux={"clean_logits": clean_logits},
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
        plan_a, attack = ctx.train_a, ctx.attack
        plan_a.forward(images)
        trainer.count_forwards(1, len(images))
        attack_kl = ctx.ids["attack_kl"]

        def gradient(adversarial: np.ndarray) -> np.ndarray:
            attack.forward(adversarial)
            attack.run_backward({attack_kl: ctx.one})
            return attack.input_grad()

        return _replay_pgd(trainer, self.strategy, gradient, images, True)

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
        ctx.train_b = ctx.plan(_train_graph(captured), grad="params")
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
        ctx.train_a = ctx.plan(
            graph_a.rebuild(),
            grad="params",
            seed_ids=(total_id,),
            aux={"adv_logits": adv_logits},
            grad_aux=("adv_logits",),
        )
        ctx.ids["total"] = total_id
        ctx.attack = ctx.plan(_eval_graph(captured), grad="input")
        ctx.one = ctx.scalar(1.0, logits.dtype)
        ctx.arange = np.arange(logits.shape[0])

    def replay_generate(self, trainer, ctx, images, labels) -> np.ndarray:
        # CE-guided PGD with a forced random start, as eager MART's generate().
        return _replay_pgd(
            trainer, self.strategy, _ce_gradient(ctx.attack, labels), images, True
        )

    def step(self, trainer: "CompiledTrainer", ctx, images, labels):
        labels = np.asarray(labels, dtype=np.int64).reshape(-1)
        n = len(labels)
        adversarial = self.replay_generate(trainer, ctx, images, labels)
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
        ctx.train_mi = ctx.plan(mi_graph.rebuild(), grad="params", seed_ids=(side_id,))
        ctx.ids["mi_side"] = side_id
        ctx.one = ctx.scalar(1.0, dtype)
        ctx.arange = np.arange(n)
        if self.base is None:
            ctx.train_a = ctx.train_mi
        else:
            self.base.build(ctx, captured)

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
    a new signature past :data:`_MAX_SIGNATURES`, reallocated parameter
    storage).
    Plans read the channel mask in place, so an IB-RAR Eq. (3) refresh
    changes no plan.
    """

    def __init__(self, model, optimizer, loss_strategy) -> None:
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
            capacity=_MAX_SIGNATURES,
        )
        self._accums: Dict[int, np.ndarray] = {}

    def _fallback(self) -> None:
        """Record a *genuine* eager fallback (a batch that stays eager forever)."""
        self.stats.fallbacks += 1

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
                _merge_profile(profiles, plan._profile)
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
