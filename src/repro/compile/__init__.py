"""Static-graph capture, graph passes, and buffer-pooled execution.

The attack hot path — tens of forward+backward passes per batch for
PGD/NIFGSM/CW, and one per class per step for FAB — previously rebuilt the
dynamic Python autograd graph and allocated fresh arrays on every step.  This subsystem traces a module's
eval-mode forward **once** into a static :class:`~repro.compile.graph.Graph`,
optimizes it with :func:`~repro.compile.passes.optimize` (ReLU fusion and
dead-node elimination — the one pipeline training plans go through too) and
replays it through a :class:`~repro.compile.pool.BufferPool` arena with
``out=``-style NumPy kernels, so steady-state iterations allocate nothing
and never touch the autograd machinery.  Plans copy no module state: they
read the parameters, batch-norm buffers and Eq. (3) channel mask in place,
so optimizer steps and mask refreshes keep every plan.  The eval/attack
backward computes input gradients only — parameter gradients, which
attacks always discard, are never materialized.

Training is compiled too (:mod:`repro.compile.training`): training-mode
forwards (batch-stat batch norm with in-place running updates), a full
parameter-gradient backward into pooled buffers
(or the fused input+param backward, ``grad="both"``), fused in-place
optimizer kernels, and adapters building the paper's composite losses (CE,
PGD-AT, TRADES, MART, IB-RAR) **fully in plan** — the fused softmax-CE seed
plus the TRADES KL, the MART objective and the IB-RAR HSIC regularizers,
each traced from its eager code by :meth:`Graph.append_traced` onto the
generic kernels over aliased or pooled aux inputs, zero eager graph nodes
per compiled step.  Dropout compiles in training mode as an ``rng_mask``
plan node: masks are counter-based (Philox over ``seed x layer-id x step``,
state in the module's ``rng_state`` buffer) and share the eager
``F.dropout`` mask-fill, so eager and compiled masks are bitwise identical
and resume-exact; ``mi_on_adversarial=True`` replays the MI hidden forward
on attack outputs inside the plan.  One
``capture_forward`` trace per batch signature serves every plan of a
training context: the eval-semantics attack plan derives from the training
capture through the :func:`~repro.compile.passes.lower_to_eval` pass.

Entry points:

* ``model.compile(sample_input)`` / :func:`compile_model` — returns a
  :class:`CompiledModel` with ``__call__`` (logits), ``predict``,
  ``value_and_grad(x, y)`` (fused cross-entropy), ``jacobian(x)`` (one
  forward plus one input-only backward per class) and ``forward(x)``
  (logits as an autograd node whose backward replays the plan), with
  automatic eager fallback for unseen shapes, training mode, uncompilable
  graphs or reallocated parameter storage.
* ``AttackEngine(..., compile=True)`` / ``evaluate_robustness(...,
  compile=True)`` / ``ExperimentSpec(eval_compile=True)`` — opt the
  evaluation stack in; every attack of the paper suite runs through the
  plan (PGD-family attacks through ``value_and_grad``, FAB through
  ``jacobian``, CW's eager objective over ``forward``) and telemetry
  reports compiled vs eager pass counts.
* ``Trainer(compile=True)`` / ``ExperimentSpec(train_compile=True)`` — opt
  the training loop in; per-batch eager fallback keeps it always safe and
  ``TrainingHistory.compile_stats`` reports the split.
* :mod:`repro.compile.kernels` — fused sign/step/project elementwise chains
  shared by the FGSM/PGD/NIFGSM/MIFGSM update rules, plus the pooled
  dropout-mask kernel of the ``rng_mask`` plan node.

Every plan replays one serial set of NumPy ``out=`` kernels, bound as
closures by the :class:`Plan` executor's per-op binders; BLAS threads the
GEMMs that dominate conv and linear-layer time.
"""

from .cache import SignatureCache
from .graph import CompileError, Graph, Node, capture_forward
from .executor import Plan
from .kernels import linf_step, lookahead_point
from .model import CompiledModel, CompiledStats, compile_model
from .passes import lower_to_eval, optimize
from .pool import BufferPool
from .training import CompiledTrainer, TrainingCompileStats

__all__ = [
    "BufferPool",
    "CompileError",
    "CompiledModel",
    "CompiledStats",
    "CompiledTrainer",
    "Graph",
    "Node",
    "Plan",
    "SignatureCache",
    "TrainingCompileStats",
    "capture_forward",
    "compile_model",
    "linf_step",
    "lookahead_point",
    "lower_to_eval",
    "optimize",
]
