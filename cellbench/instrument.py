"""Outside-in instrumentation for the traced run.

Every span here is opened by the benchmark around a call into one layer's
public functions; nothing inside ``src/`` changes.  Spans go through
:mod:`repro.obs.trace` into an in-memory list (its JSONL schema, so
``python -m repro.obs summarize`` and ``export`` read the written file) and
carry ``attrs["layer"]`` so self time can be attributed per layer.  The plan
profiler (:mod:`repro.obs.profiler`) supplies the per-op-kind kernel times.

``run_grid`` workers are forked, so they inherit these wrappers; a worker
appends its own spans and plan profiles to a per-process file at the end of
each ``ExperimentRunner.run`` call, which the parent merges afterwards.
"""

from __future__ import annotations

import functools
import json
import os
import sys
import weakref
from collections import defaultdict
from typing import Callable, Dict, Iterable, List, Optional

LAYERS = ("data", "training", "compile", "core", "ib", "nn", "attacks", "experiments", "bench")

#: per-op-kind metrics reported from the plan profiler; any other kind
#: lands in ``compile.op.other_ms``.
OP_KINDS = (
    "conv2d", "conv2d.bwd", "batch_norm2d", "batch_norm2d.bwd", "max_pool2d",
    "max_pool2d.bwd", "affine", "affine.bwd", "matmul", "matmul.bwd", "ew", "ew.bwd",
    "rng_mask", "rng_mask.bwd", "rbf_gram", "rbf_gram.bwd", "hsic_trace",
    "hsic_trace.bwd", "softmax_kl", "softmax_kl.bwd", "mart_boosted_ce",
    "mart_boosted_ce.bwd", "mart_weighted_kl", "mart_weighted_kl.bwd", "softmax_ce.fused",
)

ATTACK_NAMES = ("clean", "pgd", "cw", "fgsm", "fab", "nifgsm")

_MISSING = object()


class Patches:
    """Attribute replacements that are all put back by :meth:`close`."""

    def __init__(self) -> None:
        self._undo: List[tuple] = []

    def set(self, owner, name: str, value) -> None:
        self._undo.append((owner, name, vars(owner).get(name, _MISSING)))
        setattr(owner, name, value)

    def wrap(self, owner, name: str, make: Callable[[Callable], Callable]) -> None:
        """Replace ``owner.name`` with ``make(original)``."""
        original = getattr(owner, name)
        self.set(owner, name, functools.wraps(original)(make(original)))

    def wrap_function(self, original: Callable, make: Callable[[Callable], Callable]) -> None:
        """Replace a function in every ``repro`` module that holds a reference to it.

        Catches ``from .graph import capture_forward``-style imports, which
        bind the function under the importing module's own name.
        """
        replacement = functools.wraps(original)(make(original))
        for module in list(sys.modules.values()):
            if not getattr(module, "__name__", "").startswith("repro"):
                continue
            for name, value in list(vars(module).items()):
                if value is original:
                    self.set(module, name, replacement)

    def close(self) -> None:
        while self._undo:
            owner, name, old = self._undo.pop()
            if old is _MISSING:
                delattr(owner, name)
            else:
                setattr(owner, name, old)


def conv_flops(graph, backward: Optional[str] = None) -> int:
    """Conv FLOPs of one replay, from the conv shapes in a captured graph.

    ``backward=None`` counts the forward; ``"input"`` / ``"full"`` count the
    input-gradient and weight-gradient GEMMs of that backward program (each
    costs as much as the forward GEMM of its conv).
    """
    diff = None
    if backward is not None:
        diff = graph.grad_path(include_input=True, include_params=backward == "full")
        if graph.output_id not in diff:
            return 0
    total = 0
    for node in graph.nodes:
        if node.op != "conv2d":
            continue
        n, out_c, out_h, out_w = node.shape
        _, in_c, kh, kw = graph.node(node.inputs[1]).shape
        flops = 2 * n * out_c * out_h * out_w * in_c * kh * kw
        if diff is None:
            total += flops
        else:
            total += flops * ((node.inputs[0] in diff) + (node.inputs[1] in diff))
    return total


class Instrumentation:
    """Spans at every layer boundary the benchmark calls through."""

    def __init__(self, out_dir: str) -> None:
        self.out_dir = out_dir
        self.parent_pid = os.getpid()
        self.events: List[dict] = []
        self._profiles: List[tuple] = []  # (pid, key, signature, provider, pool bytes, PlanProfile)
        self._flops: "weakref.WeakKeyDictionary" = weakref.WeakKeyDictionary()
        self._patches = Patches()
        self._clean_phase = False
        self._eager_span = None

    # ------------------------------------------------------------------ #
    def span(self, name: str, layer: str, **attrs):
        from repro.obs import trace

        attrs["layer"] = layer
        return trace.span(name, attrs)

    def _timed(self, name: str, layer: str, attrs: Optional[Callable] = None):
        def make(original):
            def wrapper(*args, **kwargs):
                extra = attrs(*args, **kwargs) if attrs is not None else {}
                with self.span(name, layer, **extra):
                    return original(*args, **kwargs)

            return wrapper

        return make

    def install(self, model_classes: Iterable[type]) -> None:
        """Wrap the layer entry points and turn on tracing and the profiler."""
        from repro.attacks.base import Attack
        from repro.attacks.engine import AttackEngine
        from repro.compile.executor import Plan
        from repro.compile.graph import capture_forward
        from repro.compile.model import CompiledModel
        from repro.compile.training import CompiledTrainer, LiveEvalModel
        from repro.core import losses
        from repro.core.mask import FeatureChannelMask
        from repro.data.loaders import DataLoader
        from repro.experiments import runner as runner_module
        from repro.experiments.runner import ExperimentRunner
        from repro.experiments.store import ArtifactStore
        from repro.models.base import predict_batched
        from repro.nn import advance_dropout_steps
        from repro.nn.optim import SGD
        from repro.nn.tensor import Tensor
        from repro.obs import profiler, trace
        from repro.training.trainer import Trainer

        p = self._patches
        timed = self._timed

        # repro.data: time spent waiting on the next batch.
        def make_iter(original):
            def wrapper(loader):
                iterator = original(loader)
                while True:
                    with self.span("data.next_batch", "data"):
                        try:
                            item = next(iterator)
                        except StopIteration:
                            return
                    yield item

            return wrapper

        p.wrap(DataLoader, "__iter__", make_iter)

        # repro.training
        p.wrap(Trainer, "train_epoch", timed("training.epoch", "training"))

        def make_train_batch(original):
            def wrapper(trainer, images, labels):
                with self.span("training.train_batch", "training") as span:
                    outcome = original(trainer, images, labels)
                    span.set("compiled", outcome is not None)
                if outcome is None:
                    # The trainer now runs this batch eagerly; the span closes
                    # when the batch's dropout step advances (its last call).
                    self._eager_span = self.span("training.eager_batch", "training")
                    self._eager_span.__enter__()
                return outcome

            return wrapper

        p.wrap(CompiledTrainer, "train_batch", make_train_batch)

        def make_advance(original):
            def wrapper(*args, **kwargs):
                result = original(*args, **kwargs)
                if self._eager_span is not None:
                    span, self._eager_span = self._eager_span, None
                    span.__exit__(None, None, None)
                return result

            return wrapper

        p.wrap_function(advance_dropout_steps, make_advance)
        p.wrap(SGD, "step", timed("training.optimizer_step", "training"))
        p.wrap(SGD, "step_with_grads", timed("training.optimizer_step", "training"))

        # repro.compile
        p.wrap_function(capture_forward, timed("compile.capture", "compile"))

        def make_plan_init(original):
            def wrapper(plan, *args, **kwargs):
                with self.span("compile.bind", "compile") as span:
                    original(plan, *args, **kwargs)
                    span.set("pool_bytes", plan.pool.bytes_allocated)
                backward = "full" if plan.grad_mode != "input" else "input"
                self._flops[plan] = (
                    conv_flops(plan.graph),
                    conv_flops(plan.graph, "input"),
                    conv_flops(plan.graph, backward),
                )

            return wrapper

        p.wrap(Plan, "__init__", make_plan_init)

        def flops_of(slot: int):
            return lambda plan, *args, **kwargs: {"conv_flops": self._flops.get(plan, (0, 0, 0))[slot]}

        p.wrap(Plan, "forward", timed("compile.forward", "compile", flops_of(0)))
        p.wrap(Plan, "backward", timed("compile.backward", "compile", flops_of(1)))
        p.wrap(Plan, "run_backward", timed("compile.backward", "compile", flops_of(2)))
        p.wrap(Plan, "ce_loss_and_seed", timed("compile.ce_loss", "compile"))

        def make_profile_for(original):
            def wrapper(plan):
                profile = original(plan)
                self._profiles.append(
                    (os.getpid(), len(self._profiles) + 1, plan.signature, plan.provider_name,
                     plan.pool.bytes_allocated, profile)
                )
                return profile

            return wrapper

        p.wrap(profiler.PROFILER, "profile_for", make_profile_for)

        # repro.core / repro.ib
        p.wrap(FeatureChannelMask, "apply", timed("core.mask_refresh", "core"))
        p.wrap_function(losses.mi_regularizer_terms, timed("ib.hsic", "ib"))

        # repro.nn: eager autograd and eager forwards.
        p.wrap(Tensor, "backward", timed("nn.backward", "nn"))

        def examples(model, x, *args, **kwargs):
            data = getattr(x, "data", x)
            return {"examples": int(data.shape[0])}

        for cls in model_classes:
            p.wrap(cls, "forward_with_hidden", timed("nn.forward", "nn", examples))

        # repro.attacks: per-attack time; predictions before the first
        # attack of an engine run are the clean pass.
        def make_engine_run(original):
            def wrapper(*args, **kwargs):
                self._clean_phase = True
                with self.span("attacks.engine_run", "attacks"):
                    return original(*args, **kwargs)

            return wrapper

        p.wrap(AttackEngine, "run", make_engine_run)

        def make_attack(original):
            def wrapper(attack, images, labels):
                self._clean_phase = False
                with self.span("attacks." + attack.name, "attacks", examples=int(len(images))):
                    return original(attack, images, labels)

            return wrapper

        p.wrap(Attack, "attack", make_attack)

        def make_predict(original):
            def wrapper(*args, **kwargs):
                name = "attacks.clean" if self._clean_phase else "attacks.predict"
                with self.span(name, "attacks"):
                    return original(*args, **kwargs)

            return wrapper

        p.wrap(CompiledModel, "predict", make_predict)
        p.wrap(LiveEvalModel, "predict", make_predict)
        p.wrap_function(predict_batched, make_predict)

        # repro.experiments
        p.wrap(ExperimentRunner, "train", timed("experiments.train", "experiments"))
        p.wrap(ExperimentRunner, "evaluate", timed("experiments.eval", "experiments"))

        def make_run(original):
            def wrapper(*args, **kwargs):
                try:
                    with self.span("experiments.run", "experiments"):
                        return original(*args, **kwargs)
                finally:
                    if os.getpid() != self.parent_pid:
                        self.dump_worker()

            return wrapper

        p.wrap(ExperimentRunner, "run", make_run)
        p.wrap_function(runner_module.run_grid, timed("experiments.grid", "experiments"))
        for method in (
            "save_model", "load_model", "load_train_record", "save_report",
            "load_report", "save_trace", "load_trace", "save_run_record",
        ):
            p.wrap(ArtifactStore, method, timed("experiments.store", "experiments"))

        trace.enable(sink=self.events.append)
        profiler.enable()

    def close(self) -> None:
        from repro.obs import profiler, trace

        profiler.disable()
        trace.disable()
        self._patches.close()

    # ------------------------------------------------------------------ #
    def profile_events(self, pid: int) -> List[dict]:
        """Plan profiles of process ``pid`` as ``repro.obs`` ``profile`` events."""
        return [
            {
                "event": "profile",
                "signature": signature,
                "provider": provider,
                "ops": profile.as_dict(),
                "pool": {"allocations": 0, "bytes": pool_bytes},
                "pid": owner,
                "plan": key,
            }
            for owner, key, signature, provider, pool_bytes, profile in self._profiles
            if owner == pid
        ]

    def _worker_file(self, pid: int) -> str:
        return os.path.join(self.out_dir, f"spans-{pid}.jsonl")

    def _spans(self, pid: int) -> List[dict]:
        # Only spans: profile events the program flushes itself would double
        # count the plans profile_events() already reports.
        return [e for e in self.events if e.get("event") == "span" and e.get("pid") == pid]

    def dump_worker(self) -> None:
        """In a forked worker: append this process's spans and profiles, then drop them."""
        pid = os.getpid()
        mine = self._spans(pid) + self.profile_events(pid)
        self.events[:] = [e for e in self.events if e.get("pid") != pid]
        self._profiles[:] = [entry for entry in self._profiles if entry[0] != pid]
        with open(self._worker_file(pid), "a", encoding="utf-8") as handle:
            for event in mine:
                handle.write(json.dumps(event, default=float) + "\n")

    def all_events(self) -> List[dict]:
        """This process's spans and profiles plus every worker file, merged."""
        events = self._spans(self.parent_pid) + self.profile_events(self.parent_pid)
        for name in sorted(os.listdir(self.out_dir)):
            if name.startswith("spans-") and name.endswith(".jsonl"):
                with open(os.path.join(self.out_dir, name), encoding="utf-8") as handle:
                    events += [json.loads(line) for line in handle if line.strip()]
        return events


# --------------------------------------------------------------------------- #
# turning events into per-layer metrics
# --------------------------------------------------------------------------- #
def _layer(event: dict) -> Optional[str]:
    return (event.get("attrs") or {}).get("layer")


def self_times(events: Iterable[dict]) -> Dict[str, float]:
    """Seconds of each layer's spans not covered by nested layer spans.

    A span's children are the layer spans whose nearest layer-tagged
    ancestor (skipping the program's own spans) it is, within one process;
    a worker's spans parented across the process boundary count as roots.
    """
    spans = [e for e in events if e.get("event") == "span"]
    by_id = {e["span_id"]: e for e in spans}
    covered: Dict[str, float] = defaultdict(float)
    for event in spans:
        if _layer(event) is None:
            continue
        parent = by_id.get(event.get("parent_id"))
        while parent is not None and parent.get("pid") == event.get("pid") and _layer(parent) is None:
            parent = by_id.get(parent.get("parent_id"))
        if parent is not None and parent.get("pid") == event.get("pid"):
            covered[parent["span_id"]] += event["dur_ms"]
    totals: Dict[str, float] = defaultdict(float)
    for event in spans:
        layer = _layer(event)
        if layer is not None:
            totals[layer] += (event["dur_ms"] - covered[event["span_id"]]) / 1e3
    return dict(totals)


def layer_metrics(events: List[dict], peak_gflops_f64: float) -> Dict[str, float]:
    """Per-layer metrics derived from spans and plan profiles alone."""
    seconds: Dict[str, float] = defaultdict(float)
    counts: Dict[str, int] = defaultdict(int)
    attr_sums: Dict[str, float] = defaultdict(float)
    for event in events:
        if event.get("event") != "span" or _layer(event) is None:
            continue
        name = event["name"]
        seconds[name] += event["dur_ms"] / 1e3
        counts[name] += 1
        for key in ("examples", "pool_bytes", "conv_flops"):
            value = (event.get("attrs") or {}).get(key)
            if value is not None:
                attr_sums[f"{name}:{key}"] += value
    op_ms: Dict[str, float] = defaultdict(float)
    for event in events:
        if event.get("event") != "profile":
            continue
        for label, stat in event["ops"].items():
            kind = label.split("@")[0]  # drop a non-default provider's label suffix
            op_ms[kind if kind in OP_KINDS else "other"] += stat["total_ms"]

    def train_batches(compiled: bool) -> float:
        return sum(
            e["dur_ms"] / 1e3
            for e in events
            if e.get("event") == "span" and e["name"] == "training.train_batch"
            and (e.get("attrs") or {}).get("compiled") is compiled
        )

    metrics = {
        "data.next_batch_s": seconds["data.next_batch"],
        "training.epoch_s": seconds["training.epoch"],
        "training.compiled_batch_s": train_batches(True),
        "training.eager_batch_s": seconds["training.eager_batch"],
        "training.optimizer_step_s": seconds["training.optimizer_step"],
        "compile.captures": counts["compile.capture"],
        "compile.capture_s": seconds["compile.capture"],
        "compile.plans_built": counts["compile.bind"],
        "compile.bind_s": seconds["compile.bind"],
        "compile.forward_s": seconds["compile.forward"],
        "compile.backward_s": seconds["compile.backward"],
        "compile.pool_bytes": attr_sums["compile.bind:pool_bytes"],
        "core.mask_refresh_s": seconds["core.mask_refresh"],
        "core.mask_refreshes": counts["core.mask_refresh"],
        "ib.hsic_s": seconds["ib.hsic"],
        "nn.backward_s": seconds["nn.backward"],
        "nn.backward_calls": counts["nn.backward"],
        "nn.forward_s": seconds["nn.forward"],
        "nn.forward_examples": attr_sums["nn.forward:examples"],
        "experiments.train_s": seconds["experiments.train"],
        "experiments.eval_s": seconds["experiments.eval"],
        "experiments.store_s": seconds["experiments.store"],
    }
    for name in ATTACK_NAMES:
        metrics[f"attacks.{name}_s"] = seconds[f"attacks.{name}"]
    for kind in OP_KINDS + ("other",):
        metrics[f"compile.op.{kind}_ms"] = op_ms[kind]
    fwd_flops = attr_sums["compile.forward:conv_flops"]
    bwd_flops = attr_sums["compile.backward:conv_flops"]
    for kind, flops in (("conv2d", fwd_flops), ("conv2d.bwd", bwd_flops)):
        busy = op_ms[kind] / 1e3
        gflops = flops / busy / 1e9 if busy > 0 else 0.0
        metrics[f"compile.op.{kind}_gflops"] = gflops
        metrics[f"compile.op.{kind}_peak_frac"] = gflops / peak_gflops_f64 if peak_gflops_f64 else 0.0
    layer_self = self_times(events)
    for layer in LAYERS[:-1]:
        metrics[f"{layer}.self_s"] = layer_self.get(layer, 0.0)
    metrics["bench.overhead_s"] = layer_self.get("bench", 0.0)
    return {name: float(value) for name, value in metrics.items()}


def write_jsonl(path: str, events: Iterable[dict]) -> None:
    with open(path, "w", encoding="utf-8") as handle:
        for event in events:
            handle.write(json.dumps(event, default=float) + "\n")
