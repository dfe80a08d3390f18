"""The three workloads of the Table-1 cell benchmark.

Each workload has a ``setup`` (repeated to time set-up), a ``unit`` (one
epoch, one suite pass or one cold grid — the timed section repeats it), a
post-run ``check`` against the eager float64 oracle, and the per-layer
values the program already counts (compile stats, engine telemetry).
Operations — training batches, attacked batches, grid specs — are counted
as attempted and failed; a failed correctness check fails its operation, and
an exception fails the operation in flight.
"""

from __future__ import annotations

import copy
import json
import math
import os
import shutil
import time
from typing import Dict, List, Optional

import numpy as np

import machine

#: float64 tolerance of the compiled-vs-eager training-step gate: the plan
#: executor matches eager autograd to <=1e-12 over whole trajectories.
STEP_TOLERANCE = 1e-10


class Ops:
    """Attempted and failed operation counts, with the reason for each failure."""

    def __init__(self) -> None:
        self.attempted = 0
        self.failed = 0
        self.errors: List[str] = []

    def add(self, attempted: int, failed: int = 0, error: Optional[str] = None) -> None:
        self.attempted += attempted
        self.failed += failed
        if error:
            self.errors.append(error)


def _finite(*values) -> bool:
    return all(value is not None and math.isfinite(float(value)) for value in values)


class Workload:
    name = ""
    model_classes: tuple = ()

    def __init__(self, seed: int, work_dir: str, config: dict) -> None:
        self.seed = seed
        self.work_dir = work_dir
        self.config = config
        self.ops = Ops()

    def setup(self) -> None:
        raise NotImplementedError

    def start(self, patches) -> None:
        """Install the correctness hooks before the first timed unit."""

    def unit(self) -> float:
        raise NotImplementedError

    def check(self) -> None:
        """Run the post-timed correctness gates (failures go to ``self.ops``)."""

    def begin_traced(self) -> None:
        """Mark where the traced units start (for :meth:`layer_values`)."""

    def layer_values(self) -> Dict[str, float]:
        """Per-layer values the program counts itself, for the traced units."""
        return {}

    def summary(self, unit_seconds: float) -> Dict[str, object]:
        """Extra human-readable figures for the printed table."""
        return {}

    def workers_peak_rss_mb(self) -> float:
        return 0.0


# --------------------------------------------------------------------------- #
class TrainWorkload(Workload):
    """IB-RAR over PGD-AT on VGG16, compiled, float64: whole epochs."""

    name = "train_vgg16_ibrar_pgd"

    def setup(self) -> None:
        from repro.core.config import IBRARConfig
        from repro.core.ibrar import IBRAR
        from repro.data.synthetic import build_dataset
        from repro.models import build_model
        from repro.training.adversarial import PGDAdversarialLoss

        c = self.config
        self.dataset = build_dataset(
            "cifar10", n_train=c["n_train"], n_test=8, image_size=32, seed=self.seed
        )
        self.model = build_model(
            "vgg16", num_classes=10, image_size=32, width_multiplier=c["width"], seed=self.seed
        )
        self.model_classes = (type(self.model),)
        self.ibrar = IBRAR(
            self.model,
            IBRARConfig(alpha=0.05, beta=0.01, mask_refresh_every=1),
            base_loss=PGDAdversarialLoss(steps=c["pgd_steps"], seed=self.seed),
            compile=True,
        )
        self.epochs = 0
        self.gate: Optional[dict] = None
        self.stats_start: Optional[dict] = None

    def _stats(self) -> dict:
        stats = self.ibrar.trainer.compile_stats
        return stats.as_dict() if stats is not None else {}

    def start(self, patches) -> None:
        from repro.compile.training import CompiledTrainer
        from repro.nn import advance_dropout_steps

        self.stats_start = self._stats()
        strategy = self.ibrar.loss

        def make_train_batch(original):
            # Snapshot state until the first batch that runs compiled, then
            # keep its inputs, loss and updated parameters for the eager replica.
            def wrapper(trainer, images, labels):
                if self.gate is not None:
                    return original(trainer, images, labels)
                before = copy.deepcopy((trainer.model, trainer.optimizer, trainer.loss_strategy))
                inputs = (np.array(images, copy=True), np.array(labels, copy=True))
                outcome = original(trainer, images, labels)
                if outcome is not None:
                    self.gate = {
                        "before": before,
                        "inputs": inputs,
                        "loss": outcome[0],
                        "after": [p.data.copy() for p in trainer.optimizer.parameters],
                    }
                return outcome

            return wrapper

        def make_advance(original):
            # Called once per training batch, after its optimizer step.
            def wrapper(*args, **kwargs):
                result = original(*args, **kwargs)
                loss = strategy.last_components.get("total")
                ok = _finite(loss)
                self.ops.add(1, 0 if ok else 1, None if ok else f"non-finite batch loss {loss}")
                return result

            return wrapper

        patches.wrap(CompiledTrainer, "train_batch", make_train_batch)
        patches.wrap_function(advance_dropout_steps, make_advance)

    def unit(self) -> float:
        c = self.config
        start = time.perf_counter()
        self.ibrar.fit(
            self.dataset.x_train,
            self.dataset.y_train,
            epochs=1,
            batch_size=c["batch_size"],
            seed=self.seed + self.epochs,
        )
        self.epochs += 1
        return time.perf_counter() - start

    def check(self) -> None:
        fallbacks = self._stats().get("fallbacks", 0) - self.stats_start.get("fallbacks", 0)
        if fallbacks:
            self.ops.add(0, fallbacks, f"{fallbacks} compiled-training fallbacks")
        if self.gate is None:
            self.ops.add(1, 1, "no training batch ran compiled")
            return
        model, optimizer, strategy = self.gate["before"]
        images, labels = self.gate["inputs"]
        loss, _ = strategy.loss_and_logits(model, images, labels)
        optimizer.zero_grad()
        loss.backward()
        optimizer.step_with_grads([p.grad for p in optimizer.parameters])
        loss_error = abs(float(loss.item()) - self.gate["loss"])
        param_error = max(
            float(np.max(np.abs(p.data - after)))
            for p, after in zip(optimizer.parameters, self.gate["after"])
        )
        if not (loss_error <= STEP_TOLERANCE and param_error <= STEP_TOLERANCE):
            self.ops.add(
                0, 1,
                f"compiled step differs from eager: loss {loss_error:.3g}, params {param_error:.3g}",
            )

    def layer_values(self) -> Dict[str, float]:
        now, then = self._stats(), self._traced_start
        delta = {key: now.get(key, 0) - then.get(key, 0) for key in now}
        batches = delta.get("compiled_batches", 0) + delta.get("eager_batches", 0)
        return {
            "training.compiled_batches": delta.get("compiled_batches", 0),
            "training.eager_batches": delta.get("eager_batches", 0),
            "training.fallbacks": delta.get("fallbacks", 0),
            "training.compile_coverage": delta.get("compiled_batches", 0) / batches if batches else 0.0,
            "compile.trace_hits": delta.get("trace_hits", 0),
            "compile.trace_misses": delta.get("trace_misses", 0),
        }

    def begin_traced(self) -> None:
        self._traced_start = self._stats()

    def summary(self, unit_seconds: float) -> Dict[str, object]:
        return {"train_examples_per_s": self.config["n_train"] / unit_seconds}


# --------------------------------------------------------------------------- #
class EvalWorkload(Workload):
    """The paper's five-attack suite against a masked VGG16 trained in set-up."""

    name = "eval_vgg16_paper_suite"

    def __init__(self, *args) -> None:
        super().__init__(*args)
        self.setup_accuracies: List[float] = []

    def setup(self) -> None:
        from repro.attacks.engine import AttackEngine, paper_suite_specs
        from repro.core.config import IBRARConfig
        from repro.core.ibrar import IBRAR
        from repro.data.synthetic import build_dataset
        from repro.models import build_model
        from repro.training.trainer import evaluate_accuracy

        c = self.config
        dataset = build_dataset(
            "cifar10", n_train=c["n_train"], n_test=c["eval_examples"], image_size=32,
            seed=c["checkpoint_seed"],
        )
        self.model = build_model(
            "vgg16", num_classes=10, image_size=32, width_multiplier=c["width"],
            seed=c["checkpoint_seed"],
        )
        self.model_classes = (type(self.model),)
        IBRAR(
            self.model, IBRARConfig(alpha=0.05, beta=0.01), compile=True, lr=c["lr"]
        ).fit(
            dataset.x_train, dataset.y_train, epochs=c["epochs"], batch_size=32,
            seed=c["checkpoint_seed"],
        )
        self.images, self.labels = dataset.x_test, dataset.y_test
        self.clean_accuracy = evaluate_accuracy(self.model, self.images, self.labels)
        self.setup_accuracies.append(self.clean_accuracy)
        # The attacks' random starts are the only seed-dependent input: the
        # checkpoint is fixed so early exit leaves the same work every run.
        self.suite = paper_suite_specs(seed=self.seed)
        self.engine = AttackEngine(self.suite, batch_size=64, early_exit=True, compile=True)
        self.results = []

    def start(self, patches) -> None:
        # Early exit makes the suite's work depend on the checkpoint's clean
        # accuracy, so every set-up must reproduce the recorded value.
        expected = self.config["clean_accuracy"]
        for accuracy in self.setup_accuracies:
            if abs(accuracy - expected) > self.config["clean_tolerance"]:
                self.ops.add(1, 1, f"checkpoint clean accuracy {accuracy} != recorded {expected}")

    def unit(self) -> float:
        start = time.perf_counter()
        result = self.engine.run(self.model, self.images, self.labels)
        seconds = time.perf_counter() - start
        batches = sum(
            max(1, math.ceil(t.examples_attacked / self.engine.batch_size)) for t in result.telemetry
        )
        ok = _finite(result.natural, result.worst_case, *result.adversarial.values())
        self.ops.add(batches, 0 if ok else batches, None if ok else "non-finite accuracy")
        self.results.append(result)
        return seconds

    def check(self) -> None:
        from repro.attacks.engine import AttackEngine

        n = self.config["gate_examples"]
        pgd = [spec for spec in self.suite if spec.name == "pgd"]
        accuracies = [
            AttackEngine(pgd, batch_size=64, compile=compiled)
            .run(self.model, self.images[:n], self.labels[:n])
            .adversarial["pgd"]
            for compiled in (True, False)
        ]
        if accuracies[0] == accuracies[1]:
            self.ops.add(1)
        else:
            self.ops.add(1, 1, f"compiled PGD accuracy {accuracies[0]} != eager {accuracies[1]}")

    def layer_values(self) -> Dict[str, float]:
        results = self.results[self._traced_from:]
        return _engine_values([[t.as_dict() for t in r.telemetry] for r in results])

    def begin_traced(self) -> None:
        self._traced_from = len(self.results)

    def summary(self, unit_seconds: float) -> Dict[str, object]:
        last = self.results[-1] if self.results else None
        return {
            "eval_examples_per_s": len(self.labels) / unit_seconds,
            "clean_accuracy": self.clean_accuracy,
            "robust_acc": last.worst_case if last else None,
        }


def _engine_values(telemetries: List[list]) -> Dict[str, float]:
    """Compiled grad calls, fallbacks and the early-exit skip share of engine runs."""
    grad_calls = fallbacks = attacked = skipped = 0
    for telemetry in telemetries:
        for entry in telemetry:
            grad_calls += entry.get("compiled_grad_calls", 0)
            fallbacks += entry.get("compiled_fallbacks", 0)
            if entry["name"] != "clean":
                attacked += entry["examples_attacked"]
                skipped += entry["examples_skipped"]
    total = attacked + skipped
    return {
        "attacks.compiled_grad_calls": grad_calls,
        "attacks.compiled_fallbacks": fallbacks,
        "attacks.skip_frac": skipped / total if total else 0.0,
    }


# --------------------------------------------------------------------------- #
class GridWorkload(Workload):
    """A cold six-spec SmallCNN grid into a fresh store with two workers.

    BLAS is limited to ``nproc // workers`` threads per process (forked
    workers inherit the limit).  With every worker using every core, the
    grid ran about 3x slower on the 2-core reference box and its wall time
    spread 26% from run to run, which would hide every layer it measures.
    Set-up is building the specs plus one warm-up grid into a throwaway
    store; evaluation runs without early exit, so the attack work does not
    depend on each seed's clean accuracy.
    """

    name = "grid_smallcnn_cold"
    workers = 2

    def setup(self) -> None:
        from repro.attacks import AttackSpec
        from repro.experiments import ExperimentSpec
        from repro.models.small import SmallCNN

        machine.set_blas_threads(max(1, (os.cpu_count() or 1) // self.workers))
        c, seed = self.config, self.seed
        shared = dict(
            dataset="cifar10",
            dataset_params=dict(
                n_train=c["n_train"], n_test=c["eval_examples"], image_size=c["image_size"], seed=seed
            ),
            model="smallcnn",
            model_params=dict(image_size=c["image_size"], seed=seed, **c.get("model_params", {})),
            optimizer=dict(lr=0.05, weight_decay=1e-3),
            epochs=c["epochs"],
            batch_size=c["batch_size"],
            attacks=[AttackSpec("pgd", dict(steps=5, seed=seed)), AttackSpec("fgsm", dict())],
            eval_examples=c["eval_examples"],
            eval_early_exit=False,
            seed=seed,
            train_compile=True,
            eval_compile=True,
        )

        def adversarial(name):
            return {"name": name, "params": {"steps": 3, "seed": seed}}

        ibrar = dict(alpha=0.05, beta=0.01)
        self.specs = [
            ExperimentSpec(loss="ce", name="CE", **shared),
            ExperimentSpec(loss=adversarial("pgd"), name="PGD-AT", **shared),
            ExperimentSpec(loss=adversarial("trades"), name="TRADES", **shared),
            ExperimentSpec(loss=adversarial("mart"), name="MART", **shared),
            ExperimentSpec(loss=adversarial("pgd"), ibrar=ibrar, name="PGD-AT+IB-RAR", **shared),
            ExperimentSpec(loss=adversarial("trades"), ibrar=ibrar, name="TRADES+IB-RAR", **shared),
        ]
        self.model_classes = (SmallCNN,)
        self.grids = []
        self.workers_file = os.path.join(self.work_dir, "workers.jsonl")
        self._run_grid(os.path.join(self.work_dir, "warm-up"))

    def _run_grid(self, root: str):
        """``(grid, seconds, store bytes)`` of one cold grid; the store is then deleted."""
        from repro.experiments import ArtifactStore, run_grid

        try:
            start = time.perf_counter()
            grid = run_grid(self.specs, workers=self.workers, store=ArtifactStore(root))
            seconds = time.perf_counter() - start
            store_bytes = sum(
                os.path.getsize(os.path.join(folder, name))
                for folder, _, names in os.walk(root)
                for name in names
            )
            return grid, seconds, store_bytes
        finally:
            shutil.rmtree(root, ignore_errors=True)

    def start(self, patches) -> None:
        from repro.experiments.runner import ExperimentRunner

        parent = os.getpid()
        path = self.workers_file

        def make_run(original):
            # Each worker records what it ran with after every spec.
            def wrapper(*args, **kwargs):
                try:
                    return original(*args, **kwargs)
                finally:
                    if os.getpid() != parent:
                        with open(path, "a", encoding="utf-8") as handle:
                            handle.write(json.dumps(machine.process_context()) + "\n")

            return wrapper

        patches.wrap(ExperimentRunner, "run", make_run)

    def _worker_contexts(self) -> Dict[int, dict]:
        contexts: Dict[int, dict] = {}
        if os.path.exists(self.workers_file):
            with open(self.workers_file, encoding="utf-8") as handle:
                for line in handle:
                    entry = json.loads(line)
                    contexts[entry["pid"]] = entry  # the last line is the worker's peak
            os.remove(self.workers_file)
        return contexts

    def unit(self) -> float:
        grid, seconds, store_bytes = self._run_grid(
            os.path.join(self.work_dir, f"grid-{len(self.grids)}")
        )
        failed = 0
        for result in grid.results:
            report = result.report
            compile_stats = (result.history or {}).get("compile") or {}
            accuracies = [report["natural"], report["worst_case"], *report["adversarial"].values()]
            if not _finite(*accuracies) or compile_stats.get("fallbacks", 1) != 0:
                failed += 1
                self.ops.errors.append(f"{result.spec.name}: {report} fallbacks={compile_stats.get('fallbacks')}")
        self.ops.add(len(grid.results), failed)
        self.grids.append(
            {"seconds": seconds, "grid": grid, "store_bytes": store_bytes,
             "workers": self._worker_contexts()}
        )
        return seconds

    def workers_peak_rss_mb(self) -> float:
        # Which specs a worker happens to get varies, so charge every worker
        # the largest worker peak: a stable upper bound on concurrent memory.
        peaks = [w["peak_rss_mb"] for g in self.grids for w in g["workers"].values()]
        return self.workers * max(peaks, default=0.0)

    def worker_blas_threads(self) -> List[int]:
        return sorted({w["blas_threads"] for g in self.grids for w in g["workers"].values()})

    def begin_traced(self) -> None:
        self._traced_from = len(self.grids)

    def layer_values(self) -> Dict[str, float]:
        grids = self.grids[self._traced_from:]
        totals: Dict[str, float] = {}
        for g in grids:
            for result in g["grid"].results:
                for key, value in ((result.history or {}).get("compile") or {}).items():
                    totals[key] = totals.get(key, 0) + value
        batches = totals.get("compiled_batches", 0) + totals.get("eager_batches", 0)
        busy = sum(s["seconds"] for g in grids for s in g["grid"].stats)
        wall = sum(g["seconds"] for g in grids)
        values = {
            "training.compiled_batches": totals.get("compiled_batches", 0),
            "training.eager_batches": totals.get("eager_batches", 0),
            "training.fallbacks": totals.get("fallbacks", 0),
            "training.compile_coverage": totals.get("compiled_batches", 0) / batches if batches else 0.0,
            "compile.trace_hits": totals.get("trace_hits", 0),
            "compile.trace_misses": totals.get("trace_misses", 0),
            "experiments.store_bytes": sum(g["store_bytes"] for g in grids),
            "experiments.worker_busy_frac": busy / (self.workers * wall) if wall else 0.0,
        }
        values.update(
            _engine_values(
                [(r.engine or {}).get("telemetry", []) for g in grids for r in g["grid"].results]
            )
        )
        return values

    def summary(self, unit_seconds: float) -> Dict[str, object]:
        last = self.grids[-1]["grid"] if self.grids else None
        return {
            "robust_acc": float(np.mean([r.report["worst_case"] for r in last.results])) if last else None,
            "worker_blas_threads": self.worker_blas_threads(),
        }


WORKLOADS = {cls.name: cls for cls in (TrainWorkload, EvalWorkload, GridWorkload)}
