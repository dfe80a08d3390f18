"""Execute experiment specs: train -> evaluate -> persist, serially or in parallel.

:class:`ExperimentRunner` runs one :class:`~repro.experiments.ExperimentSpec`
end to end against an :class:`~repro.experiments.ArtifactStore`:

1. if the store already holds a report for the spec's content hash, and its
   model artifact (checkpoint and training record) is whole, it is served
   as-is — **zero** forward passes (a report whose model artifact is gone is
   quarantined and recomputed, so its history is recovered);
2. else, if it holds a checkpoint for the spec's training hash, the model is
   rebuilt from disk and only the evaluation runs;
3. else the model is trained (with per-spec RNG isolation: every seed is
   derived from ``spec.seed`` via :func:`repro.utils.derive_seeds`), the
   checkpoint is stored, and the evaluation runs through the
   :class:`~repro.attacks.AttackEngine`.

:func:`run_grid` fans a list of specs out over ``multiprocessing`` workers.
Workers share the store (writes are atomic), completed hashes are skipped on
re-runs (resumability), and because every run is fully determined by its
spec, a parallel grid produces byte-identical reports to a serial one.
"""

from __future__ import annotations

import json
import multiprocessing
import time
from dataclasses import dataclass, field
from typing import Any, Dict, List, Optional, Sequence, Tuple, Union

from ..attacks.engine import AttackEngine, EngineResult, ForwardPassCounter
from ..core.ibrar import IBRAR
from ..data.loaders import ArrayDataset, DataLoader
from ..data.synthetic import SyntheticImageDataset, build_dataset
from ..evaluation.robustness import RobustnessReport
from ..models import build_model
from ..models.base import ImageClassifier
from ..nn.optim import SGD, StepLR
from ..obs import records as _records, trace as _trace
from ..training.trainer import Trainer
from ..utils.rng import derive_seeds, seed_everything
from .spec import ExperimentSpec
from .store import ArtifactStore

__all__ = ["ExperimentResult", "ExperimentRunner", "GridResult", "run_grid"]


# Datasets are deterministic functions of (name, params); memoize per process
# so a grid whose specs share a dataset synthesizes it once.
_DATASET_MEMO: Dict[Tuple[str, str], SyntheticImageDataset] = {}


def _memoized_dataset(name: str, params_json: str) -> SyntheticImageDataset:
    key = (name, params_json)
    if key not in _DATASET_MEMO:
        _DATASET_MEMO[key] = build_dataset(name, **json.loads(params_json))
    return _DATASET_MEMO[key]


@dataclass
class ExperimentResult:
    """Everything one :meth:`ExperimentRunner.run` produces."""

    spec: ExperimentSpec
    #: deterministic robustness numbers: method / natural / adversarial /
    #: worst_case — byte-stable across runs, processes and worker counts.
    report: Dict[str, Any]
    #: full engine output (per-attack telemetry, timings); ``None`` when the
    #: stored record predates telemetry.
    engine: Optional[Dict[str, Any]] = None
    history: Optional[Dict[str, Any]] = None
    from_cache: bool = False
    model_from_cache: bool = False
    seconds: float = 0.0
    train_seconds: float = 0.0
    train_forward_examples: int = 0

    @property
    def content_hash(self) -> str:
        return self.spec.content_hash

    def robustness_report(self) -> RobustnessReport:
        """The bench-facing view, with telemetry revived when available."""
        return RobustnessReport(
            method=self.report.get("method", self.spec.label),
            natural=self.report["natural"],
            adversarial=dict(self.report.get("adversarial", {})),
            worst_case=self.report.get("worst_case"),
            result=EngineResult.from_dict(self.engine) if self.engine else None,
        )

    def report_json(self) -> str:
        """Canonical JSON of the deterministic report (for equality checks)."""
        return json.dumps(
            {"hash": self.content_hash, "report": self.report}, sort_keys=True
        )


class ExperimentRunner:
    """Run specs end to end against a content-addressed artifact store."""

    def __init__(self, store: Union[ArtifactStore, str, None] = None, verbose: bool = False) -> None:
        if not isinstance(store, ArtifactStore):
            store = ArtifactStore(store)
        self.store = store
        self.verbose = verbose

    # -- builders ----------------------------------------------------------------
    def dataset_for(self, spec: ExperimentSpec) -> SyntheticImageDataset:
        """Build (or fetch the memoized) dataset described by the spec."""
        params = dict(spec.dataset_kwargs)
        params.setdefault("seed", derive_seeds(spec.seed, "data")["data"])
        return _memoized_dataset(spec.dataset, json.dumps(params, sort_keys=True))

    def model_for(self, spec: ExperimentSpec, num_classes: int) -> ImageClassifier:
        """Build the fresh (untrained) model described by the spec."""
        kwargs = dict(spec.model_kwargs)
        kwargs.pop("num_classes", None)
        kwargs.setdefault("seed", derive_seeds(spec.seed, "model")["model"])
        return build_model(spec.model, num_classes=num_classes, **kwargs)

    # -- training ----------------------------------------------------------------
    def train(
        self,
        spec: ExperimentSpec,
        dataset: Optional[SyntheticImageDataset] = None,
        strategy: Optional[Any] = None,
        model: Optional[ImageClassifier] = None,
    ):
        """Train the spec's model from scratch (no cache interaction).

        Returns ``(model, history_dict, timing)`` where ``timing`` counts the
        wall time and the forward passes the training issued.

        ``dataset``, ``strategy`` and ``model`` override the spec-described
        objects — the escape hatch for callers holding live objects the spec
        cannot express (e.g. the VIB/HBaR baseline losses).  Overridden runs
        must not be persisted under the spec's hashes; the cached paths
        (:meth:`run`, the grid runner) never pass overrides.
        """
        dataset = dataset if dataset is not None else self.dataset_for(spec)
        # Isolate this run from any global-RNG consumer, so results are
        # identical whether the spec runs alone, mid-grid, or in a worker.
        # The loader (like the dataset and model seeds that default from the
        # spec seed) uses spec.seed directly — the convention every bench
        # used before the runner existed, kept so trajectories match.
        seed_everything(derive_seeds(spec.seed, "global")["global"])
        loader_seed = spec.seed
        if model is None:
            model = self.model_for(spec, num_classes=dataset.num_classes)
        if strategy is None:
            strategy = spec.loss.build()
        optim = spec.optimizer_kwargs
        config = spec.ibrar_config
        start = time.perf_counter()
        # Identify any run record produced inside this call (Trainer.fit
        # under REPRO_RUNS) by the spec that caused it.
        annotation = _records.annotate(
            spec_name=spec.name,
            training_hash=spec.training_hash,
            content_hash=spec.content_hash,
        )
        with annotation, ForwardPassCounter(model) as counter:
            if config is not None:
                ibrar = IBRAR(
                    model,
                    config,
                    base_loss=strategy,
                    lr=optim["lr"],
                    momentum=optim["momentum"],
                    weight_decay=optim["weight_decay"],
                    step_size=int(optim["step_size"]),
                    gamma=optim["gamma"],
                    compile=spec.train_compile,
                )
                result = ibrar.fit(
                    dataset.x_train,
                    dataset.y_train,
                    epochs=spec.epochs,
                    batch_size=spec.batch_size,
                    seed=loader_seed,
                )
                history = result.history
            else:
                optimizer = SGD(
                    model.parameters(),
                    lr=optim["lr"],
                    momentum=optim["momentum"],
                    weight_decay=optim["weight_decay"],
                )
                trainer = Trainer(
                    model,
                    strategy,
                    optimizer=optimizer,
                    scheduler=StepLR(optimizer, step_size=int(optim["step_size"]), gamma=optim["gamma"]),
                    compile=spec.train_compile,
                )
                loader = DataLoader(
                    ArrayDataset(dataset.x_train, dataset.y_train),
                    batch_size=spec.batch_size,
                    shuffle=True,
                    drop_last=True,
                    seed=loader_seed,
                )
                history = trainer.fit(loader, epochs=spec.epochs)
        model.eval()
        # ForwardPassCounter instruments the eager forward funnel, which
        # compiled plan replays bypass entirely; TrainingCompileStats counts
        # those replays the same way (one call per plan forward), so the sum
        # reports consistent totals for eager and train_compile runs alike.
        compile_stats = history.compile_stats or {}
        timing = {
            "train_seconds": time.perf_counter() - start,
            "train_forward_calls": counter.calls
            + int(compile_stats.get("compiled_forward_calls", 0)),
            "train_forward_examples": counter.examples
            + int(compile_stats.get("compiled_forward_examples", 0)),
        }
        return model, history.as_dict(), timing

    def trained_model(self, spec: ExperimentSpec):
        """The spec's trained model, training-and-persisting on a store miss.

        Returns ``(model, from_cache, history_dict, timing)`` — the single
        checkpoint-resolution path shared by :meth:`run` and the benches'
        spec-based ``get_or_train``.
        """
        model = self.store.load_model(spec)
        if model is not None:
            record = self.store.load_train_record(spec) or {}
            timing = {"train_seconds": 0.0, "train_forward_calls": 0, "train_forward_examples": 0}
            return model, True, record.get("history"), timing
        if self.verbose:
            print(f"[experiments] training {spec!r}")
        model, history, timing = self.train(spec)
        self.store.save_model(spec, model, history=history, timing=timing)
        return model, False, history, timing

    # -- evaluation --------------------------------------------------------------
    def evaluate(
        self, spec: ExperimentSpec, model: ImageClassifier, dataset: SyntheticImageDataset
    ) -> EngineResult:
        """Run the spec's attack suite against a trained model."""
        limit = spec.eval_examples if spec.eval_examples is not None else len(dataset.x_test)
        images = dataset.x_test[:limit]
        labels = dataset.y_test[:limit]
        engine = AttackEngine(
            spec.attacks,
            batch_size=spec.eval_batch_size,
            early_exit=spec.eval_early_exit,
            cascade=spec.eval_cascade,
            compile=spec.eval_compile,
        )
        return engine.run(model, images, labels, method_name=spec.label)

    # -- the end-to-end unit -----------------------------------------------------
    def load_cached(self, spec: ExperimentSpec) -> Optional[Tuple[Dict[str, Any], Dict[str, Any]]]:
        """The stored ``(report record, training record)`` pair, or ``None``.

        A report is only a hit while its model artifact is whole: one whose
        checkpoint is gone or whose training record does not load (the model
        directory is quarantined after a corrupt ``train.json``) is
        quarantined too, so the spec is recomputed and its history and
        checkpoint recovered instead of staying missing forever.
        """
        record = self.store.load_report(spec)
        if record is None:
            return None
        train_record = self.store.load_train_record(spec)
        if train_record is None or not self.store.has_model(spec):
            self.store._quarantine(self.store.report_dir(spec.content_hash))
            return None
        return record, train_record

    def run(self, spec: ExperimentSpec, force: bool = False) -> ExperimentResult:
        """Train (or load) and evaluate (or load) one spec."""
        start = time.perf_counter()
        if force:
            self.store._quarantine(self.store.report_dir(spec.content_hash))
            self.store._quarantine(self.store.model_dir(spec.training_hash))
        hit = self.load_cached(spec)
        if hit is not None:
            record, train_record = hit
            report = dict(record["report"])
            # The stored report carries the label of whichever spec first
            # computed it; the name is not part of the content hash, so a
            # relabeled row must show its *current* label without retraining.
            report["method"] = spec.label
            return ExperimentResult(
                spec=spec,
                report=report,
                engine=record.get("engine"),
                history=train_record.get("history"),
                from_cache=True,
                model_from_cache=True,
                seconds=time.perf_counter() - start,
            )

        model, model_from_cache, history, timing = self.trained_model(spec)
        result = self.evaluate(spec, model, self.dataset_for(spec))
        report = {
            "method": spec.label,
            "natural": result.natural,
            "adversarial": dict(result.adversarial),
            "worst_case": result.worst_case,
        }
        self.store.save_report(
            spec,
            {
                "report": report,
                "engine": result.as_dict(),
                "timing": dict(timing, eval_seconds=result.total_seconds),
            },
        )
        return ExperimentResult(
            spec=spec,
            report=report,
            engine=result.as_dict(),
            history=history,
            from_cache=False,
            model_from_cache=model_from_cache,
            seconds=time.perf_counter() - start,
            train_seconds=timing["train_seconds"],
            train_forward_examples=timing["train_forward_examples"],
        )


# --------------------------------------------------------------------------- #
# grid execution
# --------------------------------------------------------------------------- #
@dataclass
class GridResult:
    """Outcome of one :func:`run_grid` invocation."""

    results: List[ExperimentResult]
    seconds: float
    workers: int
    #: content hashes actually computed during *this* invocation (misses).
    computed: List[str] = field(default_factory=list)
    #: per-computed-spec timing stats reported by the executing process.
    stats: List[Dict[str, Any]] = field(default_factory=list)

    @property
    def cached(self) -> int:
        """How many specs were served straight from the artifact store."""
        return len(self.results) - len(self.computed)

    @property
    def train_forward_examples(self) -> int:
        """Training forward passes issued by this invocation (0 = all cached)."""
        return sum(s.get("train_forward_examples", 0) for s in self.stats)

    def reports(self) -> List[RobustnessReport]:
        return [r.robustness_report() for r in self.results]

    def report_json(self) -> str:
        """Canonical JSON of every deterministic report, in input order.

        Byte-identical across serial and parallel executions of the same
        grid, and across cached and fresh invocations.
        """
        payload = [
            {"hash": r.content_hash, "name": r.spec.name, "report": r.report}
            for r in self.results
        ]
        return json.dumps(payload, sort_keys=True, indent=2) + "\n"

    def summary(self) -> Dict[str, Any]:
        """Aggregate timing/caching info (the CI grid artifact)."""
        return {
            "specs": len(self.results),
            "computed": len(self.computed),
            "cached": self.cached,
            "workers": self.workers,
            "seconds": round(self.seconds, 6),
            "train_forward_examples": self.train_forward_examples,
            "stats": self.stats,
        }


def _result_stats(result: ExperimentResult) -> Dict[str, Any]:
    """The per-spec stats entry reported by both serial and worker execution."""
    return {
        "hash": result.content_hash,
        "name": result.spec.name,
        "seconds": result.seconds,
        "train_seconds": result.train_seconds,
        "train_forward_examples": result.train_forward_examples,
        "model_from_cache": result.model_from_cache,
        "from_cache": result.from_cache,
    }


def _worker_run(payload: Tuple[str, str, Optional[Dict[str, str]]]) -> Dict[str, Any]:
    """Top-level (picklable) grid worker: run one spec against the shared store.

    The third payload element is an optional :func:`repro.obs.trace.carrier`
    from the parent process; attaching it re-enables tracing onto the
    parent's sink (the carrier includes the JSONL path, and appends are
    atomic per line) so a grid run stays one trace tree across processes.
    """
    from .. import obs as _obs

    spec_json, store_root, trace_parent = payload
    spec = ExperimentSpec.from_json(spec_json)
    runner = ExperimentRunner(store=ArtifactStore(store_root))
    with _trace.attach(trace_parent):
        try:
            with _trace.span(
                "grid.worker",
                {"spec": spec.content_hash} if _trace.enabled() else None,
            ):
                return _result_stats(runner.run(spec))
        finally:
            # Pool workers die via os._exit (no atexit): flush profiled
            # plans and this process's metrics before the work is dropped.
            _obs.flush()


def _pool_context():
    try:
        return multiprocessing.get_context("fork")
    except ValueError:  # platforms without fork (Windows)
        return multiprocessing.get_context("spawn")


def run_grid(
    specs: Sequence[ExperimentSpec],
    workers: int = 1,
    store: Union[ArtifactStore, str, None] = None,
    force: bool = False,
    runner: Optional[ExperimentRunner] = None,
) -> GridResult:
    """Run a list of specs, fanning cache misses out over worker processes.

    * duplicate specs (same content hash) are computed once;
    * specs whose reports are already stored are skipped entirely — rerunning
      an interrupted grid resumes where it stopped;
    * every result is collected *from the store*, so the reports are
      byte-identical no matter how many workers computed them.
    """
    specs = [s if isinstance(s, ExperimentSpec) else ExperimentSpec.from_dict(s) for s in specs]
    if runner is None:
        runner = ExperimentRunner(store=store)
    start = time.perf_counter()
    # The grid owns a store, so it always leaves a RunRecord behind — the
    # durable "what did this invocation do" artifact rendered by
    # ``python -m repro.obs runs list|diff``.
    window = _records.RunWindow("grid", label=f"grid[{len(specs)}]")

    with window:
        unique: Dict[str, ExperimentSpec] = {}
        for spec in specs:
            unique.setdefault(spec.content_hash, spec)
        if force:
            for spec in unique.values():
                runner.store._quarantine(runner.store.report_dir(spec.content_hash))
                runner.store._quarantine(runner.store.model_dir(spec.training_hash))
        # Pending = specs that are not a cache hit by the rule run() applies
        # (not merely "a file exists"): corrupt reports, and reports whose
        # model artifact is gone, are quarantined here and rescheduled into
        # the waves, instead of surfacing as surprise recomputes during
        # collection.
        pending = [s for s in unique.values() if runner.load_cached(s) is None]

        # Schedule in two waves so specs sharing a *training* recipe (e.g. the
        # same model re-evaluated under different suites) never train the same
        # checkpoint concurrently: the first wave holds one spec per training
        # hash, the second wave finds those checkpoints already in the store.
        first_wave: List[ExperimentSpec] = []
        second_wave: List[ExperimentSpec] = []
        seen_training: set = set()
        for spec in pending:
            if spec.training_hash in seen_training:
                second_wave.append(spec)
            else:
                seen_training.add(spec.training_hash)
                first_wave.append(spec)

        def _run_wave(wave: List[ExperimentSpec]) -> List[Dict[str, Any]]:
            if not wave:
                return []
            if workers > 1 and len(wave) > 1:
                parent = _trace.carrier()
                payloads = [(s.to_json(), str(runner.store.root), parent) for s in wave]
                context = _pool_context()
                with context.Pool(processes=min(workers, len(wave))) as pool:
                    return pool.map(_worker_run, payloads)
            return [_result_stats(runner.run(spec)) for spec in wave]

        stats: List[Dict[str, Any]] = _run_wave(first_wave) + _run_wave(second_wave)

        results = [runner.run(spec) for spec in specs]

    result = GridResult(
        results=results,
        seconds=time.perf_counter() - start,
        workers=workers,
        computed=[s.content_hash for s in pending],
        stats=stats,
    )
    try:
        _records.save_record(
            window.build(
                summary=result.summary(),
                specs=[
                    {
                        "name": s.name,
                        "content_hash": s.content_hash,
                        "training_hash": s.training_hash,
                    }
                    for s in specs
                ],
            ),
            store=runner.store,
        )
    except OSError:
        pass  # recording must never fail the grid
    return result
