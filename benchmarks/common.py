"""Shared infrastructure for the paper-reproduction benches.

Every bench regenerates one table or figure of the paper.  Because the
substrate is a NumPy CPU simulator rather than the authors' GPU testbed, the
benches run a *scaled-down profile* by default: the same architectures-shape
(a small CNN with the VGG-style block/FC structure, or width-scaled VGG /
ResNet / WRN), synthetic CIFAR-like data, few epochs.  The profile can be
raised via the ``REPRO_BENCH_PROFILE`` environment variable:

* ``tiny``  (default) — minutes on a laptop CPU; orderings/shape only.
* ``small`` — width-scaled VGG16/ResNet18 at 32x32, more data and epochs.
* ``paper`` — full-width models, 60 epochs, paper attack steps (only
  meaningful on substantial hardware; provided for completeness).

Since the ``repro.experiments`` subsystem, a bench row is an
:class:`~repro.experiments.ExperimentSpec` built by :func:`bench_experiment`
and executed by :func:`run_experiments` / :func:`get_or_train` against a
**persistent content-addressed artifact store** (``.repro-artifacts`` by
default, override with ``REPRO_ARTIFACTS``).  A spec is trained at most once
*ever* — across benches, pytest sessions, examples and CI — and two specs
that share a training recipe (e.g. a Table 1 row re-evaluated by Table 6
under a different suite) share one checkpoint.  ``REPRO_BENCH_WORKERS``
fans grid cache misses out over processes.

The legacy helpers (``train_model`` / ``train_ibrar`` with live strategy
objects, ``get_or_train(key, builder)``) remain for benches whose losses
have no declarative spec (VIB, HBaR); they now delegate to the experiment
runner's training path but cache only within the pytest session.
"""

from __future__ import annotations

import json
import os
from dataclasses import dataclass
from typing import Any, Callable, Dict, List, Mapping, Optional, Sequence, Tuple, Union

from repro.attacks import AttackSpec
from repro.core import IBRARConfig
from repro.evaluation import RobustnessReport, paper_attack_suite_specs
from repro.data import SyntheticImageDataset, build_dataset
from repro.experiments import (
    ArtifactStore,
    ExperimentResult,
    ExperimentRunner,
    ExperimentSpec,
    run_grid,
)
from repro.models import ImageClassifier, build_model
from repro.training import LossSpec, LossStrategy, coerce_loss_spec

__all__ = [
    "BenchProfile",
    "get_profile",
    "bench_dataset",
    "bench_dataset_spec",
    "bench_model",
    "bench_model_spec",
    "bench_experiment",
    "bench_store",
    "bench_runner",
    "bench_suite_specs",
    "run_experiments",
    "train_model",
    "train_ibrar",
    "get_or_train",
    "paper_rows_header",
    "record_bench_timings",
]


@dataclass(frozen=True)
class BenchProfile:
    """Scale knobs for a bench run."""

    name: str
    image_size: int
    n_train: int
    n_test: int
    eval_examples: int
    epochs: int
    batch_size: int
    attack_steps: int
    cw_steps: int
    at_steps: int          # inner PGD steps for adversarial training
    lr: float
    model_kind: str        # "smallcnn" | "vgg16" | ...
    width_multiplier: float


_PROFILES: Dict[str, BenchProfile] = {
    "tiny": BenchProfile(
        name="tiny",
        image_size=16,
        n_train=300,
        n_test=120,
        eval_examples=60,
        epochs=3,
        batch_size=50,
        attack_steps=5,
        cw_steps=15,
        at_steps=3,
        lr=0.05,
        model_kind="smallcnn",
        width_multiplier=1.0,
    ),
    "small": BenchProfile(
        name="small",
        image_size=32,
        n_train=2000,
        n_test=500,
        eval_examples=200,
        epochs=10,
        batch_size=100,
        attack_steps=10,
        cw_steps=50,
        at_steps=7,
        lr=0.01,
        model_kind="vgg16",
        width_multiplier=0.25,
    ),
    "paper": BenchProfile(
        name="paper",
        image_size=32,
        n_train=50000,
        n_test=10000,
        eval_examples=10000,
        epochs=60,
        batch_size=100,
        attack_steps=10,
        cw_steps=200,
        at_steps=10,
        lr=0.01,
        model_kind="vgg16",
        width_multiplier=1.0,
    ),
}


def get_profile() -> BenchProfile:
    """Read the active profile from ``REPRO_BENCH_PROFILE`` (default: tiny)."""
    name = os.environ.get("REPRO_BENCH_PROFILE", "tiny").lower()
    if name not in _PROFILES:
        raise KeyError(f"unknown bench profile '{name}'; choose from {sorted(_PROFILES)}")
    return _PROFILES[name]


# --------------------------------------------------------------------------- #
# the shared store / runner
# --------------------------------------------------------------------------- #
_STORE: Optional[ArtifactStore] = None
_RUNNER: Optional[ExperimentRunner] = None


def bench_store() -> ArtifactStore:
    """The artifact store shared by every bench (persistent across sessions)."""
    global _STORE
    if _STORE is None:
        _STORE = ArtifactStore()
    return _STORE


def bench_runner() -> ExperimentRunner:
    """The experiment runner shared by every bench."""
    global _RUNNER
    if _RUNNER is None:
        _RUNNER = ExperimentRunner(store=bench_store())
    return _RUNNER


def bench_workers() -> int:
    """Grid worker count from ``REPRO_BENCH_WORKERS`` (default: serial)."""
    return max(1, int(os.environ.get("REPRO_BENCH_WORKERS", "1")))


# --------------------------------------------------------------------------- #
# declarative dataset / model / experiment builders
# --------------------------------------------------------------------------- #
_DATASET_CACHE: Dict[Tuple[str, str], SyntheticImageDataset] = {}


def bench_dataset_spec(kind: str = "cifar10", seed: int = 0, **overrides) -> Tuple[str, Dict[str, Any]]:
    """The ``(registry name, params)`` pair describing a bench dataset.

    ``overrides`` replace profile-derived sizes (e.g. the Table 2 tiny
    profile shrinks ``n_train``/``n_test``).
    """
    profile = get_profile()
    base = dict(
        n_train=profile.n_train, n_test=profile.n_test, image_size=profile.image_size, seed=seed
    )
    if kind in ("cifar10", "svhn"):
        name, params = kind, base
    elif kind == "cifar100":
        name = "synthetic"
        params = dict(
            base, num_classes=20 if profile.name == "tiny" else 100, name="synthetic-cifar100"
        )
    elif kind == "tiny-imagenet":
        name = "synthetic"
        params = dict(
            base,
            num_classes=20 if profile.name == "tiny" else 200,
            image_size=max(profile.image_size, 16),
            name="synthetic-tiny-imagenet",
        )
    else:
        raise KeyError(f"unknown bench dataset '{kind}'")
    params.update(overrides)
    return name, params


def bench_dataset(kind: str = "cifar10", seed: int = 0, **overrides) -> SyntheticImageDataset:
    """Synthetic dataset for the active profile, cached per (kind, params)."""
    name, params = bench_dataset_spec(kind, seed=seed, **overrides)
    key = (name, json.dumps(params, sort_keys=True))
    if key not in _DATASET_CACHE:
        _DATASET_CACHE[key] = build_dataset(name, **params)
    return _DATASET_CACHE[key]


def bench_model_spec(kind: Optional[str] = None, seed: int = 0) -> Tuple[str, Dict[str, Any]]:
    """The ``(registry name, params)`` pair describing a bench model."""
    profile = get_profile()
    kind = kind or profile.model_kind
    if kind == "smallcnn":
        return "smallcnn", dict(
            image_size=profile.image_size, base_channels=8, hidden_dim=32, seed=seed
        )
    # The tiny profile's width_multiplier refers to its default (SmallCNN)
    # model; when a bench explicitly requests one of the paper architectures
    # under the tiny profile, scale it down so the run stays CPU-tractable.
    scaled_width = 0.125 if profile.name == "tiny" else profile.width_multiplier
    if kind == "vgg16":
        return "vgg16", dict(
            image_size=profile.image_size, width_multiplier=scaled_width, seed=seed
        )
    if kind == "resnet18":
        return "resnet18", dict(width_multiplier=scaled_width, seed=seed)
    if kind == "wrn28-10":
        wrn_width = 0.05 if profile.name == "tiny" else max(profile.width_multiplier * 0.2, 0.05)
        return "wrn28-10", dict(width_multiplier=wrn_width, seed=seed)
    raise KeyError(f"unknown model kind '{kind}'")


def bench_model(num_classes: int = 10, seed: int = 0, kind: Optional[str] = None) -> ImageClassifier:
    """Fresh model of the profile's architecture kind."""
    name, params = bench_model_spec(kind, seed=seed)
    return build_model(name, num_classes=num_classes, **params)


def robust_layers_for(model: ImageClassifier) -> Tuple[str, ...]:
    """The 'last conv block + two FC layers'-style robust-layer preset for a model."""
    names = model.hidden_layer_names
    return tuple(names[-3:]) if len(names) >= 3 else tuple(names)


def bench_optimizer() -> Dict[str, float]:
    """The benches' SGD + StepLR recipe at the active profile's learning rate."""
    profile = get_profile()
    return dict(lr=profile.lr, momentum=0.9, weight_decay=1e-3, step_size=20, gamma=0.2)


def bench_experiment(
    loss: Union[str, LossSpec, LossStrategy, Mapping[str, Any]],
    dataset: str = "cifar10",
    model_kind: Optional[str] = None,
    ibrar: Optional[Union[IBRARConfig, Mapping[str, Any]]] = None,
    seed: int = 0,
    epochs: Optional[int] = None,
    batch_size: Optional[int] = None,
    attacks: Optional[Sequence[AttackSpec]] = None,
    eval_examples: Optional[int] = None,
    name: str = "",
    dataset_overrides: Optional[Mapping[str, Any]] = None,
) -> ExperimentSpec:
    """Build the :class:`ExperimentSpec` for one bench table row.

    Everything defaults to the active profile; ``attacks`` defaults to the
    paper suite at profile step counts (:func:`bench_suite_specs`).
    """
    profile = get_profile()
    ds_name, ds_params = bench_dataset_spec(dataset, seed=seed, **(dataset_overrides or {}))
    m_name, m_params = bench_model_spec(model_kind, seed=seed)
    return ExperimentSpec(
        dataset=ds_name,
        dataset_params=ds_params,
        model=m_name,
        model_params=m_params,
        loss=coerce_loss_spec(loss),
        ibrar=ibrar,
        optimizer=bench_optimizer(),
        epochs=epochs or profile.epochs,
        batch_size=batch_size or profile.batch_size,
        seed=seed,
        attacks=tuple(attacks) if attacks is not None else tuple(bench_suite_specs()),
        eval_examples=eval_examples if eval_examples is not None else profile.eval_examples,
        eval_batch_size=64,
        name=name,
    )


def run_experiments(specs: Sequence[ExperimentSpec], workers: Optional[int] = None) -> List[ExperimentResult]:
    """Run bench specs through the grid runner against the shared store."""
    grid = run_grid(
        specs, workers=workers if workers is not None else bench_workers(), runner=bench_runner()
    )
    return grid.results


# --------------------------------------------------------------------------- #
# training helpers
# --------------------------------------------------------------------------- #
_TRAINED_CACHE: Dict[str, ImageClassifier] = {}


def train_model(
    strategy: LossStrategy,
    dataset: SyntheticImageDataset,
    num_classes: int = 10,
    seed: int = 0,
    epochs: Optional[int] = None,
    model: Optional[ImageClassifier] = None,
) -> ImageClassifier:
    """Train a fresh bench model with an arbitrary (live) loss strategy.

    Delegates to :meth:`ExperimentRunner.train` with strategy/model/dataset
    overrides, so every bench trains through one code path; use spec-based
    :func:`get_or_train` / :func:`run_experiments` when the loss is
    declarative — those paths persist to the artifact store.
    """
    if num_classes != dataset.num_classes:
        raise ValueError(
            f"num_classes={num_classes} does not match the dataset's "
            f"{dataset.num_classes} classes (the model is built from the dataset)"
        )
    spec = bench_experiment("ce", seed=seed, epochs=epochs, attacks=())
    trained, _history, _timing = bench_runner().train(
        spec, dataset=dataset, strategy=strategy, model=model
    )
    return trained


def train_ibrar(
    dataset: SyntheticImageDataset,
    config: IBRARConfig,
    base_loss: Optional[LossStrategy] = None,
    num_classes: int = 10,
    seed: int = 0,
    epochs: Optional[int] = None,
) -> ImageClassifier:
    """Train a fresh bench model with the IB-RAR pipeline (Algorithm 1)."""
    if num_classes != dataset.num_classes:
        raise ValueError(
            f"num_classes={num_classes} does not match the dataset's "
            f"{dataset.num_classes} classes (the model is built from the dataset)"
        )
    spec = bench_experiment("ce", ibrar=config, seed=seed, epochs=epochs, attacks=())
    trained, _history, _timing = bench_runner().train(spec, dataset=dataset, strategy=base_loss)
    return trained


def get_or_train(
    key: Union[str, ExperimentSpec], builder: Optional[Callable[[], ImageClassifier]] = None
) -> ImageClassifier:
    """Trained model for a spec (persistent) or a legacy (key, builder) pair.

    Passing an :class:`ExperimentSpec` resolves through the artifact store:
    the checkpoint is loaded if any session ever trained this recipe,
    trained-and-stored otherwise, and memoized in-process.  The legacy
    ``(key, builder)`` form keeps a per-session cache for benches whose
    losses have no declarative spec yet.
    """
    if isinstance(key, ExperimentSpec):
        spec = key
        cache_key = f"spec:{spec.training_hash}"
        if cache_key not in _TRAINED_CACHE:
            model, _from_cache, _history, _timing = bench_runner().trained_model(spec)
            _TRAINED_CACHE[cache_key] = model
        return _TRAINED_CACHE[cache_key]
    if builder is None:
        raise TypeError("legacy get_or_train(key, builder) needs a builder callable")
    profile = get_profile()
    cache_key = f"{profile.name}:{key}"
    if cache_key not in _TRAINED_CACHE:
        _TRAINED_CACHE[cache_key] = builder()
    return _TRAINED_CACHE[cache_key]


def default_ibrar_config(model: ImageClassifier, robust_only: bool = True, **overrides) -> IBRARConfig:
    """IB-RAR config with tiny-profile-appropriate regularizer weights."""
    layers = robust_layers_for(model) if robust_only else None
    params = dict(alpha=0.05, beta=0.01, layers=layers, mask_fraction=0.1)
    params.update(overrides)
    return IBRARConfig(**params)


def bench_suite_specs(cw_steps_cap: Optional[int] = None, **overrides) -> List[AttackSpec]:
    """The paper attack suite at the active profile's step counts, as specs.

    Specs are model-free: one suite serves every model of a table, and the
    engine batches / early-exits the evaluation.  ``cw_steps_cap`` mirrors the
    per-bench reductions of the expensive CW optimization.
    """
    profile = get_profile()
    params = dict(pgd_steps=profile.attack_steps, cw_steps=profile.cw_steps)
    if cw_steps_cap is not None:
        params["cw_steps"] = min(params["cw_steps"], cw_steps_cap)
    params.update(overrides)
    return paper_attack_suite_specs(**params)


def record_bench_timings(label: str, reports: List[RobustnessReport]) -> None:
    """Append engine telemetry to ``REPRO_BENCH_TIMINGS`` (a JSON-lines file).

    The CI quick-bench job sets the environment variable and uploads the file
    as an artifact; locally the call is a no-op unless the variable is set.
    """
    path = os.environ.get("REPRO_BENCH_TIMINGS")
    if not path:
        return
    with open(path, "a", encoding="utf-8") as handle:
        for report in reports:
            if report.result is None:
                continue
            entry = {"bench": label, "profile": get_profile().name}
            entry.update(report.result.as_dict())
            entry.pop("telemetry", None)
            handle.write(json.dumps(entry, sort_keys=True) + "\n")


def adversarial_loss_specs(at_steps: Optional[int] = None) -> Dict[str, LossSpec]:
    """The three adversarial-training benchmarks as loss specs (profile steps)."""
    steps = at_steps if at_steps is not None else get_profile().at_steps
    return {
        "PGD": LossSpec("pgd", dict(steps=steps)),
        "TRADES": LossSpec("trades", dict(beta=6.0, steps=steps)),
        "MART": LossSpec("mart", dict(beta=5.0, steps=steps)),
    }


def adversarial_strategies() -> Dict[str, Callable[[], LossStrategy]]:
    """Factories for the three adversarial-training benchmarks with profile steps."""
    return {name: spec.build for name, spec in adversarial_loss_specs().items()}


def paper_rows_header(title: str) -> str:
    """Banner printed above every reproduced table/figure."""
    profile = get_profile()
    return (
        f"\n{'=' * 78}\n{title}\n"
        f"(profile: {profile.name} — synthetic data, scaled-down models; "
        f"compare shapes/orderings, not absolute numbers)\n{'=' * 78}"
    )


def probe_gflops() -> float:
    """One-thread float64 matmul GFLOP/s: the speed gates' machine yardstick.

    ``tests/compile/test_speedup.py`` divides compiled examples/s by it,
    round by round, so a slower machine lowers the throughput and its
    yardstick alike.  It is ``cellbench/machine.py``'s ``matmul_gflops``
    (the median of nine 384-square matmuls) run on one OpenBLAS thread: the
    gated SmallCNN loops are Python, elementwise NumPy and small GEMMs, and
    on a 2-vCPU box a second BLAS thread left their time within noise while
    it doubled the probe's rate, so a probe on every core would grow with a
    runner's core count while they do not.  With another BLAS the thread
    count is left as it is.
    """
    import sys

    import numpy as np

    root = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
    cellbench = os.path.join(root, "cellbench")
    if cellbench not in sys.path:
        sys.path.insert(0, cellbench)
    import machine

    threads = machine.blas_threads()
    machine.set_blas_threads(1)
    try:
        return machine.matmul_gflops(np.float64)
    finally:
        if threads > 0:
            machine.set_blas_threads(threads)


def training_benchmark(
    dataset,
    strategy_factory,
    epochs_timed: int = 2,
    batch_size: int = 50,
    seed: int = 0,
):
    """Eager-vs-compiled epoch timing for one training-loss strategy.

    Both trainers start from identical fresh seeded models and loader
    seeds; one warm-up epoch runs per mode (compiled plans build on their
    second batch sighting), then ``epochs_timed`` rounds of one eager
    epoch, one compiled epoch and one :func:`probe_gflops` reading run, so
    load spikes hit both modes and the probe.  Returns a dict with the
    trainers/models (for trajectory assertions), the ``(eager s,
    compiled s, probe GFLOP/s)`` of every round and the examples of one
    epoch.
    """
    import time

    from repro.data import ArrayDataset, DataLoader
    from repro.models import SmallCNN
    from repro.nn.optim import SGD, StepLR
    from repro.training import Trainer

    def build(compile_flag: bool):
        model = SmallCNN(num_classes=10, image_size=16, seed=seed)
        optimizer = SGD(model.parameters(), lr=0.05, momentum=0.9, weight_decay=1e-3)
        trainer = Trainer(
            model,
            strategy_factory(),
            optimizer=optimizer,
            scheduler=StepLR(optimizer),
            compile=compile_flag,
        )
        loader = DataLoader(
            ArrayDataset(dataset.x_train, dataset.y_train),
            batch_size=batch_size,
            shuffle=True,
            drop_last=True,
            seed=seed,
        )
        return model, trainer, loader

    eager_model, eager_trainer, eager_loader = build(False)
    compiled_model, compiled_trainer, compiled_loader = build(True)
    eager_trainer.fit(eager_loader, epochs=1)  # warm-up
    compiled_trainer.fit(compiled_loader, epochs=1)
    warm_allocations = compiled_trainer._compiled_trainer.pool_allocations

    rounds = []
    for _ in range(epochs_timed):
        start = time.perf_counter()
        eager_trainer.fit(eager_loader, epochs=1)
        eager_seconds = time.perf_counter() - start
        start = time.perf_counter()
        compiled_trainer.fit(compiled_loader, epochs=1)
        rounds.append((eager_seconds, time.perf_counter() - start, probe_gflops()))

    return {
        "eager_model": eager_model,
        "eager_trainer": eager_trainer,
        "compiled_model": compiled_model,
        "compiled_trainer": compiled_trainer,
        "rounds": rounds,
        "epoch_examples": len(dataset.x_train) // batch_size * batch_size,
        "warm_allocations": warm_allocations,
        "epochs_timed": epochs_timed,
    }


def pgd_at_training_benchmark(
    dataset,
    epochs_timed: int = 2,
    pgd_steps: int = 10,
    batch_size: int = 50,
    seed: int = 0,
):
    """:func:`training_benchmark` on the paper's PGD-AT recipe (the fixture
    of ``tests/compile/test_speedup.py``)."""
    from repro.training.adversarial import PGDAdversarialLoss

    bench = training_benchmark(
        dataset,
        lambda: PGDAdversarialLoss(steps=pgd_steps, seed=seed),
        epochs_timed=epochs_timed,
        batch_size=batch_size,
        seed=seed,
    )
    bench["pgd_steps"] = pgd_steps
    return bench
