#!/usr/bin/env python3
"""Quick engine benchmark: legacy vs early-exit vs cascade vs compiled, as JSON.

Trains a tiny CNN on synthetic CIFAR-like data and times the paper's attack
suite under four evaluation strategies:

* ``legacy``    — the engine with early exit off (one attack after another
  over every example; identical to the pre-engine per-attack loop);
* ``early_exit`` — clean-misclassified examples dropped from attack batches;
* ``cascade``   — additionally drop examples fooled by an earlier attack
  (worst-case/AutoAttack-style evaluation);
* ``compiled``  — early exit plus ``compile=True``: predictions and the
  PGD-family gradient loops replay a static, buffer-pooled execution plan
  (:mod:`repro.compile`) instead of the dynamic autograd graph.

Writes a JSON report (accuracies, wall time, forward-pass counts, and the
eager-vs-compiled speedup) to the path given as the first argument (default:
``bench-timings.json``), a compiled-**training** report (one PGD
adversarial-training epoch, eager vs ``Trainer(compile=True)``:
``train_speedup_compiled`` + ``train_matches_eager``) to the second
(default: ``BENCH_train.json``), and a per-loss compiled-training report
(TRADES / MART / IB-RAR, whose side terms are traced into the plans) to the
third (default: ``BENCH_losses.json``).  The CI quick-bench job uploads all
of them as artifacts and *soft-fails* on compiled-path regressions: if a
compiled mode is slower than its eager counterpart (< 1.0x) a GitHub
warning annotation is emitted, but the exit code stays 0.
"""

from __future__ import annotations

import json
import sys
import time

import numpy as np

from repro.attacks import AttackEngine, paper_suite_specs
from repro.data import ArrayDataset, DataLoader, synthetic_cifar10
from repro.models import SmallCNN
from repro.nn.optim import SGD, StepLR
from repro.training import CrossEntropyLoss, Trainer


def _bench_entry(dataset, loss_name: str, bench: dict) -> dict:
    eager_state = bench["eager_model"].state_dict()
    compiled_state = bench["compiled_model"].state_dict()
    matches = bool(
        np.allclose(
            bench["eager_trainer"].history.train_loss,
            bench["compiled_trainer"].history.train_loss,
            rtol=1e-7,
        )
        and all(
            np.allclose(value, compiled_state[key], rtol=1e-6, atol=1e-9)
            for key, value in eager_state.items()
        )
    )
    eager_seconds, compiled_seconds = bench["eager_seconds"], bench["compiled_seconds"]
    return {
        "loss": loss_name,
        "epochs_timed": bench["epochs_timed"],
        "train_examples": len(dataset.x_train),
        "eager_epoch_seconds": round(eager_seconds, 4),
        "compiled_epoch_seconds": round(compiled_seconds, 4),
        "train_speedup_compiled": round(eager_seconds / max(compiled_seconds, 1e-9), 3),
        "train_matches_eager": matches,
        "compile_stats": bench["compiled_trainer"].compile_stats.as_dict(),
    }


def bench_training(dataset) -> dict:
    """Time one PGD-AT epoch eager vs compiled, from identical fresh models."""
    from common import pgd_at_training_benchmark

    bench = pgd_at_training_benchmark(dataset, epochs_timed=2, pgd_steps=10)
    entry = _bench_entry(dataset, "pgd", bench)
    entry["pgd_steps"] = bench["pgd_steps"]
    return entry


def bench_losses(dataset) -> dict:
    """Per-loss compiled-vs-eager step timings (the in-plan loss families).

    One entry per adversarial/IB loss whose side terms are traced into the
    plans: TRADES, MART and IB-RAR (PGD base).  Same interleaved-epoch
    methodology as :func:`bench_training`.
    """
    from common import training_benchmark
    from repro.core.config import IBRARConfig
    from repro.core.losses import AdversarialMILoss
    from repro.training.adversarial import MARTLoss, PGDAdversarialLoss, TRADESLoss

    factories = {
        "trades": lambda: TRADESLoss(steps=5, seed=0),
        "mart": lambda: MARTLoss(steps=5, seed=0),
        "ibrar": lambda: AdversarialMILoss(
            IBRARConfig(alpha=0.05, beta=0.01),
            num_classes=10,
            adversarial_strategy=PGDAdversarialLoss(steps=5, seed=0),
        ),
    }
    report = {"epochs_timed": 2, "losses": {}}
    for name, factory in factories.items():
        bench = training_benchmark(dataset, factory, epochs_timed=2)
        report["losses"][name] = _bench_entry(dataset, name, bench)
    return report


def main() -> None:
    output_path = sys.argv[1] if len(sys.argv) > 1 else "bench-timings.json"
    train_output_path = sys.argv[2] if len(sys.argv) > 2 else "BENCH_train.json"
    losses_output_path = sys.argv[3] if len(sys.argv) > 3 else "BENCH_losses.json"
    dataset = synthetic_cifar10(n_train=300, n_test=120, image_size=16, seed=0)
    model = SmallCNN(num_classes=10, image_size=16, seed=0)
    optimizer = SGD(model.parameters(), lr=0.05, momentum=0.9, weight_decay=1e-3)
    trainer = Trainer(model, CrossEntropyLoss(), optimizer=optimizer, scheduler=StepLR(optimizer))
    loader = DataLoader(
        ArrayDataset(dataset.x_train, dataset.y_train),
        batch_size=50,
        shuffle=True,
        drop_last=True,
        seed=0,
    )
    trainer.fit(loader, epochs=3)
    model.eval()

    suite = paper_suite_specs(pgd_steps=5, cw_steps=10)
    images, labels = dataset.x_test[:96], dataset.y_test[:96]
    modes = {
        "legacy": dict(early_exit=False),
        "early_exit": dict(early_exit=True),
        "cascade": dict(cascade=True),
        "compiled": dict(early_exit=True, compile=True),
    }
    report = {"suite": [spec.as_dict() for spec in suite], "eval_examples": len(images), "modes": {}}
    for mode_name, engine_kwargs in modes.items():
        engine = AttackEngine(suite, **engine_kwargs)
        start = time.perf_counter()
        result = engine.run(model, images, labels, method_name=mode_name)
        elapsed = time.perf_counter() - start
        entry = result.as_dict()
        entry["wall_seconds"] = round(elapsed, 4)
        report["modes"][mode_name] = entry
        print(
            f"{mode_name:>10}: {elapsed:6.2f}s  "
            f"{result.total_forward_examples:7d} forward-examples  "
            f"worst-case {result.worst_case * 100:.2f}%"
        )

    legacy = report["modes"]["legacy"]
    fast = report["modes"]["early_exit"]
    compiled = report["modes"]["compiled"]
    report["speedup_early_exit"] = round(legacy["wall_seconds"] / max(fast["wall_seconds"], 1e-9), 3)
    report["speedup_compiled"] = round(fast["wall_seconds"] / max(compiled["wall_seconds"], 1e-9), 3)
    report["compiled_matches_eager"] = bool(
        fast["adversarial"] == compiled["adversarial"] and fast["natural"] == compiled["natural"]
    )
    train_report = bench_training(dataset)
    report["train_speedup_compiled"] = train_report["train_speedup_compiled"]
    report["train_matches_eager"] = train_report["train_matches_eager"]
    losses_report = bench_losses(dataset)
    with open(output_path, "w", encoding="utf-8") as handle:
        json.dump(report, handle, indent=2, sort_keys=True)
    with open(train_output_path, "w", encoding="utf-8") as handle:
        json.dump(train_report, handle, indent=2, sort_keys=True)
    with open(losses_output_path, "w", encoding="utf-8") as handle:
        json.dump(losses_report, handle, indent=2, sort_keys=True)
    print(
        f"wrote {output_path} (early-exit speedup: {report['speedup_early_exit']}x, "
        f"compiled speedup: {report['speedup_compiled']}x, "
        f"accuracies match: {report['compiled_matches_eager']})"
    )
    print(
        f"wrote {train_output_path} (compiled training speedup: "
        f"{train_report['train_speedup_compiled']}x, trajectories match: "
        f"{train_report['train_matches_eager']})"
    )
    for name, entry in losses_report["losses"].items():
        print(
            f"{name:>10}: compiled {entry['train_speedup_compiled']}x "
            f"({entry['eager_epoch_seconds']}s -> {entry['compiled_epoch_seconds']}s)  "
            f"matches: {entry['train_matches_eager']}"
        )
    print(f"wrote {losses_output_path}")
    if not report["compiled_matches_eager"]:
        print("::warning title=compiled-mismatch::compiled accuracies differ from eager early-exit")
    if report["speedup_compiled"] < 1.0:
        # Soft failure: annotate the CI run but keep the job green.
        print(
            "::warning title=compiled-regression::compiled path slower than eager "
            f"({report['speedup_compiled']}x < 1.0x)"
        )
    if not train_report["train_matches_eager"]:
        print(
            "::warning title=compiled-train-mismatch::compiled training trajectory "
            "differs from eager"
        )
    if train_report["train_speedup_compiled"] < 1.0:
        print(
            "::warning title=compiled-train-regression::compiled training slower than eager "
            f"({train_report['train_speedup_compiled']}x < 1.0x)"
        )
    for name, entry in losses_report["losses"].items():
        if not entry["train_matches_eager"]:
            print(
                f"::warning title=compiled-{name}-mismatch::compiled {name} training "
                "trajectory differs from eager"
            )
        if entry["train_speedup_compiled"] < 1.0:
            print(
                f"::warning title=compiled-{name}-regression::compiled {name} training "
                f"slower than eager ({entry['train_speedup_compiled']}x < 1.0x)"
            )


if __name__ == "__main__":
    main()
