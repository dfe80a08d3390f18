#!/usr/bin/env python3
"""Quickstart: train a classifier with IB-RAR and evaluate its robustness.

This is the 2-minute tour of the public API, expressed as *declarative
experiments* (:mod:`repro.experiments`):

1. describe two experiments as :class:`ExperimentSpec` objects — the same
   synthetic CIFAR-10 stand-in and small CNN, trained once with plain
   cross-entropy and once with the IB-RAR defense (Eq. 1 loss + Eq. 3
   channel mask), both evaluated under the paper's attack suite;
2. run them through the grid runner, which trains each spec **at most once
   ever**: rerun this script and both models come straight from the
   content-addressed artifact store (``.repro-artifacts``);
3. print a Table-1-style comparison plus the attack-engine telemetry.

Run with:  python examples/quickstart.py
"""

from __future__ import annotations

from repro.attacks import format_telemetry, paper_suite_specs
from repro.evaluation import format_table
from repro.experiments import ExperimentSpec, run_grid
from repro.utils import get_logger, log_section

LOGGER = get_logger("quickstart")

# Scaled-down settings so the example finishes in about a minute on a laptop CPU.
IMAGE_SIZE = 16
N_TRAIN, N_TEST = 400, 160
EPOCHS = 4
BATCH_SIZE = 50
EVAL_EXAMPLES = 80


def make_specs() -> list:
    """The CE baseline and the IB-RAR variant as declarative experiments."""
    shared = dict(
        dataset="cifar10",
        dataset_params=dict(n_train=N_TRAIN, n_test=N_TEST, image_size=IMAGE_SIZE, seed=0),
        model="smallcnn",
        model_params=dict(image_size=IMAGE_SIZE, seed=0),
        optimizer=dict(lr=0.05, weight_decay=1e-3),
        epochs=EPOCHS,
        batch_size=BATCH_SIZE,
        # The suite is a list of model-free attack specs: build it once,
        # evaluate every model with it.  The engine computes the clean pass
        # once and drops already-misclassified examples from attack batches.
        attacks=paper_suite_specs(pgd_steps=5, cw_steps=15),
        eval_examples=EVAL_EXAMPLES,
        seed=0,
    )
    baseline = ExperimentSpec(loss="ce", name="CE", **shared)
    defended = ExperimentSpec(
        loss="ce",
        name="IB-RAR",
        ibrar=dict(
            alpha=0.05,                            # weight of + sum_l I(X, T_l)
            beta=0.01,                             # weight of - sum_l I(Y, T_l)
            layers=["conv_block2", "fc1", "fc2"],  # the robust layers of this architecture
            mask_fraction=0.1,                     # remove the lowest-MI 10% of channels
        ),
        **shared,
    )
    return [baseline, defended]


def main() -> None:
    specs = make_specs()
    for spec in specs:
        LOGGER.info("spec %s -> content hash %s", spec.label, spec.content_hash[:12])

    with log_section("run the experiment grid (cached after the first run)", LOGGER):
        grid = run_grid(specs, workers=2)

    LOGGER.info(
        "%d spec(s): %d computed, %d served from the artifact store",
        len(grid.results), len(grid.computed), grid.cached,
    )

    reports = grid.reports()
    print()
    print(format_table(reports))
    delta = reports[1].mean_adversarial() - reports[0].mean_adversarial()
    print(f"\nmean adversarial-accuracy delta (IB-RAR - CE): {delta * 100:+.2f} percentage points")

    print("\nengine telemetry for the IB-RAR run (early-exit batching):")
    print(format_telemetry(reports[1].result))
    print("\nrerun this script: both models now load from .repro-artifacts (zero training).")


if __name__ == "__main__":
    main()
