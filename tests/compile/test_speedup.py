"""Acceptance: compiled evaluation >= 1.5x and compiled training >= 1.3x.

Trains a tiny CNN on synthetic CIFAR-like data and, with the paper's PGD
configuration, times the attack engine with and without ``compile=True``,
plus one PGD adversarial-training epoch with and without
``Trainer(compile=True)``.  Each mode takes the best of several interleaved
runs so scheduler noise does not mask the structural speedup.
"""

from __future__ import annotations

import time

import numpy as np
import pytest

from repro.attacks import AttackEngine, AttackSpec
from repro.data import ArrayDataset, DataLoader, synthetic_cifar10
from repro.models import SmallCNN
from repro.nn.optim import SGD, StepLR
from repro.training import CrossEntropyLoss, Trainer


@pytest.fixture(scope="module")
def trained_cnn():
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
    return model, dataset


def test_compiled_pgd_is_faster_with_identical_accuracy(trained_cnn):
    model, dataset = trained_cnn
    images, labels = dataset.x_test[:96], dataset.y_test[:96]
    suite = [AttackSpec("pgd", dict(eps=8 / 255, alpha=2 / 255, steps=10, seed=0))]

    # Interleave the modes and keep each one's best time, so load spikes hit
    # both paths rather than whichever happened to run second.
    eager_seconds = compiled_seconds = float("inf")
    eager = compiled = None
    for _ in range(4):
        start = time.perf_counter()
        eager = AttackEngine(suite).run(model, images, labels)
        eager_seconds = min(eager_seconds, time.perf_counter() - start)
        start = time.perf_counter()
        compiled = AttackEngine(suite, compile=True).run(model, images, labels)
        compiled_seconds = min(compiled_seconds, time.perf_counter() - start)

    assert compiled.compiled and compiled.compile_error is None
    # allclose-identical robust accuracy (in practice bitwise: the fused
    # kernels replay the same floating-point operations).
    assert np.allclose(eager.natural, compiled.natural, atol=1e-12)
    assert np.allclose(
        list(eager.adversarial.values()), list(compiled.adversarial.values()), atol=1e-12
    )

    speedup = eager_seconds / compiled_seconds
    assert speedup >= 1.5, (
        f"compiled PGD evaluation only {speedup:.2f}x faster "
        f"(eager {eager_seconds:.3f}s vs compiled {compiled_seconds:.3f}s)"
    )


def test_compiled_pgd_at_training_epoch_is_faster_with_matching_trajectory():
    """Compiled adversarial training: >=1.3x per epoch, eager-equal weights.

    Runs ``benchmarks/common.pgd_at_training_benchmark``: identical fresh
    models/loader seeds per mode, one warm-up epoch, then interleaved timed
    epochs with the best time per mode kept.  Besides the speedup, the
    compiled run must track the eager parameter trajectory and keep the
    training executor at zero steady-state pool allocations.
    """
    import sys
    from pathlib import Path

    sys.path.insert(0, str(Path(__file__).resolve().parents[2] / "benchmarks"))
    from common import pgd_at_training_benchmark

    dataset = synthetic_cifar10(n_train=300, n_test=60, image_size=16, seed=0)
    bench = pgd_at_training_benchmark(dataset, epochs_timed=3, pgd_steps=10)
    compiled_trainer = bench["compiled_trainer"]

    stats = compiled_trainer.compile_stats
    assert stats is not None and stats.compiled_batches >= 3 * 6  # timed epochs compiled
    # Zero steady-state allocations in the training executor.
    assert (
        compiled_trainer._compiled_trainer.pool_allocations == bench["warm_allocations"]
    )

    # Identical epochs on both sides -> the parameter trajectories must
    # agree within floating-point reassociation noise.
    eager_state = bench["eager_model"].state_dict()
    compiled_state = bench["compiled_model"].state_dict()
    for key, value in eager_state.items():
        assert np.allclose(value, compiled_state[key], rtol=1e-6, atol=1e-9), key
    assert np.allclose(
        bench["eager_trainer"].history.train_loss,
        compiled_trainer.history.train_loss,
        rtol=1e-7,
    )

    speedup = bench["eager_seconds"] / bench["compiled_seconds"]
    assert speedup >= 1.3, (
        f"compiled PGD-AT training epoch only {speedup:.2f}x faster "
        f"(eager {bench['eager_seconds']:.3f}s vs compiled {bench['compiled_seconds']:.3f}s)"
    )
