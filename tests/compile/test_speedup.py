"""Acceptance: compiled PGD evaluation and PGD-AT training clear absolute,
machine-normalised throughput floors, with eager-equal results.

Trains a tiny CNN on synthetic CIFAR-like data and, with the paper's PGD
configuration, times the attack engine with and without ``compile=True``,
plus one PGD adversarial-training epoch with and without
``Trainer(compile=True)``.  Each timed round runs the eager and the compiled
mode and then ``benchmarks/common.probe_gflops`` (float64 matmuls on one
BLAS thread).

A round's normalised throughput is compiled examples/s divided by that
round's probe GFLOP/s, so a slower machine lowers the throughput and its
yardstick alike; each gate takes the best round, so one scheduler spike
does not fail it.  The gates measure compiled throughput alone, not
the compiled/eager ratio: a ratio improves when eager gets slower and fails
when eager gets faster, while these floors fail only when the compiled path
itself slows down.  Each floor is the normalised throughput at which the
ratio gate it replaces (PGD eval >= 1.5x, PGD-AT epoch >= 1.3x) failed at
its median reading, calibrated on a 2-vCPU Xeon container (AVX-512,
numpy 2.4.6, OpenBLAS); CHANGES.md records the runs.  Their margin on other
machines is not yet measured: CI's non-blocking ``speed-gates`` job records
it on its runners.

Run with ``-s`` to print one line per gate: the best round's normalised
throughput, probe, eager and compiled seconds, and the floor.
"""

from __future__ import annotations

import sys
import time
from pathlib import Path

import numpy as np
import pytest

from repro.attacks import AttackEngine, AttackSpec
from repro.data import ArrayDataset, DataLoader, synthetic_cifar10
from repro.models import SmallCNN
from repro.nn.optim import SGD, StepLR
from repro.training import CrossEntropyLoss, Trainer

sys.path.insert(0, str(Path(__file__).resolve().parents[2] / "benchmarks"))
from common import pgd_at_training_benchmark, probe_gflops  # noqa: E402

#: compiled PGD-10 examples/s per probe GFLOP/s, best of 4 rounds: the
#: median of 12 runs from before eager shared the batch-norm and max-pool
#: kernels (11.503) times 1.5 / 1.765, the old ratio floor over the median
#: compiled/eager ratio of those runs.
PGD_EVAL_FLOOR = 9.78
#: compiled PGD-AT training examples/s (one epoch) per probe GFLOP/s, best
#: of 3 rounds: 10.658 times 1.3 / 1.848, calibrated the same way.
PGD_AT_EPOCH_FLOOR = 7.50


def check_gate(name, examples, rounds, floor):
    """Print the gate's line and assert the best round clears the floor.

    ``rounds`` holds each round's (eager s, compiled s, probe GFLOP/s).
    """
    throughput, eager_seconds, compiled_seconds, probe = max(
        (examples / compiled / probe, eager, compiled, probe) for eager, compiled, probe in rounds
    )
    print(
        f"\nspeed-gate {name}: {throughput:.3f} examples/s per GFLOP/s "
        f"(probe {probe:.1f} GFLOP/s, floor {floor:.2f}; "
        f"eager {eager_seconds:.3f} s, compiled {compiled_seconds:.3f} s)"
    )
    assert throughput >= floor, (
        f"compiled {name} throughput {throughput:.3f} examples/s per GFLOP/s "
        f"is below its floor {floor:.2f} in each of {len(rounds)} rounds "
        f"(best: probe {probe:.1f} GFLOP/s, compiled {compiled_seconds:.3f} s)"
    )


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

    # Interleave the modes and the probe, so load spikes hit all three
    # rather than whichever ran second.
    rounds = []
    eager = compiled = None
    for _ in range(4):
        start = time.perf_counter()
        eager = AttackEngine(suite).run(model, images, labels)
        eager_seconds = time.perf_counter() - start
        start = time.perf_counter()
        compiled = AttackEngine(suite, compile=True).run(model, images, labels)
        rounds.append((eager_seconds, time.perf_counter() - start, probe_gflops()))

    assert compiled.compiled and compiled.compile_error is None
    # allclose-identical robust accuracy (in practice bitwise: the fused
    # kernels replay the same floating-point operations).
    assert np.allclose(eager.natural, compiled.natural, atol=1e-12)
    assert np.allclose(
        list(eager.adversarial.values()), list(compiled.adversarial.values()), atol=1e-12
    )
    check_gate("pgd_eval", len(images), rounds, PGD_EVAL_FLOOR)


def test_compiled_pgd_at_training_epoch_is_faster_with_matching_trajectory():
    """Compiled adversarial training: epoch throughput floor, eager-equal weights.

    Runs ``benchmarks/common.pgd_at_training_benchmark``: identical fresh
    models/loader seeds per mode, one warm-up epoch, then three rounds of
    an eager epoch, a compiled epoch and a probe reading.  Besides the
    floor, the compiled run must track the eager parameter trajectory and
    keep the training executor at zero steady-state pool allocations.
    """
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
    check_gate("pgd_at_epoch", bench["epoch_examples"], bench["rounds"], PGD_AT_EPOCH_FLOOR)
