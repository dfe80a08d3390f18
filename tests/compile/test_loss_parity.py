"""Differential-parity suite: compiled training == eager, per loss family.

For every loss family the paper trains with ({CE, PGD-AT, TRADES, MART,
MILoss — normalized, raw and fixed-bandwidth HSIC — and IB-RAR over PGD-AT,
TRADES and MART}) crossed with a small CNN and a resnet-style model from
the registry, two training epochs run compiled and eager from identical
seeds and the suite asserts:

* parameter and running-statistic trajectories of CE, PGD-AT, TRADES and
  MART are bitwise equal: eager and compiled convolutions share one kernel
  set, and every compiled kernel on their path rounds as eager autograd
  does;
* the HSIC losses' trajectories match within 1e-12 (their in-plan terms are
  traced from the eager code, but a few kernels still round differently;
  the observed drift is up to ~1.3e-13 on the resnet-style model);
* per-batch loss values match (plus an MI loss over a layer subset);
* the Eq. (3) channel-mask refresh behaves identically.

This is the lockdown for the in-plan loss rewrite: any silent drift of the
compiled math from the paper's objectives fails here first.
"""

from __future__ import annotations

import numpy as np
import pytest

from repro.core.config import IBRARConfig
from repro.core.ibrar import IBRAR
from repro.core.losses import AdversarialMILoss, MILoss
from repro.data import ArrayDataset, DataLoader, synthetic_cifar10
from repro.models import build_model
from repro.nn.modules import BatchNorm2d
from repro.nn.optim import SGD, StepLR
from repro.training import Trainer
from repro.training.adversarial import (
    CrossEntropyLoss,
    MARTLoss,
    PGDAdversarialLoss,
    TRADESLoss,
)

PARAM_TOL = 1e-12

#: losses whose compiled steps round exactly as eager autograd does.
BITWISE_LOSSES = ("ce", "mart", "pgd", "trades")

LOSSES = {
    "ce": lambda classes: CrossEntropyLoss(),
    "pgd": lambda classes: PGDAdversarialLoss(steps=3, seed=0),
    "trades": lambda classes: TRADESLoss(steps=2, seed=0),
    "mart": lambda classes: MARTLoss(steps=2, seed=0),
    "miloss": lambda classes: MILoss(
        IBRARConfig(alpha=0.05, beta=0.01), num_classes=classes
    ),
    "miloss_raw": lambda classes: MILoss(
        IBRARConfig(alpha=0.05, beta=0.01, normalized_hsic=False), num_classes=classes
    ),
    "miloss_sigma": lambda classes: MILoss(
        IBRARConfig(alpha=0.05, beta=0.01, sigma=1.5), num_classes=classes
    ),
    "ibrar": lambda classes: AdversarialMILoss(
        IBRARConfig(alpha=0.05, beta=0.01),
        num_classes=classes,
        adversarial_strategy=PGDAdversarialLoss(steps=2, seed=0),
    ),
    "ibrar_trades": lambda classes: AdversarialMILoss(
        IBRARConfig(alpha=0.05, beta=0.01),
        num_classes=classes,
        adversarial_strategy=TRADESLoss(steps=2, seed=0),
    ),
    "ibrar_mart": lambda classes: AdversarialMILoss(
        IBRARConfig(alpha=0.05, beta=0.01),
        num_classes=classes,
        adversarial_strategy=MARTLoss(steps=2, seed=0),
    ),
}

#: per-batch only: a layer subset the resnet-style model does not expose.
PER_BATCH_LOSSES = {
    **LOSSES,
    "miloss_fc1": lambda classes: MILoss(
        IBRARConfig(alpha=0.05, beta=0.01, layers=("fc1",)), num_classes=classes
    ),
}

MODELS = {
    "smallcnn": dict(
        name="smallcnn",
        kwargs=dict(num_classes=10, image_size=16, base_channels=4, hidden_dim=16),
        classes=10,
        image_size=16,
        n_train=120,
        batch_size=40,
    ),
    "resnet": dict(
        name="resnet18",
        kwargs=dict(num_classes=5, width_multiplier=0.0625),
        classes=5,
        image_size=8,
        n_train=60,
        batch_size=20,
    ),
}


def _dataset(config):
    from repro.data.synthetic import make_dataset

    return make_dataset(
        num_classes=config["classes"],
        image_size=config["image_size"],
        n_train=config["n_train"],
        n_test=16,
        seed=0,
        name="parity",
    )


def _fit(config, dataset, loss_factory, compile, epochs=2):
    model = build_model(config["name"], seed=0, **config["kwargs"])
    optimizer = SGD(model.parameters(), lr=0.05, momentum=0.9, weight_decay=1e-3)
    trainer = Trainer(
        model,
        loss_factory(config["classes"]),
        optimizer=optimizer,
        scheduler=StepLR(optimizer),
        compile=compile,
    )
    loader = DataLoader(
        ArrayDataset(dataset.x_train, dataset.y_train),
        batch_size=config["batch_size"],
        shuffle=True,
        drop_last=True,
        seed=0,
    )
    history = trainer.fit(loader, epochs=epochs)
    return model, history, trainer


def _assert_same_state(eager_model, compiled_model, tol):
    eager_state = eager_model.state_dict()
    compiled_state = compiled_model.state_dict()
    for key, value in eager_state.items():
        drift = float(np.max(np.abs(value - compiled_state[key])))
        assert drift <= tol, f"{key} drifted by {drift:.3e}"
    for eager_bn, compiled_bn in zip(
        (m for m in eager_model.modules() if isinstance(m, BatchNorm2d)),
        (m for m in compiled_model.modules() if isinstance(m, BatchNorm2d)),
    ):
        assert np.allclose(eager_bn.running_mean, compiled_bn.running_mean, rtol=0, atol=tol)
        assert np.allclose(eager_bn.running_var, compiled_bn.running_var, rtol=0, atol=tol)


@pytest.mark.parametrize("model_key", sorted(MODELS))
@pytest.mark.parametrize("loss_key", sorted(LOSSES))
def test_two_epoch_trajectory_parity(model_key, loss_key):
    config = MODELS[model_key]
    dataset = _dataset(config)
    factory = LOSSES[loss_key]
    eager_model, eager_history, _ = _fit(config, dataset, factory, compile=False)
    compiled_model, compiled_history, trainer = _fit(config, dataset, factory, compile=True)
    stats = trainer.compile_stats
    assert stats is not None and stats.compiled_batches >= 1, "nothing actually compiled"
    # Per-epoch mean losses (each a mean of per-batch losses) track eager.
    assert np.allclose(
        eager_history.train_loss, compiled_history.train_loss, rtol=0, atol=1e-12
    )
    assert eager_history.train_accuracy == compiled_history.train_accuracy
    _assert_same_state(
        eager_model, compiled_model, 0.0 if loss_key in BITWISE_LOSSES else PARAM_TOL
    )


@pytest.mark.parametrize("model_key", sorted(MODELS))
@pytest.mark.parametrize("loss_key", BITWISE_LOSSES)
def test_first_compiled_step_is_bitwise_eager(model_key, loss_key):
    """Two batches: the first runs eagerly on both sides (first sighting),
    so the one compiled step starts from eager's state and must land on
    eager's next parameters and running statistics bit for bit."""
    config = dict(MODELS[model_key], n_train=2 * MODELS[model_key]["batch_size"])
    dataset = _dataset(config)
    factory = LOSSES[loss_key]
    eager_model, _, _ = _fit(config, dataset, factory, compile=False, epochs=1)
    compiled_model, _, trainer = _fit(config, dataset, factory, compile=True, epochs=1)
    assert trainer.compile_stats.compiled_batches == 1
    _assert_same_state(eager_model, compiled_model, 0.0)


@pytest.mark.parametrize("loss_key", sorted(PER_BATCH_LOSSES))
def test_per_batch_loss_values_match(loss_key):
    """One identical batch, identical fresh weights: loss values agree."""
    config = MODELS["smallcnn"]
    factory = PER_BATCH_LOSSES[loss_key]
    rng = np.random.default_rng(3)
    images = rng.random((16, 3, 16, 16))
    labels = rng.integers(0, 10, 16)

    def batch_loss(compile):
        from repro.compile.training import CompiledTrainer

        model = build_model(config["name"], seed=0, **config["kwargs"])
        model.train()
        strategy = factory(10)
        if not compile:
            return float(strategy(model, images, labels).item())
        optimizer = SGD(model.parameters(), lr=0.05, momentum=0.9)
        compiled = CompiledTrainer(model, optimizer, strategy)
        assert compiled.train_batch(images, labels) is None  # first sighting
        outcome = compiled.train_batch(images, labels)
        assert outcome is not None, "batch fell back to eager"
        return outcome[0]

    eager = batch_loss(False)
    compiled = batch_loss(True)
    assert compiled == pytest.approx(eager, rel=0, abs=1e-12)


@pytest.mark.parametrize("base", ["ce", "pgd"])
def test_channel_mask_refresh_behaves_identically(base):
    """Eq. (3) refresh every epoch: identical masks, trajectories, stats."""
    dataset = synthetic_cifar10(n_train=120, n_test=16, image_size=16, seed=0)

    def run(compile):
        model = build_model(
            "smallcnn", num_classes=10, image_size=16, base_channels=4, hidden_dim=16, seed=0
        )
        base_loss = None if base == "ce" else PGDAdversarialLoss(steps=2, seed=0)
        ibrar = IBRAR(
            model,
            IBRARConfig(alpha=0.05, beta=0.01, mask_refresh_every=1),
            base_loss=base_loss,
            lr=0.05,
            compile=compile,
        )
        result = ibrar.fit(dataset.x_train, dataset.y_train, epochs=2, batch_size=40, seed=0)
        return model, result.history

    eager_model, eager_history = run(False)
    compiled_model, compiled_history = run(True)
    assert compiled_history.compile_stats["compiled_batches"] >= 1
    assert np.allclose(
        eager_history.train_loss, compiled_history.train_loss, rtol=0, atol=1e-12
    )
    eager_state = eager_model.state_dict()
    compiled_state = compiled_model.state_dict()
    for key, value in eager_state.items():
        assert np.max(np.abs(value - compiled_state[key])) <= PARAM_TOL, key
    if eager_model.channel_mask is None:
        assert compiled_model.channel_mask is None
    else:
        assert np.array_equal(eager_model.channel_mask, compiled_model.channel_mask)


#: the float32 tier's stated tolerances (compiled vs eager, both float32).
F32_LOSS_RTOL = 1e-5
F32_PARAM_TOL = 1e-6


@pytest.mark.parametrize("loss_key", ["miloss", "ibrar"])
def test_float32_tier_step_matches_eager(loss_key):
    """One compiled IB-RAR step in float32 against eager float32.

    Both sides round differently from float64, so the tier states its own
    tolerances: loss and HSIC terms within ``F32_LOSS_RTOL`` (relative),
    updated parameters within ``F32_PARAM_TOL`` (absolute).
    """
    from repro.compile.training import CompiledTrainer
    from repro.ib.hsic import gaussian_kernel
    from repro.nn import Tensor, set_default_dtype

    config = MODELS["smallcnn"]
    previous = set_default_dtype(np.float32)
    try:
        rng = np.random.default_rng(3)
        images = rng.random((16, 3, 16, 16)).astype(np.float32)
        labels = rng.integers(0, 10, 16)
        assert gaussian_kernel(Tensor(images)).dtype == np.float32

        def step(compile):
            model = build_model(config["name"], seed=0, **config["kwargs"])
            model.train()
            strategy = LOSSES[loss_key](10)
            optimizer = SGD(model.parameters(), lr=0.05, momentum=0.9)
            if compile:
                compiled = CompiledTrainer(model, optimizer, strategy)
                assert compiled.train_batch(images, labels) is None  # first sighting
                outcome = compiled.train_batch(images, labels)
                assert outcome is not None, "batch fell back to eager"
                loss = outcome[0]
            else:  # the eager trainer's order: the attack's grads are dropped
                loss_t = strategy(model, images, labels)
                optimizer.zero_grad()
                loss_t.backward()
                optimizer.step()
                loss = float(loss_t.item())
            assert all(p.dtype == np.float32 for p in model.parameters())
            return loss, strategy.last_components, model.parameters()

        eager_loss, eager_parts, eager_params = step(False)
        compiled_loss, compiled_parts, compiled_params = step(True)
    finally:
        set_default_dtype(previous)
    assert compiled_loss == pytest.approx(eager_loss, rel=F32_LOSS_RTOL)
    for key in ("hsic_x", "hsic_y"):
        assert compiled_parts[key] == pytest.approx(eager_parts[key], rel=F32_LOSS_RTOL)
    drift = max(
        float(np.max(np.abs(e.data - c.data))) for e, c in zip(eager_params, compiled_params)
    )
    assert drift <= F32_PARAM_TOL, f"float32 parameters drifted by {drift:.3e}"
