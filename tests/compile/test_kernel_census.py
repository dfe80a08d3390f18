"""Every registry model compiles under every training loss and eval attack.

The executor has kernels only for ops some captured model or traced loss
contains; a graph holding any other op raises ``CompileError`` at bind and
quietly runs eagerly.  This census turns such a silent fallback into a
failure: each registry model, in its smallest configuration (VGG16 also
with dropout and without batch norm), trains one compiled epoch of two
batches under each paper loss with no fallback, and then runs one step of
every registry attack (the paper suite and the adaptive IB attack) compiled,
with no compile error.
"""

from __future__ import annotations

import numpy as np
import pytest

from repro.attacks import ATTACK_REGISTRY, AttackEngine, AttackSpec
from repro.core.config import IBRARConfig
from repro.core.losses import AdversarialMILoss, MILoss
from repro.data import ArrayDataset, DataLoader
from repro.models import MODEL_REGISTRY, build_model
from repro.training import Trainer
from repro.training.adversarial import (
    CrossEntropyLoss,
    MARTLoss,
    PGDAdversarialLoss,
    TRADESLoss,
)

CLASSES = 3

#: case -> (registry name, smallest constructor arguments, example shape)
MODELS = {
    "vgg11": ("vgg11", dict(width_multiplier=0.01, hidden_dim=8), (3, 32, 32)),
    "vgg13": ("vgg13", dict(width_multiplier=0.01, hidden_dim=8), (3, 32, 32)),
    "vgg16": ("vgg16", dict(width_multiplier=0.01, hidden_dim=8), (3, 32, 32)),
    "vgg16-dropout": (
        "vgg16", dict(width_multiplier=0.01, hidden_dim=8, dropout=0.5), (3, 32, 32)
    ),
    "vgg16-no-bn": (
        "vgg16", dict(width_multiplier=0.01, hidden_dim=8, batch_norm=False), (3, 32, 32)
    ),
    "resnet18": ("resnet18", dict(width_multiplier=0.01), (3, 8, 8)),
    "resnet34": ("resnet34", dict(width_multiplier=0.01), (3, 8, 8)),
    "wrn28-10": ("wrn28-10", dict(width_multiplier=0.01), (3, 8, 8)),
    "smallcnn": ("smallcnn", dict(image_size=4, base_channels=2, hidden_dim=4), (3, 4, 4)),
    "mlp": ("mlp", dict(input_dim=12, hidden_dims=(4, 4)), (3, 2, 2)),
}

LOSSES = {
    "ce": lambda: CrossEntropyLoss(),
    "pgd": lambda: PGDAdversarialLoss(steps=1),
    "trades": lambda: TRADESLoss(steps=1),
    "mart": lambda: MARTLoss(steps=1),
    "ibrar-eq1": lambda: MILoss(IBRARConfig(alpha=0.05, beta=0.01), num_classes=CLASSES),
    "ibrar-eq1-raw-sigma": lambda: MILoss(
        IBRARConfig(alpha=0.05, beta=0.01, normalized_hsic=False, sigma=1.0),
        num_classes=CLASSES,
    ),
    "ibrar-eq2": lambda: AdversarialMILoss(
        IBRARConfig(alpha=0.05, beta=0.01),
        num_classes=CLASSES,
        adversarial_strategy=PGDAdversarialLoss(steps=1),
    ),
    "ibrar-mi-on-adversarial": lambda: AdversarialMILoss(
        IBRARConfig(alpha=0.05, beta=0.01, mi_on_adversarial=True),
        num_classes=CLASSES,
        adversarial_strategy=PGDAdversarialLoss(steps=1),
    ),
}

#: one step of every registry attack (FGSM takes a single step anyway)
ATTACKS = [
    AttackSpec(name, dict(steps=1) if "steps" in attack.accepted_hyperparameters() else {})
    for name, attack in ATTACK_REGISTRY.items()
]


def test_census_covers_the_registry():
    covered = {MODEL_REGISTRY[registered] for registered, _, _ in MODELS.values()}
    assert covered == set(MODEL_REGISTRY.values())
    assert sorted(spec.name for spec in ATTACKS) == sorted(ATTACK_REGISTRY)


@pytest.mark.parametrize("name", sorted(MODELS))
def test_model_compiles_under_every_loss_and_attack(name):
    registered, kwargs, shape = MODELS[name]
    rng = np.random.default_rng(0)
    images = rng.random((8, *shape))
    labels = rng.integers(0, CLASSES, 8)

    def model():
        return build_model(registered, num_classes=CLASSES, seed=0, **kwargs)

    for loss, strategy in LOSSES.items():
        loader = DataLoader(ArrayDataset(images, labels), batch_size=4, shuffle=False)
        trainer = Trainer(model(), strategy(), compile=True)
        trainer.fit(loader, epochs=1)
        stats = trainer.compile_stats
        assert (loss, stats.fallbacks) == (loss, 0)
        assert stats.compiled_batches >= 1, loss

    result = AttackEngine(ATTACKS, batch_size=8, early_exit=False, compile=True).run(
        model(), images, labels
    )
    assert result.compiled and not result.compile_error
    assert sorted(result.adversarial) == sorted(spec.name for spec in ATTACKS)
