"""Tests for the VIB and HBaR baselines (Figure 2 comparison methods)."""

from __future__ import annotations

import numpy as np
import pytest

from repro.ib import HBaRLoss, VIBClassifier, vib_loss
from repro.models import MLP, SmallCNN
from repro.nn import Tensor
from repro.nn import functional as F


def batch(n=8, size=16, seed=0):
    rng = np.random.default_rng(seed)
    return rng.random((n, 3, size, size)), rng.integers(0, 10, n)


class TestVIB:
    def test_forward_shapes(self):
        backbone = SmallCNN(num_classes=10, image_size=16, seed=0)
        model = VIBClassifier(backbone, bottleneck_dim=8, seed=0)
        images, _ = batch()
        logits, hidden = model.forward_with_hidden(Tensor(images))
        assert logits.shape == (8, 10)
        assert hidden["bottleneck"].shape == (8, 8)

    def test_hidden_layer_names_extend_backbone(self):
        backbone = SmallCNN(num_classes=10, image_size=16, seed=0)
        model = VIBClassifier(backbone, seed=0)
        assert model.hidden_layer_names[-1] == "bottleneck"

    def test_eval_mode_is_deterministic(self):
        backbone = SmallCNN(num_classes=10, image_size=16, seed=0)
        model = VIBClassifier(backbone, seed=0)
        model.eval()
        images, _ = batch()
        a = model.forward(Tensor(images)).data
        b = model.forward(Tensor(images)).data
        np.testing.assert_allclose(a, b)

    def test_train_mode_is_stochastic(self):
        backbone = SmallCNN(num_classes=10, image_size=16, seed=0)
        model = VIBClassifier(backbone, seed=0)
        model.train()
        images, _ = batch()
        a = model.forward(Tensor(images)).data
        b = model.forward(Tensor(images)).data
        assert not np.allclose(a, b)

    def test_vib_loss_requires_forward_first(self):
        backbone = SmallCNN(num_classes=10, image_size=16, seed=0)
        model = VIBClassifier(backbone, seed=0)
        with pytest.raises(RuntimeError):
            vib_loss(model, Tensor(np.zeros((2, 10))), np.zeros(2, dtype=int))

    def test_vib_loss_exceeds_ce_by_kl(self):
        backbone = SmallCNN(num_classes=10, image_size=16, seed=0)
        model = VIBClassifier(backbone, beta=1e-3, seed=0)
        images, labels = batch()
        logits, _ = model.forward_with_hidden(Tensor(images))
        total = vib_loss(model, logits, labels).item()
        ce = F.cross_entropy(logits, labels).item()
        assert total >= ce - 1e-9

    def test_vib_loss_backward_reaches_encoder(self):
        backbone = SmallCNN(num_classes=10, image_size=16, seed=0)
        model = VIBClassifier(backbone, seed=0)
        images, labels = batch()
        logits, _ = model.forward_with_hidden(Tensor(images))
        vib_loss(model, logits, labels).backward()
        assert model.encoder_mu.weight.grad is not None

    def test_works_with_mlp_backbone(self):
        backbone = MLP(input_dim=12, num_classes=3, hidden_dims=(16, 8), seed=0)
        model = VIBClassifier(backbone, bottleneck_dim=4, seed=0)
        logits = model.forward(Tensor(np.random.default_rng(0).random((5, 12))))
        assert logits.shape == (5, 3)

    def test_mask_passthrough_property(self):
        backbone = SmallCNN(num_classes=10, image_size=16, seed=0)
        model = VIBClassifier(backbone, seed=0)
        assert model.last_conv_channels == backbone.last_conv_channels
        assert model.last_conv_name == backbone.last_conv_name

    def test_channel_mask_reaches_the_backbone_forward(self):
        backbone = SmallCNN(num_classes=10, image_size=16, base_channels=4, hidden_dim=16, seed=0)
        model = VIBClassifier(backbone, seed=0)
        model.eval()
        x = Tensor(batch()[0])
        unmasked = model.forward(x).data
        mask = np.zeros(model.last_conv_channels)
        model.set_channel_mask(mask)
        assert np.array_equal(backbone.channel_mask, mask)
        assert np.array_equal(model.channel_mask, mask)
        masked = model.forward(x).data
        assert not np.array_equal(masked, unmasked)
        # Exactly the VIB head (eval mode: the mean code) over the masked
        # backbone's penultimate features.
        _, hidden = backbone.forward_with_hidden(x)
        features = hidden[backbone.hidden_layer_names[-1]]
        expected = model.decoder(model.encoder_mu(features)).data
        assert np.array_equal(masked, expected)
        model.set_channel_mask(None)
        assert model.channel_mask is None and backbone.channel_mask is None
        assert np.array_equal(model.forward(x).data, unmasked)

    def test_feature_mask_scores_one_per_channel(self):
        from repro.core import FeatureChannelMask

        backbone = SmallCNN(num_classes=10, image_size=16, base_channels=4, hidden_dim=16, seed=0)
        model = VIBClassifier(backbone, seed=0)
        images, labels = batch(n=16)
        scores = FeatureChannelMask().scores(model, images, labels)
        assert scores.shape == (model.last_conv_channels,)
        assert np.all(np.isfinite(scores))


class TestHBaR:
    def _setup(self):
        model = SmallCNN(num_classes=10, image_size=16, seed=0)
        images, labels = batch()
        x = Tensor(images)
        logits, hidden = model.forward_with_hidden(x)
        return model, x, logits, hidden, labels

    def test_loss_is_finite_scalar(self):
        _, x, logits, hidden, labels = self._setup()
        loss = HBaRLoss(num_classes=10)(logits, labels, x, hidden)
        assert np.isfinite(loss.item())

    def test_zero_lambdas_reduce_to_ce(self):
        _, x, logits, hidden, labels = self._setup()
        loss = HBaRLoss(num_classes=10, lambda_x=0.0, lambda_y=0.0)(logits, labels, x, hidden)
        assert loss.item() == pytest.approx(F.cross_entropy(logits, labels).item(), abs=1e-9)

    def test_backward_reaches_model_parameters(self):
        model, x, logits, hidden, labels = self._setup()
        HBaRLoss(num_classes=10)(logits, labels, x, hidden).backward()
        grads = [p.grad for p in model.parameters() if p.grad is not None]
        assert grads and any(np.abs(g).sum() > 0 for g in grads)

    def test_components_reported(self):
        _, x, logits, hidden, labels = self._setup()
        components = HBaRLoss(num_classes=10).components(logits, labels, x, hidden)
        assert set(components) == {"cross_entropy", "hsic_x", "hsic_y"}
        assert components["hsic_x"] >= 0

    def test_unnormalized_variant_runs(self):
        _, x, logits, hidden, labels = self._setup()
        loss = HBaRLoss(num_classes=10, normalized=False)(logits, labels, x, hidden)
        assert np.isfinite(loss.item())

    def test_fixed_sigma(self):
        _, x, logits, hidden, labels = self._setup()
        loss = HBaRLoss(num_classes=10, sigma=2.0)(logits, labels, x, hidden)
        assert np.isfinite(loss.item())
