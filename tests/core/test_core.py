"""Tests for the IB-RAR core: config, Eq. 1/2 losses, Eq. 3 mask, robust layers, trainer."""

from __future__ import annotations

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core import (
    IBRAR,
    AdversarialMILoss,
    FeatureChannelMask,
    IBRARConfig,
    MILoss,
    PAPER_RESNET18_CONFIG,
    PAPER_VGG16_CONFIG,
    PAPER_VGG16_ROBUST_LAYERS,
    RobustLayerSelector,
    compute_channel_mask,
    mi_regularizer_terms,
)
from repro.models import SmallCNN
from repro.nn import Tensor
from repro.nn import functional as F
from repro.training import CrossEntropyLoss, PGDAdversarialLoss


def fresh_model(seed=0):
    return SmallCNN(num_classes=10, image_size=16, base_channels=4, hidden_dim=16, seed=seed)


class TestConfig:
    def test_defaults_are_valid(self):
        config = IBRARConfig()
        assert config.alpha >= 0 and config.beta >= 0
        assert config.use_mask

    def test_paper_configs(self):
        assert PAPER_VGG16_CONFIG.alpha == pytest.approx(1.0)
        assert PAPER_VGG16_CONFIG.beta == pytest.approx(0.1)
        assert PAPER_RESNET18_CONFIG.alpha == pytest.approx(5e-4)

    def test_negative_weights_rejected(self):
        with pytest.raises(ValueError):
            IBRARConfig(alpha=-1.0)

    def test_mask_fraction_bounds(self):
        with pytest.raises(ValueError):
            IBRARConfig(mask_fraction=1.0)
        with pytest.raises(ValueError):
            IBRARConfig(mask_fraction=-0.1)

    def test_mask_refresh_validation(self):
        with pytest.raises(ValueError):
            IBRARConfig(mask_refresh_every=0)

    def test_layers_become_tuple(self):
        config = IBRARConfig(layers=["fc1", "fc2"])
        assert config.layers == ("fc1", "fc2")

    def test_coupled_constructor(self):
        config = IBRARConfig.coupled(beta=0.5, ratio=0.1)
        assert config.alpha == pytest.approx(0.05)

    def test_paper_robust_layers_constant(self):
        assert PAPER_VGG16_ROBUST_LAYERS == ("conv_block5", "fc1", "fc2")

    def test_dict_round_trip(self):
        config = IBRARConfig(
            alpha=0.05, beta=0.01, layers=("fc1", "fc2"), mask_fraction=0.2, sigma=1.5
        )
        revived = IBRARConfig.from_dict(config.to_dict())
        assert revived == config
        assert revived.layers == ("fc1", "fc2")  # list in JSON, tuple revived

    def test_dict_round_trip_with_defaults(self):
        config = IBRARConfig()
        assert IBRARConfig.from_dict(config.to_dict()) == config

    def test_to_dict_is_deterministic_json(self):
        import json

        config = IBRARConfig(layers=["fc2", "fc1"])
        a = json.dumps(config.to_dict(), sort_keys=True)
        b = json.dumps(IBRARConfig.from_dict(config.to_dict()).to_dict(), sort_keys=True)
        assert a == b

    def test_from_dict_rejects_unknown_fields(self):
        with pytest.raises(ValueError, match="unknown IBRARConfig field"):
            IBRARConfig.from_dict({"alpha": 1.0, "gamma": 2.0})


class TestMIRegularizerTerms:
    def _forward(self, model, images):
        x = Tensor(images)
        logits, hidden = model.forward_with_hidden(x)
        return x, hidden

    def test_terms_are_finite_and_differentiable(self, tiny_dataset):
        model = fresh_model()
        images, labels = tiny_dataset.x_train[:16], tiny_dataset.y_train[:16]
        x, hidden = self._forward(model, images)
        sum_xt, sum_yt = mi_regularizer_terms(x, labels, hidden, num_classes=10)
        assert np.isfinite(sum_xt.item()) and np.isfinite(sum_yt.item())
        (sum_xt - sum_yt).backward()
        assert any(p.grad is not None for p in model.parameters())

    def test_layer_subset_selects_fewer_terms(self, tiny_dataset):
        model = fresh_model()
        images, labels = tiny_dataset.x_train[:16], tiny_dataset.y_train[:16]
        x, hidden = self._forward(model, images)
        all_xt, _ = mi_regularizer_terms(x, labels, hidden, 10)
        sub_xt, _ = mi_regularizer_terms(x, labels, hidden, 10, layers=("fc1",))
        assert sub_xt.item() <= all_xt.item() + 1e-9

    def test_unknown_layer_raises(self, tiny_dataset):
        model = fresh_model()
        images, labels = tiny_dataset.x_train[:8], tiny_dataset.y_train[:8]
        x, hidden = self._forward(model, images)
        with pytest.raises(KeyError):
            mi_regularizer_terms(x, labels, hidden, 10, layers=("nope",))

    def test_empty_layer_list_raises(self, tiny_dataset):
        model = fresh_model()
        images, labels = tiny_dataset.x_train[:8], tiny_dataset.y_train[:8]
        x, hidden = self._forward(model, images)
        with pytest.raises(ValueError):
            mi_regularizer_terms(x, labels, hidden, 10, layers=())


class TestMILoss:
    def test_reduces_to_base_when_weights_zero(self, tiny_dataset):
        model = fresh_model()
        images, labels = tiny_dataset.x_train[:16], tiny_dataset.y_train[:16]
        config = IBRARConfig(alpha=0.0, beta=0.0, use_mask=False)
        loss = MILoss(config, num_classes=10)(model, images, labels)
        ce = F.cross_entropy(model.forward(Tensor(images)), labels)
        assert loss.item() == pytest.approx(ce.item(), abs=1e-9)

    def test_components_recorded(self, tiny_dataset):
        model = fresh_model()
        images, labels = tiny_dataset.x_train[:16], tiny_dataset.y_train[:16]
        mi_loss = MILoss(IBRARConfig(alpha=0.1, beta=0.01), num_classes=10)
        mi_loss(model, images, labels)
        components = mi_loss.last_components
        assert set(components) == {"base", "hsic_x", "hsic_y", "total"}
        assert components["total"] == pytest.approx(
            components["base"] + 0.1 * components["hsic_x"] - 0.01 * components["hsic_y"], abs=1e-6
        )

    def test_backward_reaches_parameters(self, tiny_dataset):
        model = fresh_model()
        images, labels = tiny_dataset.x_train[:16], tiny_dataset.y_train[:16]
        loss = MILoss(IBRARConfig(alpha=0.1, beta=0.01), num_classes=10)(model, images, labels)
        loss.backward()
        grads = [p.grad for p in model.parameters() if p.grad is not None]
        assert grads and all(np.isfinite(g).all() for g in grads)

    def test_adversarial_variant_uses_strategy(self, tiny_dataset):
        model = fresh_model()
        images, labels = tiny_dataset.x_train[:16], tiny_dataset.y_train[:16]
        loss = AdversarialMILoss(
            IBRARConfig(alpha=0.1, beta=0.01), num_classes=10, adversarial_strategy=PGDAdversarialLoss(steps=2)
        )
        value = loss(model, images, labels).item()
        assert np.isfinite(value)

    def test_mi_on_adversarial_flag(self, tiny_dataset):
        model = fresh_model()
        images, labels = tiny_dataset.x_train[:16], tiny_dataset.y_train[:16]
        config = IBRARConfig(alpha=0.1, beta=0.01, mi_on_adversarial=True)
        loss = MILoss(config, num_classes=10, base_loss=PGDAdversarialLoss(steps=2))
        assert np.isfinite(loss(model, images, labels).item())

    def test_mi_on_adversarial_without_generator_falls_back(self, tiny_dataset):
        model = fresh_model()
        images, labels = tiny_dataset.x_train[:16], tiny_dataset.y_train[:16]
        config = IBRARConfig(alpha=0.1, beta=0.01, mi_on_adversarial=True)
        loss = MILoss(config, num_classes=10, base_loss=CrossEntropyLoss())
        assert np.isfinite(loss(model, images, labels).item())

    def test_fused_ce_path_uses_single_forward(self, tiny_dataset):
        # Plain-CE IB-RAR (Eq. 1) shares one forward_with_hidden pass between
        # the classification term and the MI terms, and hands the logits to
        # the trainer for the training-accuracy metric.
        from repro.attacks import ForwardPassCounter

        model = fresh_model()
        images, labels = tiny_dataset.x_train[:16], tiny_dataset.y_train[:16]
        mi_loss = MILoss(IBRARConfig(alpha=0.1, beta=0.01), num_classes=10)
        with ForwardPassCounter(model) as counter:
            loss, logits = mi_loss.loss_and_logits(model, images, labels)
        assert counter.calls == 1
        assert logits is not None and logits.data.shape == (16, 10)
        assert np.isfinite(loss.item())

    def test_adversarial_base_returns_no_logits(self, tiny_dataset):
        model = fresh_model()
        images, labels = tiny_dataset.x_train[:16], tiny_dataset.y_train[:16]
        mi_loss = MILoss(IBRARConfig(alpha=0.1, beta=0.01), num_classes=10, base_loss=PGDAdversarialLoss(steps=1))
        loss, logits = mi_loss.loss_and_logits(model, images, labels)
        assert logits is None
        assert np.isfinite(loss.item())


class TestChannelMask:
    def test_threshold_removes_requested_fraction(self):
        scores = np.linspace(0, 1, 20)
        mask = compute_channel_mask(scores, fraction=0.2)
        assert mask.sum() == 16
        # The lowest-scoring channels are the ones removed.
        assert mask[:4].sum() == 0

    def test_zero_fraction_keeps_all(self):
        mask = compute_channel_mask(np.random.default_rng(0).random(10), fraction=0.0)
        assert mask.sum() == 10

    def test_small_channel_count_keeps_all(self):
        # 5% of 16 channels rounds down to zero removals.
        mask = compute_channel_mask(np.random.default_rng(0).random(16), fraction=0.05)
        assert mask.sum() == 16

    def test_never_removes_everything(self):
        mask = compute_channel_mask(np.zeros(8), fraction=0.9)
        assert mask.sum() >= 1

    def test_invalid_fraction(self):
        with pytest.raises(ValueError):
            compute_channel_mask(np.ones(4), fraction=1.0)

    def test_empty_scores(self):
        with pytest.raises(ValueError):
            compute_channel_mask(np.array([]), fraction=0.1)

    @settings(max_examples=20, deadline=None)
    @given(
        n=st.integers(4, 64),
        fraction=st.floats(0.0, 0.5),
        seed=st.integers(0, 1000),
        tied=st.booleans(),
    )
    def test_property_mask_is_binary_and_bounded(self, n, fraction, seed, tied):
        rng = np.random.default_rng(seed)
        # Integer-valued scores tie heavily (all equal when n_values == 1).
        scores = rng.integers(0, rng.integers(1, 5), n).astype(float) if tied else rng.random(n)
        mask = compute_channel_mask(scores, fraction=fraction)
        assert set(np.unique(mask)).issubset({0.0, 1.0})
        assert 1 <= mask.sum() <= n
        assert n - mask.sum() == min(int(np.floor(fraction * n)), n - 1)
        if mask.sum() < n:  # the removed channels are the lowest-scoring ones
            assert scores[mask == 0].max() <= scores[mask == 1].min()

    def test_feature_channel_mask_applies_to_model(self, tiny_dataset, trained_small_cnn):
        # Use a copy so the shared fixture is not mutated.
        model = fresh_model()
        model.load_state_dict(trained_small_cnn.state_dict())
        builder = FeatureChannelMask(fraction=0.25)
        mask = builder.apply(model, tiny_dataset.x_train[:64], tiny_dataset.y_train[:64])
        assert model.channel_mask is not None
        assert mask.shape == (model.last_conv_channels,)
        assert mask.sum() < model.last_conv_channels  # something was removed

    def test_scores_shape(self, tiny_dataset, trained_small_cnn):
        builder = FeatureChannelMask()
        scores = builder.scores(trained_small_cnn, tiny_dataset.x_train[:32], tiny_dataset.y_train[:32])
        assert scores.shape == (trained_small_cnn.last_conv_channels,)

    def test_scores_do_not_leave_mask_installed(self, tiny_dataset, trained_small_cnn):
        builder = FeatureChannelMask()
        before = trained_small_cnn.channel_mask
        builder.scores(trained_small_cnn, tiny_dataset.x_train[:16], tiny_dataset.y_train[:16])
        assert trained_small_cnn.channel_mask is before

    @pytest.mark.parametrize(
        "name, kwargs, image_size, examples",
        [
            ("vgg16", dict(image_size=32, width_multiplier=0.25), 32, 256),
            ("smallcnn", dict(image_size=16, base_channels=4, hidden_dim=16), 16, 150),
            ("resnet18", dict(width_multiplier=0.0625), 16, 150),
        ],
        ids=["vgg16", "smallcnn", "resnet18"],
    )
    def test_chunked_scoring_is_bitwise_whole_batch(self, name, kwargs, image_size, examples):
        from repro.ib.mi import channel_label_mi
        from repro.models import build_model
        from repro.nn import no_grad
        from repro.nn.modules import BatchNorm2d

        model = build_model(name, num_classes=10, seed=0, **kwargs)
        rng = np.random.default_rng(0)
        for module in model.modules():  # running statistics as mid-training
            if isinstance(module, BatchNorm2d):
                module.running_mean[...] = rng.normal(0.0, 0.1, module.running_mean.shape)
                module.running_var[...] = rng.uniform(0.5, 1.5, module.running_var.shape)
        images = rng.random((examples, 3, image_size, image_size))
        labels = rng.integers(0, 10, examples)
        builder = FeatureChannelMask(fraction=0.25)
        chunked = builder.features(model, images)
        model.eval()
        with no_grad():
            whole = model.forward_with_hidden(Tensor(images))[1][model.last_conv_name].data
        assert np.array_equal(chunked, whole)
        scores = channel_label_mi(whole, labels, 10, method=builder.method)
        assert np.array_equal(builder.scores(model, images, labels), scores)
        assert np.array_equal(
            builder.compute(model, images, labels), compute_channel_mask(scores, fraction=0.25)
        )

    @pytest.mark.parametrize("training", [True, False])
    def test_scoring_restores_mask_and_mode_also_on_error(self, training):
        from repro.core.mask import _SCORE_CHUNK

        model = fresh_model()
        mask = np.ones(model.last_conv_channels)
        mask[:2] = 0.0
        model.set_channel_mask(mask)
        model.train(training)
        images = np.random.default_rng(0).random((150, 3, 16, 16))
        labels = np.arange(150) % 10
        forward, chunks = model.forward_with_hidden, []

        def recording(x):
            chunks.append(len(x))
            assert not model.training and np.all(model._mask.data == 1.0)
            return forward(x)

        model.forward_with_hidden = recording
        FeatureChannelMask().scores(model, images, labels)
        assert chunks == [_SCORE_CHUNK, _SCORE_CHUNK, 150 - 2 * _SCORE_CHUNK]
        assert _SCORE_CHUNK <= 64
        assert model.training == training
        assert np.array_equal(model.channel_mask, mask) and np.array_equal(model._mask.data, mask)

        def failing(x):
            if len(chunks) == 4:
                raise RuntimeError("forward failed")
            return recording(x)

        model.forward_with_hidden = failing
        with pytest.raises(RuntimeError, match="forward failed"):
            FeatureChannelMask().scores(model, images, labels)
        assert model.training == training
        assert np.array_equal(model.channel_mask, mask) and np.array_equal(model._mask.data, mask)


class TestIBRARTrainer:
    def test_fit_returns_result_with_history_and_mask(self, tiny_dataset):
        model = fresh_model()
        ibrar = IBRAR(model, IBRARConfig(alpha=0.1, beta=0.01, mask_fraction=0.25))
        result = ibrar.fit(tiny_dataset.x_train, tiny_dataset.y_train, epochs=2, batch_size=40)
        assert len(result.history) == 2
        assert result.channel_mask is not None
        assert result.model is model

    def test_training_improves_accuracy(self, tiny_dataset):
        from repro.evaluation import clean_accuracy

        model = fresh_model()
        before = clean_accuracy(model, tiny_dataset.x_test, tiny_dataset.y_test)
        IBRAR(model, IBRARConfig(alpha=0.05, beta=0.005), lr=0.05).fit(
            tiny_dataset.x_train, tiny_dataset.y_train, epochs=3, batch_size=40
        )
        after = clean_accuracy(model, tiny_dataset.x_test, tiny_dataset.y_test)
        assert after > before

    def test_mask_disabled(self, tiny_dataset):
        model = fresh_model()
        result = IBRAR(model, IBRARConfig(alpha=0.1, beta=0.01, use_mask=False)).fit(
            tiny_dataset.x_train, tiny_dataset.y_train, epochs=1, batch_size=40
        )
        assert result.channel_mask is None

    def test_loss_components_accessor(self, tiny_dataset):
        model = fresh_model()
        ibrar = IBRAR(model, IBRARConfig(alpha=0.1, beta=0.01))
        ibrar.fit(tiny_dataset.x_train, tiny_dataset.y_train, epochs=1, batch_size=40)
        assert "hsic_x" in ibrar.loss_components()

    def test_robust_layer_restriction(self, tiny_dataset):
        model = fresh_model()
        config = IBRARConfig(alpha=0.1, beta=0.01, layers=("conv_block2", "fc1", "fc2"))
        result = IBRAR(model, config).fit(tiny_dataset.x_train, tiny_dataset.y_train, epochs=1, batch_size=40)
        assert len(result.history) == 1

    def test_eval_hooks_forwarded(self, tiny_dataset):
        model = fresh_model()
        ibrar = IBRAR(model, IBRARConfig(alpha=0.1, beta=0.01), eval_natural=lambda m: 0.42)
        result = ibrar.fit(tiny_dataset.x_train, tiny_dataset.y_train, epochs=1, batch_size=40)
        assert result.history.final().natural_accuracy == 0.42


class TestRobustLayerSelector:
    def test_select_returns_layers_and_baseline(self, tiny_dataset):
        dataset = tiny_dataset.subset(80, 40)
        selector = RobustLayerSelector(
            model_factory=lambda: fresh_model(0),
            config=IBRARConfig(alpha=0.05, beta=0.005),
            epochs=1,
            batch_size=40,
            attack_kwargs={"steps": 3},
            eval_examples=40,
        )
        robust, results, baseline = selector.select(dataset, candidate_layers=("fc1", "fc2"))
        assert len(results) == 2
        assert baseline.layer == "ce-baseline"
        assert len(robust) >= 1
        assert all(r.layer in ("fc1", "fc2") for r in results)

    def test_layer_robustness_row(self):
        from repro.core import LayerRobustness

        row = LayerRobustness("fc1", 0.2, 0.8).as_row()
        assert row == {"layer": "fc1", "adv_acc": 0.2, "test_acc": 0.8}
