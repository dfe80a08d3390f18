"""Tests for the attack suite: FGSM, PGD, CW, FAB, NIFGSM, adaptive IB attack."""

from __future__ import annotations

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.attacks import CW, FAB, FGSM, NIFGSM, PGD, AdaptiveIBAttack, build_attack, make_ib_loss_fn
from repro.evaluation import clean_accuracy
from repro.nn import Tensor


EPS = 8.0 / 255.0


@pytest.fixture(scope="module")
def eval_batch(tiny_dataset):
    return tiny_dataset.x_test[:24], tiny_dataset.y_test[:24]


def linf_distance(a, b):
    return np.abs(a - b).reshape(len(a), -1).max(axis=1)


class TestAttackInterface:
    def test_negative_eps_raises(self, trained_small_cnn):
        with pytest.raises(ValueError):
            FGSM(trained_small_cnn, eps=-0.1)

    def test_batch_size_mismatch_raises(self, trained_small_cnn, eval_batch):
        images, labels = eval_batch
        with pytest.raises(ValueError):
            FGSM(trained_small_cnn).attack(images[:4], labels[:3])

    def test_model_mode_restored(self, trained_small_cnn, eval_batch):
        images, labels = eval_batch
        trained_small_cnn.train()
        FGSM(trained_small_cnn).attack(images[:4], labels[:4])
        assert trained_small_cnn.training
        trained_small_cnn.eval()

    def test_build_attack_registry(self, trained_small_cnn):
        attack = build_attack("pgd", trained_small_cnn, steps=2)
        assert isinstance(attack, PGD)
        with pytest.raises(KeyError):
            build_attack("unknown", trained_small_cnn)

    def test_repr(self, trained_small_cnn):
        assert "FGSM" in repr(FGSM(trained_small_cnn))


class TestFGSM:
    def test_respects_eps_ball(self, trained_small_cnn, eval_batch):
        images, labels = eval_batch
        adv = FGSM(trained_small_cnn, eps=EPS).attack(images, labels)
        assert (linf_distance(adv, images) <= EPS + 1e-10).all()
        assert adv.min() >= 0.0 and adv.max() <= 1.0

    def test_zero_eps_is_identity(self, trained_small_cnn, eval_batch):
        images, labels = eval_batch
        adv = FGSM(trained_small_cnn, eps=0.0).attack(images[:8], labels[:8])
        np.testing.assert_allclose(adv, images[:8], atol=1e-12)

    def test_reduces_accuracy(self, trained_small_cnn, eval_batch):
        images, labels = eval_batch
        clean = clean_accuracy(trained_small_cnn, images, labels)
        adv = FGSM(trained_small_cnn, eps=EPS).attack(images, labels)
        attacked = clean_accuracy(trained_small_cnn, adv, labels)
        assert attacked <= clean

    def test_shape_preserved(self, trained_small_cnn, eval_batch):
        images, labels = eval_batch
        adv = FGSM(trained_small_cnn).attack(images[:4], labels[:4])
        assert adv.shape == images[:4].shape


class TestPGD:
    def test_respects_eps_ball_and_range(self, trained_small_cnn, eval_batch):
        images, labels = eval_batch
        adv = PGD(trained_small_cnn, eps=EPS, steps=5).attack(images, labels)
        assert (linf_distance(adv, images) <= EPS + 1e-10).all()
        assert adv.min() >= 0.0 and adv.max() <= 1.0

    def test_stronger_than_fgsm(self, trained_small_cnn, eval_batch):
        images, labels = eval_batch
        fgsm_acc = clean_accuracy(
            trained_small_cnn, FGSM(trained_small_cnn, eps=EPS).attack(images, labels), labels
        )
        pgd_acc = clean_accuracy(
            trained_small_cnn, PGD(trained_small_cnn, eps=EPS, steps=10).attack(images, labels), labels
        )
        assert pgd_acc <= fgsm_acc + 0.05

    def test_invalid_steps(self, trained_small_cnn):
        with pytest.raises(ValueError):
            PGD(trained_small_cnn, steps=0)

    def test_no_random_start_is_deterministic(self, trained_small_cnn, eval_batch):
        images, labels = eval_batch
        attack = PGD(trained_small_cnn, steps=3, random_start=False)
        a = attack.attack(images[:6], labels[:6])
        b = attack.attack(images[:6], labels[:6])
        np.testing.assert_allclose(a, b)

    def test_more_steps_do_not_increase_accuracy(self, trained_small_cnn, eval_batch):
        images, labels = eval_batch
        weak = PGD(trained_small_cnn, steps=1, random_start=False).attack(images, labels)
        strong = PGD(trained_small_cnn, steps=10, random_start=False).attack(images, labels)
        acc_weak = clean_accuracy(trained_small_cnn, weak, labels)
        acc_strong = clean_accuracy(trained_small_cnn, strong, labels)
        assert acc_strong <= acc_weak + 0.05

    def test_custom_loss_fn_used(self, trained_small_cnn, eval_batch):
        images, labels = eval_batch
        calls = []

        def loss_fn(model, x, y):
            calls.append(1)
            from repro.nn import functional as F

            return F.cross_entropy(model.forward(x), y)

        PGD(trained_small_cnn, steps=2, loss_fn=loss_fn).attack(images[:4], labels[:4])
        assert len(calls) == 2

    @settings(max_examples=5, deadline=None)
    @given(eps=st.floats(0.005, 0.08))
    def test_property_perturbation_bounded_by_eps(self, trained_small_cnn, tiny_dataset, eps):
        images, labels = tiny_dataset.x_test[:6], tiny_dataset.y_test[:6]
        adv = PGD(trained_small_cnn, eps=eps, alpha=eps / 3, steps=3).attack(images, labels)
        assert (linf_distance(adv, images) <= eps + 1e-10).all()


class TestCW:
    def test_returns_valid_images(self, trained_small_cnn, eval_batch):
        images, labels = eval_batch
        adv = CW(trained_small_cnn, steps=15).attack(images[:8], labels[:8])
        assert adv.shape == images[:8].shape
        assert adv.min() >= 0.0 and adv.max() <= 1.0

    def test_reduces_accuracy(self, trained_small_cnn, eval_batch):
        images, labels = eval_batch
        clean = clean_accuracy(trained_small_cnn, images[:16], labels[:16])
        adv = CW(trained_small_cnn, steps=30, c=5.0, lr=0.05).attack(images[:16], labels[:16])
        attacked = clean_accuracy(trained_small_cnn, adv, labels[:16])
        assert attacked <= clean

    def test_invalid_steps(self, trained_small_cnn):
        with pytest.raises(ValueError):
            CW(trained_small_cnn, steps=0)

    def test_flat_inputs(self):
        # The distance sums over every non-batch axis, so (N, features)
        # inputs of the registry's MLP attack like NCHW images.
        from repro.models import MLP

        model = MLP(input_dim=12, num_classes=3, hidden_dims=(4,))
        rng = np.random.default_rng(0)
        images, labels = rng.random((4, 12)), rng.integers(0, 3, 4)
        adv = CW(model, steps=3).attack(images, labels)
        assert adv.shape == (4, 12)
        assert adv.min() >= 0.0 and adv.max() <= 1.0

    def test_keeps_low_distortion_for_successful_examples(self, trained_small_cnn, eval_batch):
        images, labels = eval_batch
        adv = CW(trained_small_cnn, steps=30, c=5.0, lr=0.05).attack(images[:8], labels[:8])
        # The L2 objective keeps perturbations small relative to image norm.
        l2 = np.sqrt(((adv - images[:8]) ** 2).sum(axis=(1, 2, 3)))
        image_norm = np.sqrt((images[:8] ** 2).sum(axis=(1, 2, 3)))
        assert (l2 <= image_norm).all()


class TestFABAndNIFGSM:
    def test_fab_respects_eps(self, trained_small_cnn, eval_batch):
        images, labels = eval_batch
        adv = FAB(trained_small_cnn, eps=EPS, steps=3).attack(images[:8], labels[:8])
        assert (linf_distance(adv, images[:8]) <= EPS + 1e-10).all()

    def test_fab_invalid_steps(self, trained_small_cnn):
        with pytest.raises(ValueError):
            FAB(trained_small_cnn, steps=0)

    def test_nifgsm_respects_eps(self, trained_small_cnn, eval_batch):
        images, labels = eval_batch
        adv = NIFGSM(trained_small_cnn, eps=EPS, steps=5).attack(images, labels)
        assert (linf_distance(adv, images) <= EPS + 1e-10).all()

    def test_nifgsm_reduces_accuracy(self, trained_small_cnn, eval_batch):
        images, labels = eval_batch
        clean = clean_accuracy(trained_small_cnn, images, labels)
        adv = NIFGSM(trained_small_cnn, eps=EPS, steps=10).attack(images, labels)
        assert clean_accuracy(trained_small_cnn, adv, labels) <= clean

    def test_nifgsm_invalid_steps(self, trained_small_cnn):
        with pytest.raises(ValueError):
            NIFGSM(trained_small_cnn, steps=0)


class TestAdaptiveAttack:
    def test_respects_eps(self, trained_small_cnn, eval_batch):
        images, labels = eval_batch
        adv = AdaptiveIBAttack(trained_small_cnn, steps=3).attack(images[:8], labels[:8])
        assert (linf_distance(adv, images[:8]) <= EPS + 1e-10).all()

    def test_layer_restriction(self, trained_small_cnn, eval_batch):
        images, labels = eval_batch
        attack = AdaptiveIBAttack(trained_small_cnn, steps=2, layers=("fc1", "fc2"))
        adv = attack.attack(images[:6], labels[:6])
        assert adv.shape == images[:6].shape

    def test_ib_loss_fn_is_finite(self, trained_small_cnn, eval_batch):
        images, labels = eval_batch
        loss_fn = make_ib_loss_fn(alpha=1.0, beta=0.1, num_classes=10)
        value = loss_fn(trained_small_cnn, Tensor(images[:8]), labels[:8]).item()
        assert np.isfinite(value)

    def test_ib_loss_fn_skips_unknown_layers(self, trained_small_cnn, eval_batch):
        images, labels = eval_batch
        loss_fn = make_ib_loss_fn(alpha=1.0, beta=0.1, num_classes=10, layers=("does_not_exist",))
        value = loss_fn(trained_small_cnn, Tensor(images[:8]), labels[:8]).item()
        assert np.isfinite(value)

    def test_reduces_accuracy(self, trained_small_cnn, eval_batch):
        images, labels = eval_batch
        clean = clean_accuracy(trained_small_cnn, images, labels)
        adv = AdaptiveIBAttack(trained_small_cnn, steps=5).attack(images, labels)
        assert clean_accuracy(trained_small_cnn, adv, labels) <= clean


class TestParametersUntouched:
    """Attacks differentiate their input only and restore the model's state."""

    SUITE = {
        "pgd": dict(steps=2),
        "cw": dict(steps=2),
        "fgsm": {},
        "fab": dict(steps=2),
        "nifgsm": dict(steps=2),
    }

    @staticmethod
    def _prime(model):
        """Give half the parameters a sentinel gradient and freeze one."""
        params = model.parameters()
        for index, param in enumerate(params):
            param.grad = np.full(param.shape, float(index)) if index % 2 else None
        params[-1].requires_grad = False
        return [(p.grad, p.requires_grad) for p in params]

    @pytest.mark.parametrize("compiled", [False, True], ids=["eager", "compiled"])
    @pytest.mark.parametrize("name", sorted(SUITE))
    def test_attack_leaves_param_grads_and_flags(self, name, compiled, eval_batch):
        from repro.compile import compile_model
        from repro.models import SmallCNN

        images, labels = eval_batch[0][:6], eval_batch[1][:6]
        model = SmallCNN(num_classes=10, image_size=16, base_channels=4, hidden_dim=16, seed=0)
        attack = build_attack(name, model, **self.SUITE[name])
        if compiled:
            model.eval()
            attack.use_compiled(compile_model(model, images))
            model.train()
        before = self._prime(model)
        adversarial = attack.attack(images, labels)
        assert adversarial.shape == images.shape
        for param, (grad, flag) in zip(model.parameters(), before):
            assert param.grad is grad
            assert param.requires_grad is flag
        assert model.training

    def test_flags_restored_when_generate_raises(self, eval_batch):
        from repro.models import SmallCNN

        images, labels = eval_batch[0][:4], eval_batch[1][:4]
        model = SmallCNN(num_classes=10, image_size=16, base_channels=4, hidden_dim=16, seed=0)
        attack = PGD(model, steps=1)
        seen = []

        def failing(images, labels):
            seen.append([p.requires_grad for p in model.parameters()])
            raise RuntimeError("boom")

        attack._generate = failing
        before = self._prime(model)
        with pytest.raises(RuntimeError, match="boom"):
            attack.attack(images, labels)
        assert seen == [[False] * len(before)]
        for param, (grad, flag) in zip(model.parameters(), before):
            assert param.grad is grad
            assert param.requires_grad is flag
