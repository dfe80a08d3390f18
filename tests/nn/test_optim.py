"""Tests for optimizers and LR schedulers."""

from __future__ import annotations

import numpy as np
import pytest

from repro.nn import Parameter
from repro.nn.optim import SGD, Adam, CosineAnnealingLR, MultiStepLR, StepLR


def make_param(value=5.0):
    return Parameter(np.array([value]))


def quadratic_grad(param):
    # d/dx (x^2 / 2) = x
    param.grad = param.data.copy()


class TestSGD:
    def test_requires_nonempty_parameters(self):
        with pytest.raises(ValueError):
            SGD([], lr=0.1)

    def test_requires_positive_lr(self):
        with pytest.raises(ValueError):
            SGD([make_param()], lr=0.0)

    def test_plain_sgd_step(self):
        p = make_param(2.0)
        optimizer = SGD([p], lr=0.5, momentum=0.0)
        p.grad = np.array([1.0])
        optimizer.step()
        np.testing.assert_allclose(p.data, [1.5])

    def test_skips_parameters_without_grad(self):
        p = make_param(2.0)
        optimizer = SGD([p], lr=0.5)
        optimizer.step()
        np.testing.assert_allclose(p.data, [2.0])

    def test_zero_grad(self):
        p = make_param()
        p.grad = np.array([1.0])
        SGD([p], lr=0.1).zero_grad()
        assert p.grad is None

    def test_weight_decay_shrinks_weights(self):
        p = make_param(1.0)
        optimizer = SGD([p], lr=0.1, momentum=0.0, weight_decay=0.5)
        p.grad = np.array([0.0])
        optimizer.step()
        assert p.data[0] < 1.0

    def test_momentum_accelerates(self):
        p_plain, p_momentum = make_param(5.0), make_param(5.0)
        plain = SGD([p_plain], lr=0.01, momentum=0.0)
        momentum = SGD([p_momentum], lr=0.01, momentum=0.9)
        for _ in range(20):
            quadratic_grad(p_plain)
            quadratic_grad(p_momentum)
            plain.step()
            momentum.step()
        assert abs(p_momentum.data[0]) < abs(p_plain.data[0])

    def test_converges_on_quadratic(self):
        p = make_param(10.0)
        optimizer = SGD([p], lr=0.1, momentum=0.9)
        for _ in range(200):
            quadratic_grad(p)
            optimizer.step()
        assert abs(p.data[0]) < 1e-3

    def test_nesterov_variant_runs(self):
        p = make_param(3.0)
        optimizer = SGD([p], lr=0.1, momentum=0.9, nesterov=True)
        for _ in range(100):
            quadratic_grad(p)
            optimizer.step()
        assert abs(p.data[0]) < 0.5


class TestAdam:
    def test_converges_on_quadratic(self):
        p = make_param(4.0)
        optimizer = Adam([p], lr=0.1)
        for _ in range(300):
            quadratic_grad(p)
            optimizer.step()
        assert abs(p.data[0]) < 1e-2

    def test_weight_decay(self):
        p = make_param(1.0)
        optimizer = Adam([p], lr=0.01, weight_decay=1.0)
        p.grad = np.array([0.0])
        optimizer.step()
        assert p.data[0] < 1.0


class TestFusedSteps:
    """``step()`` is ``step_with_grads`` fed from ``param.grad``: the textbook
    update bit for bit, applied in place."""

    @staticmethod
    def _reference_step(optimizer, values, grads, state, t):
        """The textbook update, out of place, in the fused path's operation order."""
        out = []
        for index, (value, grad) in enumerate(zip(values, grads)):
            if grad is None:
                out.append(value)
                continue
            if optimizer.weight_decay:
                grad = grad + optimizer.weight_decay * value
            if isinstance(optimizer, Adam):
                m, v = state[index]
                m = m * optimizer.beta1 + (1.0 - optimizer.beta1) * grad
                v = v * optimizer.beta2 + (1.0 - optimizer.beta2) * grad * grad
                state[index] = (m, v)
                m_hat = m / (1.0 - optimizer.beta1 ** t)
                v_hat = v / (1.0 - optimizer.beta2 ** t)
                out.append(value - optimizer.lr * m_hat / (np.sqrt(v_hat) + optimizer.eps))
                continue
            if optimizer.momentum:
                state[index] = state[index] * optimizer.momentum + grad
                grad = (
                    grad + optimizer.momentum * state[index]
                    if optimizer.nesterov
                    else state[index]
                )
            out.append(value - optimizer.lr * grad)
        return out

    @pytest.mark.parametrize(
        "factory",
        [
            lambda ps: SGD(ps, lr=0.05, momentum=0.0),
            lambda ps: SGD(ps, lr=0.05, momentum=0.9),
            lambda ps: SGD(ps, lr=0.05, momentum=0.9, weight_decay=1e-2),
            lambda ps: SGD(ps, lr=0.05, momentum=0.9, weight_decay=1e-2, nesterov=True),
            lambda ps: Adam(ps, lr=1e-3),
            lambda ps: Adam(ps, lr=1e-3, weight_decay=1e-2),
        ],
        ids=["sgd", "sgd-momentum", "sgd-wd", "sgd-nesterov", "adam", "adam-wd"],
    )
    def test_bitwise_equal_to_eager_step(self, factory):
        rng = np.random.default_rng(0)
        values = [rng.normal(size=shape) for shape in ((4, 3), (5,), (2, 2, 3, 3))]
        eager_params = [Parameter(v.copy()) for v in values]
        fused_params = [Parameter(v.copy()) for v in values]
        eager_opt, fused_opt = factory(eager_params), factory(fused_params)
        storage = [p.data for p in eager_params + fused_params]
        state = [
            (np.zeros_like(v), np.zeros_like(v)) if isinstance(eager_opt, Adam) else np.zeros_like(v)
            for v in values
        ]
        for t in range(1, 8):
            grads = [rng.normal(size=v.shape) for v in values]
            grads[t % len(grads)] = None  # a parameter without a gradient is skipped
            for param, grad in zip(eager_params, grads):
                param.grad = None if grad is None else grad.copy()
            eager_opt.step()
            fused_opt.step_with_grads([None if g is None else g.copy() for g in grads])
            values = self._reference_step(eager_opt, values, grads, state, t)
            for eager, fused, expected in zip(eager_params, fused_params, values):
                np.testing.assert_array_equal(eager.data, expected)
                np.testing.assert_array_equal(fused.data, expected)
        # Neither path rebinds parameter storage.
        for param, original in zip(eager_params + fused_params, storage):
            assert param.data is original

    def test_none_grads_skipped(self):
        params = [make_param(1.0), make_param(2.0)]
        optimizer = SGD(params, lr=0.5, momentum=0.0)
        optimizer.step_with_grads([np.array([1.0]), None])
        np.testing.assert_allclose(params[0].data, [0.5])
        np.testing.assert_allclose(params[1].data, [2.0])

    def test_grad_count_mismatch_raises(self):
        optimizer = SGD([make_param()], lr=0.1)
        with pytest.raises(ValueError):
            optimizer.step_with_grads([])

    def test_zero_grad_set_to_none_false_reuses_storage(self):
        p = make_param(2.0)
        optimizer = SGD([p], lr=0.5)
        p.grad = np.array([3.0])
        storage = p.grad
        optimizer.zero_grad(set_to_none=False)
        assert p.grad is storage
        np.testing.assert_allclose(p.grad, [0.0])
        optimizer.zero_grad()
        assert p.grad is None


class TestSchedulers:
    def test_steplr_matches_paper_schedule(self):
        # Paper: lr 0.01, step_size 20, gamma 0.2.
        p = make_param()
        optimizer = SGD([p], lr=0.01)
        scheduler = StepLR(optimizer, step_size=20, gamma=0.2)
        lrs = []
        for _ in range(60):
            lrs.append(optimizer.lr)
            scheduler.step()
        assert lrs[0] == pytest.approx(0.01)
        assert lrs[20] == pytest.approx(0.002)
        assert lrs[40] == pytest.approx(0.0004)

    def test_multistep(self):
        p = make_param()
        optimizer = SGD([p], lr=1.0)
        scheduler = MultiStepLR(optimizer, milestones=[2, 4], gamma=0.1)
        values = []
        for _ in range(5):
            scheduler.step()
            values.append(optimizer.lr)
        assert values[-1] == pytest.approx(0.01)
        assert values[0] == pytest.approx(1.0)

    def test_cosine_annealing_monotone_decrease(self):
        p = make_param()
        optimizer = SGD([p], lr=1.0)
        scheduler = CosineAnnealingLR(optimizer, t_max=10, eta_min=0.0)
        previous = optimizer.lr
        for _ in range(10):
            scheduler.step()
            assert optimizer.lr <= previous + 1e-12
            previous = optimizer.lr
        assert optimizer.lr == pytest.approx(0.0, abs=1e-9)
