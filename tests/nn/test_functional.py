"""Tests for differentiable ops: conv, pooling, batch-norm, losses."""

from __future__ import annotations

import numpy as np
import pytest

from repro.nn import Tensor
from repro.nn import functional as F


def numeric_gradient(fn, x: np.ndarray, eps: float = 1e-6) -> np.ndarray:
    grad = np.zeros_like(x, dtype=np.float64)
    flat = x.reshape(-1)
    for i in range(flat.size):
        original = flat[i]
        flat[i] = original + eps
        up = fn(x)
        flat[i] = original - eps
        down = fn(x)
        flat[i] = original
        grad.reshape(-1)[i] = (up - down) / (2 * eps)
    return grad


class TestSoftmaxAndLosses:
    def test_softmax_rows_sum_to_one(self):
        logits = Tensor(np.random.default_rng(0).normal(size=(4, 5)))
        probs = F.softmax(logits, axis=1).data
        np.testing.assert_allclose(probs.sum(axis=1), np.ones(4), atol=1e-10)
        assert (probs >= 0).all()

    def test_log_softmax_is_log_of_softmax(self):
        logits = Tensor(np.random.default_rng(1).normal(size=(3, 4)))
        np.testing.assert_allclose(
            F.log_softmax(logits).data, np.log(F.softmax(logits).data), atol=1e-10
        )

    def test_softmax_shift_invariance(self):
        logits = np.random.default_rng(2).normal(size=(2, 6))
        a = F.softmax(Tensor(logits)).data
        b = F.softmax(Tensor(logits + 100.0)).data
        np.testing.assert_allclose(a, b, atol=1e-9)

    def test_one_hot(self):
        out = F.one_hot(np.array([0, 2]), 3)
        np.testing.assert_allclose(out, [[1, 0, 0], [0, 0, 1]])

    def test_cross_entropy_matches_manual(self):
        logits = np.array([[2.0, 0.0, -1.0], [0.5, 0.5, 0.5]])
        labels = np.array([0, 2])
        expected = -np.log(np.exp(logits) / np.exp(logits).sum(axis=1, keepdims=True))
        expected = expected[np.arange(2), labels].mean()
        assert F.cross_entropy(Tensor(logits), labels).item() == pytest.approx(expected)

    def test_cross_entropy_gradient_is_probs_minus_onehot(self):
        logits = np.random.default_rng(3).normal(size=(4, 3))
        labels = np.array([0, 1, 2, 1])
        t = Tensor(logits.copy(), requires_grad=True)
        F.cross_entropy(t, labels).backward()
        probs = np.exp(logits) / np.exp(logits).sum(axis=1, keepdims=True)
        expected = (probs - F.one_hot(labels, 3)) / 4
        np.testing.assert_allclose(t.grad, expected, atol=1e-8)

    def test_cross_entropy_reductions(self):
        logits = Tensor(np.zeros((2, 2)))
        labels = np.array([0, 1])
        none = F.cross_entropy(logits, labels, reduction="none")
        assert none.shape == (2,)
        assert F.cross_entropy(logits, labels, reduction="sum").item() == pytest.approx(
            none.data.sum()
        )

    def test_kl_div_zero_for_identical_logits(self):
        logits = Tensor(np.random.default_rng(4).normal(size=(3, 5)))
        assert F.kl_div_with_logits(logits, logits).item() == pytest.approx(0.0, abs=1e-10)

    def test_kl_div_positive_for_different_logits(self):
        p = Tensor(np.array([[2.0, 0.0]]))
        q = Tensor(np.array([[0.0, 2.0]]))
        assert F.kl_div_with_logits(p, q).item() > 0

    def test_mse_loss(self):
        prediction = Tensor(np.array([1.0, 2.0]), requires_grad=True)
        target = np.array([0.0, 0.0])
        loss = F.mse_loss(prediction, Tensor(target))
        assert loss.item() == pytest.approx(2.5)
        loss.backward()
        np.testing.assert_allclose(prediction.grad, [1.0, 2.0])

    def test_nll_loss_reduction_sum(self):
        log_probs = Tensor(np.log(np.full((2, 2), 0.5)))
        labels = np.array([0, 1])
        assert F.nll_loss(log_probs, labels, reduction="sum").item() == pytest.approx(
            2 * np.log(2)
        )


class TestConv2d:
    def test_output_shape(self):
        x = Tensor(np.zeros((2, 3, 8, 8)))
        w = Tensor(np.zeros((5, 3, 3, 3)))
        out = F.conv2d(x, w, stride=1, padding=1)
        assert out.shape == (2, 5, 8, 8)

    def test_stride_and_padding_shapes(self):
        x = Tensor(np.zeros((1, 1, 7, 7)))
        w = Tensor(np.zeros((1, 1, 3, 3)))
        assert F.conv2d(x, w, stride=2, padding=0).shape == (1, 1, 3, 3)
        assert F.conv2d(x, w, stride=2, padding=1).shape == (1, 1, 4, 4)

    def test_identity_kernel(self):
        rng = np.random.default_rng(0)
        x = rng.normal(size=(1, 1, 5, 5))
        kernel = np.zeros((1, 1, 3, 3))
        kernel[0, 0, 1, 1] = 1.0
        out = F.conv2d(Tensor(x), Tensor(kernel), padding=1)
        np.testing.assert_allclose(out.data, x, atol=1e-12)

    def test_matches_naive_convolution(self):
        rng = np.random.default_rng(1)
        x = rng.normal(size=(1, 2, 5, 5))
        w = rng.normal(size=(3, 2, 3, 3))
        out = F.conv2d(Tensor(x), Tensor(w), padding=1).data
        padded = np.pad(x, ((0, 0), (0, 0), (1, 1), (1, 1)))
        naive = np.zeros((1, 3, 5, 5))
        for oc in range(3):
            for i in range(5):
                for j in range(5):
                    naive[0, oc, i, j] = (padded[0, :, i : i + 3, j : j + 3] * w[oc]).sum()
        np.testing.assert_allclose(out, naive, atol=1e-10)

    def test_input_gradient_matches_numeric(self):
        rng = np.random.default_rng(2)
        x = rng.normal(size=(1, 2, 5, 5))
        w = rng.normal(size=(2, 2, 3, 3))
        b = rng.normal(size=2)

        def loss_fn(arr):
            return float(F.conv2d(Tensor(arr), Tensor(w), Tensor(b), padding=1).data.sum())

        t = Tensor(x.copy(), requires_grad=True)
        F.conv2d(t, Tensor(w), Tensor(b), padding=1).sum().backward()
        np.testing.assert_allclose(t.grad, numeric_gradient(loss_fn, x.copy()), atol=1e-5)

    def test_weight_and_bias_gradient_match_numeric(self):
        rng = np.random.default_rng(3)
        x = rng.normal(size=(2, 1, 4, 4))
        w = rng.normal(size=(2, 1, 3, 3))
        b = rng.normal(size=2)
        tw = Tensor(w.copy(), requires_grad=True)
        tb = Tensor(b.copy(), requires_grad=True)
        F.conv2d(Tensor(x), tw, tb, stride=1, padding=0).sum().backward()

        def loss_w(arr):
            return float(F.conv2d(Tensor(x), Tensor(arr), Tensor(b)).data.sum())

        def loss_b(arr):
            return float(F.conv2d(Tensor(x), Tensor(w), Tensor(arr)).data.sum())

        np.testing.assert_allclose(tw.grad, numeric_gradient(loss_w, w.copy()), atol=1e-5)
        np.testing.assert_allclose(tb.grad, numeric_gradient(loss_b, b.copy()), atol=1e-5)

    def test_channel_mismatch_raises(self):
        with pytest.raises(ValueError):
            F.conv2d(Tensor(np.zeros((1, 3, 4, 4))), Tensor(np.zeros((1, 2, 3, 3))))

    def test_rectangular_kernel_raises(self):
        with pytest.raises(ValueError):
            F.conv2d(Tensor(np.zeros((1, 1, 4, 4))), Tensor(np.zeros((1, 1, 3, 2))))

    @pytest.mark.parametrize(
        "stride, padding",
        [(1, 1), (1, 0), (2, 1), (1, 3)],
        ids=["gather", "gather-unpadded", "scatter-strided", "scatter-overpadded"],
    )
    def test_columns_input_grad_adjoint(self, stride, padding):
        # The input gradient is the adjoint of the columns map through the
        # kernel: <columns(x), g @ W> == <x, input_grad(g)>, on both paths.
        rng = np.random.default_rng(4)
        x = rng.normal(size=(2, 3, 6, 6))
        w = rng.normal(size=(4, 3, 3, 3))
        cols = F.conv2d_columns(x, kernel=3, stride=stride, padding=padding)
        g = rng.normal(size=(cols.shape[0], 4))
        c = g @ w.transpose(0, 2, 3, 1).reshape(4, -1)
        lhs = float((cols * c).sum())
        back = F.conv2d_input_grad(g, w, x.shape, stride=stride, padding=padding)
        rhs = float((x * back).sum())
        assert F.conv2d_gathers(3, stride, padding) == (stride == 1 and padding <= 2)
        assert lhs == pytest.approx(rhs, rel=1e-10)


class TestPooling:
    def test_max_pool_values(self):
        x = np.arange(16.0).reshape(1, 1, 4, 4)
        out = F.max_pool2d(Tensor(x), 2).data
        np.testing.assert_allclose(out[0, 0], [[5, 7], [13, 15]])

    def test_max_pool_gradient_goes_to_max(self):
        x = np.arange(16.0).reshape(1, 1, 4, 4)
        t = Tensor(x, requires_grad=True)
        F.max_pool2d(t, 2).sum().backward()
        expected = np.zeros((4, 4))
        expected[1, 1] = expected[1, 3] = expected[3, 1] = expected[3, 3] = 1.0
        np.testing.assert_allclose(t.grad[0, 0], expected)

    def test_avg_pool_values_and_grad(self):
        x = np.ones((1, 1, 4, 4))
        t = Tensor(x, requires_grad=True)
        out = F.avg_pool2d(t, 2)
        np.testing.assert_allclose(out.data, np.ones((1, 1, 2, 2)))
        out.sum().backward()
        np.testing.assert_allclose(t.grad, np.full((1, 1, 4, 4), 0.25))

    def test_global_avg_pool(self):
        x = np.arange(8.0).reshape(1, 2, 2, 2)
        out = F.global_avg_pool2d(Tensor(x)).data
        np.testing.assert_allclose(out, [[1.5, 5.5]])

    def test_max_pool_stride(self):
        x = Tensor(np.zeros((1, 1, 6, 6)))
        assert F.max_pool2d(x, kernel=2, stride=3).shape == (1, 1, 2, 2)

    @pytest.mark.parametrize(
        "kernel, stride, size",
        [(2, 2, 8), (2, 2, 7), (3, 2, 8), (3, 2, 7), (2, 1, 6), (3, 3, 8)],
        ids=["2s2", "2s2-odd", "3s2-overlap", "3s2-overlap-odd", "2s1-overlap", "3s3-remainder"],
    )
    def test_max_pool_grad_matches_window_reference(self, kernel, stride, size):
        # Few distinct values tie inside most windows; integer gradients
        # make every sum exact, so overlapping windows compare bitwise
        # whatever the order their contributions are added in.
        rng = np.random.default_rng(kernel * 10 + stride + size)
        x = rng.integers(0, 3, size=(2, 3, size, size)).astype(np.float64)
        t = Tensor(x, requires_grad=True)
        out = F.max_pool2d(t, kernel, stride)
        grad = rng.integers(-4, 5, size=out.shape).astype(np.float64)
        out.backward(grad)

        expected = np.zeros_like(x)
        for n, c, i, j in np.ndindex(*grad.shape):
            window = x[n, c, i * stride : i * stride + kernel, j * stride : j * stride + kernel]
            r, q = np.unravel_index(np.argmax(window), window.shape)  # first maximum
            expected[n, c, i * stride + r, j * stride + q] += grad[n, c, i, j]
        np.testing.assert_array_equal(t.grad, expected)
        assert t.grad.flags.c_contiguous
        kernel_grad = F.max_pool2d_grad(grad, x, out.data, kernel, stride, np.zeros_like(x))
        np.testing.assert_array_equal(kernel_grad, expected)


class TestBatchNorm:
    def test_training_normalizes_batch(self):
        rng = np.random.default_rng(0)
        x = rng.normal(3.0, 2.0, size=(8, 4, 5, 5))
        gamma = Tensor(np.ones(4), requires_grad=True)
        beta = Tensor(np.zeros(4), requires_grad=True)
        running_mean = np.zeros(4)
        running_var = np.ones(4)
        out = F.batch_norm2d(Tensor(x), gamma, beta, running_mean, running_var, training=True)
        np.testing.assert_allclose(out.data.mean(axis=(0, 2, 3)), np.zeros(4), atol=1e-8)
        np.testing.assert_allclose(out.data.var(axis=(0, 2, 3)), np.ones(4), atol=1e-3)

    def test_running_stats_updated(self):
        x = np.full((4, 2, 3, 3), 5.0)
        running_mean = np.zeros(2)
        running_var = np.ones(2)
        F.batch_norm2d(
            Tensor(x), Tensor(np.ones(2)), Tensor(np.zeros(2)), running_mean, running_var, training=True
        )
        assert (running_mean > 0).all()

    def test_eval_uses_running_stats(self):
        x = np.full((2, 1, 2, 2), 4.0)
        running_mean = np.array([4.0])
        running_var = np.array([1.0])
        out = F.batch_norm2d(
            Tensor(x), Tensor(np.ones(1)), Tensor(np.zeros(1)), running_mean, running_var, training=False
        )
        np.testing.assert_allclose(out.data, np.zeros_like(x), atol=1e-6)

    @staticmethod
    def _inputs(rng, c=3):
        # An NHWC-strided view, like a convolution's output.
        x = rng.normal(1.0, 2.0, size=(4, 5, 6, c)).transpose(0, 3, 1, 2)
        gamma, beta = rng.uniform(0.5, 1.5, c), rng.normal(size=c)
        return x, gamma, beta, rng.normal(size=c), rng.uniform(0.5, 2.0, c)

    def test_training_kernels_match_closed_form(self):
        rng = np.random.default_rng(11)
        x, gamma, beta, running_mean, running_var = self._inputs(rng)
        start_mean, start_var = running_mean.copy(), running_var.copy()
        saved = F.batch_norm2d_saved(x.shape, x.dtype, training=True)
        out = F.batch_norm2d_values(
            x, gamma, beta, running_mean, running_var, True, 0.1, 1e-5, saved=saved
        )
        m = x.size // x.shape[1]
        mean, var = x.mean(axis=(0, 2, 3)), x.var(axis=(0, 2, 3))
        std = np.sqrt(var + 1e-5)
        x_hat = (x - mean[:, None, None]) / std[:, None, None]
        expected = gamma[:, None, None] * x_hat + beta[:, None, None]
        np.testing.assert_allclose(out, expected, rtol=0, atol=1e-12)
        assert out.flags.c_contiguous
        np.testing.assert_allclose(running_mean, 0.9 * start_mean + 0.1 * mean, rtol=0, atol=1e-12)
        np.testing.assert_allclose(
            running_var, 0.9 * start_var + 0.1 * var * m / (m - 1), rtol=0, atol=1e-12
        )

        grad = rng.normal(size=x.shape)
        grads = {name: np.empty(shape) for name, shape in
                 (("grad_x", x.shape), ("grad_gamma", gamma.shape), ("grad_beta", beta.shape))}
        F.batch_norm2d_grad(grad, x, gamma, saved, True, **grads)
        sum_g = grad.sum(axis=(0, 2, 3))
        sum_gx = (grad * x_hat).sum(axis=(0, 2, 3))
        input_grad = (gamma / std / m)[:, None, None] * (
            m * grad - sum_g[:, None, None] - x_hat * sum_gx[:, None, None]
        )
        np.testing.assert_allclose(grads["grad_x"], input_grad, rtol=0, atol=1e-12)
        np.testing.assert_allclose(grads["grad_gamma"], sum_gx, rtol=0, atol=1e-12)
        np.testing.assert_allclose(grads["grad_beta"], sum_g, rtol=0, atol=1e-12)

    def test_eval_kernels_match_closed_form(self):
        rng = np.random.default_rng(12)
        x, gamma, beta, running_mean, running_var = self._inputs(rng)
        saved = F.batch_norm2d_saved(x.shape, x.dtype, training=False)
        out = F.batch_norm2d_values(
            x, gamma, beta, running_mean, running_var, False, 0.1, 1e-5, saved=saved
        )
        std = np.sqrt(running_var + 1e-5)
        x_hat = (x - running_mean[:, None, None]) / std[:, None, None]
        expected = gamma[:, None, None] * x_hat + beta[:, None, None]
        np.testing.assert_allclose(out, expected, rtol=0, atol=1e-12)
        assert out.flags.c_contiguous

        grad = rng.normal(size=x.shape)
        grads = {name: np.empty(shape) for name, shape in
                 (("grad_x", x.shape), ("grad_gamma", gamma.shape), ("grad_beta", beta.shape))}
        F.batch_norm2d_grad(grad, x, gamma, saved, False, **grads)
        np.testing.assert_allclose(
            grads["grad_x"], grad * (gamma / std)[:, None, None], rtol=0, atol=1e-12
        )
        np.testing.assert_allclose(
            grads["grad_gamma"], (grad * x_hat).sum(axis=(0, 2, 3)), rtol=0, atol=1e-12
        )
        np.testing.assert_allclose(grads["grad_beta"], grad.sum(axis=(0, 2, 3)), rtol=0, atol=1e-12)

    def test_input_gradient_matches_numeric(self):
        rng = np.random.default_rng(5)
        x = rng.normal(size=(3, 2, 2, 2))
        gamma = np.array([1.5, 0.5])
        beta = np.array([0.1, -0.2])

        def loss_fn(arr):
            out = F.batch_norm2d(
                Tensor(arr), Tensor(gamma), Tensor(beta), np.zeros(2), np.ones(2), training=True
            )
            return float((out.data ** 2).sum())

        t = Tensor(x.copy(), requires_grad=True)
        out = F.batch_norm2d(t, Tensor(gamma), Tensor(beta), np.zeros(2), np.ones(2), training=True)
        (out * out).sum().backward()
        np.testing.assert_allclose(t.grad, numeric_gradient(loss_fn, x.copy()), atol=1e-4)


class TestDropout:
    def test_eval_is_identity(self):
        x = Tensor(np.ones((4, 4)))
        out = F.dropout(x, p=0.5, training=False)
        np.testing.assert_allclose(out.data, x.data)

    def test_zero_probability_is_identity(self):
        x = Tensor(np.ones((3, 3)))
        np.testing.assert_allclose(F.dropout(x, p=0.0, training=True).data, x.data)


class TestCounterDropout:
    """The counter-based scheme: masks are pure functions of (seed, layer, step)."""

    def test_no_mask_source_in_training_raises(self):
        x = Tensor(np.ones((3, 3)))
        with pytest.raises(ValueError, match="mask source"):
            F.dropout(x, p=0.5, training=True)

    def test_mask_is_deterministic_per_state(self):
        from repro.nn.rng import make_dropout_state

        x = Tensor(np.ones((50, 50)))
        state = make_dropout_state(seed=3, layer_id=1)
        first = F.dropout(x, p=0.5, training=True, state=state).data
        second = F.dropout(x, p=0.5, training=True, state=state).data
        np.testing.assert_array_equal(first, second)  # same step -> same mask

    def test_step_and_layer_vary_the_mask(self):
        from repro.nn.rng import STATE_STEP, make_dropout_state

        x = Tensor(np.ones((50, 50)))
        state = make_dropout_state(seed=3, layer_id=1)
        base = F.dropout(x, p=0.5, training=True, state=state).data
        other_layer = make_dropout_state(seed=3, layer_id=2)
        assert not np.array_equal(
            base, F.dropout(x, p=0.5, training=True, state=other_layer).data
        )
        state[STATE_STEP] += np.uint64(1)
        assert not np.array_equal(
            base, F.dropout(x, p=0.5, training=True, state=state).data
        )

    def test_zeroes_and_scales(self):
        from repro.nn.rng import make_dropout_state

        x = Tensor(np.ones((100, 100)))
        state = make_dropout_state(seed=0, layer_id=1)
        out = F.dropout(x, p=0.5, training=True, state=state).data
        zero_fraction = (out == 0).mean()
        assert 0.4 < zero_fraction < 0.6
        nonzero = out[out != 0]
        np.testing.assert_allclose(nonzero, np.full_like(nonzero, 2.0))

    def test_backward_is_the_mask(self):
        from repro.nn.rng import make_dropout_state

        x = Tensor(np.ones((20, 20)), requires_grad=True)
        state = make_dropout_state(seed=4, layer_id=1)
        out = F.dropout(x, p=0.5, training=True, state=state)
        out.sum().backward()
        np.testing.assert_array_equal(x.grad, out.data)  # grad == mask (x == 1)
