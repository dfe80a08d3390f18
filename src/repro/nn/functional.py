"""Differentiable neural-network operations built on :class:`repro.nn.Tensor`.

Implements the forward and backward passes of every operation used by the
IB-RAR pipeline: 2-D convolution (via im2col), max/average pooling, batch
normalization, dropout, softmax / log-softmax, cross-entropy,
Kullback-Leibler divergence (needed by TRADES and MART) and a handful of
helpers shared by the attack implementations.
"""

from __future__ import annotations

from typing import Optional, Tuple

import numpy as np

from .rng import new_dropout_mask, state_key as rng_state_key
from .tensor import Tensor, as_tensor, get_default_dtype, is_tracing

__all__ = [
    "linear",
    "conv2d",
    "max_pool2d",
    "avg_pool2d",
    "global_avg_pool2d",
    "batch_norm2d",
    "dropout",
    "relu",
    "softmax",
    "log_softmax",
    "cross_entropy",
    "nll_loss",
    "kl_div_with_logits",
    "mse_loss",
    "one_hot",
    "im2col",
    "col2im",
]


# --------------------------------------------------------------------------- #
# dense / activation ops
# --------------------------------------------------------------------------- #
def linear(x: Tensor, weight: Tensor, bias: Optional[Tensor] = None) -> Tensor:
    """Affine transform ``x @ weight.T + bias`` with ``x`` of shape (N, in)."""
    out = x @ weight.transpose()
    if bias is not None:
        out = out + bias
    return out


def relu(x: Tensor) -> Tensor:
    return x.relu()


def softmax(x: Tensor, axis: int = -1) -> Tensor:
    shifted = x - x.max(axis=axis, keepdims=True).detach()
    exp = shifted.exp()
    return exp / exp.sum(axis=axis, keepdims=True)


def log_softmax(x: Tensor, axis: int = -1) -> Tensor:
    shifted = x - x.max(axis=axis, keepdims=True).detach()
    return shifted - shifted.exp().sum(axis=axis, keepdims=True).log()


def one_hot(labels: np.ndarray, num_classes: int) -> np.ndarray:
    """Return a float one-hot matrix of shape ``(len(labels), num_classes)``."""
    labels = np.asarray(labels, dtype=np.int64).reshape(-1)
    out = np.zeros((labels.shape[0], num_classes), dtype=get_default_dtype())
    out[np.arange(labels.shape[0]), labels] = 1.0
    return out


def nll_loss(log_probs: Tensor, labels: np.ndarray, reduction: str = "mean") -> Tensor:
    """Negative log likelihood of integer ``labels`` under ``log_probs``."""
    labels = np.asarray(labels, dtype=np.int64).reshape(-1)
    n, num_classes = log_probs.shape
    mask = one_hot(labels, num_classes)
    picked = (log_probs * Tensor(mask)).sum(axis=1)
    loss = -picked
    if reduction == "mean":
        return loss.mean()
    if reduction == "sum":
        return loss.sum()
    return loss


def cross_entropy(logits: Tensor, labels: np.ndarray, reduction: str = "mean") -> Tensor:
    """Standard cross-entropy loss between raw ``logits`` and integer labels."""
    return nll_loss(log_softmax(logits, axis=1), labels, reduction=reduction)


def kl_div_with_logits(p_logits: Tensor, q_logits: Tensor, reduction: str = "mean") -> Tensor:
    """KL(p || q) where both arguments are raw logits.

    Used by TRADES (robust KL term) and MART (weighted KL term).  The gradient
    flows through both arguments, as in the reference implementations.
    """
    p_log = log_softmax(p_logits, axis=1)
    q_log = log_softmax(q_logits, axis=1)
    p = p_log.exp()
    per_example = (p * (p_log - q_log)).sum(axis=1)
    if reduction == "mean":
        return per_example.mean()
    if reduction == "sum":
        return per_example.sum()
    return per_example


def mse_loss(prediction: Tensor, target: Tensor, reduction: str = "mean") -> Tensor:
    diff = prediction - as_tensor(target)
    sq = diff * diff
    if reduction == "mean":
        return sq.mean()
    if reduction == "sum":
        return sq.sum()
    return sq


def dropout(
    x: Tensor,
    p: float,
    training: bool,
    state: Optional[np.ndarray] = None,
) -> Tensor:
    """Inverted dropout.  A no-op when ``training`` is false or ``p == 0``.

    The mask source ``state`` is a ``[seed, layer_id, step, seeded]`` uint64
    buffer (see :mod:`repro.nn.rng`): the mask is a pure function of that
    triple, so eager, compiled, and resumed-from-checkpoint runs draw
    bitwise the same mask.  Under capture this emits an ``rng_mask`` graph
    node.

    Omitting ``state`` in training mode raises: a silently unseeded mask is
    exactly the nondeterminism bug this scheme exists to prevent.
    """
    if not training or p <= 0.0:
        return x
    if state is None:
        raise ValueError(
            "dropout in training mode needs a mask source: pass `state` "
            "(counter-based, see repro.nn.rng.make_dropout_state)"
        )
    seed, layer_id, step = rng_state_key(state)
    mask = new_dropout_mask(x.shape, x.data.dtype, p, seed, layer_id, step)
    out_data = x.data * mask

    def backward(grad: np.ndarray) -> None:
        x._accumulate(grad * mask)

    meta = None
    if is_tracing():
        # Live reference: the plan re-reads seed/layer/step every replay,
        # so in-place step advancement reaches captured plans.
        meta = {"p": float(p), "state": state}
    return Tensor._make(out_data, (x,), backward, op="rng_mask", meta=meta)


# --------------------------------------------------------------------------- #
# im2col-based convolution
# --------------------------------------------------------------------------- #
def _conv_output_size(size: int, kernel: int, stride: int, padding: int) -> int:
    return (size + 2 * padding - kernel) // stride + 1


def im2col(x: np.ndarray, kernel: int, stride: int, padding: int) -> Tuple[np.ndarray, int, int]:
    """Rearrange (N, C, H, W) image patches into a matrix for convolution.

    Returns ``(cols, out_h, out_w)`` with ``cols`` of shape
    ``(N * out_h * out_w, C * kernel * kernel)``.
    """
    n, c, h, w = x.shape
    out_h = _conv_output_size(h, kernel, stride, padding)
    out_w = _conv_output_size(w, kernel, stride, padding)
    if padding > 0:
        x = np.pad(x, ((0, 0), (0, 0), (padding, padding), (padding, padding)))

    strides = x.strides
    shape = (n, c, out_h, out_w, kernel, kernel)
    view_strides = (
        strides[0],
        strides[1],
        strides[2] * stride,
        strides[3] * stride,
        strides[2],
        strides[3],
    )
    patches = np.lib.stride_tricks.as_strided(x, shape=shape, strides=view_strides)
    # (N, out_h, out_w, C, k, k) -> (N*out_h*out_w, C*k*k)
    cols = patches.transpose(0, 2, 3, 1, 4, 5).reshape(n * out_h * out_w, c * kernel * kernel)
    return np.ascontiguousarray(cols), out_h, out_w


def col2im(
    cols: np.ndarray,
    x_shape: Tuple[int, int, int, int],
    kernel: int,
    stride: int,
    padding: int,
    out_h: int,
    out_w: int,
) -> np.ndarray:
    """Inverse of :func:`im2col`: scatter column gradients back to image space."""
    n, c, h, w = x_shape
    padded = np.zeros((n, c, h + 2 * padding, w + 2 * padding), dtype=cols.dtype)
    cols_reshaped = cols.reshape(n, out_h, out_w, c, kernel, kernel).transpose(0, 3, 1, 2, 4, 5)
    for ki in range(kernel):
        for kj in range(kernel):
            padded[
                :,
                :,
                ki : ki + stride * out_h : stride,
                kj : kj + stride * out_w : stride,
            ] += cols_reshaped[:, :, :, :, ki, kj]
    if padding > 0:
        return padded[:, :, padding:-padding, padding:-padding]
    return padded


def conv2d(
    x: Tensor,
    weight: Tensor,
    bias: Optional[Tensor] = None,
    stride: int = 1,
    padding: int = 0,
) -> Tensor:
    """2-D convolution over an NCHW tensor.

    ``weight`` has shape ``(out_channels, in_channels, k, k)``.
    """
    n, c, h, w = x.shape
    out_channels, in_channels, kernel, kernel2 = weight.shape
    if kernel != kernel2:
        raise ValueError("only square kernels are supported")
    if in_channels != c:
        raise ValueError(f"channel mismatch: input has {c}, weight expects {in_channels}")

    cols, out_h, out_w = im2col(x.data, kernel, stride, padding)
    w_mat = weight.data.reshape(out_channels, -1)
    out = cols @ w_mat.T  # (N*out_h*out_w, out_channels)
    if bias is not None:
        out = out + bias.data
    out_data = out.reshape(n, out_h, out_w, out_channels).transpose(0, 3, 1, 2)

    def backward(grad: np.ndarray) -> None:
        grad_mat = grad.transpose(0, 2, 3, 1).reshape(-1, out_channels)
        if weight.requires_grad:
            grad_w = grad_mat.T @ cols
            weight._accumulate(grad_w.reshape(weight.shape))
        if bias is not None and bias.requires_grad:
            bias._accumulate(grad_mat.sum(axis=0))
        if x.requires_grad:
            grad_cols = grad_mat @ w_mat
            grad_x = col2im(grad_cols, (n, c, h, w), kernel, stride, padding, out_h, out_w)
            x._accumulate(grad_x)

    parents = (x, weight) if bias is None else (x, weight, bias)
    return Tensor._make(out_data, parents, backward, op="conv2d", meta={"stride": stride, "padding": padding})


# --------------------------------------------------------------------------- #
# pooling
# --------------------------------------------------------------------------- #
def max_pool2d(x: Tensor, kernel: int = 2, stride: Optional[int] = None) -> Tensor:
    """Max pooling with square windows over an NCHW tensor."""
    stride = stride or kernel
    n, c, h, w = x.shape
    out_h = (h - kernel) // stride + 1
    out_w = (w - kernel) // stride + 1

    strides = x.data.strides
    shape = (n, c, out_h, out_w, kernel, kernel)
    view_strides = (
        strides[0],
        strides[1],
        strides[2] * stride,
        strides[3] * stride,
        strides[2],
        strides[3],
    )
    patches = np.lib.stride_tricks.as_strided(x.data, shape=shape, strides=view_strides)
    flat = patches.reshape(n, c, out_h, out_w, kernel * kernel)
    argmax = flat.argmax(axis=-1)
    out_data = np.take_along_axis(flat, argmax[..., None], axis=-1)[..., 0]

    def backward(grad: np.ndarray) -> None:
        if not x.requires_grad:
            return
        grad_x = np.zeros_like(x.data)
        ki = argmax // kernel
        kj = argmax % kernel
        n_idx, c_idx, i_idx, j_idx = np.meshgrid(
            np.arange(n), np.arange(c), np.arange(out_h), np.arange(out_w), indexing="ij"
        )
        rows = i_idx * stride + ki
        cols_ = j_idx * stride + kj
        np.add.at(grad_x, (n_idx, c_idx, rows, cols_), grad)
        x._accumulate(grad_x)

    return Tensor._make(out_data, (x,), backward, op="max_pool2d", meta={"kernel": kernel, "stride": stride})


def avg_pool2d(x: Tensor, kernel: int = 2, stride: Optional[int] = None) -> Tensor:
    """Average pooling with square windows over an NCHW tensor."""
    stride = stride or kernel
    n, c, h, w = x.shape
    out_h = (h - kernel) // stride + 1
    out_w = (w - kernel) // stride + 1

    strides = x.data.strides
    shape = (n, c, out_h, out_w, kernel, kernel)
    view_strides = (
        strides[0],
        strides[1],
        strides[2] * stride,
        strides[3] * stride,
        strides[2],
        strides[3],
    )
    patches = np.lib.stride_tricks.as_strided(x.data, shape=shape, strides=view_strides)
    out_data = patches.mean(axis=(-1, -2))

    def backward(grad: np.ndarray) -> None:
        if not x.requires_grad:
            return
        grad_x = np.zeros_like(x.data)
        scaled = grad / (kernel * kernel)
        for ki in range(kernel):
            for kj in range(kernel):
                grad_x[
                    :,
                    :,
                    ki : ki + stride * out_h : stride,
                    kj : kj + stride * out_w : stride,
                ] += scaled
        x._accumulate(grad_x)

    return Tensor._make(out_data, (x,), backward, op="avg_pool2d", meta={"kernel": kernel, "stride": stride})


def global_avg_pool2d(x: Tensor) -> Tensor:
    """Average over the full spatial extent, returning shape (N, C)."""
    return x.mean(axis=(2, 3))


# --------------------------------------------------------------------------- #
# batch normalization
# --------------------------------------------------------------------------- #
def batch_norm2d(
    x: Tensor,
    gamma: Tensor,
    beta: Tensor,
    running_mean: np.ndarray,
    running_var: np.ndarray,
    training: bool,
    momentum: float = 0.1,
    eps: float = 1e-5,
) -> Tensor:
    """Batch normalization over the channel axis of an NCHW tensor.

    ``running_mean`` / ``running_var`` are updated in place while training,
    matching PyTorch semantics.
    """
    n, c, h, w = x.shape
    if training:
        mean = x.data.mean(axis=(0, 2, 3))
        var = x.data.var(axis=(0, 2, 3))
        running_mean *= 1.0 - momentum
        running_mean += momentum * mean
        running_var *= 1.0 - momentum
        running_var += momentum * var * (n * h * w) / max(n * h * w - 1, 1)
    else:
        mean = running_mean
        var = running_var

    # Running statistics are kept in float64; compute in the input's dtype so
    # a float32 forward stays float32 end to end.
    mean_r = np.asarray(mean, dtype=x.data.dtype).reshape(1, c, 1, 1)
    std = np.sqrt(np.asarray(var, dtype=x.data.dtype) + eps).reshape(1, c, 1, 1)
    x_hat = (x.data - mean_r) / std
    out_data = gamma.data.reshape(1, c, 1, 1) * x_hat + beta.data.reshape(1, c, 1, 1)

    count = n * h * w

    def backward(grad: np.ndarray) -> None:
        g = gamma.data.reshape(1, c, 1, 1)
        if gamma.requires_grad:
            gamma._accumulate((grad * x_hat).sum(axis=(0, 2, 3)))
        if beta.requires_grad:
            beta._accumulate(grad.sum(axis=(0, 2, 3)))
        if not x.requires_grad:
            return
        grad_xhat = grad * g
        if training:
            sum_grad = grad_xhat.sum(axis=(0, 2, 3), keepdims=True)
            sum_grad_xhat = (grad_xhat * x_hat).sum(axis=(0, 2, 3), keepdims=True)
            grad_x = (grad_xhat - sum_grad / count - x_hat * sum_grad_xhat / count) / std
        else:
            grad_x = grad_xhat / std
        x._accumulate(grad_x)

    meta = None
    if is_tracing():
        # Record the statistics the pass used.  In eval mode ``mean``/``var``
        # ARE the running buffers: plans that bind immediately (the only
        # supported flow) read them before anything mutates them, and
        # live-parameter plans re-read them on every replay.  Training-mode
        # capture additionally needs the buffers and momentum so the compiled
        # kernel can reproduce the in-place running-stat updates.
        meta = {
            "training": bool(training),
            "mean": mean,
            "var": var,
            "eps": eps,
            "momentum": momentum,
            "running_mean": running_mean,
            "running_var": running_var,
        }
    return Tensor._make(out_data, (x, gamma, beta), backward, op="batch_norm2d", meta=meta)
