"""Differentiable neural-network operations built on :class:`repro.nn.Tensor`.

Implements the forward and backward passes of every operation used by the
IB-RAR pipeline: 2-D convolution, max/average pooling, batch normalization,
dropout, softmax / log-softmax, cross-entropy, Kullback-Leibler divergence
(needed by TRADES and MART) and a handful of helpers shared by the attack
implementations.

Convolution, pooling and batch normalization are defined once, as kernels
that write into ``out=`` buffers (``conv2d_*``, ``*_pool2d_values``,
``*_pool2d_grad``, ``batch_norm2d_*``).  The autograd ops below call them
with fresh C-order arrays and compiled plans
(:mod:`repro.compile.executor`) with pooled ones, so eager and compiled
round identically.
"""

from __future__ import annotations

from typing import Callable, Dict, Mapping, Optional, Tuple

import numpy as np
from numpy.lib.stride_tricks import as_strided

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
    "conv2d_gathers",
    "conv2d_buffers",
    "conv2d_columns",
    "conv2d_weight_grad",
    "conv2d_input_grad",
    "max_pool2d_values",
    "avg_pool2d_values",
    "avg_pool2d_grad",
    "max_pool2d_grad",
    "batch_norm2d_saved",
    "batch_norm2d_buffers",
    "batch_norm2d_values",
    "batch_norm2d_grad",
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
# convolution: one kernel set for eager autograd and compiled plans, which
# pass fresh and pooled ``out=`` buffers respectively and so round alike.
# Columns are (k, k, C)-ordered rows gathered from a zero-bordered NHWC copy
# of the input: k runs of k*C contiguous values each.
# --------------------------------------------------------------------------- #
def _conv_output_size(size: int, kernel: int, stride: int, padding: int) -> int:
    return (size + 2 * padding - kernel) // stride + 1


def conv2d_gathers(kernel: int, stride: int, padding: int) -> bool:
    """Whether the input gradient is a gather + GEMM: for stride 1 it is the
    output gradient, zero-padded by ``k - 1 - p``, correlated with the
    flipped kernel.  Strided convolutions, and paddings past ``k - 1``
    (a negative pad), scatter their column gradients instead."""
    return stride == 1 and padding <= kernel - 1


def conv2d_buffers(
    x_shape: Tuple[int, int, int, int],
    weight_shape: Tuple[int, int, int, int],
    stride: int,
    padding: int,
) -> Dict[str, Tuple[int, ...]]:
    """Shapes of the scratch the conv kernels take, by name.

    ``xpad`` and ``cols`` for :func:`conv2d_columns` of the input, in the
    forward and again in the weight-gradient step, which rebuilds the
    columns instead of keeping the forward's; ``grad_mat`` (the NHWC output
    gradient, read by every gradient) and ``gw_mat`` for
    :func:`conv2d_weight_grad`; ``w_mat``, ``gpad``, ``gcols`` and, when
    :func:`conv2d_gathers`, ``out`` for :func:`conv2d_input_grad`, which
    runs after the weight gradient and may reuse its ``xpad`` and ``cols``
    bytes.
    """
    n, c, h, w = x_shape
    oc, _, kernel, _ = weight_shape
    out_h = _conv_output_size(h, kernel, stride, padding)
    out_w = _conv_output_size(w, kernel, stride, padding)
    rows, width = n * out_h * out_w, kernel * kernel * c
    shapes = {
        "xpad": (n, h + 2 * padding, w + 2 * padding, c),
        "cols": (rows, width),
        "grad_mat": (rows, oc),
        "gw_mat": (oc, width),
        "w_mat": (oc * width,),
    }
    if conv2d_gathers(kernel, stride, padding):
        pad = kernel - 1 - padding  # the output gradient's zero border
        shapes["gpad"] = (n, out_h + 2 * pad, out_w + 2 * pad, oc)
        shapes["gcols"] = (n * h * w, kernel * kernel * oc)
        shapes["out"] = (n * h * w, c)
    else:
        shapes["gpad"] = shapes["xpad"]
        shapes["gcols"] = shapes["cols"]
    return shapes


def conv2d_columns(
    x: np.ndarray,
    kernel: int,
    stride: int,
    padding: int,
    out: Optional[np.ndarray] = None,
    xpad: Optional[np.ndarray] = None,
) -> np.ndarray:
    """im2col of an NCHW array: ``(N * out_h * out_w, k * k * C)`` columns.

    ``x`` may have any strides; it is copied into the interior of ``xpad``,
    an ``(N, H + 2p, W + 2p, C)`` buffer whose border this function zeroes.
    """
    n, c, h, w = x.shape
    out_h = _conv_output_size(h, kernel, stride, padding)
    out_w = _conv_output_size(w, kernel, stride, padding)
    if xpad is None:
        xpad = np.empty((n, h + 2 * padding, w + 2 * padding, c), dtype=x.dtype)
    if out is None:
        out = np.empty((n * out_h * out_w, kernel * kernel * c), dtype=x.dtype)
    if padding:  # zero the border; the interior is overwritten below
        xpad[:, :padding] = xpad[:, padding + h :] = 0
        xpad[:, :, :padding] = xpad[:, :, padding + w :] = 0
    xpad[:, padding : padding + h, padding : padding + w] = x.transpose(0, 2, 3, 1)
    s0, s1, s2, s3 = xpad.strides
    patches = as_strided(
        xpad,
        shape=(n, out_h, out_w, kernel, kernel, c),
        strides=(s0, s1 * stride, s2 * stride, s1, s2, s3),
    )
    out.reshape(n, out_h, out_w, kernel, kernel, c)[...] = patches
    return out


def conv2d_weight_grad(
    grad_mat: np.ndarray,
    cols: np.ndarray,
    kernel: int,
    out: Optional[np.ndarray] = None,
    gw_mat: Optional[np.ndarray] = None,
) -> np.ndarray:
    """``(OC, C, k, k)`` weight gradient: ``grad_mat.T @ cols``, reordered.

    ``grad_mat`` is the ``(N * out_h * out_w, OC)`` output gradient and
    ``cols`` the forward's :func:`conv2d_columns`; ``gw_mat`` holds the
    ``(OC, k * k * C)`` product.
    """
    oc, width = grad_mat.shape[1], cols.shape[1]
    c = width // (kernel * kernel)
    if gw_mat is None:
        gw_mat = np.empty((oc, width), dtype=grad_mat.dtype)
    if out is None:
        out = np.empty((oc, c, kernel, kernel), dtype=grad_mat.dtype)
    np.matmul(grad_mat.T, cols, out=gw_mat)
    np.copyto(out, gw_mat.reshape(oc, kernel, kernel, c).transpose(0, 3, 1, 2))
    return out


def conv2d_input_grad(
    grad_mat: np.ndarray,
    weight: np.ndarray,
    x_shape: Tuple[int, int, int, int],
    stride: int,
    padding: int,
    scratch: Optional[Mapping[str, np.ndarray]] = None,
) -> np.ndarray:
    """Input gradient, as an NCHW view of an NHWC result, from the
    ``(N * out_h * out_w, OC)`` output gradient ``grad_mat``; ``scratch``
    maps :func:`conv2d_buffers` names to buffers (fresh when omitted).
    """
    n, c, h, w = x_shape
    oc, _, kernel, _ = weight.shape
    out_h = _conv_output_size(h, kernel, stride, padding)
    out_w = _conv_output_size(w, kernel, stride, padding)
    if scratch is None:
        shapes = conv2d_buffers(x_shape, weight.shape, stride, padding)
        scratch = {
            name: np.empty(shapes[name], dtype=grad_mat.dtype)
            for name in ("w_mat", "gpad", "gcols", "out")
            if name in shapes
        }
    w_mat, gpad, gcols = scratch["w_mat"], scratch["gpad"], scratch["gcols"]
    if conv2d_gathers(kernel, stride, padding):
        flipped = w_mat.reshape(c, kernel * kernel * oc)
        np.copyto(
            flipped.reshape(c, kernel, kernel, oc),
            weight[:, :, ::-1, ::-1].transpose(1, 2, 3, 0),
        )
        grad_nchw = grad_mat.reshape(n, out_h, out_w, oc).transpose(0, 3, 1, 2)
        conv2d_columns(grad_nchw, kernel, 1, kernel - 1 - padding, out=gcols, xpad=gpad)
        out = scratch["out"]
        np.matmul(gcols, flipped.T, out=out)
        return out.reshape(n, h, w, c).transpose(0, 3, 1, 2)
    w_kkc = w_mat.reshape(oc, kernel * kernel * c)
    np.copyto(w_kkc.reshape(oc, kernel, kernel, c), weight.transpose(0, 2, 3, 1))
    np.matmul(grad_mat, w_kkc, out=gcols)
    columns = gcols.reshape(n, out_h, out_w, kernel, kernel, c)
    gpad.fill(0)
    for ki in range(kernel):
        for kj in range(kernel):
            target = gpad[:, ki : ki + stride * out_h : stride, kj : kj + stride * out_w : stride]
            np.add(target, columns[:, :, :, ki, kj], out=target)
    return gpad[:, padding : padding + h, padding : padding + w].transpose(0, 3, 1, 2)


def conv2d(
    x: Tensor,
    weight: Tensor,
    bias: Optional[Tensor] = None,
    stride: int = 1,
    padding: int = 0,
) -> Tensor:
    """2-D convolution over an NCHW tensor.

    ``weight`` has shape ``(out_channels, in_channels, k, k)``.  Every
    gradient it returns is C-contiguous NCHW, like a plan's buffers.
    """
    n, c, h, w = x.shape
    out_channels, in_channels, kernel, kernel2 = weight.shape
    if kernel != kernel2:
        raise ValueError("only square kernels are supported")
    if in_channels != c:
        raise ValueError(f"channel mismatch: input has {c}, weight expects {in_channels}")

    out_h = _conv_output_size(h, kernel, stride, padding)
    out_w = _conv_output_size(w, kernel, stride, padding)
    w_mat = np.ascontiguousarray(weight.data.transpose(0, 2, 3, 1)).reshape(out_channels, -1)
    out = conv2d_columns(x.data, kernel, stride, padding) @ w_mat.T  # (N*out_h*out_w, OC)
    if bias is not None:
        out += bias.data
    out_data = out.reshape(n, out_h, out_w, out_channels).transpose(0, 3, 1, 2)

    def backward(grad: np.ndarray) -> None:
        grad_mat = grad.transpose(0, 2, 3, 1).reshape(-1, out_channels)
        if weight.requires_grad:
            # The graph keeps the input, not its k*k-times-larger columns:
            # the weight gradient rebuilds them, and they die with the
            # product.  This assumes x.data is not mutated between forward
            # and backward, an assumption the max-pool and eval batch-norm
            # backward already make.
            cols = conv2d_columns(x.data, kernel, stride, padding)
            weight._accumulate(conv2d_weight_grad(grad_mat, cols, kernel))
            del cols
        if bias is not None and bias.requires_grad:
            bias._accumulate(grad_mat.sum(axis=0))
        if x.requires_grad:
            grad_x = conv2d_input_grad(grad_mat, weight.data, x.shape, stride, padding)
            x._accumulate(np.ascontiguousarray(grad_x))

    parents = (x, weight) if bias is None else (x, weight, bias)
    return Tensor._make(out_data, parents, backward, op="conv2d", meta={"stride": stride, "padding": padding})


# --------------------------------------------------------------------------- #
# pooling: forward and backward kernels shared with compiled plans
# --------------------------------------------------------------------------- #
def _pool_windows(x: np.ndarray, kernel: int, stride: int, out_h: int, out_w: int):
    """The ``k * k`` strided ``(N, C, out_h, out_w)`` views, one per window offset."""
    return [
        x[:, :, ki : ki + stride * out_h : stride, kj : kj + stride * out_w : stride]
        for ki in range(kernel)
        for kj in range(kernel)
    ]


def _pool_patches(x: np.ndarray, kernel: int, stride: int) -> np.ndarray:
    """``(N, C, out_h, out_w, k, k)`` sliding-window view of an NCHW array."""
    n, c, h, w = x.shape
    s0, s1, s2, s3 = x.strides
    return as_strided(
        x,
        shape=(n, c, (h - kernel) // stride + 1, (w - kernel) // stride + 1, kernel, kernel),
        strides=(s0, s1, s2 * stride, s3 * stride, s2, s3),
    )


def max_pool2d_values(
    x: np.ndarray, kernel: int, stride: int, out: Optional[np.ndarray] = None
) -> np.ndarray:
    """Window maxima of an NCHW array: a running maximum over the window views."""
    if out is None:
        out = np.empty(_pool_patches(x, kernel, stride).shape[:4], dtype=x.dtype)
    windows = _pool_windows(x, kernel, stride, *out.shape[2:])
    np.copyto(out, windows[0])
    for window in windows[1:]:
        np.maximum(out, window, out=out)
    return out


def avg_pool2d_values(
    x: np.ndarray, kernel: int, stride: int, out: Optional[np.ndarray] = None
) -> np.ndarray:
    """Window means of an NCHW array."""
    return np.mean(_pool_patches(x, kernel, stride), axis=(-1, -2), out=out)


def avg_pool2d_grad(
    grad: np.ndarray,
    kernel: int,
    stride: int,
    grad_x: np.ndarray,
    scratch: Optional[np.ndarray] = None,
) -> np.ndarray:
    """Add ``grad / k^2`` into every window of ``grad_x``."""
    scaled = np.divide(grad, kernel * kernel, out=scratch)
    for target in _pool_windows(grad_x, kernel, stride, *grad.shape[2:]):
        np.add(target, scaled, out=target)
    return grad_x


def max_pool2d_grad(
    grad: np.ndarray,
    x: np.ndarray,
    out: np.ndarray,
    kernel: int,
    stride: int,
    grad_x: np.ndarray,
    scratch: Optional[Tuple[np.ndarray, np.ndarray, np.ndarray]] = None,
) -> np.ndarray:
    """Add each window's gradient into ``grad_x`` at its first maximum.

    ``out`` is the forward's :func:`max_pool2d_values` of ``x``.  Window
    offsets are visited in row-major order and each takes the gradients of
    the windows whose maximum it holds and no earlier offset took, so ties
    go to the first maximum, as an argmax would pick.  ``scratch`` holds two
    boolean masks and a product buffer shaped like ``grad``.
    """
    if scratch is None:
        scratch = (np.empty(grad.shape, bool), np.empty(grad.shape, bool), np.empty_like(grad))
    mask, taken, product = scratch
    out_h, out_w = grad.shape[2:]
    taken.fill(False)
    for window, target in zip(
        _pool_windows(x, kernel, stride, out_h, out_w),
        _pool_windows(grad_x, kernel, stride, out_h, out_w),
    ):
        np.equal(window, out, out=mask)
        np.greater(mask, taken, out=mask)  # a maximum no earlier offset took
        np.logical_or(taken, mask, out=taken)
        np.multiply(grad, mask, out=product)
        np.add(target, product, out=target)
    return grad_x


def max_pool2d(x: Tensor, kernel: int = 2, stride: Optional[int] = None) -> Tensor:
    """Max pooling with square windows over an NCHW tensor."""
    stride = stride or kernel
    out_data = max_pool2d_values(x.data, kernel, stride)

    def backward(grad: np.ndarray) -> None:
        # C-order like a plan's gradient buffers, whatever x's strides:
        # downstream batch-norm sums then reduce in the same order.
        if x.requires_grad:
            grad_x = np.zeros(x.shape, x.data.dtype)
            x._accumulate(max_pool2d_grad(grad, x.data, out_data, kernel, stride, grad_x))

    return Tensor._make(out_data, (x,), backward, op="max_pool2d", meta={"kernel": kernel, "stride": stride})


def avg_pool2d(x: Tensor, kernel: int = 2, stride: Optional[int] = None) -> Tensor:
    """Average pooling with square windows over an NCHW tensor."""
    stride = stride or kernel
    out_data = avg_pool2d_values(x.data, kernel, stride)

    def backward(grad: np.ndarray) -> None:
        if x.requires_grad:  # C-order, as in max_pool2d
            x._accumulate(avg_pool2d_grad(grad, kernel, stride, np.zeros(x.shape, x.data.dtype)))

    return Tensor._make(out_data, (x,), backward, op="avg_pool2d", meta={"kernel": kernel, "stride": stride})


def global_avg_pool2d(x: Tensor) -> Tensor:
    """Average over the full spatial extent, returning shape (N, C)."""
    return x.mean(axis=(2, 3))


# --------------------------------------------------------------------------- #
# batch normalization: a forward and a backward kernel shared with compiled
# plans.  Eval mode is the affine ``x * scale + shift`` derived in float64.
# --------------------------------------------------------------------------- #
def batch_norm2d_saved(
    shape: Tuple[int, ...], dtype, training: bool, empty: Callable = np.empty
) -> Dict[str, np.ndarray]:
    """The buffers a :func:`batch_norm2d_values` call fills for its backward.

    Training mode: ``x_hat`` and the per-channel ``stats`` rows (mean,
    variance, std, scratch) in the input dtype.  Eval mode: the float64
    ``affine`` rows (mean, std, scale, shift) and ``cast``, the scale and
    shift in the input dtype.  ``empty(shape, dtype)`` allocates them.
    """
    c = shape[1]
    if training:
        return {"x_hat": empty(shape, dtype), "stats": empty((4, c), dtype)}
    return {"affine": empty((4, c), np.float64), "cast": empty((2, c), dtype)}


def batch_norm2d_buffers(shape: Tuple[int, ...], training: bool) -> Dict[str, Tuple[int, ...]]:
    """Shapes of the scratch :func:`batch_norm2d_grad` takes, by name (all in
    the input dtype)."""
    if training:
        return {"gxhat": shape, "prod": shape, "sums": (2, shape[1])}
    return {"prod": shape}


def batch_norm2d_values(
    x: np.ndarray,
    gamma: np.ndarray,
    beta: np.ndarray,
    running_mean: np.ndarray,
    running_var: np.ndarray,
    training: bool,
    momentum: float,
    eps: float,
    out: Optional[np.ndarray] = None,
    saved: Optional[Dict[str, np.ndarray]] = None,
) -> np.ndarray:
    """Batch-norm forward of an NCHW array (any strides) into ``out``.

    ``saved`` maps :func:`batch_norm2d_saved` names to buffers (fresh when
    omitted).  Training mode updates the running buffers as
    ``r * (1 - momentum) + momentum * mean`` and
    ``r * (1 - momentum) + ((momentum * var) * m) / max(m - 1, 1)``, with
    ``m`` values per channel.
    """
    c = x.shape[1]
    if out is None:
        out = np.empty(x.shape, x.dtype)
    if saved is None:
        saved = batch_norm2d_saved(x.shape, x.dtype, training)
    if training:
        mean, var, std, tmp = saved["stats"]
        count = x.size // c
        np.mean(x, axis=(0, 2, 3), out=mean)
        np.var(x, axis=(0, 2, 3), out=var)
        np.multiply(running_mean, 1.0 - momentum, out=running_mean)
        np.multiply(mean, momentum, out=tmp)
        np.add(running_mean, tmp, out=running_mean)
        np.multiply(running_var, 1.0 - momentum, out=running_var)
        np.multiply(var, momentum, out=tmp)
        np.multiply(tmp, count, out=tmp)
        np.divide(tmp, max(count - 1, 1), out=tmp)
        np.add(running_var, tmp, out=running_var)
        np.add(var, eps, out=std)
        np.sqrt(std, out=std)
        x_hat = saved["x_hat"]
        np.subtract(x, mean.reshape(1, c, 1, 1), out=x_hat)
        np.divide(x_hat, std.reshape(1, c, 1, 1), out=x_hat)
        np.multiply(x_hat, gamma.reshape(1, c, 1, 1), out=out)
        np.add(out, beta.reshape(1, c, 1, 1), out=out)
        return out
    # Gamma, beta and the running buffers are live state: the affine is
    # re-derived on every call.
    mean, std, scale, shift = saved["affine"]
    np.copyto(mean, running_mean)
    np.add(running_var, eps, out=std)
    np.sqrt(std, out=std)
    np.divide(gamma, std, out=scale)
    np.multiply(mean, scale, out=shift)
    np.subtract(beta, shift, out=shift)
    cast = saved["cast"]
    cast[...] = saved["affine"][2:]
    np.multiply(x, cast[0].reshape(1, c, 1, 1), out=out)
    np.add(out, cast[1].reshape(1, c, 1, 1), out=out)
    return out


def batch_norm2d_grad(
    grad: np.ndarray,
    x: np.ndarray,
    gamma: np.ndarray,
    saved: Mapping[str, np.ndarray],
    training: bool,
    grad_x: Optional[np.ndarray] = None,
    grad_gamma: Optional[np.ndarray] = None,
    grad_beta: Optional[np.ndarray] = None,
    scratch: Optional[Mapping[str, np.ndarray]] = None,
) -> None:
    """Write the requested gradients of one :func:`batch_norm2d_values` call.

    ``gamma`` gets ``sum(grad * x_hat)`` and ``beta`` ``sum(grad)`` per
    channel.  The training input gradient runs through the batch
    statistics, ``(g - sum(g)/m - x_hat * sum(g * x_hat)/m) / std`` with
    ``g = grad * gamma``; the eval one is ``grad * scale``.  ``scratch``
    maps :func:`batch_norm2d_buffers` names to buffers (fresh when omitted).
    """
    n, c, h, w = grad.shape
    if scratch is None:
        shapes = batch_norm2d_buffers(grad.shape, training)
        scratch = {name: np.empty(shape, grad.dtype) for name, shape in shapes.items()}
    prod = scratch["prod"]
    if grad_beta is not None:
        np.sum(grad, axis=(0, 2, 3), out=grad_beta)
    if not training:
        mean, std = saved["affine"][:2]
        if grad_gamma is not None:  # sum(grad * (x - mean)) / std
            np.subtract(x, mean.reshape(1, c, 1, 1), out=prod)
            np.multiply(prod, grad, out=prod)
            np.sum(prod, axis=(0, 2, 3), out=grad_gamma)
            np.divide(grad_gamma, std, out=grad_gamma)
        if grad_x is not None:
            np.multiply(grad, saved["cast"][0].reshape(1, c, 1, 1), out=grad_x)
        return
    x_hat, std = saved["x_hat"], saved["stats"][2].reshape(1, c, 1, 1)
    if grad_gamma is not None:
        np.multiply(grad, x_hat, out=prod)
        np.sum(prod, axis=(0, 2, 3), out=grad_gamma)
    if grad_x is None:
        return
    count = n * h * w
    gxhat = scratch["gxhat"]
    sum_g, sum_gx = (row.reshape(1, c, 1, 1) for row in scratch["sums"])
    np.multiply(grad, gamma.reshape(1, c, 1, 1), out=gxhat)
    np.sum(gxhat, axis=(0, 2, 3), keepdims=True, out=sum_g)
    np.multiply(gxhat, x_hat, out=prod)
    np.sum(prod, axis=(0, 2, 3), keepdims=True, out=sum_gx)
    np.divide(sum_g, count, out=sum_g)
    np.multiply(x_hat, sum_gx, out=prod)
    np.divide(prod, count, out=prod)
    np.subtract(gxhat, sum_g, out=gxhat)
    np.subtract(gxhat, prod, out=gxhat)
    np.divide(gxhat, std, out=grad_x)


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
    matching PyTorch semantics.  Output and gradients are C-contiguous, like
    a plan's buffers.
    """
    saved = batch_norm2d_saved(x.shape, x.data.dtype, training)
    out_data = batch_norm2d_values(
        x.data, gamma.data, beta.data, running_mean, running_var, training, momentum, eps, saved=saved
    )
    inputs = {"grad_x": x, "grad_gamma": gamma, "grad_beta": beta}

    def backward(grad: np.ndarray) -> None:
        grads = {
            name: np.empty(t.shape, t.data.dtype) for name, t in inputs.items() if t.requires_grad
        }
        batch_norm2d_grad(grad, x.data, gamma.data, saved, training, **grads)
        for name, result in grads.items():
            inputs[name]._accumulate(result)

    meta = None
    if is_tracing():
        # The running buffers by reference: eval plans re-read them on every
        # replay and training plans update them in place.
        meta = {"training": bool(training), "eps": eps, "momentum": momentum,
                "running_mean": running_mean, "running_var": running_var}
    return Tensor._make(out_data, (x, gamma, beta), backward, op="batch_norm2d", meta=meta)
