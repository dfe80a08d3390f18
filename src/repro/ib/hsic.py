"""Hilbert-Schmidt Independence Criterion (HSIC) as a differentiable op.

The paper (following HSIC-Bottleneck and HBaR) replaces the intractable
mutual-information quantities ``I(X, T_l)`` and ``I(Y, T_l)`` in the IB
objective with HSIC estimates.  Both the biased batch estimator

    HSIC(X, Y) = (m - 1)^{-2} tr(K_X H K_Y H)

and its normalized variant (nHSIC, scale-invariant) are provided.  All
computations are expressed with :class:`repro.nn.Tensor` operations so that
gradients flow back into the network activations, which is what makes HSIC
usable as a *regularizer* in Eq. (1)/(2) of the paper.
"""

from __future__ import annotations

from typing import Optional, Union

import numpy as np

from ..nn import Tensor, as_tensor

__all__ = [
    "pairwise_squared_distances",
    "gaussian_kernel",
    "linear_kernel",
    "median_bandwidth",
    "median_bandwidth_rows",
    "bandwidth_scale",
    "rbf_scale",
    "center",
    "hsic",
    "normalized_hsic",
    "hsic_xy_labels",
]

ArrayOrTensor = Union[np.ndarray, Tensor]


def _flatten_batch(x: ArrayOrTensor) -> Tensor:
    """View ``x`` as a 2-D (batch, features) tensor."""
    t = as_tensor(x)
    if t.ndim == 1:
        return t.reshape(-1, 1)
    if t.ndim > 2:
        return t.flatten(start_dim=1)
    return t


def pairwise_squared_distances(x: Tensor) -> Tensor:
    """Squared Euclidean distances between all rows of a (n, d) tensor."""
    x = _flatten_batch(x)
    squared_norms = (x * x).sum(axis=1, keepdims=True)  # (n, 1)
    gram = x @ x.transpose()
    distances = squared_norms + squared_norms.transpose() - gram * 2.0
    # Numerical noise can make diagonal entries slightly negative.
    return distances.maximum(0.0)


def median_bandwidth_rows(flat: np.ndarray, diffs: np.ndarray, upper: np.ndarray) -> float:
    """Median-heuristic bandwidth of a flattened ``(n, d)`` batch, in caller scratch.

    The one implementation of the heuristic, shared like
    :func:`repro.nn.rng.fill_dropout_mask`: eager :func:`median_bandwidth`
    passes fresh scratch, the compiled ``rbf_scale`` kernel pooled scratch.
    ``diffs`` is ``(n - 1, d)`` and ``upper`` ``(n (n - 1) / 2,)``, both in
    ``flat``'s dtype.  Row block ``i`` writes the squared distances from
    row ``i`` to every later row into ``upper`` (no ``(n, n, d)`` difference
    cube), and an in-place partition selects the median as ``np.median``
    does.  The bandwidth is ``sqrt(max(median, 1e-12) / 2)``; a single row
    gives 1.0.
    """
    n = len(flat)
    if n < 2:
        return 1.0
    offset = 0
    for i in range(n - 1):
        rows = n - 1 - i
        diff = diffs[:rows]
        np.subtract(flat[i], flat[i + 1 :], out=diff)
        np.multiply(diff, diff, out=diff)
        np.sum(diff, axis=1, out=upper[offset : offset + rows])
        offset += rows
    half = upper.size // 2
    if upper.size % 2:
        upper.partition(half)
        median = float(upper[half])
    else:
        upper.partition([half - 1, half])
        median = float((upper[half - 1] + upper[half]) / 2.0)
    return float(np.sqrt(max(median, 1e-12) / 2.0))


def median_bandwidth(x: ArrayOrTensor) -> float:
    """Median-of-distances bandwidth heuristic for the Gaussian kernel.

    The heuristic is computed on the raw values (no gradient), matching the
    common HSIC-bottleneck implementations; see :func:`median_bandwidth_rows`.
    """
    data = as_tensor(x).data
    flat = data.reshape(len(data), -1)
    n, dim = flat.shape
    diffs = np.empty((max(n - 1, 0), dim), dtype=flat.dtype)
    upper = np.empty((n * (n - 1) // 2,), dtype=flat.dtype)
    return median_bandwidth_rows(flat, diffs, upper)


def bandwidth_scale(sigma: float) -> float:
    """The Gaussian kernel's distance scale ``-1 / (2 sigma^2)``, sigma floored at 1e-6."""
    sigma = max(float(sigma), 1e-6)
    return -1.0 / (2.0 * sigma * sigma)


def rbf_scale(x: ArrayOrTensor, sigma: Optional[float] = None) -> Tensor:
    """The Gaussian kernel's bandwidth scale ``-1 / (2 sigma^2)`` as a 0-d tensor.

    ``sigma=None`` applies :func:`median_bandwidth` to the batch.  The scale
    carries no gradient: it is computed in ``x``'s dtype and recorded as an
    ``rbf_scale`` op on ``x.detach()``, so a traced kernel keeps the
    per-batch bandwidth as a forward-only plan step instead of freezing the
    value seen at trace time.
    """
    x_t = _flatten_batch(x).detach()
    bandwidth = median_bandwidth(x_t) if sigma is None else sigma
    scale = np.asarray(bandwidth_scale(bandwidth), dtype=x_t.dtype)
    # No backward: the only parent is detached.
    return Tensor._make(scale, (x_t,), None, op="rbf_scale", meta={"sigma": sigma})


def gaussian_kernel(x: ArrayOrTensor, sigma: Optional[float] = None) -> Tensor:
    """Gaussian (RBF) kernel matrix ``K_ij = exp(-||x_i - x_j||^2 / (2 sigma^2))``.

    When ``sigma`` is omitted the median heuristic is used.  The kernel is
    differentiable with respect to ``x``; the bandwidth (:func:`rbf_scale`)
    is not.
    """
    x_t = _flatten_batch(x)
    return (pairwise_squared_distances(x_t) * rbf_scale(x_t, sigma)).exp()


def linear_kernel(x: ArrayOrTensor) -> Tensor:
    """Linear kernel ``K = X X^T`` (appropriate for one-hot labels)."""
    x_t = _flatten_batch(x)
    return x_t @ x_t.transpose()


def center(kernel: Tensor) -> Tensor:
    """Double-center a kernel matrix: ``H K H`` with ``H = I - 1/m``.

    Computed from the row/column/total means, so the ``m x m`` centering
    matrix ``H`` is never materialized (and no ``m x m`` matmul is paid).
    """
    row_mean = kernel.mean(axis=0, keepdims=True)
    col_mean = kernel.mean(axis=1, keepdims=True)
    total_mean = kernel.mean()
    return kernel - row_mean - col_mean + total_mean


# Backwards-compatible private alias (pre-fast-path name).
_center = center


def hsic(kernel_x: Tensor, kernel_y: Tensor, centered_x: Optional[Tensor] = None) -> Tensor:
    """Biased HSIC estimate from two precomputed kernel matrices.

    Uses the one-sided centering identity: ``H`` is idempotent, so

        tr(K_X H K_Y H) = tr((H K_X H) K_Y) = sum(center(K_X) * K_Y)

    and only **one** of the two kernels is ever centered.  Callers that
    evaluate several HSIC terms against the same first kernel (the IB-RAR
    loss pairs every layer kernel with both the input and the label Gram
    matrix) pass the precomputed ``centered_x`` to share that work.
    """
    if kernel_x.shape != kernel_y.shape:
        raise ValueError(f"kernel shapes differ: {kernel_x.shape} vs {kernel_y.shape}")
    m = kernel_x.shape[0]
    if m < 2:
        raise ValueError("HSIC requires a batch of at least 2 examples")
    if centered_x is None:
        centered_x = center(kernel_x)
    return (centered_x * kernel_y).sum() * (1.0 / ((m - 1) ** 2))


def normalized_hsic(
    kernel_x: Tensor,
    kernel_y: Tensor,
    eps: float = 1e-9,
    centered_x: Optional[Tensor] = None,
    norm_x: Optional[Tensor] = None,
    norm_y: Optional[Tensor] = None,
) -> Tensor:
    """Normalized HSIC: ``HSIC(X, Y) / sqrt(HSIC(X, X) HSIC(Y, Y))``.

    Scale invariance makes the regularizer weights transferable between
    layers of very different dimensionality, which is why HBaR and our
    Eq. (1) implementation default to it.

    ``centered_x`` / ``norm_x`` / ``norm_y`` are optional precomputed pieces
    (the centered first kernel and the two self-HSIC normalizers).  The
    IB-RAR loss computes the label/input normalizers once per batch and the
    centered layer kernel once per layer, instead of re-deriving all three
    inside every call.
    """
    if centered_x is None:
        centered_x = center(kernel_x)
    cross = hsic(kernel_x, kernel_y, centered_x=centered_x)
    if norm_x is None:
        norm_x = hsic(kernel_x, kernel_x, centered_x=centered_x)
    if norm_y is None:
        norm_y = hsic(kernel_y, kernel_y)
    denominator = (norm_x * norm_y + eps).sqrt()
    return cross / (denominator + eps)


def hsic_xy_labels(
    features: ArrayOrTensor,
    labels: np.ndarray,
    num_classes: int,
    sigma: Optional[float] = None,
    normalized: bool = True,
) -> Tensor:
    """HSIC between a feature batch and integer labels (one-hot, linear kernel)."""
    from ..nn.functional import one_hot

    label_kernel = linear_kernel(Tensor(one_hot(labels, num_classes)))
    feature_kernel = gaussian_kernel(features, sigma=sigma)
    if normalized:
        return normalized_hsic(feature_kernel, label_kernel)
    return hsic(feature_kernel, label_kernel)
