"""Fused ``out=`` kernels for the attack and loss hot paths.

The PGD-family update is a chain of five elementwise ops —
``sign -> scale -> step -> eps-ball projection -> range clip`` — that the
NumPy-expression form materializes one temporary at a time.  These kernels
run the whole chain through a single output array (callers ping-pong two
buffers across iterations), with operation order chosen to be **bitwise
identical** to the unfused expressions the attacks previously used.

:class:`GramCache` is the per-batch companion of the in-plan IB-RAR loss:
the input RBF Gram matrix, the one-hot label Gram matrix and the two
self-HSIC normalizers carry no gradient, so the compiled adapters refresh
them in place into pooled buffers (which the HSIC plan nodes read as aux
inputs) instead of spending graph nodes on them — replaying the exact
arithmetic of :func:`repro.ib.hsic.gaussian_kernel` /
:func:`~repro.ib.hsic.linear_kernel` / :func:`~repro.ib.hsic.hsic`.
"""

from __future__ import annotations

from typing import Optional

import numpy as np

from .pool import BufferPool

__all__ = [
    "linf_step",
    "lookahead_point",
    "DropoutMask",
    "MedianBandwidth",
    "RBFGram",
    "CenteredTrace",
    "GramCache",
]


class DropoutMask:
    """Pooled replay of the counter-based ``rng_mask`` plan node.

    Holds the pooled mask plus the scratch buffers
    :func:`repro.nn.rng.fill_dropout_mask` needs, and a live reference to
    the owning module's ``[seed, layer_id, step, seeded]`` state buffer.
    :meth:`refresh` re-reads the buffer and refills the mask only when the
    ``(seed, layer_id, step)`` triple moved — several forwards of one
    optimizer step (the TRADES anchor, the MI side forward) reuse one mask,
    exactly like repeated eager applications at the same step.  Replays
    allocate nothing; the mask is bitwise the eager mask because both sides
    share ``fill_dropout_mask``.
    """

    def __init__(self, pool: BufferPool, shape, dtype, p: float, state: np.ndarray) -> None:
        self.p = float(p)
        self.state = state
        self.mask = pool.empty(shape, dtype)
        self._u = pool.empty(shape, np.float64)
        self._b = pool.empty(shape, bool)
        self._last = None

    def refresh(self) -> None:
        from ..nn.rng import fill_dropout_mask, state_key

        key = state_key(self.state)
        if key != self._last:
            fill_dropout_mask(self.mask, self._u, self._b, self.p, *key)
            self._last = key

    def run(self, x: np.ndarray, out: np.ndarray) -> None:
        self.refresh()
        np.multiply(x, self.mask, out=out)


def linf_step(
    adversarial: np.ndarray,
    direction: np.ndarray,
    alpha: float,
    original: np.ndarray,
    eps: float,
    clip_min: float,
    clip_max: float,
    out: Optional[np.ndarray] = None,
) -> np.ndarray:
    """One fused L_inf ascent step: ``clip(Π_eps(adv + alpha * sign(direction)))``.

    Equivalent to::

        candidate = adversarial + alpha * np.sign(direction)
        delta = np.clip(candidate - original, -eps, eps)
        return np.clip(original + delta, clip_min, clip_max)

    but with every intermediate written into ``out`` (which must not alias
    ``adversarial``, ``direction`` or ``original``).
    """
    if out is None:
        out = np.empty_like(adversarial)
    np.sign(direction, out=out)
    out *= alpha
    out += adversarial
    np.subtract(out, original, out=out)
    np.clip(out, -eps, eps, out=out)
    out += original
    np.clip(out, clip_min, clip_max, out=out)
    return out


def lookahead_point(
    adversarial: np.ndarray,
    momentum: np.ndarray,
    scale: float,
    clip_min: float,
    clip_max: float,
    out: Optional[np.ndarray] = None,
) -> np.ndarray:
    """Fused Nesterov look-ahead: ``clip(adv + scale * momentum)`` (NIFGSM)."""
    if out is None:
        out = np.empty_like(adversarial)
    np.multiply(momentum, scale, out=out)
    out += adversarial
    np.clip(out, clip_min, clip_max, out=out)
    return out


class MedianBandwidth:
    """Pooled replay of :func:`repro.ib.hsic.median_bandwidth_array`.

    The eager heuristic materializes an ``(n, n, d)`` difference cube, an
    ``(n, n)`` squared-distance matrix and a fresh upper-triangle copy on
    every batch — the last per-batch allocating step left inside a replayed
    IB-RAR plan.  This kernel computes the same upper-triangle distances
    row-block by row-block into pooled scratch and selects the median with
    an in-place :meth:`numpy.ndarray.partition`, reproducing ``np.median``'s
    arithmetic exactly: odd count → the ``m // 2``-th order statistic, even
    count → ``(part[m//2 - 1] + part[m//2]) / 2.0``.  Operand order matches
    the eager ``flat[i] - flat[j]`` / ``diff ** 2`` / row-wise pairwise sum,
    so the returned sigma is **bitwise identical** to the eager one.
    """

    def __init__(self, pool: BufferPool, n: int, dim: int, dtype) -> None:
        self.n = n
        if n > 1:
            self._diffs = pool.empty((n - 1, dim), dtype)
            self._upper = pool.empty((n * (n - 1) // 2,), dtype)

    def run(self, x: np.ndarray) -> float:
        from ..ib.hsic import sigma_from_median

        n = self.n
        if n < 2:
            return 1.0  # the eager heuristic's empty-upper-triangle default
        offset = 0
        for i in range(n - 1):
            rows = n - 1 - i
            diff = self._diffs[:rows]
            np.subtract(x[i], x[i + 1 :], out=diff)
            np.multiply(diff, diff, out=diff)
            np.sum(diff, axis=1, out=self._upper[offset : offset + rows])
            offset += rows
        half = self._upper.size // 2
        if self._upper.size % 2:
            self._upper.partition(half)
            median = float(self._upper[half])
        else:
            self._upper.partition([half - 1, half])
            median = float((self._upper[half - 1] + self._upper[half]) / 2.0)
        return sigma_from_median(median)


class RBFGram:
    """Pooled replay of :func:`repro.ib.hsic.gaussian_kernel`, op for op.

    The **single** implementation of the bit-exact RBF-Gram arithmetic
    (squared norms, Gram matmul, distance assembly, negative-noise clamp,
    bandwidth scale, exp) shared by the ``rbf_gram`` plan node and the
    gradient-free :class:`GramCache` — the parity contract lives here once.
    ``sigma=None`` re-derives the eager median bandwidth per run through the
    pooled :class:`MedianBandwidth` selection kernel (bitwise-equal to the
    eager heuristic, no per-batch allocation).  ``keep_mask=True``
    additionally records the pre-clamp ``>= 0`` mask the plan node's
    backward needs; :attr:`c` holds the scale used by the latest run.
    """

    def __init__(
        self,
        pool: BufferPool,
        n: int,
        dim: int,
        dtype,
        sigma: Optional[float],
        keep_mask: bool = False,
    ) -> None:
        self.sigma = sigma
        self.c = 0.0
        self._xsq = pool.empty((n, dim), dtype)
        self._sq = pool.empty((n, 1), dtype)
        self._gram = pool.empty((n, n), dtype)
        self._scratch = pool.empty((n, n), dtype)
        self.mask = pool.empty((n, n), bool) if keep_mask else None
        self._median = MedianBandwidth(pool, n, dim, dtype) if sigma is None else None

    def run(self, x: np.ndarray, out: np.ndarray) -> None:
        np.multiply(x, x, out=self._xsq)
        np.sum(self._xsq, axis=1, keepdims=True, out=self._sq)
        np.matmul(x, x.T, out=self._gram)
        np.add(self._sq, self._sq.T, out=out)
        np.multiply(self._gram, 2.0, out=self._scratch)
        np.subtract(out, self._scratch, out=out)
        if self.mask is not None:
            np.greater_equal(out, 0.0, out=self.mask)  # pre-clamp values
        np.maximum(out, 0.0, out=out)
        sigma = self.sigma
        if sigma is None:
            sigma = self._median.run(x)
        sigma = max(float(sigma), 1e-6)
        self.c = -1.0 / (2.0 * sigma * sigma)
        np.multiply(out, self.c, out=out)
        np.exp(out, out=out)


class CenteredTrace:
    """Pooled one-sided-centered HSIC trace: ``sum(center(kx) * ky) / (m-1)^2``.

    The single implementation of :func:`repro.ib.hsic.hsic`'s arithmetic,
    shared by the ``hsic_trace`` plan node (forward and the centering its
    backward applies to gradients) and :class:`GramCache`'s self-HSIC
    normalizers.  :attr:`cent` keeps the latest centered first kernel.
    """

    def __init__(self, pool: BufferPool, m: int, dtype, with_trace: bool = True) -> None:
        self.m = m
        self.scale = 1.0 / ((m - 1) ** 2)
        self._row = pool.empty((1, m), dtype)
        self._col = pool.empty((m, 1), dtype)
        self._total = pool.empty((), dtype)
        # ``with_trace=False`` binds a centering-only instance (the backward
        # kernels center gradients in place and never call :meth:`run`).
        self.cent = pool.empty((m, m), dtype) if with_trace else None
        self._prod = pool.empty((m, m), dtype) if with_trace else None

    def center(self, kernel: np.ndarray, out: np.ndarray) -> None:
        """``out = kernel - row_mean - col_mean + total_mean`` (eager order).

        ``out`` may alias ``kernel``: the three means are reduced before the
        first write.
        """
        m = self.m
        np.sum(kernel, axis=0, keepdims=True, out=self._row)
        np.multiply(self._row, 1.0 / m, out=self._row)
        np.sum(kernel, axis=1, keepdims=True, out=self._col)
        np.multiply(self._col, 1.0 / m, out=self._col)
        np.sum(kernel, out=self._total)
        np.multiply(self._total, 1.0 / (m * m), out=self._total)
        np.subtract(kernel, self._row, out=out)
        np.subtract(out, self._col, out=out)
        np.add(out, self._total, out=out)

    def run(self, kx: np.ndarray, ky: np.ndarray, out: np.ndarray) -> None:
        self.center(kx, self.cent)
        np.multiply(self.cent, ky, out=self._prod)
        np.sum(self._prod, out=out)
        np.multiply(out, self.scale, out=out)


class GramCache:
    """Pooled per-batch Gram matrices + nHSIC normalizers for IB-RAR.

    :meth:`update` refreshes, entirely through ``out=`` kernels over
    bind-time buffers:

    * ``kx`` — the Gaussian Gram matrix of the flattened input batch
      (detached in the eager loss, so gradient-free here);
    * ``ky`` — the linear kernel of the one-hot labels;
    * ``norm_x`` / ``norm_y`` — the self-HSIC normalizers
      ``HSIC(K, K)`` the normalized-HSIC denominators share per batch.
    """

    def __init__(
        self,
        pool: BufferPool,
        n: int,
        input_dim: int,
        num_classes: int,
        dtype,
        sigma: Optional[float],
        normalized: bool,
    ) -> None:
        self.n = n
        self.normalized = normalized
        self.kx = pool.empty((n, n), dtype)
        self.ky = pool.empty((n, n), dtype)
        self.norm_x = pool.empty((), dtype)
        self.norm_y = pool.empty((), dtype)
        self._onehot = pool.empty((n, num_classes), dtype)
        self._arange = np.arange(n)
        pool._register(self._arange)
        self._rbf = RBFGram(pool, n, input_dim, dtype, sigma)
        self._trace = CenteredTrace(pool, n, dtype)

    def update(self, images: np.ndarray, labels: np.ndarray) -> None:
        """Refresh every buffer for one batch (images already flattened-able)."""
        self._rbf.run(images.reshape(self.n, -1), self.kx)
        self._onehot.fill(0.0)
        self._onehot[self._arange, labels] = 1.0
        np.matmul(self._onehot, self._onehot.T, out=self.ky)
        if self.normalized:
            self._trace.run(self.kx, self.kx, self.norm_x)
            self._trace.run(self.ky, self.ky, self.norm_y)
