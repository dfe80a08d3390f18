"""Fused ``out=`` kernels for the attack hot path and counter dropout.

The PGD-family update is a chain of five elementwise ops —
``sign -> scale -> step -> eps-ball projection -> range clip`` — that the
NumPy-expression form materializes one temporary at a time.  These kernels
run the whole chain through a single output array (callers ping-pong two
buffers across iterations), with operation order chosen to be **bitwise
identical** to the unfused expressions the attacks previously used.
:func:`pgd_loop` is the one PGD iteration, shared by the eager
:class:`repro.attacks.PGD` and the compiled adversarial-training adapters,
which differ only in where each step's gradient comes from.

:class:`DropoutMask` is the pooled replay of the ``rng_mask`` plan node,
sharing its mask fill with eager dropout.
"""

from __future__ import annotations

from typing import Callable, Optional

import numpy as np

from .pool import BufferPool

__all__ = ["linf_step", "lookahead_point", "pgd_loop", "DropoutMask"]


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


def pgd_loop(
    gradient: Callable[[np.ndarray], np.ndarray],
    images: np.ndarray,
    eps: float,
    alpha: float,
    steps: int,
    rng: Optional[np.random.Generator],
    clip_min: float,
    clip_max: float,
) -> np.ndarray:
    """``steps`` projected L_inf ascent steps from ``images`` (Madry et al.).

    ``gradient(adversarial)`` returns the loss gradient at the current
    iterate; ``rng`` draws the uniform random start inside the eps-ball
    (``None``: start at ``images``).  The fused :func:`linf_step` writes
    into two ping-pong buffers, so a gradient that is a plan-owned array
    the next query overwrites never aliases the iterate.
    """
    adversarial = images.copy()
    if rng is not None and eps > 0:
        adversarial = adversarial + rng.uniform(-eps, eps, size=images.shape)
        adversarial = np.clip(adversarial, clip_min, clip_max)
    buffers = (np.empty_like(images), np.empty_like(images))
    for step in range(steps):
        adversarial = linf_step(
            adversarial, gradient(adversarial), alpha, images, eps, clip_min, clip_max,
            out=buffers[step % 2],
        )
    return adversarial


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
