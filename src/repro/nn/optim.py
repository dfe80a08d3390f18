"""Optimizers and learning-rate schedulers.

The paper trains every network with SGD (weight decay 1e-2) and a StepLR
schedule (lr 0.01, step 20, gamma 0.2); both are implemented here along with
Adam and a couple of extra schedulers useful for the extension benches.

Each optimizer has one update path, :meth:`step_with_grads`: the whole
update chain runs through preallocated per-parameter scratch buffers with
``out=`` kernels and updates ``param.data`` **in place**.  In-place
mutation is what lets a live-parameter execution plan
(:mod:`repro.compile.training`) alias parameter storage across steps.
:meth:`Optimizer.step` is the same update fed from ``param.grad``, so eager
and compiled batches of one run share the state (velocity / moment
buffers) and the arithmetic.
"""

from __future__ import annotations

from typing import Iterable, List, Optional, Sequence

import numpy as np

from .modules import Parameter

__all__ = ["Optimizer", "SGD", "Adam", "StepLR", "MultiStepLR", "CosineAnnealingLR"]


class Optimizer:
    """Base optimizer holding a parameter list and a learning rate."""

    def __init__(self, parameters: Iterable[Parameter], lr: float) -> None:
        self.parameters: List[Parameter] = list(parameters)
        if not self.parameters:
            raise ValueError("optimizer received an empty parameter list")
        if lr <= 0:
            raise ValueError(f"learning rate must be positive, got {lr}")
        self.lr = lr
        self._scratch: Optional[List[np.ndarray]] = None

    def zero_grad(self, set_to_none: bool = True) -> None:
        """Reset parameter gradients.

        ``set_to_none=True`` (the default, and the historical behaviour)
        drops the gradient arrays so the next backward allocates fresh ones;
        ``set_to_none=False`` zero-fills existing arrays in place, reusing
        their storage (compiled training keeps its own pooled buffers and
        never touches ``param.grad`` at all).
        """
        for param in self.parameters:
            if set_to_none or param.grad is None:
                param.grad = None
            else:
                param.grad.fill(0)

    def _scratch_buffers(self) -> List[np.ndarray]:
        if self._scratch is None:
            self._scratch = [np.empty_like(p.data) for p in self.parameters]
        return self._scratch

    def step(self) -> None:
        """Update every parameter in place from its ``param.grad``."""
        self.step_with_grads([p.grad for p in self.parameters])

    def step_with_grads(self, grads: Sequence[Optional[np.ndarray]]) -> None:
        """In-place fused update from externally supplied gradient arrays."""
        raise NotImplementedError


class SGD(Optimizer):
    """Stochastic gradient descent with momentum and decoupled L2 weight decay."""

    def __init__(
        self,
        parameters: Iterable[Parameter],
        lr: float = 0.01,
        momentum: float = 0.9,
        weight_decay: float = 0.0,
        nesterov: bool = False,
    ) -> None:
        super().__init__(parameters, lr)
        self.momentum = momentum
        self.weight_decay = weight_decay
        self.nesterov = nesterov
        self._velocity = [np.zeros_like(p.data) for p in self.parameters]
        self._nesterov_scratch: Optional[List[np.ndarray]] = None

    def step_with_grads(self, grads: Sequence[Optional[np.ndarray]]) -> None:
        """Fused momentum + decoupled-weight-decay update, in place.

        One scratch buffer per parameter carries the whole chain
        (``wd*p + g -> velocity update -> lr * update -> p -= ...``) as
        ``out=`` kernels, so ``param.data`` keeps its identity, which
        live-parameter compiled plans rely on.
        """
        if len(grads) != len(self.parameters):
            raise ValueError("step_with_grads needs one gradient (or None) per parameter")
        scratch_list = self._scratch_buffers()
        if self.nesterov and self._nesterov_scratch is None:
            self._nesterov_scratch = [np.empty_like(p.data) for p in self.parameters]
        for index, (param, velocity, grad) in enumerate(
            zip(self.parameters, self._velocity, grads)
        ):
            if grad is None:
                continue
            scratch = scratch_list[index]
            if self.weight_decay:
                np.multiply(param.data, self.weight_decay, out=scratch)
                np.add(grad, scratch, out=scratch)
                grad = scratch
            if self.momentum:
                velocity *= self.momentum
                velocity += grad
                if self.nesterov:
                    extra = self._nesterov_scratch[index]
                    np.multiply(velocity, self.momentum, out=extra)
                    np.add(grad, extra, out=extra)
                    grad = extra
                else:
                    grad = velocity
            np.multiply(grad, self.lr, out=scratch)
            np.subtract(param.data, scratch, out=param.data)


class Adam(Optimizer):
    """Adam optimizer (used by some extension experiments and the VIB encoder)."""

    def __init__(
        self,
        parameters: Iterable[Parameter],
        lr: float = 1e-3,
        betas: tuple = (0.9, 0.999),
        eps: float = 1e-8,
        weight_decay: float = 0.0,
    ) -> None:
        super().__init__(parameters, lr)
        self.beta1, self.beta2 = betas
        self.eps = eps
        self.weight_decay = weight_decay
        self._step = 0
        self._m = [np.zeros_like(p.data) for p in self.parameters]
        self._v = [np.zeros_like(p.data) for p in self.parameters]
        self._scratch2: Optional[List[np.ndarray]] = None

    def step_with_grads(self, grads: Sequence[Optional[np.ndarray]]) -> None:
        """Fused Adam update, in place."""
        if len(grads) != len(self.parameters):
            raise ValueError("step_with_grads needs one gradient (or None) per parameter")
        scratch_list = self._scratch_buffers()
        if self._scratch2 is None:
            self._scratch2 = [np.empty_like(p.data) for p in self.parameters]
        self._step += 1
        bias1 = 1.0 - self.beta1 ** self._step
        bias2 = 1.0 - self.beta2 ** self._step
        for index, (param, m, v, grad) in enumerate(
            zip(self.parameters, self._m, self._v, grads)
        ):
            if grad is None:
                continue
            s = scratch_list[index]
            s2 = self._scratch2[index]
            if self.weight_decay:
                np.multiply(param.data, self.weight_decay, out=s)
                np.add(grad, s, out=s)
                grad = s
            np.multiply(grad, 1.0 - self.beta1, out=s2)
            m *= self.beta1
            m += s2
            np.multiply(grad, 1.0 - self.beta2, out=s2)
            np.multiply(s2, grad, out=s2)
            v *= self.beta2
            v += s2
            np.divide(m, bias1, out=s2)
            np.multiply(s2, self.lr, out=s2)  # lr * m_hat
            np.divide(v, bias2, out=s)
            np.sqrt(s, out=s)
            np.add(s, self.eps, out=s)  # sqrt(v_hat) + eps
            np.divide(s2, s, out=s2)
            np.subtract(param.data, s2, out=param.data)


class _Scheduler:
    """Base learning-rate scheduler driving an :class:`Optimizer`."""

    def __init__(self, optimizer: Optimizer) -> None:
        self.optimizer = optimizer
        self.base_lr = optimizer.lr
        self.epoch = 0

    def get_lr(self) -> float:
        raise NotImplementedError

    def step(self) -> None:
        """Advance one epoch and update the optimizer's learning rate."""
        self.epoch += 1
        self.optimizer.lr = self.get_lr()


class StepLR(_Scheduler):
    """Decay the learning rate by ``gamma`` every ``step_size`` epochs.

    The paper uses ``StepLR(lr=0.01, step_size=20, gamma=0.2)``.
    """

    def __init__(self, optimizer: Optimizer, step_size: int = 20, gamma: float = 0.2) -> None:
        super().__init__(optimizer)
        self.step_size = step_size
        self.gamma = gamma

    def get_lr(self) -> float:
        return self.base_lr * self.gamma ** (self.epoch // self.step_size)


class MultiStepLR(_Scheduler):
    """Decay the learning rate by ``gamma`` at each milestone epoch."""

    def __init__(self, optimizer: Optimizer, milestones: Iterable[int], gamma: float = 0.1) -> None:
        super().__init__(optimizer)
        self.milestones = sorted(milestones)
        self.gamma = gamma

    def get_lr(self) -> float:
        passed = sum(1 for m in self.milestones if self.epoch >= m)
        return self.base_lr * self.gamma ** passed


class CosineAnnealingLR(_Scheduler):
    """Cosine annealing from the base learning rate down to ``eta_min``."""

    def __init__(self, optimizer: Optimizer, t_max: int, eta_min: float = 0.0) -> None:
        super().__init__(optimizer)
        self.t_max = max(t_max, 1)
        self.eta_min = eta_min

    def get_lr(self) -> float:
        progress = min(self.epoch, self.t_max) / self.t_max
        return self.eta_min + 0.5 * (self.base_lr - self.eta_min) * (1 + np.cos(np.pi * progress))
