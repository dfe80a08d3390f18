"""Common infrastructure for white-box adversarial attacks.

Every attack follows the Torchattacks convention the paper uses: it is
constructed with a model and its hyperparameters and exposes
``attack(images, labels) -> adversarial_images`` on NumPy arrays.  Images are
assumed to live in ``[0, 1]`` (the paper's eps = 8/255 and step = 2/255 are
expressed in that range).  Gradients come from three helpers —
:meth:`Attack._input_gradient` (loss gradients), :meth:`Attack._logits`
(differentiable logits) and :meth:`Attack._class_jacobian` (per-class
input gradients) — which replay a compiled plan when one is installed
(:meth:`Attack.use_compiled`) and use the autograd engine otherwise.
"""

from __future__ import annotations

import inspect
from typing import Any, Callable, Dict, Optional, Tuple

import numpy as np

from ..compile.model import eager_jacobian
from ..nn import Tensor, get_default_dtype
from ..nn import functional as F
from ..models.base import ImageClassifier

__all__ = ["Attack", "AttackConfigError", "LossFn"]


class AttackConfigError(TypeError):
    """Raised when an attack is configured with hyperparameters it does not accept.

    Subclasses :class:`TypeError` (what a bad constructor call would raise)
    but carries an actionable message naming the attack and the accepted
    hyperparameters.
    """

# A loss function receives (model, x_tensor, labels) and returns a scalar Tensor.
LossFn = Callable[[ImageClassifier, Tensor, np.ndarray], Tensor]


def _default_loss(model: ImageClassifier, x: Tensor, labels: np.ndarray) -> Tensor:
    return F.cross_entropy(model.forward(x), labels)


class Attack:
    """Base class for white-box attacks.

    Parameters
    ----------
    model:
        The classifier under attack.  It is switched to ``eval`` mode for the
        duration of the attack and restored afterwards.
    eps:
        Maximum L_inf perturbation (paper default 8/255).
    clip_min, clip_max:
        Valid input range.
    loss_fn:
        Loss whose gradient drives the attack; defaults to cross-entropy.
        The adaptive attack of Section A.2 passes the full IB-RAR loss here.
    """

    name = "attack"

    #: constructor parameters that are *not* part of the serializable spec
    #: (``loss_fn`` is an arbitrary callable; attacks that need a custom loss,
    #: like the adaptive IB attack, rebuild it from their own hyperparameters).
    spec_exclude: Tuple[str, ...] = ("loss_fn",)

    def __init__(
        self,
        model: ImageClassifier,
        eps: float = 8.0 / 255.0,
        clip_min: float = 0.0,
        clip_max: float = 1.0,
        loss_fn: Optional[LossFn] = None,
    ) -> None:
        if eps < 0:
            raise ValueError("eps must be non-negative")
        self.model = model
        self.eps = eps
        self.clip_min = clip_min
        self.clip_max = clip_max
        self.loss_fn = loss_fn or _default_loss
        #: optional :class:`repro.compile.CompiledModel` driving the attack's
        #: model queries through a static plan.  Installed via
        #: :meth:`use_compiled` (the engine does this for ``compile=True``
        #: runs).
        self._compiled = None

    def use_compiled(self, compiled) -> "Attack":
        """Route model queries through a compiled plan (``None`` clears it).

        Loss gradients use the plan's fused cross-entropy while the loss is
        the default one (:meth:`_input_gradient`); differentiable logits
        (:meth:`_logits`, CW) and per-class Jacobians
        (:meth:`_class_jacobian`, FAB and DeepFool) always use it.  The
        plan falls back to eager per call, so results are produced either
        way.
        """
        self._compiled = compiled
        return self

    # -- helpers ---------------------------------------------------------------
    def _input_gradient(self, images: np.ndarray, labels: np.ndarray) -> Tuple[np.ndarray, float]:
        """Gradient of the attack loss with respect to the input batch.

        When a compiled plan is installed (and the attack drives the default
        cross-entropy loss), the fused ``value_and_grad`` replays the static
        plan instead of building an autograd graph; the returned gradient is
        plan-owned, so consume it before the next compiled call.
        """
        if self._compiled is not None and self.loss_fn is _default_loss:
            loss, gradient = self._compiled.value_and_grad(images, labels)
            return gradient, loss
        x = Tensor(images, requires_grad=True)
        loss = self.loss_fn(self.model, x, labels)
        loss.backward()
        if x.grad is None:
            raise RuntimeError("attack loss produced no input gradient")
        return x.grad, float(loss.item())

    def _logits(self, x: Tensor) -> Tensor:
        """Differentiable logits of ``x``, through the compiled plan if installed."""
        if self._compiled is not None:
            return self._compiled.forward(x)
        return self.model.forward(x)

    def _class_jacobian(self, images: np.ndarray) -> Tuple[np.ndarray, np.ndarray]:
        """Logits and per-class input gradients, ``(num_classes,) + images.shape``.

        A compiled plan runs one forward plus one input-only backward per
        class; eager autograd runs a forward and backward per class.
        """
        if self._compiled is not None:
            return self._compiled.jacobian(images)
        return eager_jacobian(self.model, images)

    def _project(self, adversarial: np.ndarray, original: np.ndarray) -> np.ndarray:
        """Project onto the L_inf ball around ``original`` and the valid range."""
        delta = np.clip(adversarial - original, -self.eps, self.eps)
        return np.clip(original + delta, self.clip_min, self.clip_max)

    # -- public API --------------------------------------------------------------
    def attack(self, images: np.ndarray, labels: np.ndarray) -> np.ndarray:
        """Return adversarial versions of ``images`` (same shape/dtype)."""
        images = np.asarray(images, dtype=get_default_dtype())
        labels = np.asarray(labels, dtype=np.int64).reshape(-1)
        if len(images) != len(labels):
            raise ValueError("images and labels must have the same batch size")
        was_training = self.model.training
        self.model.eval()
        try:
            adversarial = self._generate(images, labels)
        finally:
            self.model.train(was_training)
        return adversarial

    __call__ = attack

    def _generate(self, images: np.ndarray, labels: np.ndarray) -> np.ndarray:
        raise NotImplementedError

    # -- spec support -------------------------------------------------------------
    @classmethod
    def accepted_hyperparameters(cls) -> Tuple[str, ...]:
        """Constructor parameter names (excluding ``self`` and ``model``)."""
        signature = inspect.signature(cls.__init__)
        names = []
        for name, parameter in signature.parameters.items():
            if name in ("self", "model"):
                continue
            if parameter.kind in (parameter.VAR_POSITIONAL, parameter.VAR_KEYWORD):
                continue
            names.append(name)
        return tuple(names)

    def hyperparameters(self) -> Dict[str, Any]:
        """The constructor hyperparameters of this attack, read back from it.

        Every attack stores each constructor argument under the same name, so
        the spec round-trip ``AttackSpec.from_attack(a).build(model)`` yields
        an attack with identical hyperparameters.  Parameters listed in
        ``spec_exclude`` (non-serializable callables) are omitted.
        """
        params: Dict[str, Any] = {}
        for name in self.accepted_hyperparameters():
            if name in self.spec_exclude:
                continue
            if not hasattr(self, name):
                raise AttributeError(
                    f"{type(self).__name__} does not store its '{name}' hyperparameter; "
                    "store it in __init__ (or add it to spec_exclude) to support specs"
                )
            params[name] = getattr(self, name)
        return params

    def spec(self):
        """Return the model-free :class:`~repro.attacks.engine.AttackSpec`."""
        from .engine import AttackSpec

        return AttackSpec.from_attack(self)

    def __repr__(self) -> str:
        return f"{type(self).__name__}(eps={self.eps:.4f})"
