"""Reverse-mode automatic differentiation on NumPy arrays.

This module is the substrate that replaces PyTorch's autograd for the IB-RAR
reproduction.  A :class:`Tensor` wraps a ``numpy.ndarray`` and records the
operations applied to it in a dynamic computation graph.  Calling
:meth:`Tensor.backward` walks the graph in reverse topological order and
accumulates gradients into every leaf tensor created with
``requires_grad=True``.

Every operator needed by the paper's pipeline is implemented either here (the
arithmetic / shape primitives) or in :mod:`repro.nn.functional` (convolution,
pooling, batch-norm, losses, HSIC helpers).  Gradients are exact, which is
what the adversarial attacks (FGSM, PGD, CW, FAB, NIFGSM) and the HSIC-based
mutual-information regularizers rely on.
"""

from __future__ import annotations

import functools
import threading
from typing import Callable, Iterable, List, Optional, Sequence, Tuple, Union

import numpy as np

__all__ = [
    "Tensor",
    "no_grad",
    "is_grad_enabled",
    "as_tensor",
    "stack",
    "concatenate",
    "set_default_dtype",
    "get_default_dtype",
]

ArrayLike = Union["Tensor", np.ndarray, float, int, Sequence]

class _ThreadState(threading.local):
    """Per-thread autograd/trace flags.

    Grad mode and trace depth are *thread-local* so concurrent threads cannot
    flip each other's recording state: a ``no_grad`` block in one thread
    never silences a gradient graph being built in another, and a capture
    trace only sees its own thread's ops.
    """

    def __init__(self) -> None:
        self.grad_enabled = True
        self.trace_depth = 0


_STATE = _ThreadState()

#: floating dtype used when wrapping raw values in tensors.  float64 is the
#: default (it is what the paper-reproduction numbers were produced with);
#: :func:`set_default_dtype` switches the whole stack — parameter creation,
#: attack inputs, losses — to float32 for speed/memory-bound workloads.
_DEFAULT_DTYPE = np.dtype(np.float64)

_SUPPORTED_DTYPES = (np.dtype(np.float32), np.dtype(np.float64))


def set_default_dtype(dtype) -> np.dtype:
    """Set the floating dtype new tensors are created with; returns the old one.

    Accepts anything ``np.dtype`` does (``"float32"``, ``np.float64`` ...).
    Only float32 and float64 are supported.  Modules built *after* the switch
    create their parameters in the new dtype; arrays fed to :class:`Tensor`
    (attack batches, loss one-hots) are cast on entry, so a float32 model
    runs an end-to-end float32 forward/backward.
    """
    global _DEFAULT_DTYPE
    resolved = np.dtype(dtype)
    if resolved not in _SUPPORTED_DTYPES:
        raise ValueError(f"unsupported default dtype {dtype!r}; use float32 or float64")
    previous = _DEFAULT_DTYPE
    _DEFAULT_DTYPE = resolved
    return previous


def get_default_dtype() -> np.dtype:
    """The floating dtype new tensors are created with (see :func:`set_default_dtype`)."""
    return _DEFAULT_DTYPE


class no_grad:
    """Disable gradient tracking, as a context manager or a decorator.

    Mirrors ``torch.no_grad()``.  Used by evaluation loops for forward-only
    passes (e.g. the batched predictions of the attack engine)::

        with no_grad():
            logits = model.forward(x)

        @no_grad()
        def predict(model, x):
            return np.argmax(model.forward(x).data, axis=1)
    """

    def __enter__(self) -> "no_grad":
        self._previous = _STATE.grad_enabled
        _STATE.grad_enabled = False
        return self

    def __exit__(self, *exc_info) -> None:
        _STATE.grad_enabled = self._previous

    def __call__(self, fn: Callable) -> Callable:
        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            with no_grad():
                return fn(*args, **kwargs)

        return wrapper


def is_grad_enabled() -> bool:
    """Return whether operations currently record gradient information."""
    return _STATE.grad_enabled


# --------------------------------------------------------------------------- #
# graph capture (used by repro.compile)
# --------------------------------------------------------------------------- #
#: active :class:`op_counter` instances (usually empty; see its docstring).
_OP_COUNTERS: List["op_counter"] = []


class trace:
    """Context manager that makes every op annotate its output tensor.

    While active, :meth:`Tensor._make` records ``_op`` (operation name),
    ``_op_meta`` (static parameters such as strides or clip bounds) and
    ``_op_parents`` on each result.  :func:`repro.compile.capture_forward`
    runs a module under this context and walks those annotations to lift the
    dynamic autograd graph into a static, replayable plan.  Zero overhead
    when inactive (a single integer check per op).
    """

    def __enter__(self) -> "trace":
        _STATE.trace_depth += 1
        return self

    def __exit__(self, *exc_info) -> None:
        _STATE.trace_depth -= 1


def is_tracing() -> bool:
    return _STATE.trace_depth > 0


class op_counter:
    """Count graph nodes (≈ one fresh array allocation each) built in a block.

    The eager engine allocates a new ndarray per recorded operation; this
    counter makes that cost measurable so the compiled executor's
    zero-steady-state-allocation property can be asserted against it.
    """

    def __init__(self) -> None:
        self.count = 0

    def __enter__(self) -> "op_counter":
        _OP_COUNTERS.append(self)
        return self

    def __exit__(self, *exc_info) -> None:
        _OP_COUNTERS.remove(self)


def _to_array(value: ArrayLike, dtype=None) -> np.ndarray:
    if isinstance(value, Tensor):
        return value.data
    return np.asarray(value, dtype=dtype if dtype is not None else _DEFAULT_DTYPE)


def _unbroadcast(grad: np.ndarray, shape: Tuple[int, ...]) -> np.ndarray:
    """Sum ``grad`` over broadcast dimensions so it matches ``shape``."""
    if grad.shape == shape:
        return grad
    # Sum over leading dimensions added by broadcasting.
    extra = grad.ndim - len(shape)
    if extra > 0:
        grad = grad.sum(axis=tuple(range(extra)))
    # Sum over dimensions that were 1 in the original shape.
    axes = tuple(i for i, s in enumerate(shape) if s == 1 and grad.shape[i] != 1)
    if axes:
        grad = grad.sum(axis=axes, keepdims=True)
    return grad.reshape(shape)


class Tensor:
    """A NumPy-backed tensor with reverse-mode automatic differentiation."""

    __array_priority__ = 200  # ensure ndarray + Tensor dispatches to Tensor

    def __init__(
        self,
        data: ArrayLike,
        requires_grad: bool = False,
        _parents: Tuple["Tensor", ...] = (),
        _backward: Optional[Callable[[np.ndarray], None]] = None,
        name: str = "",
    ) -> None:
        self.data = _to_array(data)
        self.requires_grad = bool(requires_grad) and _STATE.grad_enabled
        self.grad: Optional[np.ndarray] = None
        self._parents = _parents if self.requires_grad or any(
            p.requires_grad for p in _parents
        ) else ()
        self._backward = _backward
        self.name = name

    # ------------------------------------------------------------------ #
    # basic properties
    # ------------------------------------------------------------------ #
    @property
    def shape(self) -> Tuple[int, ...]:
        return self.data.shape

    @property
    def ndim(self) -> int:
        return self.data.ndim

    @property
    def size(self) -> int:
        return self.data.size

    @property
    def dtype(self):
        return self.data.dtype

    @property
    def T(self) -> "Tensor":
        return self.transpose()

    def __len__(self) -> int:
        return len(self.data)

    def __repr__(self) -> str:
        grad_flag = ", requires_grad=True" if self.requires_grad else ""
        return f"Tensor(shape={self.shape}{grad_flag})"

    def item(self) -> float:
        return float(self.data.reshape(-1)[0]) if self.data.size == 1 else float(self.data)

    def numpy(self) -> np.ndarray:
        return self.data

    def detach(self) -> "Tensor":
        """Return a new tensor sharing data but detached from the graph."""
        out = Tensor(self.data, requires_grad=False)
        if _STATE.trace_depth:
            # Keep the capture walk connected through the detach point; the
            # plan builder treats "detach" as a gradient stop, not a constant.
            out._op = "detach"
            out._op_meta = None
            out._op_parents = (self,)
        return out

    def copy(self) -> "Tensor":
        return Tensor(self.data.copy(), requires_grad=False)

    def zero_grad(self) -> None:
        self.grad = None

    # ------------------------------------------------------------------ #
    # graph construction helpers
    # ------------------------------------------------------------------ #
    @staticmethod
    def _make(
        data: np.ndarray,
        parents: Tuple["Tensor", ...],
        backward: Callable[[np.ndarray], None],
        op: Optional[str] = None,
        meta: Optional[dict] = None,
    ) -> "Tensor":
        requires = _STATE.grad_enabled and any(p.requires_grad for p in parents)
        out = Tensor(data, requires_grad=requires)
        if requires:
            out._parents = parents
            out._backward = backward
        if _STATE.trace_depth and op is not None:
            out._op = op
            out._op_meta = meta
            out._op_parents = parents
        if _OP_COUNTERS:
            for counter in _OP_COUNTERS:
                counter.count += 1
        return out

    def _accumulate(self, grad: np.ndarray) -> None:
        if self.grad is None:
            self.grad = np.array(grad, dtype=self.data.dtype, copy=True)
        else:
            self.grad = self.grad + grad

    def backward(self, grad: Optional[ArrayLike] = None) -> None:
        """Back-propagate from this tensor through the recorded graph."""
        if not self.requires_grad:
            raise RuntimeError("backward() called on a tensor that does not require grad")
        if grad is None:
            if self.data.size != 1:
                raise RuntimeError("grad must be provided for non-scalar tensors")
            grad = np.ones_like(self.data)
        grad = _to_array(grad)

        topo: list[Tensor] = []
        visited: set[int] = set()

        # Iterative topological sort to avoid recursion limits on deep nets.
        stack: list[Tuple[Tensor, bool]] = [(self, False)]
        while stack:
            node, processed = stack.pop()
            if processed:
                topo.append(node)
                continue
            if id(node) in visited:
                continue
            visited.add(id(node))
            stack.append((node, True))
            for parent in node._parents:
                if id(parent) not in visited:
                    stack.append((parent, False))

        self._accumulate(grad)
        for node in reversed(topo):
            if node._backward is None or node.grad is None:
                continue
            node._backward(node.grad)

    # ------------------------------------------------------------------ #
    # arithmetic
    # ------------------------------------------------------------------ #
    def __add__(self, other: ArrayLike) -> "Tensor":
        other_t = as_tensor(other)
        out_data = self.data + other_t.data

        def backward(grad: np.ndarray) -> None:
            if self.requires_grad:
                self._accumulate(_unbroadcast(grad, self.shape))
            if other_t.requires_grad:
                other_t._accumulate(_unbroadcast(grad, other_t.shape))

        return Tensor._make(out_data, (self, other_t), backward, op="add")

    def __radd__(self, other: ArrayLike) -> "Tensor":
        return self.__add__(other)

    def __neg__(self) -> "Tensor":
        def backward(grad: np.ndarray) -> None:
            if self.requires_grad:
                self._accumulate(-grad)

        return Tensor._make(-self.data, (self,), backward, op="neg")

    def __sub__(self, other: ArrayLike) -> "Tensor":
        return self.__add__(as_tensor(other).__neg__())

    def __rsub__(self, other: ArrayLike) -> "Tensor":
        return as_tensor(other).__sub__(self)

    def __mul__(self, other: ArrayLike) -> "Tensor":
        other_t = as_tensor(other)
        out_data = self.data * other_t.data

        def backward(grad: np.ndarray) -> None:
            if self.requires_grad:
                self._accumulate(_unbroadcast(grad * other_t.data, self.shape))
            if other_t.requires_grad:
                other_t._accumulate(_unbroadcast(grad * self.data, other_t.shape))

        return Tensor._make(out_data, (self, other_t), backward, op="mul")

    def __rmul__(self, other: ArrayLike) -> "Tensor":
        return self.__mul__(other)

    def __truediv__(self, other: ArrayLike) -> "Tensor":
        other_t = as_tensor(other)
        out_data = self.data / other_t.data

        def backward(grad: np.ndarray) -> None:
            if self.requires_grad:
                self._accumulate(_unbroadcast(grad / other_t.data, self.shape))
            if other_t.requires_grad:
                other_t._accumulate(
                    _unbroadcast(-grad * self.data / (other_t.data ** 2), other_t.shape)
                )

        return Tensor._make(out_data, (self, other_t), backward, op="div")

    def __rtruediv__(self, other: ArrayLike) -> "Tensor":
        return as_tensor(other).__truediv__(self)

    def __pow__(self, exponent: float) -> "Tensor":
        if isinstance(exponent, Tensor):
            raise TypeError("tensor exponents are not supported; use exp/log")
        out_data = self.data ** exponent

        def backward(grad: np.ndarray) -> None:
            if self.requires_grad:
                self._accumulate(grad * exponent * self.data ** (exponent - 1))

        return Tensor._make(out_data, (self,), backward, op="pow", meta={"exponent": exponent})

    def __matmul__(self, other: ArrayLike) -> "Tensor":
        other_t = as_tensor(other)
        out_data = self.data @ other_t.data

        def backward(grad: np.ndarray) -> None:
            if self.requires_grad:
                if other_t.data.ndim == 1:
                    self._accumulate(np.outer(grad, other_t.data).reshape(self.shape))
                else:
                    self._accumulate(
                        _unbroadcast(grad @ np.swapaxes(other_t.data, -1, -2), self.shape)
                    )
            if other_t.requires_grad:
                if self.data.ndim == 1:
                    other_t._accumulate(np.outer(self.data, grad).reshape(other_t.shape))
                else:
                    other_t._accumulate(
                        _unbroadcast(np.swapaxes(self.data, -1, -2) @ grad, other_t.shape)
                    )

        return Tensor._make(out_data, (self, other_t), backward, op="matmul")

    # comparisons produce plain boolean arrays (no gradient)
    def __gt__(self, other: ArrayLike) -> np.ndarray:
        return self.data > _to_array(other)

    def __lt__(self, other: ArrayLike) -> np.ndarray:
        return self.data < _to_array(other)

    def __ge__(self, other: ArrayLike) -> np.ndarray:
        return self.data >= _to_array(other)

    def __le__(self, other: ArrayLike) -> np.ndarray:
        return self.data <= _to_array(other)

    # ------------------------------------------------------------------ #
    # elementwise functions
    # ------------------------------------------------------------------ #
    def exp(self) -> "Tensor":
        out_data = np.exp(self.data)

        def backward(grad: np.ndarray) -> None:
            if self.requires_grad:
                self._accumulate(grad * out_data)

        return Tensor._make(out_data, (self,), backward, op="exp")

    def log(self) -> "Tensor":
        out_data = np.log(self.data)

        def backward(grad: np.ndarray) -> None:
            if self.requires_grad:
                self._accumulate(grad / self.data)

        return Tensor._make(out_data, (self,), backward, op="log")

    def sqrt(self) -> "Tensor":
        out_data = np.sqrt(self.data)

        def backward(grad: np.ndarray) -> None:
            if self.requires_grad:
                self._accumulate(grad * 0.5 / np.maximum(out_data, 1e-12))

        return Tensor._make(out_data, (self,), backward, op="sqrt")

    def abs(self) -> "Tensor":
        out_data = np.abs(self.data)

        def backward(grad: np.ndarray) -> None:
            if self.requires_grad:
                self._accumulate(grad * np.sign(self.data))

        return Tensor._make(out_data, (self,), backward, op="abs")

    def tanh(self) -> "Tensor":
        out_data = np.tanh(self.data)

        def backward(grad: np.ndarray) -> None:
            if self.requires_grad:
                self._accumulate(grad * (1.0 - out_data ** 2))

        return Tensor._make(out_data, (self,), backward, op="tanh")

    def sigmoid(self) -> "Tensor":
        out_data = 1.0 / (1.0 + np.exp(-self.data))

        def backward(grad: np.ndarray) -> None:
            if self.requires_grad:
                self._accumulate(grad * out_data * (1.0 - out_data))

        return Tensor._make(out_data, (self,), backward, op="sigmoid")

    def relu(self) -> "Tensor":
        mask = self.data > 0
        out_data = self.data * mask

        def backward(grad: np.ndarray) -> None:
            if self.requires_grad:
                self._accumulate(grad * mask)

        return Tensor._make(out_data, (self,), backward, op="relu")

    def clip(self, low: float, high: float) -> "Tensor":
        """Clamp values to ``[low, high]`` (gradient is 1 inside the range)."""
        out_data = np.clip(self.data, low, high)
        mask = (self.data >= low) & (self.data <= high)

        def backward(grad: np.ndarray) -> None:
            if self.requires_grad:
                self._accumulate(grad * mask)

        return Tensor._make(out_data, (self,), backward, op="clip", meta={"low": low, "high": high})

    def maximum(self, other: ArrayLike) -> "Tensor":
        other_t = as_tensor(other)
        out_data = np.maximum(self.data, other_t.data)
        self_mask = self.data >= other_t.data

        def backward(grad: np.ndarray) -> None:
            if self.requires_grad:
                self._accumulate(_unbroadcast(grad * self_mask, self.shape))
            if other_t.requires_grad:
                other_t._accumulate(_unbroadcast(grad * (~self_mask), other_t.shape))

        return Tensor._make(out_data, (self, other_t), backward, op="maximum")

    # ------------------------------------------------------------------ #
    # reductions
    # ------------------------------------------------------------------ #
    def sum(self, axis=None, keepdims: bool = False) -> "Tensor":
        out_data = self.data.sum(axis=axis, keepdims=keepdims)

        def backward(grad: np.ndarray) -> None:
            if not self.requires_grad:
                return
            g = np.asarray(grad)
            if axis is None:
                self._accumulate(np.broadcast_to(g, self.shape).copy())
                return
            if not keepdims:
                axes = axis if isinstance(axis, tuple) else (axis,)
                axes = tuple(a % self.data.ndim for a in axes)
                g = np.expand_dims(g, axis=tuple(sorted(axes)))
            self._accumulate(np.broadcast_to(g, self.shape).copy())

        return Tensor._make(out_data, (self,), backward, op="sum", meta={"axis": axis, "keepdims": keepdims})

    def mean(self, axis=None, keepdims: bool = False) -> "Tensor":
        if axis is None:
            count = self.data.size
        else:
            axes = axis if isinstance(axis, tuple) else (axis,)
            count = int(np.prod([self.data.shape[a] for a in axes]))
        return self.sum(axis=axis, keepdims=keepdims) * (1.0 / count)

    def var(self, axis=None, keepdims: bool = False) -> "Tensor":
        centered = self - self.mean(axis=axis, keepdims=True)
        return (centered * centered).mean(axis=axis, keepdims=keepdims)

    def max(self, axis=None, keepdims: bool = False) -> "Tensor":
        out_data = self.data.max(axis=axis, keepdims=keepdims)

        def backward(grad: np.ndarray) -> None:
            if not self.requires_grad:
                return
            g = np.asarray(grad)
            if axis is None:
                mask = self.data == out_data
                self._accumulate(mask * g / max(mask.sum(), 1))
                return
            expanded = self.data.max(axis=axis, keepdims=True)
            mask = self.data == expanded
            if not keepdims:
                axes = axis if isinstance(axis, tuple) else (axis,)
                axes = tuple(a % self.data.ndim for a in axes)
                g = np.expand_dims(g, axis=tuple(sorted(axes)))
            counts = mask.sum(axis=axis, keepdims=True)
            self._accumulate(mask * g / np.maximum(counts, 1))

        return Tensor._make(out_data, (self,), backward, op="max", meta={"axis": axis, "keepdims": keepdims})

    def min(self, axis=None, keepdims: bool = False) -> "Tensor":
        return (-self).max(axis=axis, keepdims=keepdims).__neg__()

    # ------------------------------------------------------------------ #
    # shape manipulation
    # ------------------------------------------------------------------ #
    def reshape(self, *shape) -> "Tensor":
        if len(shape) == 1 and isinstance(shape[0], (tuple, list)):
            shape = tuple(shape[0])
        out_data = self.data.reshape(shape)
        original = self.shape

        def backward(grad: np.ndarray) -> None:
            if self.requires_grad:
                self._accumulate(grad.reshape(original))

        return Tensor._make(out_data, (self,), backward, op="reshape", meta={"shape": out_data.shape})

    def flatten(self, start_dim: int = 1) -> "Tensor":
        new_shape = self.shape[:start_dim] + (-1,)
        return self.reshape(*new_shape)

    def transpose(self, axes: Optional[Sequence[int]] = None) -> "Tensor":
        out_data = np.transpose(self.data, axes)
        if axes is None:
            inverse = None
        else:
            inverse = np.argsort(axes)

        def backward(grad: np.ndarray) -> None:
            if self.requires_grad:
                self._accumulate(np.transpose(grad, inverse))

        return Tensor._make(out_data, (self,), backward, op="transpose", meta={"axes": None if axes is None else tuple(axes)})

    def __getitem__(self, index) -> "Tensor":
        out_data = self.data[index]

        def backward(grad: np.ndarray) -> None:
            if self.requires_grad:
                full = np.zeros_like(self.data)
                np.add.at(full, index, grad)
                self._accumulate(full)

        return Tensor._make(out_data, (self,), backward, op="getitem", meta={"index": index})

    def pad2d(self, padding: int) -> "Tensor":
        """Zero-pad the last two (spatial) dimensions of an NCHW tensor."""
        if padding == 0:
            return self
        pad_width = [(0, 0)] * (self.ndim - 2) + [(padding, padding), (padding, padding)]
        out_data = np.pad(self.data, pad_width)

        def backward(grad: np.ndarray) -> None:
            if self.requires_grad:
                slices = tuple(
                    slice(None) for _ in range(self.ndim - 2)
                ) + (slice(padding, -padding), slice(padding, -padding))
                self._accumulate(grad[slices])

        return Tensor._make(out_data, (self,), backward, op="pad2d", meta={"padding": padding})


def as_tensor(value: ArrayLike) -> Tensor:
    """Convert ``value`` to a :class:`Tensor` without copying when possible."""
    if isinstance(value, Tensor):
        return value
    return Tensor(value)


def stack(tensors: Iterable[Tensor], axis: int = 0) -> Tensor:
    """Stack tensors along a new axis, tracking gradients."""
    tensors = [as_tensor(t) for t in tensors]
    out_data = np.stack([t.data for t in tensors], axis=axis)

    def backward(grad: np.ndarray) -> None:
        pieces = np.split(grad, len(tensors), axis=axis)
        for tensor, piece in zip(tensors, pieces):
            if tensor.requires_grad:
                tensor._accumulate(np.squeeze(piece, axis=axis))

    return Tensor._make(out_data, tuple(tensors), backward, op="stack", meta={"axis": axis})


def concatenate(tensors: Iterable[Tensor], axis: int = 0) -> Tensor:
    """Concatenate tensors along an existing axis, tracking gradients."""
    tensors = [as_tensor(t) for t in tensors]
    out_data = np.concatenate([t.data for t in tensors], axis=axis)
    sizes = [t.shape[axis] for t in tensors]
    offsets = np.cumsum([0] + sizes)

    def backward(grad: np.ndarray) -> None:
        for tensor, start, stop in zip(tensors, offsets[:-1], offsets[1:]):
            if tensor.requires_grad:
                slices = [slice(None)] * grad.ndim
                slices[axis] = slice(start, stop)
                tensor._accumulate(grad[tuple(slices)])

    return Tensor._make(out_data, tuple(tensors), backward, op="concatenate", meta={"axis": axis})
