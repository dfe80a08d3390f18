"""Layer / module abstractions on top of the autograd engine.

Provides the subset of ``torch.nn`` the IB-RAR reproduction needs:
``Module`` (parameter registry, train/eval mode, state-dict), ``Linear``,
``Conv2d``, ``BatchNorm2d``, ``ReLU``, ``MaxPool2d``, ``AvgPool2d``,
``GlobalAvgPool2d``, ``Dropout``, ``Flatten``, ``Identity`` and
``Sequential``.
"""

from __future__ import annotations

import warnings
from collections import OrderedDict
from typing import Dict, Iterator, List, Optional, Tuple

import numpy as np

from . import functional as F
from . import init
from .rng import STATE_SEEDED, STATE_STEP, make_dropout_state
from .tensor import Tensor

__all__ = [
    "Parameter",
    "Module",
    "Linear",
    "Conv2d",
    "BatchNorm2d",
    "ReLU",
    "MaxPool2d",
    "AvgPool2d",
    "GlobalAvgPool2d",
    "Dropout",
    "advance_dropout_steps",
    "Flatten",
    "Identity",
    "Sequential",
]


class Parameter(Tensor):
    """A tensor that is registered as a trainable parameter of a module."""

    def __init__(self, data: np.ndarray, name: str = "") -> None:
        super().__init__(data, requires_grad=True, name=name)


class Module:
    """Base class for all neural network modules.

    Subclasses implement :meth:`forward`.  Parameters and sub-modules assigned
    as attributes are registered automatically, which makes
    :meth:`parameters`, :meth:`state_dict` and :meth:`load_state_dict` work
    without extra bookkeeping.
    """

    def __init__(self) -> None:
        self._parameters: "OrderedDict[str, Parameter]" = OrderedDict()
        self._modules: "OrderedDict[str, Module]" = OrderedDict()
        self._buffers: "OrderedDict[str, np.ndarray]" = OrderedDict()
        self.training = True

    # -- attribute registration ------------------------------------------------
    def __setattr__(self, name: str, value) -> None:
        if isinstance(value, Parameter):
            self.__dict__.setdefault("_parameters", OrderedDict())[name] = value
        elif isinstance(value, Module):
            self.__dict__.setdefault("_modules", OrderedDict())[name] = value
        object.__setattr__(self, name, value)

    def register_buffer(self, name: str, value: np.ndarray) -> None:
        """Register a non-trainable array saved in the state dict (e.g. BN stats)."""
        self._buffers[name] = value
        object.__setattr__(self, name, value)

    # -- forward ---------------------------------------------------------------
    def forward(self, *args, **kwargs) -> Tensor:
        raise NotImplementedError

    def __call__(self, *args, **kwargs) -> Tensor:
        return self.forward(*args, **kwargs)

    def compile(self, sample_input):
        """Capture this module's forward into a static, replayable plan.

        Runs one eval-mode forward on ``sample_input`` under graph tracing,
        optimizes the captured graph (ReLU fusion, dead-node elimination)
        and binds it to pre-allocated buffers.  The plan reads this module's
        parameters, buffers and channel mask in place, so in-place updates
        need no recompile.  Returns a :class:`repro.compile.CompiledModel`
        whose ``__call__``, ``value_and_grad``, ``jacobian`` and ``forward``
        replay the plan without rebuilding the autograd graph of the model;
        an input shape the plan has not seen runs eagerly on its first
        sighting and is compiled on its second (up to eight signatures).
        Equivalent to :func:`repro.compile.compile_model`.
        """
        from ..compile import compile_model

        return compile_model(self, sample_input)

    # -- mode ------------------------------------------------------------------
    def train(self, mode: bool = True) -> "Module":
        self.training = mode
        for module in self._modules.values():
            module.train(mode)
        return self

    def eval(self) -> "Module":
        return self.train(False)

    # -- parameter access --------------------------------------------------------
    def parameters(self) -> List[Parameter]:
        """Return all trainable parameters of this module and its children."""
        return [param for _, param in self.named_parameters()]

    def named_parameters(self, prefix: str = "") -> Iterator[Tuple[str, Parameter]]:
        for name, param in self._parameters.items():
            yield (f"{prefix}{name}", param)
        for mod_name, module in self._modules.items():
            yield from module.named_parameters(prefix=f"{prefix}{mod_name}.")

    def named_modules(self, prefix: str = "") -> Iterator[Tuple[str, "Module"]]:
        yield (prefix.rstrip("."), self)
        for mod_name, module in self._modules.items():
            yield from module.named_modules(prefix=f"{prefix}{mod_name}.")

    def modules(self) -> Iterator["Module"]:
        for _, module in self.named_modules():
            yield module

    def zero_grad(self) -> None:
        for param in self.parameters():
            param.grad = None

    def num_parameters(self) -> int:
        return int(sum(param.size for param in self.parameters()))

    # -- serialization -----------------------------------------------------------
    def state_dict(self, prefix: str = "") -> Dict[str, np.ndarray]:
        state: Dict[str, np.ndarray] = {}
        for name, param in self._parameters.items():
            state[f"{prefix}{name}"] = param.data.copy()
        for name, buf in self._buffers.items():
            state[f"{prefix}{name}"] = np.array(buf, copy=True)
        for mod_name, module in self._modules.items():
            state.update(module.state_dict(prefix=f"{prefix}{mod_name}."))
        return state

    def load_state_dict(self, state: Dict[str, np.ndarray], prefix: str = "") -> None:
        for name, param in self._parameters.items():
            key = f"{prefix}{name}"
            if key not in state:
                raise KeyError(f"missing parameter '{key}' in state dict")
            if state[key].shape != param.data.shape:
                raise ValueError(
                    f"shape mismatch for '{key}': {state[key].shape} vs {param.data.shape}"
                )
            param.data = np.array(state[key], copy=True)
        for name in self._buffers:
            key = f"{prefix}{name}"
            if key in state:
                buf = self._buffers[name]
                buf[...] = state[key]
        for mod_name, module in self._modules.items():
            module.load_state_dict(state, prefix=f"{prefix}{mod_name}.")


class Linear(Module):
    """Fully connected layer ``y = x W^T + b``."""

    def __init__(
        self,
        in_features: int,
        out_features: int,
        bias: bool = True,
        rng: Optional[np.random.Generator] = None,
    ) -> None:
        super().__init__()
        rng = rng or np.random.default_rng()
        self.in_features = in_features
        self.out_features = out_features
        self.weight = Parameter(init.kaiming_normal((out_features, in_features), rng))
        self.bias = Parameter(init.zeros((out_features,))) if bias else None

    def forward(self, x: Tensor) -> Tensor:
        return F.linear(x, self.weight, self.bias)

    def __repr__(self) -> str:
        return f"Linear({self.in_features}, {self.out_features})"


class Conv2d(Module):
    """2-D convolution with square kernels."""

    def __init__(
        self,
        in_channels: int,
        out_channels: int,
        kernel_size: int,
        stride: int = 1,
        padding: int = 0,
        bias: bool = True,
        rng: Optional[np.random.Generator] = None,
    ) -> None:
        super().__init__()
        rng = rng or np.random.default_rng()
        self.in_channels = in_channels
        self.out_channels = out_channels
        self.kernel_size = kernel_size
        self.stride = stride
        self.padding = padding
        self.weight = Parameter(
            init.kaiming_normal((out_channels, in_channels, kernel_size, kernel_size), rng)
        )
        self.bias = Parameter(init.zeros((out_channels,))) if bias else None

    def forward(self, x: Tensor) -> Tensor:
        return F.conv2d(x, self.weight, self.bias, stride=self.stride, padding=self.padding)

    def __repr__(self) -> str:
        return (
            f"Conv2d({self.in_channels}, {self.out_channels}, k={self.kernel_size}, "
            f"s={self.stride}, p={self.padding})"
        )


class BatchNorm2d(Module):
    """Batch normalization over the channel dimension of NCHW tensors."""

    def __init__(self, num_features: int, momentum: float = 0.1, eps: float = 1e-5) -> None:
        super().__init__()
        self.num_features = num_features
        self.momentum = momentum
        self.eps = eps
        self.weight = Parameter(init.ones((num_features,)))
        self.bias = Parameter(init.zeros((num_features,)))
        self.register_buffer("running_mean", np.zeros(num_features))
        self.register_buffer("running_var", np.ones(num_features))

    def forward(self, x: Tensor) -> Tensor:
        return F.batch_norm2d(
            x,
            self.weight,
            self.bias,
            self.running_mean,
            self.running_var,
            training=self.training,
            momentum=self.momentum,
            eps=self.eps,
        )

    def __repr__(self) -> str:
        return f"BatchNorm2d({self.num_features})"


class ReLU(Module):
    def forward(self, x: Tensor) -> Tensor:
        return x.relu()

    def __repr__(self) -> str:
        return "ReLU()"


class MaxPool2d(Module):
    def __init__(self, kernel_size: int = 2, stride: Optional[int] = None) -> None:
        super().__init__()
        self.kernel_size = kernel_size
        self.stride = stride or kernel_size

    def forward(self, x: Tensor) -> Tensor:
        return F.max_pool2d(x, self.kernel_size, self.stride)

    def __repr__(self) -> str:
        return f"MaxPool2d(k={self.kernel_size}, s={self.stride})"


class AvgPool2d(Module):
    def __init__(self, kernel_size: int = 2, stride: Optional[int] = None) -> None:
        super().__init__()
        self.kernel_size = kernel_size
        self.stride = stride or kernel_size

    def forward(self, x: Tensor) -> Tensor:
        return F.avg_pool2d(x, self.kernel_size, self.stride)


class GlobalAvgPool2d(Module):
    def forward(self, x: Tensor) -> Tensor:
        return F.global_avg_pool2d(x)


class Dropout(Module):
    """Inverted dropout with counter-based (replayable) masks.

    The default scheme derives every mask from ``(seed, layer_id, step)``
    (see :mod:`repro.nn.rng`); the triple lives in a registered buffer, so
    it rides through ``state_dict``/checkpoints and a resumed run draws
    bitwise the same masks as an uninterrupted one.  All applications
    within one optimizer step reuse one mask; call
    :func:`advance_dropout_steps` (the trainer does) once per step.
    """

    def __init__(self, p: float = 0.5, seed: Optional[int] = None, layer_id: int = 0) -> None:
        super().__init__()
        self.p = p
        self._warned_unseeded = False
        self.register_buffer("rng_state", make_dropout_state(seed, layer_id))

    def forward(self, x: Tensor) -> Tensor:
        if (
            self.training
            and self.p > 0.0
            and not self._warned_unseeded
            and int(self.rng_state[STATE_SEEDED]) == 0
        ):
            self._warned_unseeded = True
            warnings.warn(
                "Dropout was constructed without a seed; masks derive from "
                "seed 0 (deterministic, but probably not what the experiment "
                "intended). Pass seed= to silence this.",
                stacklevel=2,
            )
        return F.dropout(x, self.p, training=self.training, state=self.rng_state)

    def advance_step(self, count: int = 1) -> None:
        """Advance the mask step counter in place."""
        self.rng_state[STATE_STEP] += np.uint64(count)

    def __repr__(self) -> str:
        return f"Dropout(p={self.p})"


def advance_dropout_steps(module: Module, count: int = 1) -> None:
    """Advance every counter-based :class:`Dropout` under ``module`` by ``count``.

    Trainers call this once per optimizer step so the next batch draws
    fresh masks; duplicated submodules are advanced once.
    """
    seen = set()
    for sub in module.modules():
        if isinstance(sub, Dropout) and id(sub) not in seen:
            seen.add(id(sub))
            sub.advance_step(count)


class Flatten(Module):
    def __init__(self, start_dim: int = 1) -> None:
        super().__init__()
        self.start_dim = start_dim

    def forward(self, x: Tensor) -> Tensor:
        return x.flatten(start_dim=self.start_dim)

    def __repr__(self) -> str:
        return "Flatten()"


class Identity(Module):
    def forward(self, x: Tensor) -> Tensor:
        return x

    def __repr__(self) -> str:
        return "Identity()"


class Sequential(Module):
    """Chain of modules applied in order."""

    def __init__(self, *modules: Module) -> None:
        super().__init__()
        self._ordered: List[Module] = []
        for index, module in enumerate(modules):
            setattr(self, f"layer{index}", module)
            self._ordered.append(module)

    def forward(self, x: Tensor) -> Tensor:
        for module in self._ordered:
            x = module(x)
        return x

    def __iter__(self) -> Iterator[Module]:
        return iter(self._ordered)

    def __len__(self) -> int:
        return len(self._ordered)

    def __getitem__(self, index: int) -> Module:
        return self._ordered[index]

    def append(self, module: Module) -> "Sequential":
        index = len(self._ordered)
        setattr(self, f"layer{index}", module)
        self._ordered.append(module)
        return self

    def __repr__(self) -> str:
        inner = ", ".join(repr(m) for m in self._ordered)
        return f"Sequential({inner})"
