"""Loss-strategy specs: declarative, serializable training-loss descriptions.

Mirrors the :class:`repro.attacks.AttackSpec` idiom for training losses: a
:class:`LossSpec` is a frozen ``(registry name, hyperparameters)`` pair with a
canonical JSON form, so a whole training recipe (plain CE, PGD-AT, TRADES,
MART, or an IB-RAR-wrapped variant) can be embedded in experiment specs,
hashed deterministically, shipped across process boundaries, and rebuilt with
:meth:`LossSpec.build`.

Hyperparameters are stored as a canonical (sorted-keys) JSON string rather
than the attack module's tuple-of-pairs because IB-RAR loss specs nest whole
:class:`~repro.core.config.IBRARConfig` dicts and sub-loss specs.

Unknown names and hyperparameters raise :class:`LossConfigError` (the
training-loss analogue of :class:`repro.attacks.AttackConfigError`).
"""

from __future__ import annotations

import inspect
import json
from dataclasses import dataclass
from typing import Any, Callable, Dict, Iterable, List, Mapping, Union

from .adversarial import (
    ADVERSARIAL_TRAINING_REGISTRY,
    CrossEntropyLoss,
    LossStrategy,
    MARTLoss,
    PGDAdversarialLoss,
    TRADESLoss,
)

__all__ = [
    "LossConfigError",
    "LossSpec",
    "LOSS_REGISTRY",
    "available_losses",
    "build_loss",
    "coerce_loss_spec",
]


class LossConfigError(ValueError):
    """Unknown loss name or invalid hyperparameters for a training loss."""


def _ibrar_mi_factory(**kwargs) -> LossStrategy:
    from ..core.losses import MILoss

    return MILoss(**kwargs)


def _ibrar_adversarial_factory(**kwargs) -> LossStrategy:
    from ..core.losses import AdversarialMILoss

    return AdversarialMILoss(**kwargs)


def _ibrar_mi_signature() -> inspect.Signature:
    from ..core.losses import MILoss

    return inspect.signature(MILoss.__init__)


def _ibrar_adversarial_signature() -> inspect.Signature:
    from ..core.losses import AdversarialMILoss

    return inspect.signature(AdversarialMILoss.__init__)


#: name -> factory.  The four benchmark strategies come straight from
#: ADVERSARIAL_TRAINING_REGISTRY; the IB-RAR variants are factories that
#: import repro.core lazily (core imports this package, not vice versa).
LOSS_REGISTRY: Dict[str, Callable[..., LossStrategy]] = dict(ADVERSARIAL_TRAINING_REGISTRY)
LOSS_REGISTRY["ib-rar-mi"] = _ibrar_mi_factory
LOSS_REGISTRY["ib-rar-adversarial"] = _ibrar_adversarial_factory

_SIGNATURE_PROVIDERS: Dict[str, Callable[[], inspect.Signature]] = {
    "ib-rar-mi": _ibrar_mi_signature,
    "ib-rar-adversarial": _ibrar_adversarial_signature,
}

#: hyperparameters of the IB-RAR variants that arrive as JSON dicts and need
#: reviving into richer objects before the constructor sees them.
_CONFIG_KEYS = ("config",)
_NESTED_SPEC_KEYS = ("base_loss", "adversarial_strategy")


def available_losses() -> List[str]:
    """Sorted registry names accepted by :func:`build_loss`."""
    return sorted(LOSS_REGISTRY)


def _signature_for(name: str) -> inspect.Signature:
    provider = _SIGNATURE_PROVIDERS.get(name)
    if provider is not None:
        return provider()
    return inspect.signature(LOSS_REGISTRY[name].__init__)


def _accepted_hyperparameters(name: str) -> List[str]:
    signature = _signature_for(name)
    return [p for p in signature.parameters if p not in ("self", "args", "kwargs")]


def _revive(name: str, kwargs: Dict[str, Any]) -> Dict[str, Any]:
    """Turn JSON-shaped hyperparameter values back into constructor objects."""
    revived = dict(kwargs)
    for key in _CONFIG_KEYS:
        value = revived.get(key)
        if isinstance(value, Mapping):
            from ..core.config import IBRARConfig

            revived[key] = IBRARConfig.from_dict(dict(value))
    for key in _NESTED_SPEC_KEYS:
        value = revived.get(key)
        if isinstance(value, (Mapping, str)):
            revived[key] = coerce_loss_spec(value).build()
    return revived


def build_loss(name: str, **kwargs) -> LossStrategy:
    """Instantiate a training loss by registry name with validated kwargs.

    Unknown names raise :class:`LossConfigError` listing the registry;
    unknown hyperparameters raise with the accepted names in the message —
    the same contract as :func:`repro.attacks.build_attack`.
    """
    key = str(name).lower()
    if key not in LOSS_REGISTRY:
        raise LossConfigError(
            f"unknown training loss '{name}'; available: {available_losses()}"
        )
    accepted = _accepted_hyperparameters(key)
    unknown = sorted(set(kwargs) - set(accepted))
    if unknown:
        raise LossConfigError(
            f"training loss '{key}' does not accept hyperparameter(s) "
            f"{unknown}; accepted: {sorted(accepted)}"
        )
    return LOSS_REGISTRY[key](**_revive(key, kwargs))


def _canonical_params(name: str, params: Any) -> str:
    """Normalize hyperparameters to a canonical (sorted-keys) JSON object.

    Canonicalization *completes* the params with the constructor defaults of
    the named loss, so the same recipe hashes identically no matter how it
    was expressed: ``LossSpec("pgd", {"steps": 3})`` equals
    ``LossSpec.from_strategy(PGDAdversarialLoss(steps=3))`` (which reports
    every constructor argument).  Unknown names and hyperparameters are
    rejected here, at spec construction, rather than at build time.
    """
    if params is None:
        params = {}
    if isinstance(params, str):
        params = json.loads(params) if params else {}
    elif isinstance(params, Mapping):
        params = dict(params)
    elif isinstance(params, Iterable):
        params = dict(params)
    if not isinstance(params, dict):
        raise LossConfigError(f"loss hyperparameters must be a mapping, got {params!r}")
    if name not in LOSS_REGISTRY:
        raise LossConfigError(f"unknown training loss '{name}'; available: {available_losses()}")
    signature = _signature_for(name)
    accepted = [p for p in signature.parameters if p not in ("self", "args", "kwargs")]
    unknown = sorted(set(params) - set(accepted))
    if unknown:
        raise LossConfigError(
            f"training loss '{name}' does not accept hyperparameter(s) {unknown}; "
            f"accepted: {sorted(accepted)}"
        )
    for parameter_name in accepted:
        default = signature.parameters[parameter_name].default
        if parameter_name not in params and default is not inspect.Parameter.empty:
            params[parameter_name] = default
    try:
        return json.dumps(params, sort_keys=True)
    except TypeError as error:
        raise LossConfigError(
            f"loss hyperparameters {params!r} are not JSON-serializable: {error}"
        ) from None


@dataclass(frozen=True)
class LossSpec:
    """A frozen, model-free description of a training loss.

    ``params`` accepts a mapping (or a JSON object string) and is normalized
    to canonical JSON *completed with the loss's constructor defaults*, so
    equal recipes compare and hash equal regardless of key order or of how
    explicitly they were spelled out (``LossSpec("pgd", {"steps": 3})`` ==
    ``LossSpec.from_strategy(PGDAdversarialLoss(steps=3))``).  Unknown loss
    names and hyperparameters are rejected at construction.
    """

    name: str
    params: Any = "{}"

    def __post_init__(self) -> None:
        object.__setattr__(self, "name", str(self.name).lower())
        object.__setattr__(self, "params", _canonical_params(self.name, self.params))

    # -- accessors ---------------------------------------------------------------
    @property
    def kwargs(self) -> Dict[str, Any]:
        """Hyperparameters as a plain keyword dict (build-ready)."""
        return json.loads(self.params)

    def with_params(self, **updates: Any) -> "LossSpec":
        merged = self.kwargs
        merged.update(updates)
        return LossSpec(self.name, merged)

    # -- construction ------------------------------------------------------------
    def build(self, **overrides: Any) -> LossStrategy:
        """Instantiate the strategy through :func:`build_loss`."""
        kwargs = self.kwargs
        kwargs.update(overrides)
        return build_loss(self.name, **kwargs)

    @classmethod
    def from_strategy(cls, strategy: LossStrategy) -> "LossSpec":
        """Recover the spec of a constructed strategy via ``hyperparameters()``."""
        hyper = getattr(strategy, "hyperparameters", None)
        if hyper is None:
            raise LossConfigError(
                f"{type(strategy).__name__} does not expose hyperparameters(); "
                "cannot derive a LossSpec from it"
            )
        return cls(strategy.name, hyper())

    # -- serialization -----------------------------------------------------------
    def as_dict(self) -> Dict[str, Any]:
        return {"name": self.name, "params": self.kwargs}

    @classmethod
    def from_dict(cls, data: Mapping[str, Any]) -> "LossSpec":
        if "name" not in data:
            raise LossConfigError(f"loss spec dict needs a 'name' key: {dict(data)!r}")
        return cls(data["name"], data.get("params", {}))

    def to_json(self) -> str:
        return json.dumps(self.as_dict(), sort_keys=True)

    @classmethod
    def from_json(cls, text: str) -> "LossSpec":
        return cls.from_dict(json.loads(text))

    def __repr__(self) -> str:
        inner = ", ".join(f"{k}={v!r}" for k, v in sorted(self.kwargs.items()))
        return f"LossSpec({self.name!r}, {inner})" if inner else f"LossSpec({self.name!r})"


def coerce_loss_spec(entry: Union["LossSpec", LossStrategy, str, Mapping[str, Any]]) -> "LossSpec":
    """Turn a spec / strategy / registry name / dict into a :class:`LossSpec`."""
    if isinstance(entry, LossSpec):
        return entry
    if isinstance(entry, str):
        return LossSpec(entry)
    if isinstance(entry, Mapping):
        return LossSpec.from_dict(entry)
    if callable(entry):
        return LossSpec.from_strategy(entry)
    raise LossConfigError(f"cannot interpret {entry!r} as a loss spec")
