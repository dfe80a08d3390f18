"""Declarative experiment specs with stable content hashes.

An :class:`ExperimentSpec` is a frozen, JSON-serializable description of one
full experiment: which dataset to synthesize, which model to build, which
training loss (optionally wrapped by IB-RAR), the optimizer/schedule recipe,
how long to train, and which attack suite to evaluate under.  It carries
**no live objects** — datasets, models, losses and attacks are all referred
to by their registry names — so a spec can be hashed, stored, diffed,
shipped across process boundaries and rebuilt anywhere, mirroring
:class:`repro.attacks.AttackSpec`.

Two hashes matter:

* :attr:`ExperimentSpec.training_hash` covers only the fields that influence
  the trained weights (dataset, model, loss, IB-RAR config, optimizer,
  epochs, batch size, seed).  Checkpoints are content-addressed by this
  hash, so two specs that differ only in their *evaluation* (attack suite,
  example count) share one trained model.
* :attr:`ExperimentSpec.content_hash` additionally covers the evaluation
  fields.  Robustness reports are addressed by this hash.

The display ``name`` is excluded from both hashes: relabeling a table row
never retrains a model.
"""

from __future__ import annotations

import hashlib
import json
from dataclasses import dataclass, replace
from typing import Any, Dict, Iterable, Mapping, Optional, Tuple, Union

from ..attacks.engine import AttackSpec, coerce_spec
from ..core.config import IBRARConfig
from ..nn import get_default_dtype
from ..training.specs import LossSpec, coerce_loss_spec

__all__ = ["ExperimentSpec", "ExperimentSpecError", "DEFAULT_OPTIMIZER", "load_specs"]


class ExperimentSpecError(ValueError):
    """Malformed experiment spec (bad field values or unknown keys)."""


#: The paper's optimizer recipe: SGD + StepLR (Section 4 setup).
DEFAULT_OPTIMIZER: Dict[str, float] = {
    "lr": 0.01,
    "momentum": 0.9,
    "weight_decay": 1e-2,
    "step_size": 20,
    "gamma": 0.2,
}

_OPTIMIZER_KEYS = frozenset(DEFAULT_OPTIMIZER)


def _canonical_json(value: Any, what: str) -> str:
    """Normalize a mapping (or JSON object string) to canonical JSON."""
    if value is None:
        value = {}
    if isinstance(value, str):
        value = json.loads(value) if value else {}
    if not isinstance(value, Mapping):
        raise ExperimentSpecError(f"{what} must be a mapping, got {value!r}")
    try:
        return json.dumps(dict(value), sort_keys=True)
    except TypeError as error:
        raise ExperimentSpecError(f"{what} is not JSON-serializable: {error}") from None


def _hash(payload: Dict[str, Any]) -> str:
    return hashlib.sha256(json.dumps(payload, sort_keys=True).encode("utf-8")).hexdigest()


@dataclass(frozen=True)
class ExperimentSpec:
    """A frozen description of one (train -> evaluate) experiment.

    Parameters
    ----------
    dataset:
        Dataset registry name (``repro.data.DATASET_REGISTRY``).
    model:
        Model registry name (``repro.models.MODEL_REGISTRY``).
    loss:
        Base training loss: a :class:`~repro.training.LossSpec`, a registry
        name string, a spec dict, or a constructed strategy.
    ibrar:
        ``None`` for plain training, or an :class:`IBRARConfig` (or its
        ``to_dict()`` form) to wrap the base loss with the IB-RAR defense.
    dataset_params / model_params:
        Keyword arguments for the registry factories, JSON-canonicalized.
    optimizer:
        SGD + StepLR knobs (``lr``, ``momentum``, ``weight_decay``,
        ``step_size``, ``gamma``); missing keys take the paper defaults.
    epochs / batch_size / seed:
        Training length, mini-batch size and the single base seed from which
        every per-component seed is derived (:func:`repro.utils.derive_seeds`).
    attacks:
        Evaluation suite as :class:`~repro.attacks.AttackSpec` entries
        (anything ``coerce_spec`` accepts).  Empty means natural-accuracy
        evaluation only.
    eval_examples:
        How many test examples to evaluate on (``None`` = all).
    eval_batch_size:
        Attack/prediction batch size during evaluation.
    eval_compile:
        Run the evaluation through :mod:`repro.compile` static plans (with
        automatic eager fallback).  When enabled it joins the content hash
        (compiled and eager evaluations are separate cache entries, so a
        cached eager report is never silently served for a compiled request
        or vice versa); when disabled the key is omitted from the hashed
        payload, so pre-existing specs keep their hashes and cached reports.
    train_compile:
        Run *training* through compiled plans (``Trainer(compile=True)``:
        training-mode forwards, full parameter-gradient backward, fused
        in-place optimizer).  Compiled and eager training produce
        numerically close but not bitwise-identical weights, so when
        enabled the flag joins the **training hash** (separate checkpoint
        cache entries); when disabled it is omitted from the hashed
        payload, so every pre-existing spec keeps its training hash and
        cached checkpoints.
    name:
        Display label for tables; **excluded** from both content hashes.
    """

    dataset: str
    model: str
    loss: Any = "ce"
    ibrar: Any = None
    dataset_params: Any = "{}"
    model_params: Any = "{}"
    optimizer: Any = "{}"
    epochs: int = 10
    batch_size: int = 100
    seed: int = 0
    attacks: Tuple[AttackSpec, ...] = ()
    eval_examples: Optional[int] = None
    eval_batch_size: int = 64
    eval_early_exit: bool = True
    eval_cascade: bool = False
    eval_compile: bool = False
    train_compile: bool = False
    name: str = ""

    def __post_init__(self) -> None:
        object.__setattr__(self, "dataset", str(self.dataset).lower())
        object.__setattr__(self, "model", str(self.model).lower())
        object.__setattr__(self, "loss", coerce_loss_spec(self.loss))
        ibrar = self.ibrar
        if isinstance(ibrar, IBRARConfig):
            ibrar = ibrar.to_dict()
        if ibrar is not None:
            # Validate through the config class so bad fields fail at spec
            # construction, not at training time in a worker process.
            config = ibrar if isinstance(ibrar, Mapping) else json.loads(ibrar)
            ibrar = _canonical_json(IBRARConfig.from_dict(dict(config)).to_dict(), "ibrar")
        object.__setattr__(self, "ibrar", ibrar)
        object.__setattr__(
            self, "dataset_params", _canonical_json(self.dataset_params, "dataset_params")
        )
        object.__setattr__(self, "model_params", _canonical_json(self.model_params, "model_params"))
        optimizer = json.loads(_canonical_json(self.optimizer, "optimizer"))
        unknown = sorted(set(optimizer) - _OPTIMIZER_KEYS)
        if unknown:
            raise ExperimentSpecError(
                f"unknown optimizer key(s) {unknown}; accepted: {sorted(_OPTIMIZER_KEYS)}"
            )
        merged = dict(DEFAULT_OPTIMIZER)
        merged.update(optimizer)
        object.__setattr__(self, "optimizer", json.dumps(merged, sort_keys=True))
        if self.epochs < 1:
            raise ExperimentSpecError("epochs must be at least 1")
        if self.batch_size < 1 or self.eval_batch_size < 1:
            raise ExperimentSpecError("batch sizes must be positive")
        if self.eval_examples is not None and self.eval_examples < 1:
            raise ExperimentSpecError("eval_examples must be positive (or None for all)")
        attacks = self.attacks
        if isinstance(attacks, (AttackSpec, str, Mapping)):
            attacks = (attacks,)
        object.__setattr__(self, "attacks", tuple(coerce_spec(a) for a in attacks))
        object.__setattr__(self, "name", str(self.name))

    # -- accessors ---------------------------------------------------------------
    @property
    def dataset_kwargs(self) -> Dict[str, Any]:
        return json.loads(self.dataset_params)

    @property
    def model_kwargs(self) -> Dict[str, Any]:
        return json.loads(self.model_params)

    @property
    def optimizer_kwargs(self) -> Dict[str, Any]:
        return json.loads(self.optimizer)

    @property
    def ibrar_config(self) -> Optional[IBRARConfig]:
        if self.ibrar is None:
            return None
        return IBRARConfig.from_dict(json.loads(self.ibrar))

    @property
    def label(self) -> str:
        """Display name, falling back to a compact auto-generated one."""
        if self.name:
            return self.name
        suffix = " (IB-RAR)" if self.ibrar is not None else ""
        return f"{self.loss.name}/{self.model}/{self.dataset}{suffix}"

    def with_(self, **updates: Any) -> "ExperimentSpec":
        """Return a copy with some fields replaced (``dataclasses.replace``)."""
        return replace(self, **updates)

    # -- hashing -----------------------------------------------------------------
    def training_dict(self) -> Dict[str, Any]:
        """The fields that determine the trained weights, JSON-ready."""
        payload = {
            "dataset": {"name": self.dataset, "params": self.dataset_kwargs},
            "model": {"name": self.model, "params": self.model_kwargs},
            "loss": self.loss.as_dict(),
            "ibrar": json.loads(self.ibrar) if self.ibrar is not None else None,
            "optimizer": self.optimizer_kwargs,
            "epochs": self.epochs,
            "batch_size": self.batch_size,
            "seed": self.seed,
        }
        # The ambient default dtype (repro.nn.set_default_dtype) changes the
        # trained weights, so it must separate cache entries; omitted for
        # float64 so every pre-existing hash stays stable.
        dtype = str(get_default_dtype())
        if dtype != "float64":
            payload["dtype"] = dtype
        # Same pattern for compiled training: the key joins the payload only
        # when enabled, keeping every eager-trained hash (and checkpoint)
        # exactly where it was.
        if self.train_compile:
            payload["train_compile"] = True
        # HSIC numerics version of every HSIC-regularized spec: a change to
        # the estimator's floating-point evaluation order changes the
        # training trajectory, so stale checkpoints are recomputed instead of
        # silently served next to fresh ones; HSIC-free specs keep their
        # original hashes.  v2: the cached-Gram fast path.  v3: the compiled
        # HSIC terms traced from the eager code (gradients move by ~1e-16),
        # and the Eq. (3) mask removing exactly the requested channel count
        # when scores tie.
        if self.ibrar is not None or self.loss.name.startswith("ib-rar"):
            payload["hsic"] = "traced-v3"
        # Counter-based dropout (PR 10) replaced the stateful-generator masks
        # with a pure function of (seed, layer id, step), changing every
        # dropout-bearing spec's training trajectory.  Version the scheme into
        # those hashes so stale generator-era checkpoints are recomputed;
        # dropout-free specs keep their original hashes.
        if self.model_kwargs.get("dropout"):
            payload["dropout_rng"] = "counter-v1"
        # Compiled plans read the Eq. (3) mask in place instead of being
        # rebuilt after each refresh, so the batch after a refresh runs
        # compiled rather than eager and compiled masked IB-RAR trajectories
        # move at rounding level; eager and mask-free specs keep their hashes.
        if self.train_compile and self.ibrar is not None and self.ibrar_config.use_mask:
            payload["compiled_mask"] = "live-v1"
        # Kernel numerics version of every spec.  shared-conv-v1: eager
        # convolutions and compiled plans share one im2col kernel set, and
        # the compiled CE seed, log and divide gradients round as eager
        # autograd does.  shared-v2: batch norm and the max-pool backward
        # are shared too (eager eval batch norm is the plans' float64
        # scale/shift affine, eager batch-norm outputs are C-order), so
        # eager attack steps, mask scoring and reports can move at rounding
        # level.
        payload["kernels"] = "shared-v2"
        return payload

    def eval_dict(self) -> Dict[str, Any]:
        """The fields that determine the evaluation, JSON-ready."""
        payload = {
            "attacks": [a.as_dict() for a in self.attacks],
            "examples": self.eval_examples,
            "batch_size": self.eval_batch_size,
            "early_exit": bool(self.eval_early_exit),
            "cascade": bool(self.eval_cascade),
        }
        # Omitted when False so every pre-existing spec (and its cached
        # report in the artifact store) keeps its content hash.
        if self.eval_compile:
            payload["compile"] = True
        return payload

    @property
    def training_hash(self) -> str:
        """Content hash of the training recipe (checkpoint address)."""
        return _hash(self.training_dict())

    @property
    def content_hash(self) -> str:
        """Content hash of the full experiment (report address)."""
        return _hash({"train": self.training_dict(), "eval": self.eval_dict()})

    # -- serialization -----------------------------------------------------------
    def as_dict(self) -> Dict[str, Any]:
        data = self.training_dict()
        data["eval"] = self.eval_dict()
        data["name"] = self.name
        return data

    @classmethod
    def from_dict(cls, data: Mapping[str, Any]) -> "ExperimentSpec":
        # "dtype", "hsic", "dropout_rng", "compiled_mask" and "kernels" are
        # derived annotations that as_dict() emits (ambient dtype;
        # HSIC-estimator, dropout-RNG, compiled-mask and kernel versions) —
        # accepted on input, never stored as fields.
        known = {"dataset", "model", "loss", "ibrar", "optimizer", "epochs", "batch_size", "seed", "dtype", "hsic", "dropout_rng", "compiled_mask", "kernels", "train_compile", "eval", "name"}
        # Older spec JSON may carry "provider": "numpy"; that is the only
        # kernel set plans run, so it loads with unchanged hashes.
        provider = data.get("provider", "numpy")
        if str(provider).lower() != "numpy":
            raise ExperimentSpecError(
                f"kernel provider {provider!r} is not supported: kernel providers were "
                "removed and every compiled plan runs the serial numpy kernels"
            )
        unknown = sorted(set(data) - known - {"provider"})
        if unknown:
            raise ExperimentSpecError(
                f"unknown experiment spec key(s) {unknown}; accepted: {sorted(known)}"
            )
        for key in ("dataset", "model"):
            if key not in data:
                raise ExperimentSpecError(f"experiment spec dict needs a '{key}' key")
        # ``as_dict`` emits "dtype" for non-float64 ambient dtypes.  The
        # ambient dtype is process state, not a spec field, so a spec can
        # only be revived faithfully in a session whose dtype matches —
        # otherwise its hashes (and cache addresses) would silently change.
        spec_dtype = data.get("dtype", "float64")
        ambient = str(get_default_dtype())
        if str(spec_dtype) != ambient:
            raise ExperimentSpecError(
                f"spec was produced under default dtype '{spec_dtype}' but the current "
                f"session uses '{ambient}'; call repro.nn.set_default_dtype({spec_dtype!r}) "
                "before loading it"
            )

        def _named(entry: Union[str, Mapping[str, Any]], what: str) -> Tuple[str, Dict[str, Any]]:
            if isinstance(entry, str):
                return entry, {}
            if isinstance(entry, Mapping) and "name" in entry:
                return entry["name"], dict(entry.get("params", {}))
            raise ExperimentSpecError(f"{what} must be a name or a {{name, params}} dict: {entry!r}")

        dataset, dataset_params = _named(data["dataset"], "dataset")
        model, model_params = _named(data["model"], "model")
        eval_section = dict(data.get("eval", {}))
        eval_known = {"attacks", "examples", "batch_size", "early_exit", "cascade", "compile"}
        eval_unknown = sorted(set(eval_section) - eval_known)
        if eval_unknown:
            raise ExperimentSpecError(
                f"unknown eval key(s) {eval_unknown}; accepted: {sorted(eval_known)}"
            )
        return cls(
            dataset=dataset,
            model=model,
            loss=data.get("loss", "ce"),
            ibrar=data.get("ibrar"),
            dataset_params=dataset_params,
            model_params=model_params,
            optimizer=data.get("optimizer", {}),
            epochs=data.get("epochs", 10),
            batch_size=data.get("batch_size", 100),
            seed=data.get("seed", 0),
            attacks=tuple(eval_section.get("attacks", ())),
            eval_examples=eval_section.get("examples"),
            eval_batch_size=eval_section.get("batch_size", 64),
            eval_early_exit=eval_section.get("early_exit", True),
            eval_cascade=eval_section.get("cascade", False),
            eval_compile=eval_section.get("compile", False),
            train_compile=data.get("train_compile", False),
            name=data.get("name", ""),
        )

    def to_json(self, indent: Optional[int] = None) -> str:
        return json.dumps(self.as_dict(), sort_keys=True, indent=indent)

    @classmethod
    def from_json(cls, text: str) -> "ExperimentSpec":
        return cls.from_dict(json.loads(text))

    def __repr__(self) -> str:
        ibrar = " +ibrar" if self.ibrar is not None else ""
        return (
            f"ExperimentSpec({self.label!r}: {self.loss.name}{ibrar} on "
            f"{self.model}/{self.dataset}, epochs={self.epochs}, seed={self.seed}, "
            f"attacks={len(self.attacks)}, hash={self.content_hash[:12]})"
        )


def load_specs(source: Union[str, Mapping[str, Any], Iterable]) -> Tuple[ExperimentSpec, ...]:
    """Load one or many specs from a JSON text / dict / iterable of either."""
    if isinstance(source, str):
        source = json.loads(source)
    if isinstance(source, Mapping):
        return (ExperimentSpec.from_dict(source),)
    return tuple(
        entry if isinstance(entry, ExperimentSpec) else ExperimentSpec.from_dict(entry)
        for entry in source
    )
