"""Composable attack engine: specs, suites, batched early-exit evaluation.

This module decouples *what an attack is* from *which model it runs against*:

* :class:`AttackSpec` — a frozen, serializable description of an attack
  (registry name + hyperparameters, **no model**).  A spec can be built
  against any model via :meth:`AttackSpec.build`, and every constructed
  :class:`~repro.attacks.base.Attack` can be turned back into a spec via
  ``attack.spec()``.  Suites become plain lists of specs that are reusable
  across every model in a table row.
* :class:`AttackEngine` — runs a suite of specs (or pre-built attacks)
  against one model with *batched early exit*: the clean forward pass is
  computed once and shared, examples the model already misclassifies are
  dropped from every attack batch, and (in cascade mode) examples fooled by
  an earlier attack are dropped from later ones.  Per-attack wall time and
  model-forward-pass counts are recorded as telemetry.
* :class:`EnsembleAttack` — an AutoAttack-style worst-case composition: an
  ``Attack`` built from multiple specs that keeps, per example, the
  perturbation achieving the lowest true-class margin.  Registered in the
  attack registry as ``"ensemble"``.

Early exit issues strictly fewer model forward passes than the legacy
per-attack loop.  For attacks that perturb each example independently of its
batch (every deterministic attack here — FGSM, PGD without random start,
NIFGSM, MIFGSM, CW, FAB, DeepFool) the accuracy numbers are *identical*:
skipped examples are counted as misclassified, which is what the attack
would conclude anyway.  Attacks that draw batch-shaped randomness (PGD with
``random_start=True``) see different draws once batches shrink, so their
numbers are statistically equivalent rather than bitwise equal; pass
``early_exit=False`` when bitwise reproduction of the legacy loop matters
for a stochastic suite.
"""

from __future__ import annotations

import json
import time
from collections import OrderedDict
from dataclasses import dataclass, field
from typing import Any, Dict, Iterable, List, Mapping, Optional, Sequence, Tuple, Union

import numpy as np

from ..nn import Tensor, no_grad
from ..models.base import ImageClassifier, predict_batched as _predict_batched
from ..obs import trace as _trace
from ..obs.registry import get_registry
from .base import Attack, AttackConfigError

__all__ = [
    "AttackSpec",
    "AttackEngine",
    "AttackTelemetry",
    "EngineResult",
    "EnsembleAttack",
    "ForwardPassCounter",
    "format_telemetry",
    "paper_suite_specs",
]


# --------------------------------------------------------------------------- #
# AttackSpec
# --------------------------------------------------------------------------- #
def _freeze_value(value: Any) -> Any:
    """Normalize a hyperparameter value into a hashable, comparable form."""
    if isinstance(value, AttackSpec):
        return value
    if isinstance(value, np.generic):
        return value.item()
    if isinstance(value, np.ndarray):
        return tuple(_freeze_value(v) for v in value.tolist())
    if isinstance(value, (list, tuple)):
        return tuple(_freeze_value(v) for v in value)
    if isinstance(value, Mapping):
        if set(value) >= {"name"} and set(value) <= {"name", "params"}:
            return AttackSpec.from_dict(value)
        raise AttackConfigError(f"mapping hyperparameter values are not supported: {value!r}")
    if value is None or isinstance(value, (bool, int, float, str)):
        return value
    raise AttackConfigError(
        f"hyperparameter value {value!r} of type {type(value).__name__} is not "
        "serializable; add the parameter to the attack's `spec_exclude`"
    )


def _jsonable(value: Any) -> Any:
    if isinstance(value, AttackSpec):
        return value.as_dict()
    if isinstance(value, tuple):
        return [_jsonable(v) for v in value]
    return value


def _revive(value: Any) -> Any:
    if isinstance(value, Mapping):
        return AttackSpec.from_dict(value)
    if isinstance(value, list):
        return tuple(_revive(v) for v in value)
    return value


@dataclass(frozen=True)
class AttackSpec:
    """A frozen, model-free description of an attack.

    Parameters
    ----------
    name:
        Registry name (``"pgd"``, ``"cw"``, ``"ensemble"``, ...).
    params:
        Hyperparameters as a mapping (or an iterable of ``(key, value)``
        pairs); normalized to a sorted tuple of pairs so specs are hashable
        and comparable.  Values may be scalars, strings, ``None``, nested
        sequences, or other :class:`AttackSpec` objects (the ensemble case).
    """

    name: str
    params: Any = ()

    def __post_init__(self) -> None:
        object.__setattr__(self, "name", str(self.name).lower())
        raw = self.params
        if isinstance(raw, Mapping):
            items = raw.items()
        else:
            items = tuple(raw)
        frozen = tuple(sorted((str(key), _freeze_value(value)) for key, value in items))
        object.__setattr__(self, "params", frozen)

    # -- accessors ---------------------------------------------------------------
    @property
    def kwargs(self) -> Dict[str, Any]:
        """Hyperparameters as a plain keyword dict (build-ready)."""
        return dict(self.params)

    def get(self, key: str, default: Any = None) -> Any:
        return self.kwargs.get(key, default)

    def with_params(self, **updates: Any) -> "AttackSpec":
        """Return a new spec with some hyperparameters replaced/added."""
        merged = self.kwargs
        merged.update(updates)
        return AttackSpec(self.name, merged)

    # -- model binding -----------------------------------------------------------
    def build(self, model: ImageClassifier, **overrides: Any) -> Attack:
        """Instantiate this attack against ``model`` (strict kwarg checking)."""
        from . import build_attack

        kwargs = self.kwargs
        kwargs.update(overrides)
        return build_attack(self.name, model, **kwargs)

    @classmethod
    def from_attack(cls, attack: Attack) -> "AttackSpec":
        """Recover the spec of a constructed attack (``attack.spec()``)."""
        return cls(attack.name, attack.hyperparameters())

    # -- serialization -----------------------------------------------------------
    def as_dict(self) -> Dict[str, Any]:
        return {"name": self.name, "params": {k: _jsonable(v) for k, v in self.params}}

    @classmethod
    def from_dict(cls, data: Mapping[str, Any]) -> "AttackSpec":
        return cls(data["name"], {k: _revive(v) for k, v in dict(data.get("params", {})).items()})

    def to_json(self) -> str:
        return json.dumps(self.as_dict(), sort_keys=True)

    @classmethod
    def from_json(cls, text: str) -> "AttackSpec":
        return cls.from_dict(json.loads(text))

    def __repr__(self) -> str:
        inner = ", ".join(f"{k}={v!r}" for k, v in self.params)
        return f"AttackSpec({self.name!r}, {inner})" if inner else f"AttackSpec({self.name!r})"


def coerce_spec(entry: Union["AttackSpec", Attack, str, Mapping[str, Any]]) -> "AttackSpec":
    """Turn a spec / attack / registry name / dict into an :class:`AttackSpec`."""
    if isinstance(entry, AttackSpec):
        return entry
    if isinstance(entry, Attack):
        return entry.spec()
    if isinstance(entry, str):
        return AttackSpec(entry)
    if isinstance(entry, Mapping):
        return AttackSpec.from_dict(entry)
    raise AttackConfigError(f"cannot interpret {entry!r} as an attack spec")


def paper_suite_specs(
    eps: float = 8.0 / 255.0,
    alpha: float = 2.0 / 255.0,
    pgd_steps: int = 10,
    cw_steps: int = 20,
    seed: int = 0,
) -> List[AttackSpec]:
    """The five evaluation attacks of Tables 1-2 as model-free specs.

    ``cw_steps`` defaults to 20 (the paper uses 200); benches raise it when a
    longer optimization is affordable.
    """
    return [
        AttackSpec("pgd", dict(eps=eps, alpha=alpha, steps=pgd_steps, seed=seed)),
        AttackSpec("cw", dict(steps=cw_steps)),
        AttackSpec("fgsm", dict(eps=eps)),
        AttackSpec("fab", dict(eps=eps, steps=pgd_steps, seed=seed)),
        AttackSpec("nifgsm", dict(eps=eps, alpha=alpha, steps=pgd_steps)),
    ]


# --------------------------------------------------------------------------- #
# telemetry
# --------------------------------------------------------------------------- #
class ForwardPassCounter:
    """Count model forward passes (calls and examples) while installed.

    Instruments ``model.forward_with_hidden`` — the single funnel through
    which every forward pass of an :class:`ImageClassifier` flows — via an
    instance attribute, restored on exit.  Re-entrant ``with`` blocks keep a
    single running tally.
    """

    def __init__(self, model: ImageClassifier) -> None:
        self.model = model
        self.calls = 0
        self.examples = 0
        self._depth = 0
        #: instance-level forward_with_hidden that was installed before this
        #: counter (e.g. an enclosing counter's wrapper); restored on exit.
        self._previous = None

    def snapshot(self) -> Tuple[int, int]:
        return self.calls, self.examples

    def __enter__(self) -> "ForwardPassCounter":
        if self._depth == 0:
            self._previous = self.model.__dict__.get("forward_with_hidden")
            original = self.model.forward_with_hidden

            def counted(x: Tensor):
                self.calls += 1
                self.examples += int(np.shape(x.data if isinstance(x, Tensor) else x)[0])
                return original(x)

            self.model.forward_with_hidden = counted
        self._depth += 1
        return self

    def __exit__(self, *exc_info) -> None:
        self._depth -= 1
        if self._depth == 0:
            if self._previous is not None:
                self.model.forward_with_hidden = self._previous
            else:
                self.model.__dict__.pop("forward_with_hidden", None)
            self._previous = None


@dataclass
class AttackTelemetry:
    """Per-attack accounting recorded by :class:`AttackEngine`.

    ``forward_calls`` / ``forward_examples`` count *eager* model passes
    (including eager fallbacks inside a compiled run); the ``compiled_*``
    fields count static-plan replays, and ``compiled_fallbacks`` how often a
    compiled run had to fall back to eager (unseen shapes past the plan
    budget, unsupported losses).
    """

    name: str
    examples_attacked: int
    examples_skipped: int
    forward_calls: int
    forward_examples: int
    seconds: float
    accuracy: float
    compiled_forward_calls: int = 0
    compiled_grad_calls: int = 0
    compiled_fallbacks: int = 0

    def as_dict(self) -> Dict[str, Any]:
        return {
            "name": self.name,
            "examples_attacked": self.examples_attacked,
            "examples_skipped": self.examples_skipped,
            "forward_calls": self.forward_calls,
            "forward_examples": self.forward_examples,
            "seconds": round(self.seconds, 6),
            "accuracy": self.accuracy,
            "compiled_forward_calls": self.compiled_forward_calls,
            "compiled_grad_calls": self.compiled_grad_calls,
            "compiled_fallbacks": self.compiled_fallbacks,
        }

    @classmethod
    def from_dict(cls, data: Mapping[str, Any]) -> "AttackTelemetry":
        kwargs = {k: data[k] for k in (
            "name", "examples_attacked", "examples_skipped",
            "forward_calls", "forward_examples", "seconds", "accuracy",
        )}
        for key in ("compiled_forward_calls", "compiled_grad_calls", "compiled_fallbacks"):
            kwargs[key] = data.get(key, 0)
        return cls(**kwargs)

    def publish(self) -> "AttackTelemetry":
        """Mirror this record onto the shared obs registry (``attack.*``).

        Counters accumulate across runs, labeled per attack; ``accuracy``
        lands as a gauge (latest run wins).  The engine calls this for
        every record it appends, so a registry snapshot always carries the
        same numbers the per-run telemetry list does.
        """
        registry = get_registry()
        labels = {"attack": self.name}
        registry.counter("attack.runs", labels).inc()
        registry.counter("attack.examples_attacked", labels).inc(self.examples_attacked)
        registry.counter("attack.examples_skipped", labels).inc(self.examples_skipped)
        registry.counter("attack.forward_calls", labels).inc(self.forward_calls)
        registry.counter("attack.forward_examples", labels).inc(self.forward_examples)
        registry.counter("attack.seconds", labels).inc(self.seconds)
        registry.counter("attack.compiled_forward_calls", labels).inc(
            self.compiled_forward_calls
        )
        registry.counter("attack.compiled_grad_calls", labels).inc(
            self.compiled_grad_calls
        )
        registry.counter("attack.compiled_fallbacks", labels).inc(
            self.compiled_fallbacks
        )
        registry.gauge("attack.accuracy", labels).set(self.accuracy)
        return self


@dataclass
class EngineResult:
    """Everything one :meth:`AttackEngine.run` produces."""

    method: str
    natural: float
    adversarial: "OrderedDict[str, float]"
    worst_case: float
    telemetry: List[AttackTelemetry] = field(default_factory=list)
    early_exit: bool = True
    cascade: bool = False
    #: whether this run executed through a compiled plan (``compile=True``
    #: and the model captured successfully).
    compiled: bool = False
    #: capture/planning failure message when ``compile=True`` fell back.
    compile_error: Optional[str] = None
    #: per-example survival mask after the whole suite (clean-correct AND
    #: unfooled by every attack) — the worst-case ensemble outcome.
    survivors: Optional[np.ndarray] = field(default=None, repr=False)

    @property
    def total_forward_calls(self) -> int:
        return sum(t.forward_calls for t in self.telemetry)

    @property
    def total_forward_examples(self) -> int:
        return sum(t.forward_examples for t in self.telemetry)

    @property
    def total_seconds(self) -> float:
        return sum(t.seconds for t in self.telemetry)

    def mean_adversarial(self) -> float:
        if not self.adversarial:
            return 0.0
        return float(np.mean(list(self.adversarial.values())))

    def as_dict(self) -> Dict[str, Any]:
        return {
            "method": self.method,
            "natural": self.natural,
            "adversarial": dict(self.adversarial),
            "worst_case": self.worst_case,
            "early_exit": self.early_exit,
            "cascade": self.cascade,
            "compiled": self.compiled,
            "compile_error": self.compile_error,
            "total_forward_calls": self.total_forward_calls,
            "total_forward_examples": self.total_forward_examples,
            "total_seconds": round(self.total_seconds, 6),
            "telemetry": [t.as_dict() for t in self.telemetry],
        }

    def to_json(self) -> str:
        return json.dumps(self.as_dict(), sort_keys=True)

    @classmethod
    def from_dict(cls, data: Mapping[str, Any]) -> "EngineResult":
        """Rebuild a result from :meth:`as_dict` output.

        The per-example ``survivors`` mask is not serialized, so it comes
        back as ``None``; the aggregate ``total_*`` values are recomputed
        from the revived telemetry.
        """
        return cls(
            method=data["method"],
            natural=data["natural"],
            adversarial=OrderedDict(data.get("adversarial", {})),
            worst_case=data["worst_case"],
            telemetry=[AttackTelemetry.from_dict(t) for t in data.get("telemetry", [])],
            early_exit=data.get("early_exit", True),
            cascade=data.get("cascade", False),
            compiled=data.get("compiled", False),
            compile_error=data.get("compile_error"),
        )


def format_telemetry(result: EngineResult) -> str:
    """Render an engine result's telemetry as an aligned text table."""
    header = ["Attack", "Attacked", "Skipped", "Forwards", "Fwd-examples", "Seconds", "Acc %"]
    rows = [header]
    for t in result.telemetry:
        rows.append(
            [
                t.name,
                str(t.examples_attacked),
                str(t.examples_skipped),
                str(t.forward_calls),
                str(t.forward_examples),
                f"{t.seconds:.3f}",
                f"{t.accuracy * 100:.2f}",
            ]
        )
    widths = [max(len(row[i]) for row in rows) for i in range(len(header))]
    lines = ["  ".join(cell.ljust(widths[i]) for i, cell in enumerate(row)) for row in rows]
    lines.insert(1, "-" * (sum(widths) + 2 * (len(widths) - 1)))
    lines.append(
        f"worst-case (ensemble) accuracy: {result.worst_case * 100:.2f}%  "
        f"— {result.total_forward_examples} forward-examples total"
    )
    return "\n".join(lines)


# --------------------------------------------------------------------------- #
# AttackEngine
# --------------------------------------------------------------------------- #
SuiteLike = Union[
    None,
    Sequence[Union[AttackSpec, Attack, str, Mapping[str, Any]]],
    Mapping[str, Union[AttackSpec, Attack]],
]


def normalize_suite(suite: SuiteLike) -> "OrderedDict[str, Union[AttackSpec, Attack]]":
    """Normalize any accepted suite shape into an ordered name -> entry map.

    Accepts ``None`` (the paper suite), a mapping of name to spec/attack, or a
    sequence of specs / attacks / registry names / spec dicts.  Duplicate
    names are disambiguated with ``#2``, ``#3``, ... suffixes.
    """
    if suite is None:
        suite = paper_suite_specs()
    if isinstance(suite, Mapping):
        return OrderedDict(
            (str(name), entry if isinstance(entry, Attack) else coerce_spec(entry))
            for name, entry in suite.items()
        )
    normalized: "OrderedDict[str, Union[AttackSpec, Attack]]" = OrderedDict()
    for entry in suite:
        if not isinstance(entry, Attack):
            entry = coerce_spec(entry)
        name = entry.name
        if name in normalized:
            index = 2
            while f"{name}#{index}" in normalized:
                index += 1
            name = f"{name}#{index}"
        normalized[name] = entry
    return normalized


class AttackEngine:
    """Run a suite of attack specs against a model, sharing work across attacks.

    Parameters
    ----------
    suite:
        Anything :func:`normalize_suite` accepts: ``None`` (the paper's five
        attacks), a list of :class:`AttackSpec` (the idiomatic shape — specs
        are model-free and reusable across every model in a table), a mapping
        of name to spec, or legacy mappings/lists of pre-built attacks.
    batch_size:
        Attack and prediction batch size.
    early_exit:
        Drop examples the model misclassifies *on clean inputs* from every
        attack batch (they are counted as misclassified, which is what the
        attack would conclude).  Issues strictly fewer forward passes than
        the legacy per-attack loop with identical accuracies for
        per-example-deterministic attacks; attacks drawing batch-shaped
        randomness (random-start PGD) get different draws on the smaller
        batches, so their numbers match statistically, not bitwise.
    cascade:
        Additionally drop examples *fooled by an earlier attack* from later
        attack batches (AutoAttack-style worst-case evaluation).  Per-attack
        accuracies then become cumulative ("accuracy after attacks so far"),
        ending at the worst-case ensemble accuracy; use this mode when only
        the worst-case number matters and speed does.
    compile:
        Capture the model into a static, buffer-pooled execution plan
        (:mod:`repro.compile`) once per :meth:`run` and drive every attack's
        model queries through it: predictions, the PGD-family loss
        gradients, FAB's (and DeepFool's) per-class Jacobians and CW's
        differentiable logits.  Falls back to eager execution — per call
        for unseen shapes, wholesale when the model cannot be captured — so
        results are produced either way; ``EngineResult.compiled`` /
        ``compile_error`` report what happened and the telemetry counts
        compiled vs eager passes.
    """

    def __init__(
        self,
        suite: SuiteLike = None,
        batch_size: int = 64,
        early_exit: bool = True,
        cascade: bool = False,
        compile: bool = False,
    ) -> None:
        if batch_size < 1:
            raise ValueError("batch_size must be positive")
        self.suite = normalize_suite(suite)
        self.batch_size = batch_size
        self.early_exit = bool(early_exit) or bool(cascade)
        self.cascade = bool(cascade)
        self.compile = bool(compile)

    def _resolve(self, entry: Union[AttackSpec, Attack], model: ImageClassifier) -> Attack:
        if isinstance(entry, AttackSpec):
            return entry.build(model)
        if entry.model is not model:
            raise AttackConfigError(
                f"attack {entry!r} is bound to a different model; pass an AttackSpec "
                "(attack.spec()) to run a suite against arbitrary models"
            )
        return entry

    def _compile_model(self, model: ImageClassifier, images: np.ndarray):
        """Best-effort model capture; returns ``(compiled_or_None, error_or_None)``."""
        if not self.compile or not len(images):
            return None, None
        from ..compile import CompileError, compile_model

        was_training = model.training
        model.eval()
        try:
            return compile_model(model, images[: self.batch_size]), None
        except CompileError as error:
            return None, str(error)
        finally:
            model.train(was_training)

    def run(
        self,
        model: ImageClassifier,
        images: np.ndarray,
        labels: np.ndarray,
        method_name: str = "model",
    ) -> EngineResult:
        """Evaluate ``model`` on ``images`` under every attack in the suite."""
        from ..nn import get_default_dtype

        images = np.asarray(images, dtype=get_default_dtype())
        labels = np.asarray(labels, dtype=np.int64).reshape(-1)
        if len(images) != len(labels):
            raise ValueError("images and labels must have the same batch size")
        n = len(images)
        compiled, compile_error = self._compile_model(model, images)

        def predict(batch_images: np.ndarray) -> np.ndarray:
            if compiled is None:
                return _predict_batched(model, batch_images, self.batch_size)
            parts = [
                compiled.predict(batch_images[start : start + self.batch_size])
                for start in range(0, len(batch_images), self.batch_size)
            ]
            return np.concatenate(parts) if parts else np.empty(0, dtype=np.int64)

        def compiled_snapshot() -> Tuple[int, int, int]:
            return compiled.stats.snapshot() if compiled is not None else (0, 0, 0)

        counter = ForwardPassCounter(model)
        telemetry: List[AttackTelemetry] = []
        # Evaluation semantics are eval-mode everywhere (predictions and
        # attacks both force it); pinning the mode for the whole run keeps
        # the compiled fast path live between batches.
        was_training = model.training
        model.eval()
        try:
            return self._run_pinned(
                model, images, labels, method_name, counter, telemetry,
                compiled, compile_error, predict, compiled_snapshot, n,
            )
        finally:
            model.train(was_training)
            # Pre-built suite attacks outlive the run; never leave this
            # run's plans (bound to this model) wired into them.
            for entry in self.suite.values():
                if isinstance(entry, Attack):
                    entry.use_compiled(None)

    def _run_pinned(
        self,
        model: ImageClassifier,
        images: np.ndarray,
        labels: np.ndarray,
        method_name: str,
        counter: ForwardPassCounter,
        telemetry: List[AttackTelemetry],
        compiled,
        compile_error,
        predict,
        compiled_snapshot,
        n: int,
    ) -> EngineResult:
        with counter:
            start_time = time.perf_counter()
            compiled_before = compiled_snapshot()
            with _trace.span(
                "attack.clean", {"examples": n} if _trace.enabled() else None
            ):
                clean_predictions = predict(images)
            clean_correct = clean_predictions == labels
            natural = float(clean_correct.mean()) if n else 0.0
            compiled_after = compiled_snapshot()
            telemetry.append(
                AttackTelemetry(
                    name="clean",
                    examples_attacked=n,
                    examples_skipped=0,
                    forward_calls=counter.calls,
                    forward_examples=counter.examples,
                    seconds=time.perf_counter() - start_time,
                    accuracy=natural,
                    compiled_forward_calls=compiled_after[0] - compiled_before[0],
                    compiled_grad_calls=compiled_after[1] - compiled_before[1],
                    compiled_fallbacks=compiled_after[2] - compiled_before[2],
                ).publish()
            )

            alive = clean_correct.copy()
            adversarial: "OrderedDict[str, float]" = OrderedDict()
            for name, entry in self.suite.items():
                attack = self._resolve(entry, model)
                # Always (re)install — None clears any plan a previous run
                # left behind; run()'s finally clears pre-built attacks
                # again once this run is over.
                attack.use_compiled(compiled)
                if self.cascade:
                    active = alive
                elif self.early_exit:
                    active = clean_correct
                else:
                    active = np.ones(n, dtype=bool)
                indices = np.flatnonzero(active)
                survived = np.zeros(n, dtype=bool)
                calls_before, examples_before = counter.snapshot()
                compiled_before = compiled_snapshot()
                attack_start = time.perf_counter()
                with _trace.span(
                    "attack." + name,
                    {"examples": int(len(indices))} if _trace.enabled() else None,
                ):
                    for batch_start in range(0, len(indices), self.batch_size):
                        batch = indices[batch_start : batch_start + self.batch_size]
                        adversarial_batch = attack.attack(images[batch], labels[batch])
                        predictions = predict(adversarial_batch)
                        survived[batch] = predictions == labels[batch]
                alive = alive & survived
                accuracy = float(alive.mean() if self.cascade else survived.mean()) if n else 0.0
                adversarial[name] = accuracy
                calls_after, examples_after = counter.snapshot()
                compiled_after = compiled_snapshot()
                telemetry.append(
                    AttackTelemetry(
                        name=name,
                        examples_attacked=len(indices),
                        examples_skipped=n - len(indices),
                        forward_calls=calls_after - calls_before,
                        forward_examples=examples_after - examples_before,
                        seconds=time.perf_counter() - attack_start,
                        accuracy=accuracy,
                        compiled_forward_calls=compiled_after[0] - compiled_before[0],
                        compiled_grad_calls=compiled_after[1] - compiled_before[1],
                        compiled_fallbacks=compiled_after[2] - compiled_before[2],
                    ).publish()
                )
        return EngineResult(
            method=method_name,
            natural=natural,
            adversarial=adversarial,
            worst_case=float(alive.mean()) if n else 0.0,
            telemetry=telemetry,
            early_exit=self.early_exit,
            cascade=self.cascade,
            compiled=compiled is not None,
            compile_error=compile_error,
            survivors=alive,
        )


# --------------------------------------------------------------------------- #
# worst-case ensemble attack
# --------------------------------------------------------------------------- #
class EnsembleAttack(Attack):
    """Worst-case composition of several attacks (AutoAttack-style).

    Runs each sub-attack (built fresh from its spec, so the ensemble is
    reusable and picklable at the spec level) and keeps, per example, the
    perturbation achieving the **lowest true-class margin**
    ``Z_y - max_{k != y} Z_k``.  With ``cascade=True`` (the default, matching
    AutoAttack) examples already fooled by an earlier sub-attack are dropped
    from later sub-attack batches.

    Each sub-attack enforces its own perturbation constraint (the paper's
    suite mixes L_inf attacks with the L2 CW attack); the ensemble does not
    re-project their outputs.
    """

    name = "ensemble"

    def __init__(
        self,
        model: ImageClassifier,
        specs: Optional[Iterable[Union[AttackSpec, str, Mapping[str, Any]]]] = None,
        cascade: bool = True,
        eps: float = 8.0 / 255.0,
        clip_min: float = 0.0,
        clip_max: float = 1.0,
    ) -> None:
        super().__init__(model, eps=eps, clip_min=clip_min, clip_max=clip_max)
        entries = list(specs) if specs is not None else paper_suite_specs(eps=eps)
        if not entries:
            raise AttackConfigError("an ensemble needs at least one sub-attack spec")
        self.specs = tuple(coerce_spec(entry) for entry in entries)
        self.cascade = bool(cascade)

    def _margins(self, images: np.ndarray, labels: np.ndarray) -> np.ndarray:
        """True-class margin per example (negative means misclassified)."""
        if self._compiled is not None:
            logits = self._compiled(images)
        else:
            with no_grad():
                logits = self.model.forward(Tensor(images)).data
        true_logit = logits[np.arange(len(labels)), labels]
        masked = logits.copy()
        masked[np.arange(len(labels)), labels] = -np.inf
        return true_logit - masked.max(axis=1)

    def _generate(self, images: np.ndarray, labels: np.ndarray) -> np.ndarray:
        best = images.copy()
        best_margin = self._margins(images, labels)
        for spec in self.specs:
            if self.cascade:
                indices = np.flatnonzero(best_margin > 0.0)
                if indices.size == 0:
                    break
            else:
                indices = np.arange(len(images))
            sub_attack = spec.build(self.model)
            if self._compiled is not None:
                sub_attack.use_compiled(self._compiled)
            candidates = sub_attack.attack(images[indices], labels[indices])
            margins = self._margins(candidates, labels[indices])
            improved = margins < best_margin[indices]
            best[indices[improved]] = candidates[improved]
            best_margin[indices[improved]] = margins[improved]
        return best
