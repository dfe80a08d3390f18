"""White-box adversarial attacks used by the paper's evaluation.

PGD, FGSM, CW, FAB and NIFGSM (the Tables 1-2 attack suite) and the adaptive
IB-aware attack of Section A.2 (Table 6).  All attacks share the
``attack(images, labels)`` interface defined by :class:`Attack`.

The composable layer lives in :mod:`repro.attacks.engine`:

* an attack *configuration* is an :class:`AttackSpec` — registry name plus
  hyperparameters, no model.  ``spec.build(model)`` instantiates it against
  any classifier through ``ATTACK_REGISTRY``;
* suites are lists of specs, reusable across every model in a table row;
* :class:`AttackEngine` builds each spec afresh for every run and runs the
  suite against one model with batched early exit (the clean forward pass
  is shared, already-misclassified examples are dropped from attack
  batches) and per-attack telemetry.

Use :func:`build_attack` to construct attacks by name; it validates
hyperparameter names against the attack's constructor and raises
:class:`AttackConfigError` (instead of a bare ``TypeError``) on a mismatch.
"""

from .adaptive import AdaptiveIBAttack, make_ib_loss_fn
from .base import Attack, AttackConfigError
from .cw import CW
from .engine import (
    AttackEngine,
    AttackSpec,
    AttackTelemetry,
    EngineResult,
    ForwardPassCounter,
    format_telemetry,
    normalize_suite,
    paper_suite_specs,
)
from .fab import FAB
from .fgsm import FGSM
from .nifgsm import NIFGSM
from .pgd import PGD

__all__ = [
    "Attack",
    "AttackConfigError",
    "FGSM",
    "PGD",
    "CW",
    "FAB",
    "NIFGSM",
    "AdaptiveIBAttack",
    "make_ib_loss_fn",
    "ATTACK_REGISTRY",
    "AttackSpec",
    "AttackEngine",
    "AttackTelemetry",
    "EngineResult",
    "ForwardPassCounter",
    "available_attacks",
    "build_attack",
    "format_telemetry",
    "normalize_suite",
    "paper_suite_specs",
]

ATTACK_REGISTRY = {
    "fgsm": FGSM,
    "pgd": PGD,
    "cw": CW,
    "fab": FAB,
    "nifgsm": NIFGSM,
    "adaptive-ib": AdaptiveIBAttack,
}


def available_attacks() -> list:
    """Return the sorted list of attack names accepted by :func:`build_attack`."""
    return sorted(ATTACK_REGISTRY)


def build_attack(name: str, model, **kwargs) -> Attack:
    """Instantiate an attack by name with the paper's defaults.

    Hyperparameter names are validated against the attack's constructor:
    unknown ones raise :class:`AttackConfigError` naming the attack and the
    accepted hyperparameters (e.g. passing ``eps`` to the L2 ``CW`` attack).
    """
    key = name.lower()
    if key not in ATTACK_REGISTRY:
        raise KeyError(f"unknown attack '{name}'; available: {available_attacks()}")
    attack_cls = ATTACK_REGISTRY[key]
    accepted = attack_cls.accepted_hyperparameters()
    unknown = sorted(set(kwargs) - set(accepted))
    if unknown:
        raise AttackConfigError(
            f"attack '{key}' ({attack_cls.__name__}) does not accept "
            f"hyperparameter(s) {unknown}; accepted: {sorted(accepted)}"
        )
    return attack_cls(model, **kwargs)
