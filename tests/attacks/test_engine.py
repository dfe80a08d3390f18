"""Tests for the composable attack engine: specs, registry hygiene, early exit.

Covers the redesign's contracts:

* every registry entry builds from an ``AttackSpec`` with the spec's
  hyperparameters, and specs survive the JSON an ``ExperimentSpec`` stores;
* ``build_attack`` rejects hyperparameters an attack does not accept, with
  an actionable error, and suites hold specs, never built attacks;
* the engine with early exit produces **byte-identical** accuracy numbers to
  the legacy per-attack loop while issuing strictly fewer forward passes.
"""

from __future__ import annotations

import json

import numpy as np
import pytest

from repro.attacks import (
    ATTACK_REGISTRY,
    AttackConfigError,
    AttackEngine,
    AttackSpec,
    EngineResult,
    ForwardPassCounter,
    available_attacks,
    build_attack,
)
from repro.attacks.engine import format_telemetry, normalize_suite
from repro.evaluation import PAPER_ATTACK_ORDER, adversarial_accuracy, clean_accuracy
from repro.nn import Tensor

# Small step counts so every registry entry stays fast; each entry gets only
# hyperparameters it accepts.
SMALL_PARAMS = {
    "adaptive-ib": dict(steps=2, seed=1, layers=("conv_block1",)),
    "cw": dict(steps=2),
    "fab": dict(steps=2, seed=1),
    "fgsm": dict(eps=0.02),
    "nifgsm": dict(steps=2),
    "pgd": dict(steps=2, seed=1),
}

# A deterministic suite (no random starts) so early-exit on/off comparisons
# are exact: every attack below perturbs each example independently of the
# rest of its batch.
DETERMINISTIC_SUITE = [
    AttackSpec("fgsm"),
    AttackSpec("pgd", dict(steps=3, random_start=False)),
    AttackSpec("nifgsm", dict(steps=2)),
    AttackSpec("cw", dict(steps=5)),
]


@pytest.fixture(scope="module")
def eval_batch(tiny_dataset):
    return tiny_dataset.x_test[:48], tiny_dataset.y_test[:48]


class TestAttackSpec:
    @pytest.mark.parametrize("name", sorted(ATTACK_REGISTRY))
    def test_registry_round_trip(self, name, trained_small_cnn):
        spec = AttackSpec(name, SMALL_PARAMS[name])
        attack = spec.build(trained_small_cnn)
        assert type(attack) is ATTACK_REGISTRY[name]
        assert attack.name == spec.name == name
        for key, value in spec.params:
            assert getattr(attack, key) == value

    @pytest.mark.parametrize("name", sorted(ATTACK_REGISTRY))
    def test_json_round_trip(self, name):
        spec = AttackSpec(name, SMALL_PARAMS[name])
        text = json.dumps(spec.as_dict(), sort_keys=True)
        assert AttackSpec.from_dict(json.loads(text)) == spec
        assert json.dumps(AttackSpec.from_dict(json.loads(text)).as_dict(), sort_keys=True) == text

    def test_specs_are_hashable_and_comparable(self):
        a = AttackSpec("pgd", dict(steps=3, eps=0.03))
        b = AttackSpec("PGD", dict(eps=0.03, steps=3))
        assert a == b
        assert hash(a) == hash(b)
        assert a != AttackSpec("pgd", dict(steps=4, eps=0.03))

    def test_mapping_params_rejected(self):
        # A parameter holds numbers, strings, booleans, None or sequences
        # of them; a mapping is not a nested spec.
        for value in ({"name": "fgsm"}, {"steps": 2}, [{"name": "pgd"}]):
            with pytest.raises(AttackConfigError, match="AttackSpec"):
                AttackSpec("pgd", dict(steps=value))
        with pytest.raises(AttackConfigError):
            AttackSpec.from_dict({"name": "pgd", "params": {"steps": {"n": 2}}})

    def test_build_applies_overrides(self, trained_small_cnn):
        attack = AttackSpec("pgd", dict(steps=3)).build(trained_small_cnn, steps=5)
        assert attack.steps == 5

    def test_spec_reusable_across_models(self, trained_small_cnn, small_cnn):
        spec = AttackSpec("fgsm", dict(eps=0.05))
        a = spec.build(trained_small_cnn)
        b = spec.build(small_cnn)
        assert a.model is trained_small_cnn and b.model is small_cnn
        assert a.eps == b.eps == 0.05


class TestRegistryHygiene:
    def test_available_attacks_sorted_and_complete(self):
        names = available_attacks()
        assert names == sorted(names)
        assert set(names) == set(ATTACK_REGISTRY)
        # The paper's Tables 1-2 suite plus the adaptive attack of Table 6.
        assert set(names) == set(PAPER_ATTACK_ORDER) | {"adaptive-ib"}

    def test_unknown_kwarg_raises_config_error(self, trained_small_cnn):
        with pytest.raises(AttackConfigError) as excinfo:
            build_attack("cw", trained_small_cnn, eps=0.1)
        message = str(excinfo.value)
        assert "cw" in message and "eps" in message and "accepted" in message

    def test_config_error_is_a_type_error(self, trained_small_cnn):
        with pytest.raises(TypeError):
            build_attack("fgsm", trained_small_cnn, steps=3)

    def test_unknown_attack_raises_key_error(self, trained_small_cnn):
        with pytest.raises(KeyError):
            build_attack("unknown", trained_small_cnn)


class TestForwardPassCounter:
    def test_counts_and_restores(self, trained_small_cnn, eval_batch):
        images, _ = eval_batch
        counter = ForwardPassCounter(trained_small_cnn)
        with counter:
            trained_small_cnn.forward(Tensor(images[:8]))
            trained_small_cnn.forward(Tensor(images[:4]))
        assert counter.calls == 2
        assert counter.examples == 12
        assert "forward_with_hidden" not in trained_small_cnn.__dict__
        trained_small_cnn.forward(Tensor(images[:2]))
        assert counter.calls == 2  # uninstalled after the with-block

    def test_nested_distinct_counters_restore_outer(self, trained_small_cnn, eval_batch):
        images, labels = eval_batch
        outer = ForwardPassCounter(trained_small_cnn)
        with outer:
            # The engine installs its own internal counter; exiting it must
            # restore the outer counter's wrapper, not uninstall it.
            AttackEngine([AttackSpec("fgsm")]).run(trained_small_cnn, images[:8], labels[:8])
            calls_inside = outer.calls
            trained_small_cnn.forward(Tensor(images[:4]))
            assert outer.calls == calls_inside + 1
        assert "forward_with_hidden" not in trained_small_cnn.__dict__


class TestEngineEarlyExit:
    def test_identical_accuracies_with_strictly_fewer_forwards(
        self, trained_small_cnn, eval_batch
    ):
        """The acceptance criterion: engine(early_exit) == legacy loop, cheaper."""
        images, labels = eval_batch
        model = trained_small_cnn

        # Legacy per-attack loop, with its forward passes counted.
        legacy_counter = ForwardPassCounter(model)
        with legacy_counter:
            legacy_natural = clean_accuracy(model, images, labels, batch_size=64)
            legacy = {
                spec.name: adversarial_accuracy(
                    model, spec.build(model), images, labels, batch_size=64
                )
                for spec in DETERMINISTIC_SUITE
            }

        result_off = AttackEngine(DETERMINISTIC_SUITE, early_exit=False).run(model, images, labels)
        result_on = AttackEngine(DETERMINISTIC_SUITE, early_exit=True).run(model, images, labels)

        # The model must misclassify something clean, else early exit is vacuous.
        assert result_on.natural < 1.0
        assert result_on.natural == result_off.natural == legacy_natural
        assert dict(result_off.adversarial) == legacy
        assert dict(result_on.adversarial) == legacy

        skipped = sum(t.examples_skipped for t in result_on.telemetry)
        assert skipped > 0
        assert result_on.total_forward_examples < result_off.total_forward_examples
        assert result_on.total_forward_examples < legacy_counter.examples

    def test_worst_case_bounded_by_each_attack(self, trained_small_cnn, eval_batch):
        images, labels = eval_batch
        result = AttackEngine(DETERMINISTIC_SUITE).run(trained_small_cnn, images, labels)
        assert result.worst_case <= min(result.adversarial.values())
        assert result.worst_case <= result.natural
        assert result.survivors is not None and result.survivors.mean() == result.worst_case

    def test_telemetry_records_every_attack_and_formats(self, trained_small_cnn, eval_batch):
        images, labels = eval_batch
        result = AttackEngine(DETERMINISTIC_SUITE).run(trained_small_cnn, images, labels)
        names = [t.name for t in result.telemetry]
        assert names == ["clean"] + [s.name for s in DETERMINISTIC_SUITE]
        assert all(t.forward_calls > 0 for t in result.telemetry)
        assert all(t.seconds >= 0 for t in result.telemetry)
        text = format_telemetry(result)
        assert "worst-case" in text and "clean" in text
        payload = result.as_dict()
        assert payload["total_forward_examples"] == result.total_forward_examples

    def test_rejects_attack_bound_to_other_model(self, trained_small_cnn, small_cnn):
        # Each run builds its attacks from specs, so a built attack is
        # refused whichever model it is bound to, in either suite shape.
        for model in (small_cnn, trained_small_cnn):
            built = AttackSpec("fgsm").build(model)
            for suite in ([built], {"fgsm": built}, [AttackSpec("pgd"), built]):
                with pytest.raises(AttackConfigError, match="AttackSpec"):
                    AttackEngine(suite)

    def test_mapping_values_are_coerced_like_sequence_entries(self, trained_small_cnn, eval_batch):
        images, labels = eval_batch
        suite = {"my-fgsm": {"name": "fgsm", "params": {"eps": 0.02}}, "pgd": "pgd"}
        result = AttackEngine(suite).run(trained_small_cnn, images[:16], labels[:16])
        assert set(result.adversarial) == {"my-fgsm", "pgd"}

    def test_normalize_suite_disambiguates_duplicates(self):
        suite = normalize_suite([AttackSpec("pgd", dict(steps=1)), AttackSpec("pgd", dict(steps=2))])
        assert list(suite) == ["pgd", "pgd#2"]

    def test_engine_validates_inputs(self, trained_small_cnn, eval_batch):
        images, labels = eval_batch
        with pytest.raises(ValueError):
            AttackEngine(DETERMINISTIC_SUITE, batch_size=0)
        with pytest.raises(ValueError):
            AttackEngine(DETERMINISTIC_SUITE).run(trained_small_cnn, images[:4], labels[:3])



class TestEngineResult:
    #: ``EngineResult.as_dict()`` as the engine wrote it before cascade mode
    #: was removed (a SmallCNN under FGSM and one-step PGD, 6 examples).
    RECORD = {
        "adversarial": {"fgsm": 0.16666666666666666, "pgd": 0.16666666666666666},
        "cascade": False,
        "compile_error": None,
        "compiled": False,
        "early_exit": True,
        "method": "CE",
        "natural": 0.16666666666666666,
        "telemetry": [
            {"accuracy": 0.16666666666666666, "compiled_fallbacks": 0, "compiled_forward_calls": 0,
             "compiled_grad_calls": 0, "examples_attacked": 6, "examples_skipped": 0,
             "forward_calls": 2, "forward_examples": 6, "name": "clean", "seconds": 0.000762},
            {"accuracy": 0.16666666666666666, "compiled_fallbacks": 0, "compiled_forward_calls": 0,
             "compiled_grad_calls": 0, "examples_attacked": 1, "examples_skipped": 5,
             "forward_calls": 2, "forward_examples": 2, "name": "fgsm", "seconds": 0.001062},
            {"accuracy": 0.16666666666666666, "compiled_fallbacks": 0, "compiled_forward_calls": 0,
             "compiled_grad_calls": 0, "examples_attacked": 1, "examples_skipped": 5,
             "forward_calls": 2, "forward_examples": 2, "name": "pgd", "seconds": 0.00094},
        ],
        "total_forward_calls": 6,
        "total_forward_examples": 10,
        "total_seconds": 0.002764,
        "worst_case": 0.16666666666666666,
    }

    def test_record_with_cascade_key_loads(self):
        result = EngineResult.from_dict(json.loads(json.dumps(self.RECORD)))
        assert result.method == "CE" and result.early_exit and not result.compiled
        assert dict(result.adversarial) == self.RECORD["adversarial"]
        assert [t.name for t in result.telemetry] == ["clean", "fgsm", "pgd"]
        assert result.total_forward_examples == 10
        rewritten = result.as_dict()
        assert "cascade" not in rewritten
        assert rewritten == {k: v for k, v in self.RECORD.items() if k != "cascade"}
