"""Tests for the loss-strategy spec/registry (the AttackSpec analogue)."""

from __future__ import annotations

import pytest

from repro.core import AdversarialMILoss, IBRARConfig, MILoss
from repro.training import (
    CrossEntropyLoss,
    LossConfigError,
    LossSpec,
    MARTLoss,
    PGDAdversarialLoss,
    TRADESLoss,
    available_losses,
    build_loss,
    coerce_loss_spec,
)


class TestRegistry:
    def test_available_losses(self):
        names = available_losses()
        assert {"ce", "pgd", "trades", "mart", "ib-rar-mi", "ib-rar-adversarial"} <= set(names)
        assert names == sorted(names)

    def test_unknown_name_raises(self):
        with pytest.raises(LossConfigError, match="unknown training loss"):
            build_loss("frobnicate")

    def test_unknown_hyperparameter_raises_with_accepted_list(self):
        with pytest.raises(LossConfigError, match="accepted"):
            build_loss("trades", epsilon=0.1)


class TestRoundTrips:
    @pytest.mark.parametrize(
        "strategy",
        [
            CrossEntropyLoss(),
            PGDAdversarialLoss(steps=3, random_start=False),
            TRADESLoss(beta=2.5, steps=4),
            MARTLoss(beta=3.0, steps=2, seed=7),
        ],
        ids=lambda s: s.name,
    )
    def test_strategy_spec_round_trip(self, strategy):
        spec = LossSpec.from_strategy(strategy)
        rebuilt = spec.build()
        assert type(rebuilt) is type(strategy)
        assert LossSpec.from_strategy(rebuilt) == spec

    def test_json_round_trip(self):
        spec = LossSpec("mart", dict(beta=3.0, steps=2))
        assert LossSpec.from_json(spec.to_json()) == spec

    def test_params_order_insensitive(self):
        a = LossSpec("trades", dict(beta=6.0, steps=3))
        b = LossSpec("trades", dict(steps=3, beta=6.0))
        assert a == b and hash(a) == hash(b)

    def test_ibrar_mi_round_trip(self):
        config = IBRARConfig(alpha=0.05, beta=0.01, layers=("fc1", "fc2"), mask_fraction=0.1)
        loss = MILoss(config, num_classes=10, base_loss=TRADESLoss(beta=6.0, steps=3))
        spec = LossSpec.from_strategy(loss)
        rebuilt = spec.build()
        assert isinstance(rebuilt, MILoss)
        assert rebuilt.config == config
        assert isinstance(rebuilt.base_loss, TRADESLoss)
        assert rebuilt.base_loss.beta == 6.0
        assert LossSpec.from_strategy(rebuilt) == spec

    def test_ibrar_adversarial_round_trip(self):
        config = IBRARConfig(alpha=5e-3, beta=1e-3)
        loss = AdversarialMILoss(config, 10, PGDAdversarialLoss(steps=2))
        spec = LossSpec.from_strategy(loss)
        rebuilt = spec.build()
        assert isinstance(rebuilt, AdversarialMILoss)
        assert rebuilt.config == config
        assert isinstance(rebuilt.base_loss, PGDAdversarialLoss)
        assert rebuilt.base_loss.steps == 2


class TestCoercion:
    def test_coerce_variants(self):
        from_name = coerce_loss_spec("ce")
        from_spec = coerce_loss_spec(LossSpec("ce"))
        from_dict = coerce_loss_spec({"name": "ce"})
        from_strategy = coerce_loss_spec(CrossEntropyLoss())
        assert from_name == from_spec == from_dict == from_strategy

    def test_uncoercible_raises(self):
        with pytest.raises(LossConfigError):
            coerce_loss_spec(42)

    def test_strategy_without_hyperparameters_raises(self):
        def naked_loss(model, images, labels):  # spec-less callable
            raise NotImplementedError

        with pytest.raises(LossConfigError, match="hyperparameters"):
            coerce_loss_spec(naked_loss)

    def test_dict_without_name_raises(self):
        with pytest.raises(LossConfigError, match="name"):
            LossSpec.from_dict({"params": {}})

    def test_non_json_params_raise(self):
        with pytest.raises(LossConfigError, match="JSON"):
            LossSpec("trades", {"beta": object()})

    def test_unknown_name_rejected_at_construction(self):
        with pytest.raises(LossConfigError, match="unknown training loss"):
            LossSpec("frobnicate")

    def test_unknown_param_rejected_at_construction(self):
        with pytest.raises(LossConfigError, match="does not accept"):
            LossSpec("ce", {"eps": 0.1})

    def test_defaults_completed_so_equivalent_forms_hash_equal(self):
        # The same recipe expressed sparsely, fully, or via a live strategy
        # must produce one spec (and therefore one experiment hash).
        sparse = LossSpec("pgd", {"steps": 3})
        from_strategy = LossSpec.from_strategy(PGDAdversarialLoss(steps=3))
        assert sparse == from_strategy
        assert hash(sparse) == hash(from_strategy)
        assert sparse.kwargs["eps"] == pytest.approx(8.0 / 255.0)  # default filled in
