"""Tests for ExperimentSpec: round-trips, hash stability, validation."""

from __future__ import annotations

import json

import pytest

from repro.attacks import AttackSpec
from repro.core import IBRARConfig
from repro.experiments import ExperimentSpec, ExperimentSpecError, load_specs
from repro.experiments.spec import _hash
from repro.training import LossSpec


def tiny_spec(**overrides) -> ExperimentSpec:
    params = dict(
        dataset="cifar10",
        dataset_params={"n_train": 64, "n_test": 32, "image_size": 12, "seed": 0},
        model="smallcnn",
        model_params={"image_size": 12, "base_channels": 4, "hidden_dim": 16, "seed": 0},
        loss="ce",
        optimizer={"lr": 0.05, "weight_decay": 1e-3},
        epochs=1,
        batch_size=32,
        seed=0,
        attacks=[AttackSpec("fgsm", dict(eps=8 / 255))],
        eval_examples=16,
        name="unit",
    )
    params.update(overrides)
    return ExperimentSpec(**params)


class TestRoundTrip:
    def test_dict_round_trip(self):
        spec = tiny_spec()
        assert ExperimentSpec.from_dict(spec.as_dict()) == spec

    def test_json_round_trip_preserves_hashes(self):
        spec = tiny_spec(ibrar={"alpha": 0.05, "beta": 0.01, "mask_fraction": 0.1})
        revived = ExperimentSpec.from_json(spec.to_json())
        assert revived == spec
        assert revived.content_hash == spec.content_hash
        assert revived.training_hash == spec.training_hash

    def test_loss_spec_coercion(self):
        as_str = tiny_spec(loss="trades")
        as_spec = tiny_spec(loss=LossSpec("trades"))
        as_dict = tiny_spec(loss={"name": "trades", "params": {}})
        assert as_str == as_spec == as_dict

    def test_ibrar_config_embedding(self):
        config = IBRARConfig(alpha=0.05, beta=0.01, layers=("fc1", "fc2"), mask_fraction=0.1)
        spec = tiny_spec(ibrar=config)
        assert spec.ibrar_config == config
        assert ExperimentSpec.from_json(spec.to_json()).ibrar_config == config

    def test_load_specs_single_and_list(self):
        spec = tiny_spec()
        (one,) = load_specs(spec.to_json())
        assert one == spec
        many = load_specs(json.dumps([spec.as_dict(), spec.with_(seed=1).as_dict()]))
        assert len(many) == 2 and many[0] == spec


class TestHashing:
    def test_hash_stable_across_key_ordering(self):
        spec = tiny_spec()
        data = spec.as_dict()
        reordered = json.loads(json.dumps(dict(reversed(list(data.items())))))
        # Same content arriving with different key orders hashes identically.
        assert ExperimentSpec.from_dict(reordered).content_hash == spec.content_hash
        shuffled_params = tiny_spec(
            dataset_params={"seed": 0, "image_size": 12, "n_test": 32, "n_train": 64}
        )
        assert shuffled_params.content_hash == spec.content_hash

    def test_name_excluded_from_hashes(self):
        spec = tiny_spec()
        renamed = spec.with_(name="a different label")
        assert renamed.content_hash == spec.content_hash
        assert renamed.training_hash == spec.training_hash

    def test_eval_fields_change_content_not_training_hash(self):
        spec = tiny_spec()
        more_attacks = spec.with_(attacks=spec.attacks + (AttackSpec("pgd", dict(steps=2)),))
        assert more_attacks.training_hash == spec.training_hash
        assert more_attacks.content_hash != spec.content_hash

    def test_training_fields_change_both_hashes(self):
        spec = tiny_spec()
        for changed in (spec.with_(seed=7), spec.with_(epochs=2), spec.with_(loss="pgd")):
            assert changed.training_hash != spec.training_hash
            assert changed.content_hash != spec.content_hash

    def test_dropout_rng_version_splits_dropout_hashes_only(self):
        # The counter-based dropout scheme changed dropout trajectories, so
        # the rng version joins the training hash — but only for specs that
        # actually instantiate dropout layers.
        plain = tiny_spec()
        assert "dropout_rng" not in plain.training_dict()
        dropped = tiny_spec(
            model="vgg11",
            model_params={"image_size": 32, "width_multiplier": 0.125, "dropout": 0.5, "seed": 0},
            dataset_params={"n_train": 64, "n_test": 32, "image_size": 32, "seed": 0},
        )
        assert dropped.training_dict()["dropout_rng"] == "counter-v1"
        zero = tiny_spec(
            model="vgg11",
            model_params={"image_size": 32, "width_multiplier": 0.125, "dropout": 0.0, "seed": 0},
            dataset_params={"n_train": 64, "n_test": 32, "image_size": 32, "seed": 0},
        )
        assert "dropout_rng" not in zero.training_dict()
        assert ExperimentSpec.from_dict(dropped.as_dict()) == dropped

    def test_compiled_mask_version_splits_masked_ibrar_hashes_only(self):
        # Compiled plans read the Eq. (3) mask in place, which moves compiled
        # IB-RAR trajectories with the mask on; every other spec keeps its hash.
        ibrar = {"alpha": 0.05, "beta": 0.01, "mask_fraction": 0.1}
        masked = tiny_spec(ibrar=ibrar, train_compile=True)
        assert masked.training_dict()["compiled_mask"] == "live-v1"
        for spec in (
            tiny_spec(ibrar=ibrar),
            tiny_spec(ibrar=dict(ibrar, use_mask=False), train_compile=True),
            tiny_spec(train_compile=True),
            tiny_spec(loss="ib-rar-mi", train_compile=True),
        ):
            assert "compiled_mask" not in spec.training_dict()
        assert ExperimentSpec.from_dict(masked.as_dict()) == masked
        assert ExperimentSpec.from_dict(masked.as_dict()).training_hash == masked.training_hash

    def test_kernel_version_joins_every_training_hash(self):
        # Eager autograd and compiled plans share one kernel set (conv,
        # batch norm, pooling) whose rounding differs from the older
        # kernels', so every spec's hash (and the report hashed over it)
        # carries the kernel version.
        for spec in (
            tiny_spec(),
            tiny_spec(train_compile=True),
            tiny_spec(ibrar={"alpha": 0.05, "beta": 0.01}, train_compile=True),
        ):
            data = spec.as_dict()
            assert data["kernels"] == "shared-v2"
            loaded = ExperimentSpec.from_dict(data)
            assert loaded == spec
            assert loaded.training_hash == spec.training_hash
            assert loaded.content_hash == spec.content_hash
            # A spec JSON written under the conv-only kernel set loads as
            # the same spec, now hashed under the current version.
            old = ExperimentSpec.from_dict(dict(data, kernels="shared-conv-v1"))
            assert old == spec
            assert old.training_hash == spec.training_hash
            assert old.as_dict()["kernels"] == "shared-v2"
            v1_payload = dict(spec.training_dict(), kernels="shared-conv-v1")
            assert old.training_hash != _hash(v1_payload)
            assert _hash(dict(v1_payload, kernels="shared-v2")) == spec.training_hash


class TestValidation:
    def test_unknown_top_level_key_rejected(self):
        data = tiny_spec().as_dict()
        data["frobnicate"] = 1
        with pytest.raises(ExperimentSpecError, match="frobnicate"):
            ExperimentSpec.from_dict(data)

    def test_unknown_eval_key_rejected(self):
        data = tiny_spec().as_dict()
        data["eval"]["surprise"] = True
        with pytest.raises(ExperimentSpecError, match="surprise"):
            ExperimentSpec.from_dict(data)

    def test_unknown_optimizer_key_rejected(self):
        with pytest.raises(ExperimentSpecError, match="momentumm"):
            tiny_spec(optimizer={"momentumm": 0.9})

    def test_legacy_numpy_provider_key_loads_and_others_rejected(self):
        data = tiny_spec(train_compile=True).as_dict()
        legacy = dict(data, provider="numpy")
        plain = ExperimentSpec.from_dict(data)
        revived = ExperimentSpec.from_dict(legacy)
        assert revived.training_hash == plain.training_hash
        assert revived.content_hash == plain.content_hash
        with pytest.raises(ExperimentSpecError, match="providers were removed"):
            ExperimentSpec.from_dict(dict(data, provider="threaded"))

    def test_bad_ibrar_config_rejected_at_construction(self):
        with pytest.raises(ValueError):
            tiny_spec(ibrar={"alpha": -1.0})
        with pytest.raises(ValueError):
            tiny_spec(ibrar={"not_a_field": 1})

    def test_bad_scalars_rejected(self):
        with pytest.raises(ExperimentSpecError):
            tiny_spec(epochs=0)
        with pytest.raises(ExperimentSpecError):
            tiny_spec(batch_size=0)
        with pytest.raises(ExperimentSpecError):
            tiny_spec(eval_examples=0)

    def test_optimizer_defaults_merged(self):
        spec = tiny_spec(optimizer={"lr": 0.2})
        merged = spec.optimizer_kwargs
        assert merged["lr"] == 0.2
        assert merged["momentum"] == 0.9  # paper default preserved
