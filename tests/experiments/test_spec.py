"""Tests for ExperimentSpec: round-trips, hash stability, validation."""

from __future__ import annotations

import json

import pytest

from repro.attacks import AttackConfigError, AttackSpec
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


def grid_specs(seed: int = 1):
    """Six specs shaped like cellbench's cold SmallCNN grid (full profile)."""
    shared = dict(
        dataset="cifar10",
        dataset_params=dict(n_train=128, n_test=64, image_size=16, seed=seed),
        model="smallcnn",
        model_params=dict(image_size=16, seed=seed),
        optimizer=dict(lr=0.05, weight_decay=1e-3),
        epochs=2,
        batch_size=32,
        attacks=[AttackSpec("pgd", dict(steps=5, seed=seed)), AttackSpec("fgsm", dict())],
        eval_examples=64,
        eval_early_exit=False,
        seed=seed,
        train_compile=True,
        eval_compile=True,
    )

    def adversarial(name):
        return {"name": name, "params": {"steps": 3, "seed": seed}}

    ibrar = dict(alpha=0.05, beta=0.01)
    return [
        ExperimentSpec(loss="ce", name="CE", **shared),
        ExperimentSpec(loss=adversarial("pgd"), name="PGD-AT", **shared),
        ExperimentSpec(loss=adversarial("trades"), name="TRADES", **shared),
        ExperimentSpec(loss=adversarial("mart"), name="MART", **shared),
        ExperimentSpec(loss=adversarial("pgd"), ibrar=ibrar, name="PGD-AT+IB-RAR", **shared),
        ExperimentSpec(loss=adversarial("trades"), ibrar=ibrar, name="TRADES+IB-RAR", **shared),
    ]


def adaptive_spec() -> ExperimentSpec:
    """The CE grid spec evaluated under the adaptive attack (a tuple parameter)."""
    return grid_specs()[0].with_(
        attacks=(AttackSpec("adaptive-ib", dict(layers=("conv_block1",), steps=2)),),
        name="adaptive",
    )


class TestPinnedHashes:
    """Literal hashes: a payload change that moves them orphans every store.

    Recorded before cascade mode, the ensemble attack and the attack-to-spec
    round trip were deleted; a deliberate hash change (a new kernel or HSIC
    version) updates them together with the version string.
    """

    #: name -> (training_hash, content_hash)
    HASHES = {
        "CE": (
            "d1db52a3295e1cf1efb243ef9ce0e4da05b32c46c124c438a056cf1f3a56ccb1",
            "e99b5d6f016485fe3d5bbebfb9a9dc1841305f5d93065e7e6180dd981852323c",
        ),
        "PGD-AT": (
            "c5df5e1d71083e0fecc9c218a51ad47912ffb1bc6198cc4fbe1f20d1bf46a9c3",
            "6f98fd3a4553a18dd401e555f2a4bbcb9fd49ad84c98f52bad27707bff8acbcf",
        ),
        "TRADES": (
            "e74346054b72031545511a1575a7c2e9a1a006ed9a52946cb47f513a6016df39",
            "2e510c42e135e4bf53dcc6f11fd28bc8191e85db3136a35c58de8a2b0c026d0a",
        ),
        "MART": (
            "8e23098dd82029be1e6248d51dffc8b7abb92072e34b889e279be07c7cce398d",
            "1d08445dfd3f02eb3a613f2fa2a94b0f35cab5557e53b792ece1d84364e12df0",
        ),
        "PGD-AT+IB-RAR": (
            "3cf747bbbdbb713b0aa6b712efe5c7bd746328a20f0d2c4bc5c15e62b3b0b6f8",
            "eb6b9192b4ee74da115832b651d5e9987e8365eff7f55c70e07c2d2c6800c8d5",
        ),
        "TRADES+IB-RAR": (
            "667a3d511e3ced8127a4a5896879350142889667a5c1e39a0dc43390ec91c3c3",
            "0864a53baafb1e9721c56dd32cc104001548b972ffaf21a11aedef7d7b6547cc",
        ),
        "adaptive": (
            "d1db52a3295e1cf1efb243ef9ce0e4da05b32c46c124c438a056cf1f3a56ccb1",
            "ccd401d4e66b465ceacbbb9b89a69490cc4364bf5f2a29decbd54c9d4f33e2d4",
        ),
    }

    def test_hashes_match_the_recorded_literals(self):
        specs = grid_specs() + [adaptive_spec()]
        assert [spec.name for spec in specs] == list(self.HASHES)
        for spec in specs:
            assert (spec.name, spec.training_hash, spec.content_hash) == (spec.name, *self.HASHES[spec.name])
            revived = ExperimentSpec.from_json(spec.to_json())
            assert (revived.training_hash, revived.content_hash) == self.HASHES[spec.name]

    def test_tuple_parameter_serializes_as_a_list(self):
        assert adaptive_spec().as_dict()["eval"] == {
            "attacks": [{"name": "adaptive-ib", "params": {"layers": ["conv_block1"], "steps": 2}}],
            "examples": 64,
            "batch_size": 64,
            "early_exit": False,
            "cascade": False,
            "compile": True,
        }


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

    def test_cascade_false_loads_and_true_is_refused(self):
        # as_dict() keeps writing "cascade": false, as every stored spec has.
        spec = tiny_spec()
        data = spec.as_dict()
        assert data["eval"]["cascade"] is False
        revived = ExperimentSpec.from_dict(json.loads(json.dumps(data)))
        assert revived == spec
        assert (revived.training_hash, revived.content_hash) == (spec.training_hash, spec.content_hash)
        without = dict(data, eval={k: v for k, v in data["eval"].items() if k != "cascade"})
        assert ExperimentSpec.from_dict(without).content_hash == spec.content_hash
        data["eval"]["cascade"] = True
        with pytest.raises(ExperimentSpecError, match="cascade mode was removed"):
            ExperimentSpec.from_dict(data)

    def test_built_attacks_rejected(self, small_cnn):
        from repro.attacks import FGSM

        with pytest.raises(AttackConfigError, match="AttackSpec"):
            tiny_spec(attacks=[FGSM(small_cnn)])

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
