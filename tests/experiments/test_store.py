"""Tests for the content-addressed artifact store."""

from __future__ import annotations

import numpy as np
import pytest

from repro.experiments import ArtifactStore, ExperimentRunner
from repro.nn import Tensor

from test_spec import tiny_spec


@pytest.fixture()
def store(tmp_path):
    return ArtifactStore(tmp_path / "store")


@pytest.fixture()
def runner(store):
    return ExperimentRunner(store=store)


class TestModelArtifacts:
    def test_save_load_round_trip(self, store, runner):
        spec = tiny_spec()
        model, history, timing = runner.train(spec)
        store.save_model(spec, model, history=history, timing=timing)
        assert store.has_model(spec)
        revived = store.load_model(spec)
        x = Tensor(np.random.default_rng(0).random((2, 3, 12, 12)))
        np.testing.assert_allclose(model(x).data, revived(x).data)

    def test_channel_mask_survives_round_trip(self, store, runner):
        spec = tiny_spec(ibrar={"alpha": 0.05, "beta": 0.01, "mask_fraction": 0.25})
        model, history, timing = runner.train(spec)
        assert model.channel_mask is not None  # the Eq. (3) mask was installed
        store.save_model(spec, model, history=history, timing=timing)
        revived = store.load_model(spec)
        np.testing.assert_allclose(revived.channel_mask, model.channel_mask)
        x = Tensor(np.random.default_rng(0).random((2, 3, 12, 12)))
        np.testing.assert_allclose(model(x).data, revived(x).data)

    def test_miss_returns_none(self, store):
        assert store.load_model(tiny_spec()) is None
        assert store.load_train_record(tiny_spec()) is None

    def test_corrupt_checkpoint_quarantined(self, store, runner):
        spec = tiny_spec()
        model, history, timing = runner.train(spec)
        store.save_model(spec, model, history=history, timing=timing)
        checkpoint = store.model_dir(spec.training_hash) / "checkpoint.npz"
        checkpoint.write_bytes(checkpoint.read_bytes()[:64])  # truncate
        assert store.load_model(spec) is None
        # The broken artifact is gone, so the next run recomputes cleanly.
        assert not store.model_dir(spec.training_hash).exists()

    @pytest.mark.parametrize("load", ["load_model", "load_train_record"])
    def test_corrupt_train_record_quarantines_the_model(self, store, runner, load):
        spec = tiny_spec()
        model, history, timing = runner.train(spec)
        store.save_model(spec, model, history=history, timing=timing)
        record = store.model_dir(spec.training_hash) / "train.json"
        record.write_bytes(record.read_bytes()[:40])  # truncate
        assert getattr(store, load)(spec) is None
        # Checkpoint and record are one artifact: both go, so the next run
        # retrains instead of serving the model with no history.
        assert not store.has_model(spec)
        assert not store.model_dir(spec.training_hash).exists()


class TestReportArtifacts:
    def test_save_load_round_trip(self, store):
        spec = tiny_spec()
        store.save_report(spec, {"report": {"method": "unit", "natural": 0.5}})
        record = store.load_report(spec)
        assert record["report"]["natural"] == 0.5
        assert record["content_hash"] == spec.content_hash
        assert record["training_hash"] == spec.training_hash
        assert record["spec"]["name"] == "unit"

    def test_corrupt_report_quarantined(self, store):
        spec = tiny_spec()
        store.save_report(spec, {"report": {"method": "unit", "natural": 0.5}})
        (store.report_dir(spec.content_hash) / "experiment.json").write_text("{not json", encoding="utf-8")
        assert store.load_report(spec) is None
        assert not store.report_dir(spec.content_hash).exists()

    def test_find_report_by_prefix(self, store):
        spec = tiny_spec()
        store.save_report(spec, {"report": {"method": "unit", "natural": 0.5}})
        record = store.find_report(spec.content_hash[:10])
        assert record is not None and record["content_hash"] == spec.content_hash
        assert store.find_report("f" * 64) is None


class TestMaintenance:
    def test_manifest_and_clear(self, store, runner):
        spec = tiny_spec()
        model, history, timing = runner.train(spec)
        store.save_model(spec, model, history=history, timing=timing)
        store.save_report(spec, {"report": {"method": "unit", "natural": 1.0, "adversarial": {"fgsm": 0.5}}})
        manifest = store.manifest()
        assert len(manifest["models"]) == 1
        assert manifest["models"][0]["training_hash"] == spec.training_hash
        assert manifest["models"][0]["loss"] == "ce"
        assert len(manifest["reports"]) == 1
        assert manifest["reports"][0]["attacks"] == ["fgsm"]
        assert store.clear() == 2
        assert store.manifest() == {"root": str(store.root), "models": [], "reports": []}

    def test_specs_sharing_training_recipe_share_checkpoints(self, store, runner):
        base = tiny_spec()
        other_eval = base.with_(attacks=(), eval_examples=8)
        model, history, timing = runner.train(base)
        store.save_model(base, model, history=history, timing=timing)
        # A spec differing only in evaluation resolves to the same checkpoint.
        assert store.has_model(other_eval)
        assert store.load_model(other_eval) is not None


class TestServeReports:
    def test_clear_removes_serve_reports(self, store):
        # Older versions cached served robustness reports under serve/.
        for key in ("ab" + "0" * 62, "cd" + "1" * 62):
            directory = store.root / "serve" / key[:2] / key
            directory.mkdir(parents=True)
            (directory / "robustness.json").write_text('{"report": {}}', encoding="utf-8")
        assert store.clear() == 2
        assert not (store.root / "serve").exists()
