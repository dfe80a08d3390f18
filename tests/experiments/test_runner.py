"""Tests for the experiment runner and the parallel grid.

These cover the ISSUE 2 acceptance criteria directly:

* a second invocation of the same grid performs **zero training steps**
  (every spec served from the artifact store, asserted via the runner's
  forward-pass counters);
* a 4-spec grid run with 2 workers produces **byte-identical** report JSON
  to the serial run;
* corrupted / partial artifacts fall back to recompute.
"""

from __future__ import annotations

import pytest

from repro.experiments import ArtifactStore, ExperimentRunner, run_grid

from test_spec import tiny_spec


def grid_specs():
    """Four fast, distinct specs: two losses, a second seed, an IB-RAR row."""
    return [
        tiny_spec(name="ce"),
        tiny_spec(name="ce-seed1", seed=1),
        tiny_spec(name="pgd", loss={"name": "pgd", "params": {"steps": 2}}),
        tiny_spec(name="ibrar", ibrar={"alpha": 0.05, "beta": 0.01, "mask_fraction": 0.1}),
    ]


@pytest.fixture()
def runner(tmp_path):
    return ExperimentRunner(store=ArtifactStore(tmp_path / "store"))


class TestRunner:
    def test_fresh_run_trains_and_persists(self, runner):
        spec = tiny_spec()
        result = runner.run(spec)
        assert not result.from_cache and not result.model_from_cache
        assert result.train_forward_examples > 0
        assert 0.0 <= result.report["natural"] <= 1.0
        assert set(result.report["adversarial"]) == {"fgsm"}
        assert runner.store.has_model(spec) and runner.store.has_report(spec)

    def test_cache_hit_skips_training(self, runner):
        spec = tiny_spec()
        fresh = runner.run(spec)
        cached = runner.run(spec)
        assert cached.from_cache
        # Forward-pass counter: the cached run issued zero training forwards.
        assert cached.train_forward_examples == 0
        assert cached.report == fresh.report
        assert cached.report_json() == fresh.report_json()
        # Telemetry survives the round-trip for the benches.
        report = cached.robustness_report()
        assert report.result is not None
        assert report.result.total_forward_examples == fresh.engine["total_forward_examples"]

    def test_corrupted_checkpoint_falls_back_to_recompute(self, runner):
        spec = tiny_spec()
        fresh = runner.run(spec)
        # Corrupt the checkpoint and drop the report: the rerun must retrain.
        checkpoint = runner.store.model_dir(spec.training_hash) / "checkpoint.npz"
        checkpoint.write_bytes(b"\x00" * 32)
        runner.store._quarantine(runner.store.report_dir(spec.content_hash))
        redone = runner.run(spec)
        assert not redone.from_cache and not redone.model_from_cache
        assert redone.train_forward_examples > 0
        # Training is deterministic per spec, so the recomputed report matches.
        assert redone.report == fresh.report

    @pytest.mark.parametrize("damage", ["truncate train.json", "delete checkpoint.npz"])
    def test_damaged_model_artifact_retrains_and_republishes(self, runner, damage):
        spec = tiny_spec()
        runner.run(spec)
        directory = runner.store.model_dir(spec.training_hash)
        checkpoint = (directory / "checkpoint.npz").read_bytes()
        if damage == "truncate train.json":
            record = directory / "train.json"
            record.write_bytes(record.read_bytes()[:40])  # checkpoint intact
        else:
            (directory / "checkpoint.npz").unlink()  # train.json intact
        runner.store._quarantine(runner.store.report_dir(spec.content_hash))
        redone = runner.run(spec)
        # Checkpoint and train.json are one artifact: damage to either makes
        # it a miss, so the run retrains (with a history) and republishes.
        assert not redone.model_from_cache
        assert redone.history is not None
        assert (directory / "checkpoint.npz").read_bytes() == checkpoint

    @pytest.mark.parametrize("damage", ["train.json", "checkpoint.npz"])
    def test_report_without_model_is_recomputed(self, runner, damage):
        spec = tiny_spec()
        fresh = runner.run(spec)
        directory = runner.store.model_dir(spec.training_hash)
        checkpoint = (directory / "checkpoint.npz").read_bytes()
        if damage == "train.json":
            record = directory / "train.json"
            record.write_bytes(record.read_bytes()[:40])
        else:
            (directory / "checkpoint.npz").unlink()
        redone = runner.run(spec)  # the report was kept
        # A report is no hit without its whole model artifact: the run
        # retrains, recovering the history and republishing the model.
        assert redone.from_cache is False
        assert redone.history is not None
        assert runner.store.has_model(spec)
        assert (directory / "checkpoint.npz").read_bytes() == checkpoint
        assert redone.report_json() == fresh.report_json()

    def test_partial_artifact_reuses_model_and_reevaluates(self, runner):
        spec = tiny_spec()
        fresh = runner.run(spec)
        runner.store._quarantine(runner.store.report_dir(spec.content_hash))
        redone = runner.run(spec)
        assert redone.model_from_cache and not redone.from_cache
        assert redone.train_forward_examples == 0
        assert redone.report == fresh.report

    def test_ibrar_spec_reproducible_from_cache(self, runner):
        spec = tiny_spec(ibrar={"alpha": 0.05, "beta": 0.01, "mask_fraction": 0.25})
        fresh = runner.run(spec)
        # Drop only the report: evaluation now runs on the *revived* model,
        # which must carry the Eq. (3) channel mask to reproduce the numbers.
        runner.store._quarantine(runner.store.report_dir(spec.content_hash))
        revived = runner.run(spec)
        assert revived.model_from_cache
        assert revived.report == fresh.report

    def test_force_recomputes(self, runner):
        spec = tiny_spec()
        fresh = runner.run(spec)
        forced = runner.run(spec, force=True)
        assert not forced.from_cache
        assert forced.train_forward_examples > 0
        assert forced.report == fresh.report


class TestGrid:
    def test_parallel_matches_serial_byte_identical(self, tmp_path):
        specs = grid_specs()
        serial = run_grid(specs, workers=1, store=tmp_path / "serial")
        parallel = run_grid(specs, workers=2, store=tmp_path / "parallel")
        assert serial.report_json() == parallel.report_json()
        assert len(serial.computed) == len(parallel.computed) == len(specs)

    def test_second_invocation_performs_zero_training(self, tmp_path):
        specs = grid_specs()
        first = run_grid(specs, workers=2, store=tmp_path / "store")
        assert first.train_forward_examples > 0
        again = run_grid(specs, workers=2, store=tmp_path / "store")
        # Every spec served from the artifact store: nothing recomputed,
        # zero training forward passes in this invocation.
        assert again.computed == []
        assert again.cached == len(specs)
        assert again.train_forward_examples == 0
        assert again.report_json() == first.report_json()

    def test_resume_after_partial_completion(self, tmp_path):
        specs = grid_specs()
        store = ArtifactStore(tmp_path / "store")
        # Pre-complete half the grid, as if an earlier run was interrupted.
        half = run_grid(specs[:2], workers=1, store=store)
        assert len(half.computed) == 2
        full = run_grid(specs, workers=1, store=store)
        assert len(full.computed) == 2  # only the missing half ran
        assert full.cached == 2

    def test_duplicate_specs_computed_once(self, tmp_path):
        spec = tiny_spec()
        grid = run_grid([spec, spec.with_(name="same recipe, new label"), spec], workers=1, store=tmp_path / "store")
        assert len(grid.results) == 3
        assert len(grid.computed) == 1
        assert len({r.content_hash for r in grid.results}) == 1

    def test_shared_training_hash_trained_once_in_parallel(self, tmp_path):
        spec = tiny_spec()
        # Same training recipe, different evaluation: one checkpoint suffices.
        other_eval = spec.with_(eval_examples=8, name="fewer eval examples")
        assert other_eval.training_hash == spec.training_hash
        assert other_eval.content_hash != spec.content_hash
        grid = run_grid([spec, other_eval], workers=2, store=tmp_path / "store")
        assert len(grid.computed) == 2
        trained = [s for s in grid.stats if s["train_forward_examples"] > 0]
        assert len(trained) == 1  # the second spec loaded the first's checkpoint
        assert sum(1 for s in grid.stats if s["model_from_cache"]) == 1

    def test_corrupt_report_rescheduled_visibly(self, tmp_path):
        store = ArtifactStore(tmp_path / "store")
        specs = grid_specs()[:2]
        run_grid(specs, workers=1, store=store)
        report_path = store.report_dir(specs[0].content_hash) / "experiment.json"
        report_path.write_text("{truncated", encoding="utf-8")
        again = run_grid(specs, workers=1, store=store)
        # The corrupt spec shows up as computed (not as a silent cache hit),
        # and its checkpoint survives, so only the evaluation reruns.
        assert again.computed == [specs[0].content_hash]
        assert again.cached == 1
        assert again.stats[0]["model_from_cache"] is True
        assert again.train_forward_examples == 0

    def test_report_without_model_record_rescheduled(self, tmp_path):
        store = ArtifactStore(tmp_path / "store")
        specs = grid_specs()[:2]
        first = run_grid(specs, workers=1, store=store)
        record = store.model_dir(specs[0].training_hash) / "train.json"
        record.write_bytes(record.read_bytes()[:40])
        again = run_grid(specs, workers=1, store=store)
        assert again.computed == [specs[0].content_hash]
        assert again.results[0].history is not None and store.has_model(specs[0])
        assert again.report_json() == first.report_json()

    def test_renamed_spec_served_from_cache_with_new_label(self, tmp_path):
        spec = tiny_spec(name="CE")
        store = tmp_path / "store"
        run_grid([spec], workers=1, store=store)
        renamed = run_grid([spec.with_(name="baseline")], workers=1, store=store)
        assert renamed.computed == []  # relabeling never retrains...
        assert renamed.reports()[0].method == "baseline"  # ...but shows the new label

    def test_summary_shape(self, tmp_path):
        grid = run_grid(grid_specs()[:2], workers=1, store=tmp_path / "store")
        summary = grid.summary()
        assert summary["specs"] == 2 and summary["computed"] == 2 and summary["cached"] == 0
        assert summary["train_forward_examples"] > 0
        assert len(summary["stats"]) == 2
