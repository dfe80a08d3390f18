"""Compiled runs report consistent forward-pass telemetry.

``ForwardPassCounter`` instruments the eager forward funnel, which compiled
plan replays bypass; the runner therefore adds
``TrainingCompileStats.compiled_forward_calls/examples`` (which count plan
forwards the same way) into the timing record, so
``train_forward_examples`` agrees between ``train_compile=True`` and eager
runs of the same spec.
"""

from __future__ import annotations

import pytest

from repro.experiments import ArtifactStore, ExperimentRunner

from test_spec import tiny_spec


@pytest.mark.parametrize(
    "loss",
    [
        {"name": "ce", "params": {}},
        {"name": "pgd", "params": {"steps": 2}},
    ],
)
def test_compiled_and_eager_report_consistent_forward_counts(tmp_path, loss):
    def train_timing(compile_flag, store_name):
        runner = ExperimentRunner(store=ArtifactStore(tmp_path / store_name))
        spec = tiny_spec(loss=loss, train_compile=compile_flag, epochs=2)
        result = runner.run(spec)
        assert not result.from_cache
        return result

    eager = train_timing(False, "eager")
    compiled = train_timing(True, "compiled")
    assert eager.train_forward_examples > 0
    # The compiled run replays most batches through plans (invisible to the
    # eager counter); the summed telemetry matches the eager count exactly,
    # plus the one real traced forward each signature capture performs.
    captures = compiled.history["compile"]["captures"]
    assert captures == 1
    batch = 32  # tiny_spec batch_size (drop_last, one signature)
    assert (
        compiled.train_forward_examples
        == eager.train_forward_examples + captures * batch
    )


def test_compiled_replays_dominate_the_count(tmp_path):
    runner = ExperimentRunner(store=ArtifactStore(tmp_path / "store"))
    spec = tiny_spec(loss={"name": "pgd", "params": {"steps": 2}}, train_compile=True, epochs=2)
    model, history, timing = runner.train(spec)
    compile_stats = history.get("compile", {})
    assert compile_stats.get("compiled_batches", 0) >= 1
    assert compile_stats.get("compiled_forward_examples", 0) > 0
    assert timing["train_forward_examples"] >= compile_stats["compiled_forward_examples"]


def test_compile_telemetry_does_not_depend_on_the_store(tmp_path):
    # A forced re-run on the same store traces its forward again, so it
    # reports the same compile stats and forward counts as the first run.
    runner = ExperimentRunner(store=ArtifactStore(tmp_path / "store"))
    spec = tiny_spec(loss={"name": "pgd", "params": {"steps": 2}}, train_compile=True, epochs=2)
    first = runner.run(spec, force=True)
    second = runner.run(spec, force=True)
    assert not first.from_cache and not second.from_cache
    assert first.history["compile"]["captures"] == 1
    assert second.history["compile"] == first.history["compile"]
    assert second.train_forward_examples == first.train_forward_examples
