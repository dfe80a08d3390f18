"""Persistent run records: windows, annotation, store round-trip, diffing."""

from __future__ import annotations

import io
import sys
import os

import pytest

from repro.experiments import ArtifactStore
from repro.obs import cli, records, trace


# --------------------------------------------------------------------------- #
# RunWindow / SpanRollup
# --------------------------------------------------------------------------- #
class TestRunWindow:
    def test_collects_span_rollup(self):
        with records.RunWindow("test", label="t") as window:
            with trace.span("unit.work"):
                pass
            with trace.span("unit.work"):
                pass
        record = window.build()
        assert record["kind"] == "test"
        assert record["label"] == "t"
        assert record["spans"]["unit.work"]["count"] == 2
        assert record["spans"]["unit.work"]["total_ms"] >= 0.0
        assert record["wall_seconds"] >= 0.0
        assert record["version"] == records.RECORD_VERSION

    def test_auto_enables_and_disables_trace(self):
        assert not trace.enabled()
        with records.RunWindow("test"):
            assert trace.enabled()
        assert not trace.enabled()

    def test_external_trace_left_untouched(self):
        trace.enable()  # sinkless, user-owned
        with records.RunWindow("test"):
            assert trace.enabled()
        assert trace.enabled()

    def test_nested_windows_refcount(self):
        outer = records.RunWindow("outer").open()
        inner = records.RunWindow("inner").open()
        inner.close()
        assert trace.enabled()  # outer still holds the trace
        outer.close()
        assert not trace.enabled()

    def test_build_sections_drop_none(self):
        with records.RunWindow("test") as window:
            pass
        record = window.build(history={"a": 1}, profile=None)
        assert record["history"] == {"a": 1}
        assert "profile" not in record


class TestAnnotate:
    def test_layers_and_restores(self):
        assert records.annotations() == {}
        with records.annotate(spec_name="s", training_hash="h"):
            with records.annotate(content_hash="c", skipped=None):
                assert records.annotations() == {
                    "spec_name": "s", "training_hash": "h", "content_hash": "c",
                }
            assert records.annotations() == {"spec_name": "s", "training_hash": "h"}
        assert records.annotations() == {}

    def test_window_captures_context(self):
        with records.annotate(spec_name="unit"):
            with records.RunWindow("test") as window:
                pass
            record = window.build()
        assert record["context"] == {"spec_name": "unit"}


def test_sanitize_preserves_numpy_values():
    import numpy as np

    record = {"a": np.float64(3.75), "b": np.int32(4), "c": np.array([1, 2]), "d": {1, 2}}
    clean = records.sanitize(record)
    assert clean["a"] == 3.75
    assert clean["b"] == 4
    assert clean["c"] == [1, 2]
    assert sorted(clean["d"]) == [1, 2]


# --------------------------------------------------------------------------- #
# store round-trip
# --------------------------------------------------------------------------- #
class TestStoreRoundTrip:
    def make_record(self, **extra):
        with records.RunWindow("test", label="rt") as window:
            pass
        return window.build(**extra)

    def test_save_load_by_prefix(self, tmp_path):
        store = ArtifactStore(tmp_path)
        run_id = records.save_record(self.make_record(metrics_extra={"x": 1}), store=store)
        assert len(run_id) == 64
        loaded = records.load_record(run_id[:10], store=store)
        assert loaded is not None
        assert loaded["run_id"] == run_id
        assert loaded["kind"] == "test"

    def test_identical_records_dedupe(self, tmp_path):
        store = ArtifactStore(tmp_path)
        record = self.make_record()
        assert records.save_record(record, store=store) == records.save_record(
            record, store=store
        )
        assert len(store.list_run_ids()) == 1

    def test_list_sorted_by_created(self, tmp_path):
        store = ArtifactStore(tmp_path)
        a = self.make_record()
        b = self.make_record()
        b["created"] = a["created"] + 100.0
        records.save_record(b, store=store)
        records.save_record(a, store=store)
        listed = records.list_records(store=store)
        assert [r["created"] for r in listed] == sorted(r["created"] for r in listed)

    def test_missing_prefix_returns_none(self, tmp_path):
        store = ArtifactStore(tmp_path)
        assert records.load_record("feedface", store=store) is None

    def test_clear_removes_runs(self, tmp_path):
        store = ArtifactStore(tmp_path)
        records.save_record(self.make_record(), store=store)
        assert store.clear() >= 1
        assert store.list_run_ids() == []


# --------------------------------------------------------------------------- #
# producers
# --------------------------------------------------------------------------- #
def train_one_epoch(tiny_dataset):
    from repro.data import ArrayDataset, DataLoader
    from repro.models import SmallCNN
    from repro.nn.optim import SGD
    from repro.training import CrossEntropyLoss, Trainer

    model = SmallCNN(num_classes=10, image_size=16, base_channels=4, hidden_dim=16, seed=0)
    trainer = Trainer(
        model, CrossEntropyLoss(), optimizer=SGD(model.parameters(), lr=0.05)
    )
    loader = DataLoader(
        ArrayDataset(tiny_dataset.x_train[:64], tiny_dataset.y_train[:64]),
        batch_size=32, shuffle=False, seed=0,
    )
    return trainer.fit(loader, epochs=1)


class TestProducers:
    def test_fit_records_disabled_by_default(self, tiny_dataset, monkeypatch, tmp_path):
        monkeypatch.delenv(records.RECORDS_ENV, raising=False)
        history = train_one_epoch(tiny_dataset)
        assert history.records[0].seconds is not None  # timing always on

    def test_fit_persists_train_record_under_env(self, tiny_dataset, monkeypatch, tmp_path):
        monkeypatch.setenv(records.RECORDS_ENV, str(tmp_path))
        train_one_epoch(tiny_dataset)
        stored = records.list_records(store=ArtifactStore(tmp_path))
        assert len(stored) == 1
        record = stored[0]
        assert record["kind"] == "train"
        assert record["history"]["epoch_seconds"][0] > 0.0
        assert record["history"]["train_loss"]
        assert "train.epoch" in record["spans"]

    def test_run_grid_always_records(self, tmp_path):
        sys.path.insert(0, os.path.join(os.path.dirname(__file__), "..", "experiments"))
        try:
            from test_spec import tiny_spec
        finally:
            sys.path.pop(0)
        from repro.experiments import run_grid

        store = ArtifactStore(tmp_path)
        run_grid([tiny_spec()], store=store)
        run_grid([tiny_spec()], store=store)  # warm pass leaves its own record
        stored = [r for r in records.list_records(store=store) if r["kind"] == "grid"]
        assert len(stored) == 2
        assert stored[-1]["summary"]["computed"] == 0  # the warm one
        assert stored[-1]["specs"][0]["name"] == "unit"
        assert stored[-1]["context"] == {}


# --------------------------------------------------------------------------- #
# diffing
# --------------------------------------------------------------------------- #
def fake_record(**overrides):
    record = {
        "version": 1, "kind": "train", "label": "t", "created": 0.0,
        "git_sha": "x", "pid": 1, "wall_seconds": 2.0, "cpu_seconds": 1.0,
        "context": {}, "spans": {},
        "metrics": {"counters": {"train.compiled{}": 10}},
        "history": {"train_loss": [2.0, 1.0], "train_accuracy": [0.4, 0.6]},
        "profile": {"sig-a": {"ops": {"conv2d": {"calls": 4, "total_ms": 8.0}}}},
    }
    record.update(overrides)
    return record


class TestDiff:
    def test_metric_deltas(self):
        a = fake_record()
        b = fake_record(wall_seconds=3.0, history={"train_loss": [2.0, 0.5]})
        diff = records.diff_records(a, b)
        by_name = {e["metric"]: e for e in diff["metrics"]}
        assert by_name["wall_seconds"]["delta"] == 1.0
        assert by_name["wall_seconds"]["pct"] == 50.0
        assert by_name["history.train_loss.final"]["a"] == 1.0
        assert by_name["history.train_loss.final"]["b"] == 0.5

    def test_op_deltas(self):
        b = fake_record(
            profile={"sig-a": {"ops": {"conv2d": {"calls": 8, "total_ms": 12.0}}}}
        )
        diff = records.diff_records(fake_record(), b)
        (entry,) = diff["ops"]
        assert entry["op"] == "conv2d"
        assert entry["calls_a"] == 4 and entry["calls_b"] == 8
        assert entry["delta_ms"] == 4.0
        assert entry["pct"] == 50.0

    def test_op_totals_handles_serve_nesting(self):
        record = fake_record(
            profile={"model": {"sig": {"ops": {"matmul": {"calls": 2, "total_ms": 1.0}}}}}
        )
        assert records.op_totals(record) == {"matmul": {"calls": 2.0, "total_ms": 1.0}}

    def test_direction_heuristics(self):
        assert records.metric_direction("stats.window.p99_ms") == "lower"
        assert records.metric_direction("history.train_loss.final") == "lower"
        assert records.metric_direction("history.train_accuracy.final") == "higher"
        assert records.metric_direction("stats.shed") == "lower"
        assert records.metric_direction("specs") is None

    def test_regressions_direction_aware(self):
        a = fake_record()
        b = fake_record(
            wall_seconds=4.0,  # seconds rose 100% -> regression
            history={"train_accuracy": [0.4, 0.9]},  # accuracy rose -> fine
        )
        problems = records.regressions(records.diff_records(a, b), threshold=0.2)
        assert any("wall_seconds" in p for p in problems)
        assert not any("accuracy" in p for p in problems)


# --------------------------------------------------------------------------- #
# CLI
# --------------------------------------------------------------------------- #
class TestRunsCli:
    def seed_store(self, tmp_path, n=2):
        store = ArtifactStore(tmp_path)
        ids = []
        for index in range(n):
            record = fake_record(created=float(index), wall_seconds=2.0 + index)
            ids.append(records.save_record(record, store=store))
        return store, ids

    def test_list(self, tmp_path):
        _, ids = self.seed_store(tmp_path)
        out = io.StringIO()
        assert cli.runs_list(str(tmp_path), stream=out) == 0
        rendered = out.getvalue()
        for run_id in ids:
            assert run_id[:12] in rendered

    def test_list_empty_store_exits_zero(self, tmp_path):
        out = io.StringIO()
        assert cli.runs_list(str(tmp_path), stream=out) == 0
        assert "no run records" in out.getvalue()

    def test_show(self, tmp_path):
        _, ids = self.seed_store(tmp_path, n=1)
        out = io.StringIO()
        assert cli.runs_show(ids[0][:8], store_root=str(tmp_path), stream=out) == 0
        rendered = out.getvalue()
        assert "== Metrics ==" in rendered
        assert "conv2d" in rendered

    def test_show_missing_ref(self, tmp_path):
        self.seed_store(tmp_path, n=1)
        assert cli.runs_show("feedface", store_root=str(tmp_path), stream=io.StringIO()) == 2

    def test_diff_latest_pair_by_default(self, tmp_path):
        self.seed_store(tmp_path)
        out = io.StringIO()
        assert cli.runs_diff(store_root=str(tmp_path), stream=out) == 0
        rendered = out.getvalue()
        assert "wall_seconds" in rendered
        assert "+50.0%" in rendered

    def test_diff_pairs_records_of_one_label(self, tmp_path):
        # A cold and a warm grid[3], then a newer grid[1]: the default diff
        # pairs the two grid[3] records instead of warm grid[3] vs grid[1].
        store = ArtifactStore(tmp_path)
        ids = [
            records.save_record(
                fake_record(kind="grid", label=label, created=created, wall_seconds=wall),
                store=store,
            )
            for label, created, wall in (
                ("grid[3]", 0.0, 2.0), ("grid[3]", 1.0, 3.0), ("grid[1]", 2.0, 9.0),
            )
        ]
        out = io.StringIO()
        assert cli.runs_diff(store_root=str(tmp_path), stream=out) == 0
        rendered = out.getvalue()
        assert f"a: run {ids[0][:12]}" in rendered
        assert f"b: run {ids[1][:12]}" in rendered
        assert "+50.0%" in rendered
        # The one-ref form follows the same rule.
        out = io.StringIO()
        assert cli.runs_diff(ids[1][:12], store_root=str(tmp_path), stream=out) == 0
        assert f"a: run {ids[0][:12]}" in out.getvalue()
        out = io.StringIO()
        assert cli.runs_diff(ids[2][:12], store_root=str(tmp_path), stream=out) == 0
        assert "nothing to diff against" in out.getvalue()

    def test_diff_single_record_exits_zero(self, tmp_path):
        self.seed_store(tmp_path, n=1)
        out = io.StringIO()
        assert cli.runs_diff(store_root=str(tmp_path), stream=out) == 0
        assert "nothing to diff against" in out.getvalue()

    def test_diff_warn_emits_annotations(self, tmp_path):
        self.seed_store(tmp_path)  # wall_seconds 2.0 -> 3.0 = +50%
        out = io.StringIO()
        assert cli.runs_diff(store_root=str(tmp_path), warn=True, stream=out) == 0
        assert "::warning title=run-regression::" in out.getvalue()

    def test_main_dispatch(self, tmp_path, capsys):
        self.seed_store(tmp_path)
        assert cli.main(["runs", "list", "--store", str(tmp_path)]) == 0
        assert cli.main(["runs", "diff", "--store", str(tmp_path), "--warn"]) == 0
        captured = capsys.readouterr().out
        assert "kind" in captured
