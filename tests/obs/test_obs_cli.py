"""``python -m repro.obs summarize`` renders span and op tables, and the
nearest-rank percentile behind its p95 column."""

from __future__ import annotations

import io
import json

from repro.obs.cli import main, percentile, summarize


def write_jsonl(path, events):
    with open(path, "w", encoding="utf-8") as handle:
        for event in events:
            handle.write(json.dumps(event) + "\n")


def sample_events():
    return [
        {"event": "span", "name": "serve.batch", "dur_ms": 4.0},
        {"event": "span", "name": "serve.batch", "dur_ms": 6.0},
        {"event": "span", "name": "train.epoch", "dur_ms": 100.0},
        {
            "event": "profile",
            "signature": "8x3x16x16:float32",
            "ops": {
                "conv2d": {"calls": 10, "total_ms": 12.5, "bytes": 4096},
                "matmul": {"calls": 5, "total_ms": 1.5, "bytes": 512},
            },
            "pool": {"allocations": 30, "bytes": 100000},
        },
        # Traces written by older versions end with a metrics snapshot.
        {
            "event": "metrics",
            "snapshot": {
                "counters": {"serve.examples": 96},
                "gauges": {"attack.accuracy": 0.5},
            },
        },
    ]


def test_summarize_renders_all_sections(tmp_path):
    path = tmp_path / "trace.jsonl"
    write_jsonl(path, sample_events())
    out = io.StringIO()
    assert summarize(str(path), stream=out) == 0
    text = out.getvalue()
    assert "== Spans ==" in text
    assert "serve.batch" in text and "train.epoch" in text
    assert "== Plan executor (per op kind) ==" in text
    assert "conv2d" in text
    assert "plans profiled: 8x3x16x16:float32" in text
    # An old trace's metrics snapshot still loads, and is not rendered.
    assert "== Metrics ==" not in text
    assert "serve.examples" not in text


def test_summarize_skips_torn_lines(tmp_path):
    path = tmp_path / "trace.jsonl"
    with open(path, "w", encoding="utf-8") as handle:
        handle.write(json.dumps(sample_events()[0]) + "\n")
        handle.write('{"event": "span", "name": "tor\n')  # torn concurrent append
    out = io.StringIO()
    assert summarize(str(path), stream=out) == 0
    assert "serve.batch" in out.getvalue()


def test_summarize_empty_file_reports_no_events(tmp_path):
    path = tmp_path / "empty.jsonl"
    path.write_text("")
    out = io.StringIO()
    assert summarize(str(path), stream=out) == 0
    assert "no span or profile events" in out.getvalue()


def test_main_summarize_subcommand(tmp_path, capsys):
    path = tmp_path / "trace.jsonl"
    write_jsonl(path, sample_events())
    assert main(["summarize", str(path)]) == 0
    assert "== Spans ==" in capsys.readouterr().out


class TestPercentile:
    def test_percentile_nearest_rank(self):
        assert percentile([], 50) == 0.0
        assert percentile([7.0], 99) == 7.0
        # Nearest rank over 1..100: round(0.5 * 99) = 50 -> the 51st value.
        assert percentile(list(range(1, 101)), 50) == 51.0

    def test_empty_reservoir_is_zero(self):
        assert percentile([], 50) == 0.0
        assert percentile([], 99) == 0.0

    def test_singleton_reservoir_returns_its_value(self):
        for q in (0, 50, 95, 99, 100):
            assert percentile([0.25], q) == 0.25

    def test_nearest_rank_on_known_sequence(self):
        values = list(range(1, 101))
        assert percentile(values, 0) == 1.0
        # round(0.5 * 99) = 50 -> the 51st value (nearest-rank, half-to-even).
        assert percentile(values, 50) == 51.0
        assert percentile(values, 100) == 100.0

    def test_unsorted_input_is_sorted_first(self):
        assert percentile([3.0, 1.0, 2.0], 100) == 3.0
