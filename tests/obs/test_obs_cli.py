"""``python -m repro.obs summarize`` renders span/op/metrics tables."""

from __future__ import annotations

import io
import json

from repro.obs.cli import main, summarize


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
    assert "== Metrics ==" in text
    assert "serve.examples" in text


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
    assert "no span/profile/metrics events" in out.getvalue()


def test_main_summarize_subcommand(tmp_path, capsys):
    path = tmp_path / "trace.jsonl"
    write_jsonl(path, sample_events())
    assert main(["summarize", str(path)]) == 0
    assert "== Spans ==" in capsys.readouterr().out
