"""Tests of the Table-1 cell benchmark: schema, metric map, smoke runs.

The smoke runs call ``run.py --profile tiny`` in a subprocess, so the
benchmark's monkeypatching never touches the test process.
"""

from __future__ import annotations

import json
import os
import re
import shutil
import subprocess
import sys

import pytest

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
NAME = re.compile(r"^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$")
UNIT = re.compile(r"^[A-Za-z0-9_/%.-]{1,16}$")

sys.path.insert(0, HERE)
import instrument  # noqa: E402


def _load(path):
    with open(path, encoding="utf-8") as handle:
        return json.load(handle)


BENCHMARK = _load(os.path.join(ROOT, "BENCHMARK.json"))
CATALOG = _load(os.path.join(HERE, "layers.json"))
WORKLOADS = [w["name"] for w in BENCHMARK["workloads"]]
END_TO_END = {m["name"]: m for m in BENCHMARK["end_to_end"]}
PER_LAYER = {m["name"]: m for m in BENCHMARK["per_layer"]}


def test_benchmark_json_schema():
    assert set(BENCHMARK) == {"command", "paths", "run_seconds", "workloads", "end_to_end", "per_layer"}
    assert BENCHMARK["paths"] == ["cellbench"]
    assert 2 <= len(WORKLOADS) <= 8 and 1 <= len(PER_LAYER) <= 128
    names = WORKLOADS + list(END_TO_END) + list(PER_LAYER)
    assert len(names) == len(set(names))
    for name in names:
        assert NAME.match(name), name
    for workload in BENCHMARK["workloads"]:
        assert set(workload) == {"name", "why"} and len(workload["why"]) <= 200
    for metric in END_TO_END.values():
        assert set(metric) == {"name", "unit", "better", "bound"} and 0 < metric["bound"] <= 0.25
    assert END_TO_END["setup_s"]["bound"] == max(m["bound"] for m in END_TO_END.values())
    for metric in list(END_TO_END.values()) + list(PER_LAYER.values()):
        assert UNIT.match(metric["unit"]) and metric["better"] in ("higher", "lower")


def test_every_per_layer_metric_maps_to_an_end_to_end_metric_and_workload():
    catalog = CATALOG["per_layer"]
    assert list(catalog) == list(PER_LAYER)
    for name, entry in catalog.items():
        assert entry["unit"] == PER_LAYER[name]["unit"] and entry["better"] == PER_LAYER[name]["better"]
        assert entry["moves"], name
        for metric, workload in entry["moves"]:
            assert metric in END_TO_END and workload in WORKLOADS, (name, metric, workload)
    assert set(CATALOG["workloads"]) == set(WORKLOADS)
    for entry in CATALOG["workloads"].values():
        assert entry["loads"] and entry["bypasses"] and set(entry["profiles"]) == {"full", "tiny"}


def _span(span_id, parent, layer, dur_ms, pid=1, name="x"):
    attrs = {"layer": layer} if layer else None
    return {"event": "span", "name": name, "span_id": span_id, "parent_id": parent,
            "dur_ms": dur_ms, "pid": pid, "attrs": attrs}


def test_self_times_subtract_nested_layer_spans_through_program_spans():
    events = [
        _span("a", None, "bench", 100.0),
        _span("b", "a", "training", 80.0),
        _span("p", "b", None, 60.0),  # a program span between two layer spans
        _span("c", "p", "compile", 50.0),
        _span("w", "a", "experiments", 30.0, pid=2),  # a worker: its own root
    ]
    self_s = instrument.self_times(events)
    assert self_s == pytest.approx({"bench": 0.02, "training": 0.03, "compile": 0.05, "experiments": 0.03})


def _run(*args, cwd=ROOT):
    return subprocess.run(
        [sys.executable, os.path.join(cwd, "cellbench", "run.py"), *args],
        cwd=cwd, capture_output=True, text=True, timeout=600,
    )


@pytest.mark.parametrize("trace", [0, 1])
@pytest.mark.parametrize("workload", WORKLOADS)
def test_smoke_run_emits_every_metric(workload, trace):
    proc = _run("--workload", workload, "--seed", "3", "--seconds", "0.2",
                "--trace", str(trace), "--profile", "tiny")
    assert proc.returncode == 0, proc.stderr[-2000:]
    result = json.loads(proc.stdout.strip().splitlines()[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] is True and result["failed"] == 0 and result["attempted"] >= 1, proc.stdout
    declared = PER_LAYER if trace else END_TO_END
    assert set(result["metrics"]) == set(declared)
    for name, metric in result["metrics"].items():
        assert metric["unit"] == declared[name]["unit"]
        assert isinstance(metric["value"], float)
    values = {name: metric["value"] for name, metric in result["metrics"].items()}
    if not trace:
        assert all(value > 0 for value in values.values())
    elif workload == "train_vgg16_ibrar_pgd":
        # One process: layer self times plus benchmark overhead are the timed wall.
        self_total = sum(v for name, v in values.items() if name.endswith(".self_s"))
        assert self_total + values["bench.overhead_s"] == pytest.approx(values["bench.timed_wall_s"], rel=1e-3)
        assert values["training.epoch_s"] > 0 and values["compile.op.conv2d_ms"] > 0


def test_fails_without_the_program(tmp_path):
    shutil.copytree(HERE, tmp_path / "cellbench", ignore=shutil.ignore_patterns("__pycache__"))
    shutil.copy(os.path.join(ROOT, "BENCHMARK.json"), tmp_path)
    proc = _run("--workload", WORKLOADS[0], "--seed", "1", "--seconds", "1", "--trace", "0",
                cwd=str(tmp_path))
    assert proc.returncode != 0
    assert '"metrics"' not in proc.stdout
