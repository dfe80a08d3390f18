#!/usr/bin/env python3
"""Table-1 cell benchmark: one command, three workloads, outside-in layer timing.

Usage (from the repository root)::

    python3 cellbench/run.py --workload train_vgg16_ibrar_pgd --seed 1 --seconds 15 --trace 0

``--workload all`` runs every workload in turn, each in its own process.

``--trace 0`` measures the end-to-end metrics named in ``BENCHMARK.json``
(``setup_s``, ``wall_s``, ``peak_rss_mb``) with no instrumentation installed.
``--trace 1`` runs one untraced unit, then installs spans around every
layer's public entry points plus the plan profiler for the traced units, and
reports the per-layer metrics of ``cellbench/layers.json``, each layer's self
time and the tracing overhead.  Its spans are written to
``.cellbench-out/trace-<workload>-<seed>.jsonl`` in the ``repro.obs`` schema
(``PYTHONPATH=src python -m repro.obs summarize <file>`` reads it).

The set-up runs several times and ``setup_s`` is its median; the timed
section repeats the workload's unit (an epoch, a suite pass, a cold grid)
until ``--seconds`` have passed and ``wall_s`` is the median unit.  Every
run checks its outputs against the eager float64 oracle.  The last stdout
line is the JSON result ``{"correct", "attempted", "failed", "metrics"}``.
``--profile tiny`` shrinks every shape for smoke tests.
"""

from __future__ import annotations

import argparse
import json
import os
import shutil
import statistics
import subprocess
import sys
import time
import traceback

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SRC = os.path.join(ROOT, "src")
OUT = os.path.join(ROOT, ".cellbench-out")


def load_json(path: str) -> dict:
    with open(path, encoding="utf-8") as handle:
        return json.load(handle)


def parse_args(argv, workload_names):
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True, choices=workload_names + ["all"])
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--profile", choices=("full", "tiny"), default="full")
    return parser.parse_args(argv)


def measure(args, catalog: dict, work_dir: str):
    """Set up, time the units, check; returns (metrics, ops, context)."""
    import instrument
    import machine
    from workloads import WORKLOADS

    config = catalog["workloads"][args.workload]["profiles"][args.profile]
    context = {"workload": args.workload, "seed": args.seed, "trace": args.trace,
               "profile": args.profile, "machine": machine.context()}
    workload = WORKLOADS[args.workload](args.seed, work_dir, config)

    setup_runs = []
    for _ in range(config["setup_repeats"]):
        start = time.perf_counter()
        workload.setup()
        setup_runs.append(time.perf_counter() - start)

    patches = instrument.Patches()
    instrumentation = None
    units, events, untraced = [], [], None
    try:
        workload.start(patches)
        try:
            if args.trace:
                untraced = workload.unit()
                instrumentation = instrument.Instrumentation(work_dir)
                instrumentation.install(workload.model_classes)
                workload.begin_traced()
            start = time.perf_counter()
            while not units or time.perf_counter() - start < args.seconds:
                if instrumentation is not None:
                    with instrumentation.span("bench.unit", "bench"):
                        units.append(workload.unit())
                else:
                    units.append(workload.unit())
        except Exception as error:  # fails the operation in flight; stop timing
            traceback.print_exc(file=sys.stderr)
            workload.ops.add(1, 1, f"timed section raised {error!r}")
        finally:
            if instrumentation is not None:
                events = instrumentation.all_events()
                instrumentation.close()
        try:
            workload.check()
        except Exception as error:
            traceback.print_exc(file=sys.stderr)
            workload.ops.add(1, 1, f"correctness check raised {error!r}")
    finally:
        patches.close()

    ops = workload.ops
    unit_s = statistics.median(units) if units else float("nan")
    end_to_end = {
        "setup_s": statistics.median(setup_runs),
        "wall_s": unit_s,
        "peak_rss_mb": machine.peak_rss_mb() + workload.workers_peak_rss_mb(),
    }
    context.update(
        setup_runs_s=setup_runs,
        unit_s=units,
        summary=dict(workload.summary(unit_s), error_rate=ops.failed / max(ops.attempted, 1)),
        errors=ops.errors,
    )
    if not args.trace:
        return end_to_end, None, ops, context

    per_layer = instrument.layer_metrics(events, context["machine"]["matmul_gflops_f64"])
    per_layer.update(workload.layer_values())
    per_layer.update(
        {
            "machine.matmul_gflops_f64": context["machine"]["matmul_gflops_f64"],
            "machine.matmul_gflops_f32": context["machine"]["matmul_gflops_f32"],
            "bench.timed_wall_s": sum(units),
            "bench.tracing_overhead_s": unit_s - untraced,
        }
    )
    os.makedirs(OUT, exist_ok=True)
    trace_path = os.path.join(OUT, f"trace-{args.workload}-{args.seed}.jsonl")
    instrument.write_jsonl(trace_path, events)
    context["trace_file"] = os.path.relpath(trace_path, ROOT)
    return end_to_end, per_layer, ops, context


def main(argv=None) -> int:
    if not os.path.isdir(os.path.join(SRC, "repro")):
        print(f"error: no repro package under {SRC}; run from a full checkout", file=sys.stderr)
        return 2
    sys.path.insert(0, SRC)
    benchmark = load_json(os.path.join(ROOT, "BENCHMARK.json"))
    catalog = load_json(os.path.join(HERE, "layers.json"))
    args = parse_args(argv, [w["name"] for w in benchmark["workloads"]])
    if args.seconds <= 0:
        print("error: --seconds must be positive", file=sys.stderr)
        return 2
    if args.workload == "all":
        status = 0
        for workload in benchmark["workloads"]:
            command = [sys.executable, os.path.abspath(__file__), "--workload", workload["name"],
                       "--seed", str(args.seed), "--seconds", str(args.seconds),
                       "--trace", str(args.trace), "--profile", args.profile]
            status = subprocess.run(command).returncode or status
        return status

    work_dir = os.path.join(OUT, f"work-{os.getpid()}")
    os.makedirs(work_dir)
    try:
        end_to_end, per_layer, ops, context = measure(args, catalog, work_dir)
    finally:
        shutil.rmtree(work_dir, ignore_errors=True)

    units = {m["name"]: m["unit"] for m in benchmark["end_to_end"]}
    if per_layer is None:
        metrics = {name: {"value": float(end_to_end[name]), "unit": unit} for name, unit in units.items()}
    else:
        declared = {m["name"]: m["unit"] for m in benchmark["per_layer"]}
        unknown = sorted(set(per_layer) - set(declared))
        if unknown:
            raise RuntimeError(f"per-layer metrics missing from BENCHMARK.json: {unknown}")
        metrics = {name: {"value": float(per_layer.get(name, 0.0)), "unit": unit}
                   for name, unit in declared.items()}

    print(f"workload {args.workload}  seed {args.seed}  trace {args.trace}  profile {args.profile}")
    for name, unit in units.items():
        print(f"  {name:<24} {end_to_end[name]:>14.6g} {unit}")
    for name, value in context["summary"].items():
        print(f"  {name:<24} {value!s:>14}")
    print(f"  operations               {ops.attempted} attempted, {ops.failed} failed")
    for error in ops.errors:
        print(f"  FAILED: {error}")
    print(json.dumps({"context": context}, default=float))
    correct = ops.failed == 0 and not ops.errors and ops.attempted > 0
    print(json.dumps({"correct": correct, "attempted": max(ops.attempted, 1),
                      "failed": ops.failed, "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
