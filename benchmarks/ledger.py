#!/usr/bin/env python3
"""In-repo performance ledger over the ``BENCH_*.json`` reports.

``python benchmarks/ledger.py record BENCH_train.json BENCH_serve.json ...``
appends one line per report to ``BENCH_HISTORY.jsonl`` — git SHA, UTC
timestamp, and every *tracked metric* found in the report — then compares
the new values against the best ever recorded for the same (file, metric)
pair.  A tracked metric that lands more than ``--threshold`` (default 20%)
below its historical best emits a GitHub ``::warning`` annotation; with
``--strict`` the exit code is 1 so a release gate can hard-fail.

Tracked metrics carry an explicit direction.  The higher-is-better headline
numbers of the quick benches (speedups and throughput — wall-clock seconds
are machine-bound and too noisy to gate on):

* ``train_speedup_compiled`` (``BENCH_train.json``, ``BENCH_losses.json``
  per loss, ``bench-timings.json``)
* ``speedup_compiled`` / ``speedup_early_exit`` (``bench-timings.json``)
* ``examples_per_sec`` / ``speedup_vs_naive`` (``BENCH_serve.json``)
* ``compile_coverage`` — compiled / total training batches of the grid's
  dropout-bearing compiled spec (``grid-timing.json``); a drop means batches
  started falling back to the eager path

and the lower-is-better serving SLO numbers (tail latency and pad waste,
judged against the best = *lowest* ever recorded):

* ``p50_ms`` / ``p99_ms`` (``BENCH_serve.json`` latency percentiles)
* ``pad_waste_pct`` (``BENCH_serve.json``)

The history file is committed alongside the code (ROADMAP 5: bench numbers
tracked in-repo, not just as expiring CI artifacts), so regressions are
judged against every machine/run that ever recorded — the 20% band absorbs
normal cross-machine variance at the tiny profile.
"""

from __future__ import annotations

import argparse
import json
import os
import subprocess
import sys
import time
from typing import Any, Dict, Iterable, List, Optional, Tuple

DEFAULT_HISTORY = "BENCH_HISTORY.jsonl"
DEFAULT_THRESHOLD = 0.20

#: metric keys worth gating on, wherever they appear in a report (dotted
#: paths record where), mapped to their direction: "higher" means a drop
#: below best is a regression, "lower" means a rise above best (= lowest
#: recorded) is.
TRACKED_METRICS: Dict[str, str] = {
    "train_speedup_compiled": "higher",
    "speedup_compiled": "higher",
    "speedup_early_exit": "higher",
    "examples_per_sec": "higher",
    "speedup_vs_naive": "higher",
    "compile_coverage": "higher",
    "p50_ms": "lower",
    "p99_ms": "lower",
    "pad_waste_pct": "lower",
}


def metric_direction(metric: str) -> str:
    """Direction of a dotted metric path (its last segment is the key)."""
    return TRACKED_METRICS.get(metric.rsplit(".", 1)[-1], "higher")


def extract_metrics(data: Any, prefix: str = "") -> Dict[str, float]:
    """Every tracked metric in a report, keyed by dotted path.

    Walks nested dicts (``losses.trades.train_speedup_compiled``); lists
    are not descended — no report nests metrics inside one.
    """
    metrics: Dict[str, float] = {}
    if isinstance(data, dict):
        for key, value in data.items():
            path = f"{prefix}.{key}" if prefix else key
            if key in TRACKED_METRICS and isinstance(value, (int, float)):
                metrics[path] = float(value)
            elif isinstance(value, dict):
                metrics.update(extract_metrics(value, path))
    return metrics


def git_sha(cwd: Optional[str] = None) -> str:
    try:
        out = subprocess.run(
            ["git", "rev-parse", "HEAD"],
            capture_output=True,
            text=True,
            cwd=cwd,
            check=True,
        )
        return out.stdout.strip()
    except (OSError, subprocess.CalledProcessError):
        return "unknown"


def read_history(path: str) -> List[Dict[str, Any]]:
    """All prior ledger entries (torn/blank lines skipped)."""
    entries: List[Dict[str, Any]] = []
    if not os.path.exists(path):
        return entries
    with open(path, "r", encoding="utf-8") as handle:
        for line in handle:
            line = line.strip()
            if not line:
                continue
            try:
                entries.append(json.loads(line))
            except json.JSONDecodeError:
                continue
    return entries


def best_values(entries: Iterable[Dict[str, Any]]) -> Dict[Tuple[str, str], float]:
    """``(file, metric) -> best recorded value`` across the history.

    "Best" is direction-aware: the highest value for higher-is-better
    metrics, the lowest for lower-is-better ones (tail latency, pad waste).
    """
    best: Dict[Tuple[str, str], float] = {}
    for entry in entries:
        name = entry.get("file")
        for metric, value in (entry.get("metrics") or {}).items():
            if not isinstance(value, (int, float)):
                continue
            key = (name, metric)
            if key not in best:
                best[key] = float(value)
            elif metric_direction(metric) == "lower":
                best[key] = min(best[key], float(value))
            else:
                best[key] = max(best[key], float(value))
    return best


def check_regressions(
    new_entries: Iterable[Dict[str, Any]],
    best: Dict[Tuple[str, str], float],
    threshold: float = DEFAULT_THRESHOLD,
) -> List[str]:
    """Human-readable descriptions of metrics > ``threshold`` worse than best."""
    problems: List[str] = []
    for entry in new_entries:
        name = entry.get("file")
        for metric, value in (entry.get("metrics") or {}).items():
            reference = best.get((name, metric))
            if reference is None or reference <= 0:
                continue
            if metric_direction(metric) == "lower":
                if value > reference * (1.0 + threshold):
                    problems.append(
                        f"{name}:{metric} = {value:.3f} is "
                        f"{(value / reference - 1.0) * 100:.1f}% above the best "
                        f"recorded {reference:.3f}"
                    )
            elif value < reference * (1.0 - threshold):
                problems.append(
                    f"{name}:{metric} = {value:.3f} is "
                    f"{(1.0 - value / reference) * 100:.1f}% below the best "
                    f"recorded {reference:.3f}"
                )
    return problems


def record(
    report_paths: Iterable[str],
    history_path: str = DEFAULT_HISTORY,
    strict: bool = False,
    threshold: float = DEFAULT_THRESHOLD,
    sha: Optional[str] = None,
    now: Optional[float] = None,
    stream=None,
) -> int:
    """Append reports to the ledger and gate on regressions; returns exit code."""
    stream = stream or sys.stdout
    sha = sha or git_sha(os.path.dirname(os.path.abspath(history_path)) or None)
    timestamp = time.time() if now is None else now
    history = read_history(history_path)
    best = best_values(history)

    new_entries: List[Dict[str, Any]] = []
    for path in report_paths:
        if not os.path.exists(path):
            print(f"ledger: skipping missing report {path}", file=stream)
            continue
        with open(path, "r", encoding="utf-8") as handle:
            try:
                data = json.load(handle)
            except json.JSONDecodeError as error:
                print(f"ledger: skipping unreadable report {path}: {error}", file=stream)
                continue
        metrics = extract_metrics(data)
        if not metrics:
            print(f"ledger: no tracked metrics in {path}", file=stream)
            continue
        new_entries.append(
            {
                "ts": round(timestamp, 3),
                "sha": sha,
                "file": os.path.basename(path),
                "metrics": metrics,
            }
        )

    if new_entries:
        with open(history_path, "a", encoding="utf-8") as handle:
            for entry in new_entries:
                handle.write(json.dumps(entry, sort_keys=True) + "\n")
        for entry in new_entries:
            rendered = ", ".join(
                f"{k}={v:.3f}" for k, v in sorted(entry["metrics"].items())
            )
            print(f"ledger: {entry['file']} @ {sha[:12]}: {rendered}", file=stream)

    problems = check_regressions(new_entries, best, threshold=threshold)
    for problem in problems:
        print(f"::warning title=bench-regression::{problem}", file=stream)
    if problems and strict:
        return 1
    return 0


def main(argv: Optional[List[str]] = None) -> int:
    parser = argparse.ArgumentParser(
        prog="python benchmarks/ledger.py",
        description="Append BENCH_*.json runs to the in-repo perf ledger "
        "and warn on >threshold regressions vs the best recorded values.",
    )
    sub = parser.add_subparsers(dest="command", required=True)
    rec = sub.add_parser("record", help="append reports and check for regressions")
    rec.add_argument("reports", nargs="+", help="BENCH_*.json report files")
    rec.add_argument("--history", default=DEFAULT_HISTORY, help="ledger JSONL path")
    rec.add_argument(
        "--threshold",
        type=float,
        default=DEFAULT_THRESHOLD,
        help="fractional drop vs best that counts as a regression (default 0.2)",
    )
    rec.add_argument(
        "--strict",
        action="store_true",
        help="exit nonzero on regression (default: ::warning only)",
    )
    args = parser.parse_args(argv)
    return record(
        args.reports,
        history_path=args.history,
        strict=args.strict,
        threshold=args.threshold,
    )


if __name__ == "__main__":
    sys.exit(main())
