"""``python -m repro.obs`` — trace summaries, timeline export, run records.

* ``summarize PATH`` rolls the JSONL emitted by :mod:`repro.obs.trace`
  (span events and ``profile`` events from :func:`repro.obs.profiler.flush`)
  into two tables: per-span-name timing and per-op-kind plan-executor cost.
  Event kinds it does not render (the ``metrics`` snapshots older versions
  wrote) are skipped.
* ``export PATH [--format chrome]`` converts the same JSONL into Chrome
  Trace Event format for ``chrome://tracing`` / Perfetto.
* ``runs list|show|diff`` browses the persistent RunRecords
  (:mod:`repro.obs.records`) in an artifact store and renders per-metric
  and per-op-kind deltas between any two of them.
"""

from __future__ import annotations

import argparse
import json
import sys
import time
from typing import Dict, Iterable, List, Optional

__all__ = ["main", "summarize", "runs_list", "runs_show", "runs_diff"]


def percentile(values, q: float) -> float:
    """Nearest-rank percentile (q in [0, 100]) of a sequence; 0.0 when empty."""
    data = sorted(values)
    if not data:
        return 0.0
    rank = max(0, min(len(data) - 1, int(round(q / 100.0 * (len(data) - 1)))))
    return float(data[rank])


def _read_events(path: str) -> List[dict]:
    events = []
    with open(path, "r", encoding="utf-8") as handle:
        for line in handle:
            line = line.strip()
            if not line:
                continue
            try:
                events.append(json.loads(line))
            except json.JSONDecodeError:
                continue  # a torn concurrent append; skip the partial line
    return events


def _format_table(headers: List[str], rows: List[List[str]]) -> str:
    widths = [
        max(len(headers[i]), *(len(row[i]) for row in rows)) if rows else len(headers[i])
        for i in range(len(headers))
    ]
    lines = [
        "  ".join(h.ljust(widths[i]) for i, h in enumerate(headers)),
        "  ".join("-" * widths[i] for i in range(len(headers))),
    ]
    for row in rows:
        lines.append("  ".join(row[i].ljust(widths[i]) for i in range(len(row))))
    return "\n".join(lines)


def _span_table(events: Iterable[dict]) -> Optional[str]:
    by_name: Dict[str, List[float]] = {}
    for event in events:
        if event.get("event") == "span":
            by_name.setdefault(event["name"], []).append(float(event.get("dur_ms", 0.0)))
    if not by_name:
        return None
    rows = []
    for name, durations in sorted(
        by_name.items(), key=lambda item: -sum(item[1])
    ):
        total = sum(durations)
        rows.append(
            [
                name,
                str(len(durations)),
                f"{total:.2f}",
                f"{total / len(durations):.3f}",
                f"{percentile(durations, 95):.3f}",
                f"{max(durations):.3f}",
            ]
        )
    return _format_table(
        ["span", "count", "total_ms", "mean_ms", "p95_ms", "max_ms"], rows
    )


def _op_table(events: Iterable[dict]) -> Optional[str]:
    # Profile events are cumulative per plan and may be flushed more than
    # once per process — keep only the last emission per (pid, plan).
    # Events without those keys (hand-written or older traces) stay unique.
    latest: Dict[object, dict] = {}
    for index, event in enumerate(events):
        if event.get("event") != "profile":
            continue
        if event.get("pid") is not None and event.get("plan") is not None:
            key = (event["pid"], event["plan"], event.get("signature"))
        else:
            key = index
        latest[key] = event
    ops: Dict[str, Dict[str, float]] = {}
    signatures = set()
    for event in latest.values():
        signatures.add(event.get("signature"))
        for kind, stat in (event.get("ops") or {}).items():
            target = ops.setdefault(kind, {"calls": 0, "total_ms": 0.0, "bytes": 0})
            target["calls"] += stat.get("calls", 0)
            target["total_ms"] += stat.get("total_ms", 0.0)
            target["bytes"] += stat.get("bytes", 0)
    if not ops:
        return None
    rows = []
    for kind, stat in sorted(ops.items(), key=lambda item: -item[1]["total_ms"]):
        rows.append(
            [
                kind,
                str(int(stat["calls"])),
                f"{stat['total_ms']:.2f}",
                f"{stat['total_ms'] / max(stat['calls'], 1):.4f}",
                f"{stat['bytes'] / 1e6:.1f}",
            ]
        )
    table = _format_table(
        ["op kind", "calls", "total_ms", "ms/call", "MB out"], rows
    )
    plans = ", ".join(sorted(s for s in signatures if s))
    return f"{table}\n\nplans profiled: {plans or '(none)'}"


def summarize(path: str, stream=None) -> int:
    stream = stream or sys.stdout
    try:
        events = _read_events(path)
    except OSError as error:
        print(f"error: {error}", file=sys.stderr)
        return 2
    sections = [
        ("Spans", _span_table(events)),
        ("Plan executor (per op kind)", _op_table(events)),
    ]
    printed = False
    for title, table in sections:
        if table is None:
            continue
        print(f"== {title} ==", file=stream)
        print(table, file=stream)
        print(file=stream)
        printed = True
    if not printed:
        print(f"no span or profile events in {path}", file=stream)
    return 0


# --------------------------------------------------------------------------- #
# run records
# --------------------------------------------------------------------------- #
def _open_store(root: Optional[str]):
    from . import records

    return records.open_store(root)


def _fmt_value(value) -> str:
    if value is None:
        return "-"
    if isinstance(value, float):
        return f"{value:.4g}"
    return str(value)


def _record_header(record: dict) -> str:
    created = record.get("created")
    when = (
        time.strftime("%Y-%m-%d %H:%M:%S", time.localtime(created))
        if created
        else "-"
    )
    return (
        f"run {record.get('run_id', '?')[:12]}  kind={record.get('kind')}  "
        f"label={record.get('label')}  created={when}  "
        f"git={str(record.get('git_sha', '?'))[:12]}  "
        f"wall={_fmt_value(record.get('wall_seconds'))}s  "
        f"cpu={_fmt_value(record.get('cpu_seconds'))}s"
    )


def runs_list(store_root: Optional[str] = None, kind: Optional[str] = None, stream=None) -> int:
    stream = stream or sys.stdout
    store = _open_store(store_root)
    records = store.list_run_records()
    if kind:
        records = [r for r in records if r.get("kind") == kind]
    if not records:
        print(f"no run records in {store.root}", file=stream)
        return 0
    rows = []
    for record in records:
        created = record.get("created")
        rows.append(
            [
                record.get("run_id", "?")[:12],
                str(record.get("kind", "-")),
                str(record.get("label", "-")),
                time.strftime("%Y-%m-%d %H:%M:%S", time.localtime(created))
                if created
                else "-",
                _fmt_value(record.get("wall_seconds")),
            ]
        )
    print(_format_table(["run", "kind", "label", "created", "wall_s"], rows), file=stream)
    return 0


def runs_show(run_ref: str, store_root: Optional[str] = None, stream=None) -> int:
    from . import records as _records

    stream = stream or sys.stdout
    store = _open_store(store_root)
    try:
        record = _records.load_record(run_ref, store=store)
    except ValueError as error:
        print(f"error: {error}", file=sys.stderr)
        return 2
    if record is None:
        print(f"error: no run record matches '{run_ref}' in {store.root}", file=sys.stderr)
        return 2
    print(_record_header(record), file=stream)
    context = record.get("context") or {}
    if context:
        print("context: " + ", ".join(f"{k}={v}" for k, v in sorted(context.items())), file=stream)
    print(file=stream)
    spans = record.get("spans") or {}
    if spans:
        rows = [
            [name, str(int(stat.get("count", 0))), f"{stat.get('total_ms', 0.0):.2f}",
             f"{stat.get('max_ms', 0.0):.3f}"]
            for name, stat in sorted(spans.items(), key=lambda kv: -kv[1].get("total_ms", 0.0))
        ]
        print("== Spans ==", file=stream)
        print(_format_table(["span", "count", "total_ms", "max_ms"], rows), file=stream)
        print(file=stream)
    ops = _records.op_totals(record)
    if ops:
        rows = [
            [kind, str(int(stat["calls"])), f"{stat['total_ms']:.2f}"]
            for kind, stat in sorted(ops.items(), key=lambda kv: -kv[1]["total_ms"])
        ]
        print("== Plan executor (per op kind) ==", file=stream)
        print(_format_table(["op kind", "calls", "total_ms"], rows), file=stream)
        print(file=stream)
    metrics = _records.flatten_metrics(record)
    if metrics:
        rows = [[key, _fmt_value(value)] for key, value in sorted(metrics.items())]
        print("== Metrics ==", file=stream)
        print(_format_table(["metric", "value"], rows), file=stream)
    return 0


def _latest_of_series(earlier: List[dict], record: dict) -> Optional[dict]:
    """The newest of ``earlier`` (oldest first) sharing ``record``'s kind and label."""
    series = (record.get("kind"), record.get("label"))
    return next(
        (r for r in reversed(earlier) if (r.get("kind"), r.get("label")) == series), None
    )


def runs_diff(
    ref_a: Optional[str] = None,
    ref_b: Optional[str] = None,
    store_root: Optional[str] = None,
    threshold: float = 0.2,
    warn: bool = False,
    stream=None,
) -> int:
    """Diff two run records of the same kind and label.

    With no refs, diffs the newest pair of records sharing a kind and a
    label (so a cold/warm pair of one grid is not diffed against a
    different grid recorded after it); with one ref, diffs that record
    against the newest earlier record of its kind and label.  With no
    such pair the command reports so and exits 0 — the CI soft gate must
    pass on the first ever run.
    """
    from . import records as _records

    stream = stream or sys.stdout
    store = _open_store(store_root)
    try:
        if ref_a and ref_b:
            record_a = _records.load_record(ref_a, store=store)
            record_b = _records.load_record(ref_b, store=store)
            if record_a is None or record_b is None:
                missing = ref_a if record_a is None else ref_b
                print(f"error: no run record matches '{missing}'", file=sys.stderr)
                return 2
        else:
            stored = store.list_run_records()
            if ref_a:
                record_b = _records.load_record(ref_a, store=store)
                if record_b is None:
                    print(f"error: no run record matches '{ref_a}'", file=sys.stderr)
                    return 2
                earlier = [
                    r for r in stored
                    if r.get("run_id") != record_b.get("run_id")
                    and (r.get("created") or 0) <= (record_b.get("created") or 0)
                ]
                record_a = _latest_of_series(earlier, record_b)
            else:
                if not stored:
                    print(f"no run records in {store.root}", file=stream)
                    return 0
                record_a = None
                for index in range(len(stored) - 1, 0, -1):
                    record_b = stored[index]
                    record_a = _latest_of_series(stored[:index], record_b)
                    if record_a is not None:
                        break
            if record_a is None:
                print(
                    "nothing to diff against (no earlier record of the same kind and label)",
                    file=stream,
                )
                return 0
    except ValueError as error:
        print(f"error: {error}", file=sys.stderr)
        return 2
    print("a: " + _record_header(record_a), file=stream)
    print("b: " + _record_header(record_b), file=stream)
    print(file=stream)
    diff = _records.diff_records(record_a, record_b)
    changed = [
        e for e in diff["metrics"]
        if e.get("a") != e.get("b")
    ]
    if changed:
        rows = []
        for entry in changed:
            rows.append(
                [
                    entry["metric"],
                    _fmt_value(entry.get("a")),
                    _fmt_value(entry.get("b")),
                    _fmt_value(entry.get("delta")),
                    f"{entry['pct']:+.1f}%" if "pct" in entry else "-",
                ]
            )
        print("== Metrics (a -> b) ==", file=stream)
        print(_format_table(["metric", "a", "b", "delta", "pct"], rows), file=stream)
        print(file=stream)
    else:
        print("no metric differences", file=stream)
    if diff["ops"]:
        rows = [
            [
                entry["op"],
                f"{int(entry['calls_a'])} -> {int(entry['calls_b'])}",
                f"{entry['total_ms_a']:.2f} -> {entry['total_ms_b']:.2f}",
                f"{entry['delta_ms']:+.2f}",
                f"{entry['pct']:+.1f}%" if "pct" in entry else "-",
            ]
            for entry in diff["ops"]
        ]
        print("== Plan executor delta (per op kind) ==", file=stream)
        print(_format_table(["op kind", "calls", "total_ms", "delta_ms", "pct"], rows), file=stream)
    if warn:
        for problem in _records.regressions(diff, threshold=threshold):
            print(f"::warning title=run-regression::{problem}", file=stream)
    return 0


def main(argv: Optional[List[str]] = None) -> int:
    parser = argparse.ArgumentParser(
        prog="python -m repro.obs",
        description="Summarize/export repro.obs traces and browse run records.",
    )
    sub = parser.add_subparsers(dest="command", required=True)
    summarize_parser = sub.add_parser(
        "summarize", help="per-span and per-op-kind tables from a JSONL trace"
    )
    summarize_parser.add_argument("path", help="trace JSONL file (REPRO_TRACE output)")

    export_parser = sub.add_parser(
        "export", help="convert a JSONL trace to Chrome Trace Event format"
    )
    export_parser.add_argument("path", help="trace JSONL file (REPRO_TRACE output)")
    export_parser.add_argument(
        "-o", "--out", default=None, help="output path (default: <path>.chrome.json)"
    )
    export_parser.add_argument(
        "--format", default="chrome", choices=("chrome",),
        help="output format (chrome = Chrome Trace Event / Perfetto)",
    )

    runs_parser = sub.add_parser("runs", help="browse persistent run records")
    runs_sub = runs_parser.add_subparsers(dest="runs_command", required=True)
    list_parser = runs_sub.add_parser("list", help="list stored run records")
    list_parser.add_argument("--store", default=None, help="artifact store root")
    list_parser.add_argument("--kind", default=None, help="filter by record kind")
    show_parser = runs_sub.add_parser("show", help="render one run record")
    show_parser.add_argument("run", help="run id (or unique prefix)")
    show_parser.add_argument("--store", default=None, help="artifact store root")
    diff_parser = runs_sub.add_parser(
        "diff",
        help="metric and per-op-kind deltas between two records",
        description=(
            "Diff two run records.  With no refs, diffs the newest pair of "
            "records sharing a kind and a label; with one ref, diffs that "
            "record against the newest earlier record of its kind and label."
        ),
    )
    diff_parser.add_argument(
        "run_a", nargs="?", default=None,
        help="older record (alone: the newer record, paired with the newest "
        "earlier record of its kind and label)",
    )
    diff_parser.add_argument("run_b", nargs="?", default=None, help="newer record")
    diff_parser.add_argument("--store", default=None, help="artifact store root")
    diff_parser.add_argument(
        "--threshold", type=float, default=0.2,
        help="fractional change that counts as a regression (default 0.2)",
    )
    diff_parser.add_argument(
        "--warn", action="store_true",
        help="emit ::warning annotations for direction-aware regressions",
    )

    args = parser.parse_args(argv)
    if args.command == "summarize":
        return summarize(args.path)
    if args.command == "export":
        from .export import export_chrome

        try:
            export_chrome(args.path, args.out, stream=sys.stdout)
        except OSError as error:
            print(f"error: {error}", file=sys.stderr)
            return 2
        return 0
    if args.command == "runs":
        if args.runs_command == "list":
            return runs_list(args.store, kind=args.kind)
        if args.runs_command == "show":
            return runs_show(args.run, store_root=args.store)
        if args.runs_command == "diff":
            return runs_diff(
                args.run_a,
                args.run_b,
                store_root=args.store,
                threshold=args.threshold,
                warn=args.warn,
            )
    return 2
