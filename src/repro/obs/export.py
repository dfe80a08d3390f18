"""Convert a ``REPRO_TRACE`` JSONL into Chrome Trace Event format.

``python -m repro.obs export trace.jsonl`` writes a ``*.chrome.json`` that
loads directly in ``chrome://tracing`` or https://ui.perfetto.dev: every
span event becomes an ``"X"`` (complete) event with microsecond ``ts`` /
``dur``, ``pid`` is the span's recording process and ``tid`` a stable
per-process index of its thread name — so a ``run_grid`` fan-out shows one
track per worker process and every thread gets its own track, with the
carrier-propagated trace/span ids preserved in ``args``.
"""

from __future__ import annotations

import json
from typing import Any, Dict, Iterable, List, Optional, TextIO

__all__ = ["chrome_trace", "export_chrome"]


def chrome_trace(events: Iterable[Dict[str, Any]]) -> Dict[str, Any]:
    """A Chrome Trace Event document from repro.obs span events.

    Span timestamps are wall-clock seconds at span *exit*; the start is
    recovered as ``ts - dur`` and rebased to the earliest span so the
    timeline starts at zero.  Non-span events (profile/metrics flushes)
    are ignored.
    """
    spans = []
    for event in events:
        if event.get("event") != "span":
            continue
        dur_s = float(event.get("dur_ms", 0.0)) / 1e3
        end_s = float(event.get("ts", 0.0))
        spans.append((end_s - dur_s, dur_s, event))
    if not spans:
        return {"traceEvents": [], "displayTimeUnit": "ms"}
    origin = min(start for start, _, _ in spans)

    trace_events: List[Dict[str, Any]] = []
    # tid: per-pid first-seen index of the thread name; pid 0 for events
    # from hand-written traces that carry neither.
    tids: Dict[tuple, int] = {}
    named_processes: set = set()
    for start, dur_s, event in sorted(spans, key=lambda item: item[0]):
        pid = int(event.get("pid") or 0)
        thread = str(event.get("thread") or "main")
        key = (pid, thread)
        if key not in tids:
            tids[key] = 1 + sum(1 for k in tids if k[0] == pid)
            if pid not in named_processes:
                named_processes.add(pid)
                trace_events.append(
                    {
                        "ph": "M", "name": "process_name", "pid": pid, "tid": 0,
                        "args": {"name": f"repro pid {pid}"},
                    }
                )
            trace_events.append(
                {
                    "ph": "M", "name": "thread_name", "pid": pid,
                    "tid": tids[key], "args": {"name": thread},
                }
            )
        name = str(event.get("name", "span"))
        args: Dict[str, Any] = {}
        for field in ("trace_id", "span_id", "parent_id", "error"):
            if event.get(field) is not None:
                args[field] = event[field]
        attrs = event.get("attrs")
        if isinstance(attrs, dict):
            args.update(attrs)
        trace_events.append(
            {
                "name": name,
                "cat": name.split(".", 1)[0],
                "ph": "X",
                "ts": round((start - origin) * 1e6, 3),
                "dur": round(dur_s * 1e6, 3),
                "pid": pid,
                "tid": tids[key],
                "args": args,
            }
        )
    return {"traceEvents": trace_events, "displayTimeUnit": "ms"}


def export_chrome(
    path: str, out_path: Optional[str] = None, stream: Optional[TextIO] = None
) -> int:
    """Read span JSONL at ``path``, write Chrome Trace JSON; returns #events."""
    from .cli import _read_events  # shared torn-line-tolerant reader

    document = chrome_trace(_read_events(path))
    if out_path is None:
        base = path[: -len(".jsonl")] if path.endswith(".jsonl") else path
        out_path = base + ".chrome.json"
    with open(out_path, "w", encoding="utf-8") as handle:
        json.dump(document, handle)
        handle.write("\n")
    count = sum(1 for e in document["traceEvents"] if e["ph"] == "X")
    if stream is not None:
        print(f"wrote {count} span events to {out_path}", file=stream)
    return count
