"""Span tracing: nesting, carriers across threads/processes, disabled cost."""

from __future__ import annotations

import json
import threading

from repro.obs import trace


def collect():
    """Enable tracing into an in-memory sink; returns the event list."""
    events = []
    trace.enable(sink=events.append)
    return events


class TestDisabled:
    def test_span_returns_shared_noop(self):
        assert not trace.enabled()
        a = trace.span("anything")
        b = trace.span("else")
        assert a is b is trace.NOOP
        with a:
            a.set("k", "v")  # no-op, no error

    def test_carrier_none_when_disabled(self):
        assert trace.carrier() is None

    def test_emit_drops_events(self):
        trace.emit({"event": "span"})  # nowhere to go; must not raise


class TestSpans:
    def test_nested_spans_share_trace_and_parent(self):
        events = collect()
        with trace.span("outer") as outer:
            with trace.span("inner", {"n": 1}):
                pass
        assert [e["name"] for e in events] == ["inner", "outer"]
        inner, outer_ev = events
        assert inner["trace_id"] == outer_ev["trace_id"]
        assert inner["parent_id"] == outer.span_id
        assert outer_ev["parent_id"] is None
        assert inner["attrs"] == {"n": 1}
        assert inner["dur_ms"] >= 0.0

    def test_error_recorded_on_exception(self):
        events = collect()
        try:
            with trace.span("boom"):
                raise RuntimeError("x")
        except RuntimeError:
            pass
        assert events[0]["error"] == "RuntimeError"

    def test_set_attaches_attribute(self):
        events = collect()
        with trace.span("s") as s:
            s.set("batch", 8)
        assert events[0]["attrs"] == {"batch": 8}


class TestCarriers:
    def test_attach_parents_span_on_another_thread(self):
        events = collect()
        with trace.span("root") as root:
            handoff = trace.carrier()

            def worker():
                with trace.attach(handoff):
                    with trace.span("child"):
                        pass

            t = threading.Thread(target=worker)
            t.start()
            t.join()
        child = next(e for e in events if e["name"] == "child")
        assert child["trace_id"] == root.trace_id
        assert child["parent_id"] == root.span_id

    def test_attach_none_is_noop(self):
        events = collect()
        with trace.attach(None):
            with trace.span("solo"):
                pass
        assert events[0]["parent_id"] is None

    def test_carrier_includes_file_path(self, tmp_path):
        path = str(tmp_path / "t.jsonl")
        trace.enable(path=path)
        with trace.span("root"):
            handoff = trace.carrier()
            assert handoff["path"] == path

    def test_file_sink_appends_jsonl(self, tmp_path):
        path = tmp_path / "t.jsonl"
        trace.enable(path=str(path))
        with trace.span("a"):
            pass
        trace.disable()
        lines = [json.loads(l) for l in path.read_text().splitlines() if l.strip()]
        assert lines and lines[0]["name"] == "a"
