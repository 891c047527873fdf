"""Observability for the whole pipeline.

One :class:`Telemetry` session bundles the three layers:

* a hierarchical metric registry (:mod:`repro.telemetry.registry`) —
  named-scope counters, gauges and histograms;
* a structured event stream (:mod:`repro.telemetry.events`) — typed
  events with bounded ring-buffer retention and pluggable sinks;
* cycle attribution (:mod:`repro.telemetry.attribution`) — a top-down
  classification of every pipeline cycle.

Usage::

    from repro import SimConfig, Simulator, workloads
    from repro.telemetry import Telemetry

    telemetry = Telemetry()
    telemetry.attach_jsonl("run.jsonl")
    result = Simulator(SimConfig.paper(),
                       telemetry=telemetry).run(workloads.build("li"))
    print(result.attribution)           # cycle classes, sum == cycles
    print(result.telemetry)             # flat {scope: value} snapshot
    telemetry.close()

Passing no session is the one way to run without telemetry, and it
costs (almost) nothing: the engine still keeps its own registry (the
single source of truth behind ``SimResult``'s counters) but emits no
events and skips cycle accounting entirely.
"""

from __future__ import annotations

from repro.telemetry.attribution import (
    CYCLE_CLASSES,
    CycleAccountant,
    diff_attribution,
    render_attribution,
)
from repro.telemetry.events import (
    EventStream,
    JsonlSink,
    MemorySink,
    CallbackSink,
    NULL_EVENT_STREAM,
)
from repro.telemetry.registry import TelemetryRegistry
from repro.telemetry.spans import (
    NULL_SPANS,
    SpanRecorder,
)


class Telemetry:
    """One observability session.

    A session may span several runs (e.g. every leg of a ``compare``);
    registry counters then accumulate across them, while each
    :class:`~repro.core.results.SimResult` still reports per-run
    deltas. *attribution* turns the per-instruction cycle-accounting
    feed on (a few percent of replay time); *event_capacity* bounds
    the ring buffer; *spans* attaches a
    :class:`~repro.telemetry.spans.SpanRecorder` capturing the segment
    lifecycle and execution-service jobs as exportable timelines (off
    by default — span capture retains every record).
    """

    def __init__(self, event_capacity: int = 4096,
                 attribution: bool = True, spans: bool = False) -> None:
        self.registry = TelemetryRegistry()
        self.events = EventStream(event_capacity)
        self.attribution = attribution
        self.spans = SpanRecorder() if spans else NULL_SPANS
        self._sinks: list = []

    # ------------------------------------------------------------------

    def attach(self, sink) -> None:
        """Attach any event sink (``handle(event)``) to the stream."""
        self.events.attach(sink)
        self._sinks.append(sink)

    def attach_jsonl(self, path, kinds=None) -> JsonlSink:
        """Attach a JSONL file sink; returns it (for ``close()``)."""
        sink = JsonlSink(path, kinds=kinds)
        self.attach(sink)
        return sink

    def attach_memory(self, kinds=None) -> MemorySink:
        """Attach and return an in-memory sink."""
        sink = MemorySink(kinds=kinds)
        self.attach(sink)
        return sink

    def close(self) -> None:
        """Close every sink that supports it (flushes JSONL files)."""
        for sink in self._sinks:
            close = getattr(sink, "close", None)
            if close is not None:
                close()


__all__ = ["Telemetry", "TelemetryRegistry", "EventStream", "JsonlSink",
           "MemorySink", "CallbackSink", "CycleAccountant",
           "CYCLE_CLASSES", "render_attribution", "diff_attribution",
           "NULL_EVENT_STREAM",
           "SpanRecorder", "NULL_SPANS"]
