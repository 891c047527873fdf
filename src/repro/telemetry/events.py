"""Structured event stream.

Instrumented components emit typed events — a segment finalized by the
fill unit, an optimization applied or rejected (with its reason), a
branch promotion, a trace cache misfetch, a checkpoint-repair stall —
into one :class:`EventStream` per run. The stream keeps a bounded
ring buffer (the most recent ``capacity`` events are always available
for post-mortem inspection) and forwards every event to pluggable
sinks: a JSONL file, an in-memory list, or an arbitrary callback.

Event kinds and payload schemas are documented in
``docs/observability.md``; :func:`repro.telemetry.io.read_events`
loads a JSONL archive back. High-frequency per-instruction timing
events (:data:`INSTR_RETIRED`) are opt-in: the engine only emits them
when an attached sink declares ``wants_instr_timing`` (see
:class:`~repro.core.debug.TimingTrace`), so ordinary profiled runs pay
nothing per instruction.
"""

from __future__ import annotations

import json
from collections import deque
from dataclasses import dataclass, field

# -- event kinds --------------------------------------------------------

RUN_STARTED = "run.started"
RUN_FINISHED = "run.finished"
SEGMENT_BUILT = "segment.built"
SEGMENT_DEDUPED = "segment.deduped"
OPT_APPLIED = "opt.applied"
OPT_REJECTED = "opt.rejected"
BRANCH_PROMOTED = "branch.promoted"
BRANCH_MISPREDICT = "branch.mispredict"
FETCH_MISFETCH = "fetch.misfetch"
CHECKPOINT_REPAIR = "rename.checkpoint_repair"
TC_EVICT = "tc.evict"
INSTR_RETIRED = "instr.retired"
VERIFY_VIOLATION = "verify.violation"
# Execution-service progress (see repro.exec.service): job lifecycle
# on the sweep runner's telemetry stream. `cycle` is always 0 — these
# are wall-clock events, not simulated-time events.
EXEC_JOB_STARTED = "exec.job.started"
EXEC_JOB_FINISHED = "exec.job.finished"
EXEC_JOB_CACHED = "exec.job.cached"
EXEC_WORKER_RETRY = "exec.worker.retry"

EVENT_KINDS = (
    RUN_STARTED, RUN_FINISHED, SEGMENT_BUILT, SEGMENT_DEDUPED,
    OPT_APPLIED, OPT_REJECTED, BRANCH_PROMOTED, BRANCH_MISPREDICT,
    FETCH_MISFETCH, CHECKPOINT_REPAIR, TC_EVICT, INSTR_RETIRED,
    VERIFY_VIOLATION, EXEC_JOB_STARTED, EXEC_JOB_FINISHED,
    EXEC_JOB_CACHED, EXEC_WORKER_RETRY,
)


@dataclass(frozen=True)
class Event:
    """One telemetry event: a kind, the cycle it occurred, and a
    kind-specific payload."""

    kind: str
    cycle: int
    data: dict = field(default_factory=dict)

    def to_dict(self) -> dict:
        """The flat JSON-safe form written by :class:`JsonlSink`."""
        payload = {"kind": self.kind, "cycle": self.cycle}
        payload.update(self.data)
        return payload


# -- sinks --------------------------------------------------------------

class MemorySink:
    """Retains every delivered event in a list (tests, notebooks)."""

    wants_instr_timing = False

    def __init__(self, kinds=None) -> None:
        self.kinds = frozenset(kinds) if kinds is not None else None
        self.events: list = []

    def handle(self, event: Event) -> None:
        if self.kinds is None or event.kind in self.kinds:
            self.events.append(event)

    def by_kind(self, kind: str) -> list:
        return [e for e in self.events if e.kind == kind]


class CallbackSink:
    """Forwards each event to an arbitrary callable."""

    wants_instr_timing = False

    def __init__(self, callback, kinds=None,
                 instr_timing: bool = False) -> None:
        self.callback = callback
        self.kinds = frozenset(kinds) if kinds is not None else None
        self.wants_instr_timing = instr_timing

    def handle(self, event: Event) -> None:
        if self.kinds is None or event.kind in self.kinds:
            self.callback(event)


class JsonlSink:
    """Writes one JSON object per line to *path* (or an open handle)."""

    wants_instr_timing = False

    def __init__(self, path, kinds=None) -> None:
        self.kinds = frozenset(kinds) if kinds is not None else None
        if hasattr(path, "write"):
            self.path = getattr(path, "name", "<stream>")
            self._handle = path
            self._owns = False
        else:
            self.path = path
            self._handle = open(path, "w")
            self._owns = True
        self.written = 0

    def handle(self, event: Event) -> None:
        if self.kinds is not None and event.kind not in self.kinds:
            return
        json.dump(event.to_dict(), self._handle,
                  separators=(",", ":"), sort_keys=True)
        self._handle.write("\n")
        self.written += 1

    def close(self) -> None:
        if self._owns:
            self._handle.close()

    def __enter__(self) -> "JsonlSink":
        return self

    def __exit__(self, *exc) -> None:
        self.close()


# -- the stream ---------------------------------------------------------

class EventStream:
    """Bounded retention plus fan-out to sinks."""

    def __init__(self, capacity: int = 4096) -> None:
        self.capacity = capacity
        self._ring: deque = deque(maxlen=capacity)
        self._sinks: list = []
        self.emitted = 0
        #: set when an attached sink asked for per-instruction timing
        #: events; the pipeline checks this once per run.
        self.wants_instr_timing = False

    def attach(self, sink) -> None:
        """Register *sink* (anything with ``handle(event)``)."""
        self._sinks.append(sink)
        if getattr(sink, "wants_instr_timing", False):
            self.wants_instr_timing = True

    def emit(self, kind: str, cycle: int, **data) -> None:
        event = Event(kind, cycle, data)
        self.emitted += 1
        self._ring.append(event)
        for sink in self._sinks:
            sink.handle(event)

    # -- retention ------------------------------------------------------

    @property
    def dropped(self) -> int:
        """Events that aged out of the ring buffer (sinks still saw
        them when attached at the time)."""
        return self.emitted - len(self._ring)

    def recent(self, kind=None) -> list:
        """The retained events, oldest first, optionally one kind."""
        if kind is None:
            return list(self._ring)
        return [e for e in self._ring if e.kind == kind]

    def __len__(self) -> int:
        return len(self._ring)


class _NullEventStream:
    """The no-session fast path: every operation is a no-op."""

    wants_instr_timing = False
    emitted = 0
    dropped = 0

    def attach(self, sink) -> None:
        raise RuntimeError("cannot attach a sink to the null event "
                           "stream; pass a Telemetry session instead")

    def emit(self, kind: str, cycle: int, **data) -> None:
        pass

    def recent(self, kind=None) -> list:
        return []

    def __len__(self) -> int:
        return 0


NULL_EVENT_STREAM = _NullEventStream()

__all__ = ["Event", "EventStream", "MemorySink", "CallbackSink",
           "JsonlSink", "NULL_EVENT_STREAM", "EVENT_KINDS",
           "RUN_STARTED", "RUN_FINISHED", "SEGMENT_BUILT",
           "SEGMENT_DEDUPED", "OPT_APPLIED", "OPT_REJECTED",
           "BRANCH_PROMOTED", "BRANCH_MISPREDICT", "FETCH_MISFETCH",
           "CHECKPOINT_REPAIR", "TC_EVICT", "INSTR_RETIRED",
           "VERIFY_VIOLATION"]
