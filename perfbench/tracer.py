"""Benchmark-side span tracing of the simulator's layer boundaries.

Spans are recorded by wrapping the public calls of each layer from
outside the program: :class:`StageProxy` stands in for a pipeline
stage, and every other boundary is an instance attribute that shadows
the component's bound method with a timed one. Nothing in ``repro``
changes, so a traced run must reproduce the untraced run's simulated
cycles exactly (the benchmark checks it).

Each span holds a name, a start, an end, its parent span and the op
it belongs to. Spans live in flat arrays while the run goes on and
are written out once, when the benchmark ends.
"""

from __future__ import annotations

from array import array
import json
from pathlib import Path
import time
from typing import Any, Callable, Dict, List, Tuple

#: (engine attribute, span name, method names) of every timed call
#: into a component the engine owns.
_ENGINE_BOUNDARIES = (
    ("replay", "core.replay", ("on_group", "after_group", "finish_run")),
    ("fill_unit", "fillunit.build_segment", ("build_segment",)),
    ("trace_cache", "tracecache.lookup", ("lookup",)),
    ("trace_cache", "tracecache.insert", ("insert",)),
    ("hierarchy", "cache.hierarchy", ("fetch_instr", "load", "store")),
    ("predictor", "branch.predictor",
     ("predict_cond", "update_cond", "record_outcome",
      "predict_indirect", "train_indirect")),
)


class SpanRecorder:
    """In-memory span store with a call stack for parent links."""

    def __init__(self) -> None:
        self.names: List[str] = []
        self._ids: Dict[str, int] = {}
        self.name_ids = array("i")
        self.parents = array("i")
        self.ops = array("i")
        self.starts = array("d")
        self.ends = array("d")
        self._stack = [-1]
        #: committed instructions functionally executed under spans.
        self.executed = 0
        #: id shared by every span of the op being run (-1: none).
        self.op = -1

    def _name_id(self, name: str) -> int:
        nid = self._ids.get(name)
        if nid is None:
            nid = self._ids[name] = len(self.names)
            self.names.append(name)
        return nid

    def wrap(self, name: str, fn: Callable[..., Any]) -> Callable[..., Any]:
        """*fn*, recording one span named *name* per call."""
        nid = self._name_id(name)
        stack = self._stack
        starts, ends = self.starts, self.ends
        name_ids, parents, ops = self.name_ids, self.parents, self.ops
        clock = time.perf_counter

        def timed(*args: Any, **kwargs: Any) -> Any:
            idx = len(starts)
            name_ids.append(nid)
            parents.append(stack[-1])
            ops.append(self.op)
            ends.append(0.0)
            stack.append(idx)
            starts.append(clock())
            try:
                return fn(*args, **kwargs)
            finally:
                ends[idx] = clock()
                stack.pop()

        return timed

    def call(self, name: str, fn: Callable[..., Any], *args: Any,
             **kwargs: Any) -> Any:
        """``fn(*args, **kwargs)`` under a span named *name*."""
        return self.wrap(name, fn)(*args, **kwargs)

    def install(self, obj: Any, attr: str, name: str) -> None:
        """Shadow ``obj.attr`` with a timed instance attribute."""
        setattr(obj, attr, self.wrap(name, getattr(obj, attr)))

    def instrument_engine(self, engine: Any) -> None:
        """Time every layer boundary of a freshly built ``Engine``."""
        engine.stages = [StageProxy(stage, self) for stage in engine.stages]
        for component, name, methods in _ENGINE_BOUNDARIES:
            target = getattr(engine, component)
            if target is None:
                continue
            for method in methods:
                self.install(target, method, name)
        if engine.fill_unit is not None:
            for opt_pass in engine.fill_unit.passes.passes:
                self.install(opt_pass, "apply",
                             f"fillunit.pass.{opt_pass.name}")

    # -- analysis ------------------------------------------------------

    def totals(self) -> Dict[str, Tuple[int, float, float]]:
        """``{name: (calls, inclusive seconds, self seconds)}``.

        A span's self time is its duration minus the time its child
        spans cover; children of one span never overlap (one thread),
        so that cover is the sum of their durations.
        """
        starts, ends, parents = self.starts, self.ends, self.parents
        n = len(starts)
        child = [0.0] * n
        for i in range(n):
            parent = parents[i]
            if parent >= 0:
                child[parent] += ends[i] - starts[i]
        calls = [0] * len(self.names)
        incl = [0.0] * len(self.names)
        own = [0.0] * len(self.names)
        name_ids = self.name_ids
        for i in range(n):
            nid = name_ids[i]
            duration = ends[i] - starts[i]
            calls[nid] += 1
            incl[nid] += duration
            own[nid] += duration - child[i]
        return {name: (calls[i], incl[i], own[i])
                for i, name in enumerate(self.names)}

    def op_inclusive(self, name: str) -> Dict[int, float]:
        """``{op id: inclusive seconds}`` of the spans named *name*."""
        nid = self._ids.get(name)
        out: Dict[int, float] = {}
        if nid is None:
            return out
        for i in range(len(self.starts)):
            if self.name_ids[i] == nid:
                op = self.ops[i]
                out[op] = out.get(op, 0.0) + self.ends[i] - self.starts[i]
        return out

    def write(self, path: Path) -> None:
        """Write every span out: a JSON header naming the arrays'
        layout, then the arrays in native byte order."""
        path.parent.mkdir(parents=True, exist_ok=True)
        columns = (("name", self.name_ids), ("parent", self.parents),
                   ("op", self.ops), ("start", self.starts),
                   ("end", self.ends))
        header = {"spans": len(self.starts), "names": self.names,
                  "columns": [[col, arr.typecode, arr.itemsize]
                              for col, arr in columns]}
        with open(path, "wb") as handle:
            handle.write(json.dumps(header).encode() + b"\n")
            for _, arr in columns:
                arr.tofile(handle)


class NullRecorder:
    """The untraced run's recorder: plain calls, nothing recorded."""

    def __init__(self) -> None:
        self.op = -1
        self.executed = 0

    @staticmethod
    def call(name: str, fn: Callable[..., Any], *args: Any,
             **kwargs: Any) -> Any:
        return fn(*args, **kwargs)

    def install(self, obj: Any, attr: str, name: str) -> None:
        pass

    def instrument_engine(self, engine: Any) -> None:
        pass


class StageProxy:
    """Delegating stand-in for one pipeline stage.

    The wrapped stage stays reachable as ``_stage``: the replay
    controller unwraps proxies through that attribute before deciding
    whether a run may use its timing memo, so a traced run keeps the
    memo on exactly as the untraced run does.
    """

    def __init__(self, stage: Any, recorder: SpanRecorder) -> None:
        self._stage = stage
        self.name = stage.name
        span = f"core.stage.{stage.name}"
        self.begin_group = recorder.wrap(span, stage.begin_group)
        self.process = recorder.wrap(span, stage.process)
        self.end_group = recorder.wrap(span, stage.end_group)

    def __getattr__(self, attr: str) -> Any:
        return getattr(self._stage, attr)
