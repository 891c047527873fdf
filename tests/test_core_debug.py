"""Timing-trace debug facility tests."""

from collections import Counter
from dataclasses import replace
from functools import lru_cache

import pytest

from repro import workloads
from repro.core.config import SimConfig
from repro.core.debug import TimingTrace
from repro.core.engine import Engine
from repro.fillunit.opts.base import OptimizationConfig
from repro.machine.executor import Executor
from repro.telemetry import Telemetry
from tests.helpers import run_asm

LOOP = """
main:
    li   $t9, 30
loop:
    addi $t0, $t0, 1
    blt  $t0, $t9, loop
    halt
"""

#: machines the whole-workload captures run on: the paper machine with
#: all four optimizations, and the same machine narrowed so the rename
#: and retire bounds bind below the fetch width.
MACHINES = {
    "paper": SimConfig.paper(OptimizationConfig.all()),
    "narrow": replace(SimConfig.paper(OptimizationConfig.all()),
                      retire_width=4, issue_width=4),
}


def run_captured(config, trace, limit, start_seq=0, **run_args):
    """Run *trace* with a :class:`TimingTrace` attached as an event
    sink; returns the capture and the result."""
    telemetry = Telemetry(attribution=False)
    sink = TimingTrace(limit=limit, start_seq=start_seq)
    telemetry.attach(sink)
    result = Engine(config, telemetry=telemetry).run(trace, **run_args)
    return sink, result


def capture(limit=50, start_seq=0):
    _, trace = run_asm(LOOP)
    sink, result = run_captured(SimConfig.tiny(), trace, limit,
                                start_seq, benchmark="t", label="r")
    return sink, result, trace


def test_capture_limited():
    sink, _, _ = capture(limit=10)
    assert len(sink) == 10


def test_records_cover_all_when_unbounded():
    sink, result, trace = capture(limit=10_000)
    assert len(sink) == len(trace) == result.instructions


@lru_cache(maxsize=None)
def workload_trace(bench):
    program = workloads.build(bench, scale=0.2)
    return program, Executor(program).run()


@lru_cache(maxsize=None)
def capture_workload(bench, machine="paper"):
    """Every record of *bench* at scale 0.2 on one of :data:`MACHINES`."""
    program, trace = workload_trace(bench)
    sink, _ = run_captured(MACHINES[machine], trace, len(trace),
                           benchmark=bench, label=machine,
                           program=program)
    assert len(sink) == len(trace) and sink.dropped == 0
    return sink


def test_stage_ordering_invariants():
    sink, _, _ = capture(limit=200)
    for r in sink.records:
        assert r.fetch < r.rename <= r.complete < r.retire
        assert r.latency >= 3
    for bench in ("compress", "li"):
        for r in capture_workload(bench).records:
            assert r.fetch < r.rename <= r.complete < r.retire, r


def test_retire_in_order():
    sink, _, _ = capture(limit=200)
    retires = [r.retire for r in sink.records]
    assert retires == sorted(retires)
    for bench in ("compress", "li"):
        records = capture_workload(bench).records
        assert [r.seq for r in records] == list(range(len(records)))
        retires = [r.retire for r in records]
        assert retires == sorted(retires)


def test_start_seq_offset():
    sink, _, _ = capture(limit=5, start_seq=20)
    assert sink.records[0].seq == 20


def test_find_by_pc():
    sink, _, trace = capture(limit=10_000)
    loop_pc = trace[1].pc
    found = sink.find(loop_pc)
    assert len(found) > 5
    assert all(r.pc == loop_pc for r in found)


def test_render():
    sink, _, _ = capture(limit=5)
    text = sink.render()
    assert "seq" in text and "addi" in text
    # header + 5 records + the dropped-records summary line
    assert len(text.splitlines()) == 7
    assert f"({sink.dropped} records past the 5-record limit" in text


def test_dropped_counts_overflow():
    sink, result, _ = capture(limit=10)
    assert sink.dropped == result.instructions - 10
    # nothing dropped -> no summary line
    full, _, _ = capture(limit=10_000)
    assert full.dropped == 0
    assert "dropped" not in full.render()


def test_as_event_sink():
    _, trace = run_asm(LOOP)
    telemetry = Telemetry()
    sink = TimingTrace(limit=10_000)
    telemetry.attach(sink)
    result = Engine(SimConfig.tiny(), telemetry=telemetry).run(
        trace, "t", "r")
    assert len(sink) == result.instructions
    for r in sink.records:
        assert r.fetch < r.rename <= r.complete < r.retire


@pytest.mark.parametrize("machine", sorted(MACHINES))
def test_width_bounds_on_every_record(machine):
    """No cycle fetches more than fetch_width, renames more than
    issue_width or retires more than retire_width instructions."""
    config = MACHINES[machine]
    bounds = (("fetch", config.fetch_width),
              ("rename", config.issue_width),
              ("retire", config.retire_width))
    for bench in ("compress", "li"):
        records = capture_workload(bench, machine).records
        for stage, width in bounds:
            per_cycle = Counter(getattr(r, stage) for r in records)
            busiest, count = per_cycle.most_common(1)[0]
            assert count <= width, (bench, stage, busiest, count)
