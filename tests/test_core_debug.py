"""Timing-trace debug facility tests."""

from functools import lru_cache

from repro import workloads
from repro.core.config import SimConfig
from repro.core.debug import TimingTrace
from repro.core.pipeline import PipelineModel
from repro.fillunit.opts.base import OptimizationConfig
from repro.machine.executor import Executor
from tests.helpers import run_asm

LOOP = """
main:
    li   $t9, 30
loop:
    addi $t0, $t0, 1
    blt  $t0, $t9, loop
    halt
"""


def capture(limit=50, start_seq=0):
    _, trace = run_asm(LOOP)
    model = PipelineModel(SimConfig.tiny())
    hook = TimingTrace(limit=limit, start_seq=start_seq)
    model.timing_hook = hook
    result = model.run(trace, "t", "r")
    return hook, result, trace


def test_capture_limited():
    hook, _, _ = capture(limit=10)
    assert len(hook) == 10


def test_records_cover_all_when_unbounded():
    hook, result, trace = capture(limit=10_000)
    assert len(hook) == len(trace) == result.instructions


@lru_cache(maxsize=None)
def capture_workload(bench):
    """Every record of *bench* at scale 0.2 on the paper machine with
    all four optimizations."""
    program = workloads.build(bench, scale=0.2)
    trace = Executor(program).run()
    model = PipelineModel(SimConfig.paper(OptimizationConfig.all()))
    hook = TimingTrace(limit=len(trace))
    model.timing_hook = hook
    model.run(trace, bench, "all", program=program)
    assert len(hook) == len(trace) and hook.dropped == 0
    return hook


def test_stage_ordering_invariants():
    hook, _, _ = capture(limit=200)
    for r in hook.records:
        assert r.fetch < r.rename <= r.complete < r.retire
        assert r.latency >= 3
    for bench in ("compress", "li"):
        for r in capture_workload(bench).records:
            assert r.fetch < r.rename <= r.complete < r.retire, r


def test_retire_in_order():
    hook, _, _ = capture(limit=200)
    retires = [r.retire for r in hook.records]
    assert retires == sorted(retires)
    for bench in ("compress", "li"):
        records = capture_workload(bench).records
        assert [r.seq for r in records] == list(range(len(records)))
        retires = [r.retire for r in records]
        assert retires == sorted(retires)


def test_start_seq_offset():
    hook, _, _ = capture(limit=5, start_seq=20)
    assert hook.records[0].seq == 20


def test_find_by_pc():
    hook, _, trace = capture(limit=10_000)
    loop_pc = trace[1].pc
    found = hook.find(loop_pc)
    assert len(found) > 5
    assert all(r.pc == loop_pc for r in found)


def test_render():
    hook, _, _ = capture(limit=5)
    text = hook.render()
    assert "seq" in text and "addi" in text
    # header + 5 records + the dropped-records summary line
    assert len(text.splitlines()) == 7
    assert f"({hook.dropped} records past the 5-record limit" in text


def test_dropped_counts_overflow():
    hook, result, _ = capture(limit=10)
    assert hook.dropped == result.instructions - 10
    # nothing dropped -> no summary line
    full, _, _ = capture(limit=10_000)
    assert full.dropped == 0
    assert "dropped" not in full.render()


def test_as_event_sink():
    from repro.telemetry import Telemetry

    _, trace = run_asm(LOOP)
    telemetry = Telemetry()
    sink = TimingTrace(limit=10_000)
    telemetry.attach(sink)
    model = PipelineModel(SimConfig.tiny(), telemetry=telemetry)
    result = model.run(trace, "t", "r")
    assert len(sink) == result.instructions
    for r in sink.records:
        assert r.fetch < r.rename <= r.complete < r.retire


def test_sink_and_hook_agree():
    from repro.telemetry import Telemetry

    _, trace = run_asm(LOOP)
    hook, _, _ = capture(limit=10_000)
    telemetry = Telemetry()
    sink = TimingTrace(limit=10_000)
    telemetry.attach(sink)
    model = PipelineModel(SimConfig.tiny(), telemetry=telemetry)
    model.run(trace, "t", "r")
    assert sink.records == hook.records


def test_default_hook_is_none():
    model = PipelineModel(SimConfig.tiny())
    assert model.timing_hook is None
