"""Self-tests of the benchmark: span arithmetic, failure counting,
host-speed calibration, traced-run fidelity and the paper-grid cache
discipline.

Run from the repository root with ``python3 -m pytest perfbench/tests``.
"""

from __future__ import annotations

import random

import pytest

import bench_workloads as bench
import calibrate as host
from repro import workloads as programs
from repro.core.config import SimConfig
from repro.core.engine import Engine
from repro.exec.grid import JobSpec
from repro.fillunit.opts.base import OptimizationConfig
from repro.machine.executor import Executor
import tracer
from tracer import NullRecorder, SpanRecorder


def test_self_time_subtracts_nested_children(monkeypatch):
    ticks = iter(range(100))
    monkeypatch.setattr(tracer.time, "perf_counter",
                        lambda: float(next(ticks)))
    rec = SpanRecorder()
    leaf = rec.wrap("leaf", lambda: None)

    def middle():
        leaf()
        leaf()

    rec.op = 7
    rec.call("root", rec.wrap("middle", middle))
    # root [0, 7] > middle [1, 6] > leaf [2, 3], leaf [4, 5]
    totals = rec.totals()
    assert totals["leaf"] == (2, 2.0, 2.0)
    assert totals["middle"] == (1, 5.0, 3.0)
    assert totals["root"] == (1, 7.0, 2.0)
    assert sum(own for _, _, own in totals.values()) == 7.0
    assert list(rec.parents) == [-1, 0, 1, 1]
    assert set(rec.ops) == {7}
    assert rec.op_inclusive("leaf") == {7: 2.0}


def test_pin_mismatch_and_exception_count_as_failed_ops():
    def do_op(key, recorder):
        if key == "raises":
            raise RuntimeError("boom")
        return bench.OpResult(key=key, program=key, cycles=10,
                              instructions=5)

    pins = {"good": [10, 5], "wrong": [11, 5], "raises": [1, 1]}
    result = bench.run_ops(["good", "wrong", "raises"], do_op,
                           NullRecorder(), pins)
    errors = [op.error for op in result.ops]
    assert errors[0] is None
    assert "pinned [11, 5]" in errors[1]
    assert "RuntimeError: boom" in errors[2]


def test_each_op_is_calibrated_by_the_probes_around_it(monkeypatch):
    probes = iter([0.02, 0.06, 0.04])
    monkeypatch.setattr(host, "probe", lambda: next(probes))

    def do_op(key, recorder):
        return bench.OpResult(key=key, program=key)

    result = bench.run_ops(["a", "b"], do_op, NullRecorder(), {},
                           calibrate=True)
    for op, probe in zip(result.ops, (0.04, 0.05)):
        assert op.calibrated == pytest.approx(
            host.calibrated(op.seconds, probe))


def test_traced_engine_keeps_memo_and_cycles():
    program = programs.build("li", 0.1)
    trace = Executor(program).run()
    config = SimConfig.paper(OptimizationConfig.all())
    plain = Engine(config).run(trace, program=program)
    rec = SpanRecorder()
    engine = Engine(config)
    rec.instrument_engine(engine)
    assert all(stage._stage is core for stage, core
               in zip(engine.stages, engine._core_stages))
    traced = engine.run(trace, program=program)
    assert traced.cycles == plain.cycles
    assert bench.replay_counts(traced) == bench.replay_counts(plain)
    assert bench.replay_counts(traced)[0] > 0       # memo hits
    totals = rec.totals()
    assert totals["core.stage.fill"][0] > 0
    assert totals["fillunit.build_segment"][0] > 0


def test_paper_grid_uses_a_fresh_result_cache_each_pass(tmp_path):
    grid = bench.PaperGrid(random.Random(0), NullRecorder(), tmp_path)
    grid.workers = 1
    grid.jobs = [JobSpec("vortex", SimConfig.paper(
        OptimizationConfig.all()), "all")]
    pins = {"vortex/all": [5632, 18277]}
    for _ in range(2):
        result = grid.run_pass(NullRecorder(), pins)
        assert [op.error for op in result.ops] == [None]
        assert result.counters["exec.jobs_simulated"] == 1
        assert result.counters["exec.jobs_from_disk"] == 1
        assert list(tmp_path.iterdir()) == []


def test_pins_hold_the_roadmap_anchors():
    pins = bench.load_pins()
    assert pins["suite-run"]["compress"] == [16344, 23152]
    assert pins["suite-run"]["li"][0] == 13709
    assert [pins["tc16-policies"][f"li/{policy}"][0]
            for policy in bench.POLICIES] == [14429, 14672, 14339]
    assert len(pins["suite-run"]) == len(programs.names())
    assert len(pins["paper-grid"]) == 10 * len(bench.GRID_PROGRAMS)
