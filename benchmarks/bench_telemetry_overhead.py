"""Telemetry overhead sanity bound.

Passing no session is the one way to run without telemetry. This
benchmark measures what a fully enabled session (events, cycle
accounting and an in-memory sink) costs on top of a no-session run
and holds it to a loose sanity bound: profiling is allowed to cost
something, but runaway per-instruction work should fail here.

Run with ``pytest benchmarks/bench_telemetry_overhead.py -s`` or
directly as a script.
"""

import time

from repro import workloads
from repro.core.config import SimConfig
from repro.core.engine import Engine
from repro.machine.executor import Executor
from repro.telemetry import Telemetry

SCALE = 0.3
REPEATS = 7


def _trace():
    program = workloads.build("compress", SCALE)
    return Executor(program).run()


def _one_replay(trace, telemetry) -> float:
    """Wall time of one replay (model construction excluded; the trace
    is shared)."""
    model = Engine(SimConfig.paper(), telemetry=telemetry)
    start = time.perf_counter()
    model.run(trace, "compress", "bench")
    return time.perf_counter() - start


def measure() -> dict:
    trace = _trace()
    # Warm-up: the first replays pay import and allocator noise.
    _one_replay(trace, None)
    _one_replay(trace, Telemetry())
    # Interleave the configurations so clock-frequency drift hits both
    # of them equally; compare best-of-N.
    t_none = t_enabled = None
    for _ in range(REPEATS):
        sample = _one_replay(trace, None)
        if t_none is None or sample < t_none:
            t_none = sample
        enabled = Telemetry()
        enabled.attach_memory()
        sample = _one_replay(trace, enabled)
        if t_enabled is None or sample < t_enabled:
            t_enabled = sample
    return {
        "no_session": t_none,
        "enabled_session": t_enabled,
        "enabled_overhead_pct":
            100.0 * (t_enabled / t_none - 1.0) if t_none else 0.0,
    }


def test_telemetry_overhead(capsys=None):
    stats = measure()
    report = (
        f"replay best-of-{REPEATS}: "
        f"no session {1000 * stats['no_session']:.1f} ms, "
        f"enabled session {1000 * stats['enabled_session']:.1f} ms "
        f"({stats['enabled_overhead_pct']:+.1f}%)")
    print("\n" + report)
    # Sanity bound on the profiling cost (events + accountant); this is
    # deliberately loose — it exists to catch runaway per-instruction
    # work, not to tune.
    assert stats["enabled_overhead_pct"] < 75.0, report


if __name__ == "__main__":
    test_telemetry_overhead()
    print("telemetry overhead bound passed")
