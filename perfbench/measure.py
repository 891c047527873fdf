"""One workload in one fresh process: set-up, then timed passes.

``run.py`` starts this script once per measurement, because peak
resident memory only grows within a process. Modes:

- ``setup``: import ``repro``, prepare the workload, report when the
  first timed op would start and a host-speed probe taken then, and
  exit;
- ``run``: the same set-up, then the untraced measurement: one whole
  pass, then ops in the same order until ``--seconds`` have elapsed,
  with a host-speed probe between ops (``calibrate.py``);
- ``trace``: one untraced pass, then one traced pass of the same ops;
  reports the per-layer metrics and checks that the traced pass
  simulated exactly what the untraced one did.

The last line of standard output is one JSON object.
"""

from __future__ import annotations

import argparse
import json
import math
import multiprocessing
import resource
import statistics
import time
from typing import Any, Dict, List

import bench_workloads as bench
import calibrate as host
from tracer import NullRecorder, SpanRecorder

STAGES = ("fetch", "rename", "issue", "execute", "retire", "fill")
PASSES = ("moves", "reassoc", "scaled_adds", "placement")


def failures(passes: List[bench.PassResult]) -> List[str]:
    """One message per failed op."""
    return [op.error for p in passes for op in p.ops if op.error]


def sim_kips(passes: List[bench.PassResult], pooled: bool,
             calibrated: bool) -> float:
    """Committed kilo-instructions per second over one pass, in host
    seconds or, with *calibrated*, at the reference host speed.

    Host noise only ever adds time, so each op's time is its best
    across the run. Ops run one at a time, so a pass's time is the sum
    of its ops' times. The pool runs paper-grid's jobs concurrently,
    so there the pass is the unit: its best wall time is taken, in
    host seconds.
    """
    instructions = sum(op.instructions for op in passes[0].ops)
    if pooled:
        wall = min(p.wall for p in passes)
    else:
        best: Dict[str, float] = {}
        for p in passes:
            for op in p.ops:
                seconds = op.calibrated if calibrated else op.seconds
                best[op.key] = min(best.get(op.key, math.inf), seconds)
        wall = sum(best.values())
    return instructions / wall / 1000.0


def peak_rss_mb(workers: int) -> float:
    """This process's peak RSS plus, per pool worker slot, the largest
    pool worker's peak so far: an upper bound of their concurrent
    peak."""
    for child in multiprocessing.active_children():
        child.join()
    own = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    kids = resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss
    return (own + workers * kids) / 1024.0


def run_mode(workload: Any, seconds: float,
             pins: Dict[str, List[int]]) -> Dict[str, Any]:
    stop_at = time.perf_counter() + seconds
    passes = [workload.run_pass(NullRecorder(), pins, calibrate=True)]
    # Later pools fork from a parent grown by the earlier passes.
    peak_rss = peak_rss_mb(workload.workers)
    while time.perf_counter() < stop_at:
        passes.append(workload.run_pass(NullRecorder(), pins, stop_at,
                                        calibrate=True))
    pooled = workload.workers > 0
    return {
        "passes": len(passes),
        "attempted": sum(len(p.ops) for p in passes),
        "errors": failures(passes),
        "checks": [],
        "sim_kips": sim_kips(passes, pooled, calibrated=True),
        "sim_kips_host": sim_kips(passes, pooled, calibrated=False),
        "peak_rss_mb": peak_rss,
        "fig8": fig8(passes[0]) if workload.name == "paper-grid" else None,
    }


def fig8(grid_pass: bench.PassResult) -> Dict[str, float]:
    """Mean IPC improvement of all optimizations over the baseline at
    each fill latency, over the grid's programs (Figure 8)."""
    cycles = {op.key: op.cycles for op in grid_pass.ops}
    out = {}
    all_opts = "moves+reassoc+scaled_adds+placement"
    for latency in (1, 5, 10):
        suffix = "" if latency == 5 else f"@{latency}"
        gains = [100.0 * (cycles[f"{p}/baseline{suffix}"]
                          / cycles[f"{p}/{all_opts}{suffix}"] - 1.0)
                 for p in bench.GRID_PROGRAMS]
        out[str(latency)] = statistics.fmean(gains)
    return out


def per_layer(recorder: SpanRecorder, totals: Dict[str, Any],
              traced: bench.PassResult) -> Dict[str, float]:
    """Every per-layer metric; a layer this workload never calls
    reads 0. *totals* is ``recorder.totals()``."""

    def incl(name: str) -> float:
        return totals.get(name, (0, 0.0, 0.0))[1]

    counters: Dict[str, float] = {}
    for op in traced.ops:
        for key, value in op.counters.items():
            counters[key] = counters.get(key, 0) + value
    # Ops with engine counters ran their engine in this process.
    simulated = sum(op.instructions for op in traced.ops
                    if op.counters)
    hits, misses, bypasses = (sum(op.replay[i] for op in traced.ops
                                  if op.replay)
                              for i in range(3))
    visits = hits + misses + bypasses

    def per_instr(seconds: float, instructions: int) -> float:
        return 1e6 * seconds / instructions if instructions else 0.0

    m: Dict[str, float] = {
        "workloads.build_s": incl("workloads.build"),
        "machine.executor_s": incl("machine.executor"),
        "machine.executor_us_per_instr": per_instr(
            incl("machine.executor"), recorder.executed),
        "core.engine_s": incl("core.engine"),
        "core.engine_us_per_instr": per_instr(incl("core.engine"),
                                              simulated),
    }
    by_op = recorder.op_inclusive("core.engine")
    for program in bench.programs.names():
        ids = [i for i, op in enumerate(traced.ops)
               if op.program == program]
        m[f"core.engine_us_per_instr.{program}"] = per_instr(
            sum(by_op.get(i, 0.0) for i in ids),
            sum(traced.ops[i].instructions for i in ids))
    for stage in STAGES:
        calls, _, own = totals.get(f"core.stage.{stage}", (0, 0.0, 0.0))
        m[f"core.stage.{stage}.self_s"] = own
        m[f"core.stage.{stage}.calls"] = calls
    m.update({
        "core.replay.hits": hits,
        "core.replay.misses": misses,
        "core.replay.bypasses": bypasses,
        "core.replay.visits": visits,
        "core.replay.hit_ratio": hits / visits if visits else 0.0,
        "core.replay.self_s": totals.get("core.replay", (0, 0.0, 0.0))[2],
        "fillunit.segments_built": counters.get(
            "fillunit.segments_built", 0),
        "fillunit.segments_deduped": counters.get(
            "fillunit.segments_deduped", 0),
        "fillunit.build_segment_s": incl("fillunit.build_segment"),
    })
    for name in PASSES:
        m[f"fillunit.pass.{name}_s"] = incl(f"fillunit.pass.{name}")
    lookups = counters.get("tracecache.lookups", 0)
    m.update({
        "tracecache.lookups": lookups,
        "tracecache.inserts": counters.get("tracecache.inserts", 0),
        "tracecache.evictions": counters.get("tracecache.evictions", 0),
        "tracecache.dead_evictions": counters.get(
            "tracecache.dead_evictions", 0),
        "tracecache.hit_ratio": (counters.get("tracecache.hits", 0)
                                 / lookups if lookups else 0.0),
        "tracecache.lookup_s": incl("tracecache.lookup"),
        "tracecache.insert_s": incl("tracecache.insert"),
    })
    for level in ("l1i", "l1d", "l2"):
        for what in ("misses", "evictions"):
            key = f"cache.{level}.{what}"
            m[key] = counters.get(key, 0)
    m["cache.hierarchy_s"] = incl("cache.hierarchy")
    predictions = counters.get("branch.cond_predictions", 0)
    m["branch.cond_accuracy"] = (
        1.0 - counters.get("branch.cond_mispredicts", 0) / predictions
        if predictions else 0.0)
    m["branch.predictor_s"] = incl("branch.predictor")
    for key in ("exec.jobs", "exec.jobs_simulated", "exec.jobs_from_disk",
                "exec.warm_hit_ratio", "exec.warm_resolve_s"):
        m[key] = traced.counters.get(key, 0)
    m.update({
        "exec.fingerprint_s": incl("exec.fingerprint"),
        "exec.pool_s": incl("exec.pool"),
        "exec.result_cache.put_s": incl("exec.result_cache.put"),
        "exec.result_cache.get_s": incl("exec.result_cache.get"),
    })
    return m


def compare(untraced: bench.PassResult, traced: bench.PassResult) -> None:
    """Fail each traced op whose cycles or replay counts differ from
    the untraced pass's."""
    for a, b in zip(untraced.ops, traced.ops):
        if b.error is None and (a.key, a.cycles, a.replay) != (
                b.key, b.cycles, b.replay):
            b.error = (f"{b.key}: traced cycles/replay {b.cycles}/"
                       f"{b.replay} != untraced {a.cycles}/{a.replay}")


def trace_mode(name: str, seed: int, pins: Dict[str, List[int]]
               ) -> Dict[str, Any]:
    recorder = SpanRecorder()
    start = time.perf_counter()
    workload = bench.make_workload(name, seed, recorder)
    setup_wall = time.perf_counter() - start
    start = time.perf_counter()
    untraced = workload.run_pass(NullRecorder(), pins)
    untraced_wall = time.perf_counter() - start
    start = time.perf_counter()
    traced = workload.run_pass(recorder, pins)
    traced_wall = time.perf_counter() - start
    compare(untraced, traced)
    totals = recorder.totals()
    metrics = per_layer(recorder, totals, traced)
    metrics["trace_overhead_ratio"] = traced_wall / untraced_wall
    recorder.write(bench.OUT_DIR / f"spans-{name}.bin")
    traced_wall += setup_wall
    self_total = sum(own for _, _, own in totals.values())
    checks = []
    if self_total > traced_wall + 1e-6:
        checks.append(f"layer self times ({self_total:.3f} s) exceed the "
                      f"traced wall time ({traced_wall:.3f} s)")
    return {"attempted": len(untraced.ops) + len(traced.ops),
            "errors": failures([untraced, traced]), "checks": checks,
            "metrics": metrics, "traced_wall_s": traced_wall,
            "self_s_total": self_total}


def main() -> None:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, default=0.0)
    parser.add_argument("--mode", choices=("setup", "run", "trace"),
                        required=True)
    args = parser.parse_args()
    pins = bench.load_pins().get(args.workload, {})
    if args.mode == "trace":
        out = trace_mode(args.workload, args.seed, pins)
    else:
        workload = bench.make_workload(args.workload, args.seed,
                                       NullRecorder())
        first_op_at = time.perf_counter()
        setup_probe = host.probe()
        out = (run_mode(workload, args.seconds, pins)
               if args.mode == "run" else {})
        out.update(first_op_at=first_op_at, setup_probe=setup_probe)
    print(json.dumps(out))


if __name__ == "__main__":
    main()
