"""The benchmark's three workloads, each a closed loop of ops.

An op is one simulation job: one program on one machine config. Every
workload is driven the same way: its constructor is the set-up (it
prepares what the workload builds up front and fixes the op order from
the seed), then each ``run_pass`` issues every op once, the next only
after the previous one completes. An op's simulated cycles and
committed instructions must equal the values pinned for it in
``pins.json``.

- ``suite-run``: the ``repro run BENCH`` path for all 15 programs.
- ``tc16-policies``: high-churn programs on a 16-set trace cache under
  each replacement policy; functional execution happens in set-up.
- ``paper-grid``: the figure-regeneration path through the execution
  service, its worker pool and a fresh on-disk result cache per pass.
"""

from __future__ import annotations

from dataclasses import dataclass, field, replace
import gc
import json
import math
import os
from pathlib import Path
import random
import shutil
import tempfile
import time
from typing import Any, Dict, List, Optional, Tuple

from repro import workloads as programs
from repro.core.config import SimConfig
from repro.core.engine import Engine
from repro.exec import service as exec_service
from repro.exec.grid import JobSpec, paper_grid
from repro.exec.pool import WorkerPool
from repro.exec.service import ExecutionService
from repro.fillunit.opts.base import OptimizationConfig
from repro.machine.executor import Executor
import calibrate as host
from tracer import SpanRecorder

#: dynamic-length scale of every program (the ROADMAP anchor scale).
SCALE = 0.5
TC16_PROGRAMS = ("m88ksim", "gcc", "ijpeg", "li", "compress")
POLICIES = ("lru", "srrip", "trrip")
GRID_PROGRAMS = ("compress", "li", "m88ksim")
PINS_PATH = Path(__file__).with_name("pins.json")
#: run outputs: span files and the result caches of paper-grid passes.
OUT_DIR = Path(__file__).with_name("out")
REPLAY_COUNTERS = ("hit", "miss", "bypass")


@dataclass
class OpResult:
    """What one op produced, and whether it matched its pin."""

    key: str
    program: str
    cycles: int = 0
    instructions: int = 0
    seconds: float = 0.0
    #: ``seconds`` at the reference host speed (calibrated runs only).
    calibrated: float = 0.0
    #: engine.replay.{hit,miss,bypass} of the run.
    replay: Tuple[int, ...] = ()
    #: layer counters read from the components after the run.
    counters: Dict[str, float] = field(default_factory=dict)
    error: Optional[str] = None


@dataclass
class PassResult:
    """One pass over a workload's ops."""

    wall: float
    ops: List[OpResult]
    #: paper-grid only: exec-layer counters and the warm re-resolve.
    counters: Dict[str, float] = field(default_factory=dict)


def load_pins() -> Dict[str, Dict[str, List[int]]]:
    with open(PINS_PATH) as handle:
        pins: Dict[str, Dict[str, List[int]]] = json.load(handle)
    return pins


def check(op: OpResult, pins: Dict[str, List[int]]) -> OpResult:
    """Mark *op* failed when it raised or missed its pinned output."""
    if op.error is None:
        want = pins.get(op.key)
        got = [op.cycles, op.instructions]
        if want != got:
            op.error = f"{op.key}: cycles/instructions {got} != pinned {want}"
    return op


def replay_counts(result: Any) -> Tuple[int, ...]:
    """``engine.replay.{hit,miss,bypass}`` of one simulation."""
    return tuple(result.telemetry.get(f"engine.replay.{name}", 0)
                 for name in REPLAY_COUNTERS)


def engine_counters(engine: Engine) -> Dict[str, float]:
    """The per-layer counters one engine run leaves behind."""
    out: Dict[str, float] = {}
    if engine.fill_unit is not None:
        stats = engine.fill_unit.stats
        out["fillunit.segments_built"] = stats.segments_built
        out["fillunit.segments_deduped"] = stats.segments_deduped
    if engine.trace_cache is not None:
        tc = engine.trace_cache.stats
        out["tracecache.lookups"] = tc.lookups
        out["tracecache.hits"] = tc.hits
        out["tracecache.inserts"] = tc.fills
        out["tracecache.evictions"] = tc.evictions
        out["tracecache.dead_evictions"] = tc.dead_evictions
    for level in ("l1i", "l1d", "l2"):
        stats = getattr(engine.hierarchy, level).stats
        out[f"cache.{level}.misses"] = stats.misses
        out[f"cache.{level}.evictions"] = stats.evictions
    pred = engine.predictor.stats
    out["branch.cond_predictions"] = pred.cond_predictions
    out["branch.cond_mispredicts"] = pred.cond_mispredicts
    return out


def execute(program: Any, recorder: Any) -> Any:
    """Functionally execute *program*; the committed trace."""
    trace = recorder.call("machine.executor", Executor(program).run)
    recorder.executed += len(trace.records)
    return trace


def simulate(key: str, program_name: str, config: SimConfig, program: Any,
             trace: Any, recorder: Any) -> OpResult:
    """Run one committed trace through a fresh engine."""
    engine = Engine(config)
    recorder.instrument_engine(engine)
    result = recorder.call("core.engine", engine.run, trace,
                           benchmark=program_name, label=key,
                           program=program)
    return OpResult(
        key=key, program=program_name, cycles=result.cycles,
        instructions=result.instructions, replay=replay_counts(result),
        counters=engine_counters(engine))


def run_ops(ops: List[str], do_op: Any, recorder: Any,
            pins: Dict[str, List[int]], stop_at: float = math.inf,
            calibrate: bool = False) -> PassResult:
    """Issue *ops* one after another, none after *stop_at*; an op that
    raises is a failed op, not a crashed benchmark. With *calibrate*,
    a host-speed probe runs before each op and after the last, and
    each op is calibrated by the mean of the probes around it."""
    results = []
    probes = []
    start = time.perf_counter()
    for op_id, op in enumerate(ops):
        if time.perf_counter() >= stop_at:
            break
        # Every op starts from a collected heap, whatever ran before it.
        gc.collect()
        if calibrate:
            probes.append(host.probe())
        recorder.op = op_id
        t0 = time.perf_counter()
        try:
            result = recorder.call("op", do_op, op, recorder)
        except Exception as exc:  # a failed op, not a crash
            result = OpResult(key=op, program=op.split("/")[0],
                              error=f"{op}: {type(exc).__name__}: {exc}")
        result.seconds = time.perf_counter() - t0
        results.append(check(result, pins))
    recorder.op = -1
    wall = time.perf_counter() - start
    if calibrate and results:
        probes.append(host.probe())
        for op, before, after in zip(results, probes, probes[1:]):
            op.calibrated = host.calibrated(op.seconds,
                                            (before + after) / 2)
    return PassResult(wall=wall, ops=results)


def _policy_config(policy: str) -> SimConfig:
    base = SimConfig.paper(OptimizationConfig.all())
    return replace(
        base,
        trace_cache=replace(base.trace_cache, num_sets=16, policy=policy),
        hierarchy=replace(base.hierarchy, policy=policy))


class SuiteRun:
    """Every program through build -> Executor -> Engine on the paper
    machine with all four optimizations (defaults: 512-set trace
    cache, LRU, timing memo on)."""

    name = "suite-run"
    workers = 0

    def __init__(self, rng: random.Random, recorder: Any) -> None:
        self.ops = programs.names()
        rng.shuffle(self.ops)
        self.config = SimConfig.paper(OptimizationConfig.all())

    def _op(self, name: str, recorder: Any) -> OpResult:
        program = recorder.call("workloads.build", programs.build, name,
                                SCALE)
        trace = execute(program, recorder)
        return simulate(name, name, self.config, program, trace, recorder)

    def run_pass(self, recorder: Any, pins: Dict[str, List[int]],
                 stop_at: float = math.inf, calibrate: bool = False
                 ) -> PassResult:
        return run_ops(self.ops, self._op, recorder, pins, stop_at,
                       calibrate)


class Tc16Policies:
    """The high-churn programs on a 16-set trace cache under LRU,
    SRRIP and TRRIP (policy on the trace cache and the hierarchy).
    The program image goes to the engine so TRRIP's hints install."""

    name = "tc16-policies"
    workers = 0

    def __init__(self, rng: random.Random, recorder: Any) -> None:
        self.inputs: Dict[str, Tuple[Any, Any]] = {}
        for name in TC16_PROGRAMS:
            program = recorder.call("workloads.build", programs.build,
                                    name, SCALE)
            self.inputs[name] = (program, execute(program, recorder))
        self.configs = {policy: _policy_config(policy)
                        for policy in POLICIES}
        self.ops = [f"{name}/{policy}" for name in TC16_PROGRAMS
                    for policy in POLICIES]
        rng.shuffle(self.ops)

    def _op(self, key: str, recorder: Any) -> OpResult:
        name, policy = key.split("/")
        program, trace = self.inputs[name]
        return simulate(key, name, self.configs[policy], program, trace,
                        recorder)

    def run_pass(self, recorder: Any, pins: Dict[str, List[int]],
                 stop_at: float = math.inf, calibrate: bool = False
                 ) -> PassResult:
        return run_ops(self.ops, self._op, recorder, pins, stop_at,
                       calibrate)


class _TracedPool(WorkerPool):
    """``WorkerPool`` whose ``run`` is timed (traced run only)."""

    recorder: Any = None

    def run(self, payloads: List[Dict[str, Any]]) -> List[Dict[str, Any]]:
        return self.recorder.call("exec.pool", super().run, payloads)


class PaperGrid:
    """``ExecutionService(jobs=nproc).run_many(paper_grid(...))`` into
    a fresh result-cache directory per pass, then a second, fresh
    service re-resolving the same grid from that directory."""

    name = "paper-grid"

    def __init__(self, rng: random.Random, recorder: Any,
                 workdir: Path) -> None:
        # Benchmark-major, as paper_grid lays jobs out (a worker then
        # meets each program's jobs back to back and reuses its trace);
        # the seed orders the programs and the machines within each.
        order = list(GRID_PROGRAMS)
        rng.shuffle(order)
        self.jobs: List[JobSpec] = []
        for name in order:
            jobs = paper_grid([name])
            rng.shuffle(jobs)
            self.jobs += jobs
        self.workers = len(os.sched_getaffinity(0))
        self.workdir = workdir

    def _service(self, cache_dir: str, recorder: Any) -> ExecutionService:
        service = ExecutionService(scale=SCALE, jobs=self.workers,
                                   cache_dir=cache_dir)
        recorder.install(service, "fingerprint", "exec.fingerprint")
        recorder.install(service.cache, "put", "exec.result_cache.put")
        recorder.install(service.cache, "get", "exec.result_cache.get")
        return service

    def run_pass(self, recorder: Any, pins: Dict[str, List[int]],
                 stop_at: float = math.inf, calibrate: bool = False
                 ) -> PassResult:
        """One cold resolve (the timed op) and one warm re-resolve.

        A pass is never cut short, so *stop_at* does not apply. Nor
        does *calibrate*: the pool keeps both CPUs busy, where a probe
        run beside it does not track the host's speed. The pool
        runs in worker processes, so a traced pass sees only the
        parent-side exec calls; ``WorkerPool.run`` is timed by
        swapping in a timed subclass for the pass."""
        self.workdir.mkdir(parents=True, exist_ok=True)
        cache_dir = tempfile.mkdtemp(prefix="resultcache-",
                                     dir=self.workdir)
        if isinstance(recorder, SpanRecorder):
            _TracedPool.recorder = recorder
            exec_service.WorkerPool = _TracedPool
        try:
            return self._resolve(cache_dir, recorder, pins)
        finally:
            exec_service.WorkerPool = WorkerPool
            recorder.op = -1
            shutil.rmtree(cache_dir, ignore_errors=True)

    def _resolve(self, cache_dir: str, recorder: Any,
                 pins: Dict[str, List[int]]) -> PassResult:
        keys = [f"{job.benchmark}/{job.label}" for job in self.jobs]
        start = time.perf_counter()
        try:
            recorder.op = 0
            cold = self._service(cache_dir, recorder)
            results = recorder.call("op", cold.run_many, self.jobs)
            wall = time.perf_counter() - start
            recorder.op = 1
            warm_start = time.perf_counter()
            warm = self._service(cache_dir, recorder)
            again = recorder.call("exec.warm_resolve", warm.run_many,
                                  self.jobs)
            warm_s = time.perf_counter() - warm_start
        except Exception as exc:  # a failed op, not a crash
            error = f"run_many: {type(exc).__name__}: {exc}"
            return PassResult(
                wall=time.perf_counter() - start,
                ops=[OpResult(key=key, program=job.benchmark, error=error)
                     for key, job in zip(keys, self.jobs)])
        ops = []
        for key, job, result, replayed in zip(keys, self.jobs, results,
                                              again):
            op = OpResult(key=key, program=job.benchmark,
                          cycles=result.cycles,
                          instructions=result.instructions,
                          replay=replay_counts(result))
            if ((replayed.cycles, replayed.instructions)
                    != (result.cycles, result.instructions)):
                op.error = f"{key}: warm re-resolve differs"
            ops.append(check(op, pins))
        served = sum(warm.stats.values())
        counters = {
            "exec.jobs": len(self.jobs),
            "exec.jobs_simulated": cold.stats["simulated"],
            "exec.jobs_from_disk": warm.stats["disk"],
            "exec.warm_hit_ratio": ((warm.stats["disk"]
                                     + warm.stats["memo"]) / served
                                    if served else 0.0),
            "exec.warm_resolve_s": warm_s,
        }
        return PassResult(wall=wall, ops=ops, counters=counters)


def make_workload(name: str, seed: int, recorder: Any) -> Any:
    """The named workload, set up; *seed* fixes its op order."""
    rng = random.Random(seed)
    if name == "suite-run":
        return SuiteRun(rng, recorder)
    if name == "tc16-policies":
        return Tc16Policies(rng, recorder)
    if name == "paper-grid":
        return PaperGrid(rng, recorder, OUT_DIR / "tmp")
    raise ValueError(f"unknown workload {name!r}")
