"""The replay engine: a stage list driven over the committed stream.

:class:`Engine` owns the machine's components (predictor, memory
hierarchy, trace cache + fill unit, rename/retire units, clustered
backend) and an ordered list of :class:`~repro.core.stages.base.
PipelineStage` objects — fetch, rename, issue, execute, retire, fill.
One :class:`~repro.core.stages.base.MachineState` object is the
explicit handoff between stages; see ``docs/architecture.md`` for the
contract.

Methodology (DESIGN.md §3): instructions are processed in committed
order; each acquires fetch, rename, execute and retire cycles subject
to structural and dataflow constraints. Mispredicted branches stall
subsequent fetch until resolution — *except* the instructions already
inside the same trace segment along the correct path, which is exactly
the inactive-issue benefit of the baseline machine.

The engine is deliberately dumb: all microarchitectural behaviour
lives in the stages, and the engine only sequences them. Extra
observer stages may be appended to ``engine.stages`` before ``run()``
(they see every state transition but must not mutate timing state).

Observability: every run counts against a hierarchical telemetry
registry (the engine's own, or the one of an attached
:class:`~repro.telemetry.Telemetry` session), which is the single
source of truth behind :class:`~repro.core.results.SimResult`'s
counters. With a session attached the stages additionally emit
structured events (mispredicts, trace cache misfetches, checkpoint
repairs, fill-unit activity) and feed the top-down cycle-accounting
pass; without one, those paths collapse to null-object no-ops.
"""

from __future__ import annotations

from typing import Any, List, Optional, Tuple

from repro.branch.predictor import MultiBranchPredictor
from repro.cache.hierarchy import MemoryHierarchy
from repro.core.clusters import (
    BypassNetwork,
    CheckpointStore,
    FunctionalUnits,
    ReservationStations,
)
from repro.core.config import SimConfig
from repro.core.memsched import MemoryScheduler
from repro.core.rename import RenameUnit, RetireUnit
from repro.core.results import SimResult
from repro.core.stages.base import (
    InstrSlot,
    MachineState,
    PipelineStage,
)
from repro.core.stages.execute import ExecuteStage
from repro.core.stages.fetch import FetchStage
from repro.core.stages.fill import FillStage
from repro.core.stages.issue import IssueStage
from repro.core.stages.rename import RenameStage
from repro.core.stages.retire import RetireStage
from repro.fillunit.unit import FillUnit, FillUnitConfig
from repro.telemetry.attribution import CycleAccountant
from repro.telemetry.events import (
    NULL_EVENT_STREAM,
    RUN_FINISHED,
    RUN_STARTED,
)
from repro.telemetry.registry import TelemetryRegistry
from repro.telemetry.spans import active_or_none
from repro.tracecache.cache import TraceCache


class Engine:
    """One configured machine instance; replays committed traces."""

    def __init__(self, config: SimConfig,
                 telemetry: Optional[Any] = None) -> None:
        self.config = config
        self.telemetry = telemetry
        if telemetry is not None:
            self.registry = telemetry.registry
            self.events = telemetry.events
            events_arg = self.events
        else:
            # The registry stays live even without a session: it is the
            # source of truth the SimResult counters derive from.
            self.registry = TelemetryRegistry()
            self.events = NULL_EVENT_STREAM
            events_arg = None
        registry_arg = self.registry
        #: span recorder when the session traces spans, else None —
        #: instrumented components guard on `is not None` so the
        #: untraced hot path pays a single attribute check at most.
        self.spans = active_or_none(getattr(telemetry, "spans", None))
        self.hierarchy = MemoryHierarchy(config.hierarchy)
        self.predictor = MultiBranchPredictor(config.predictor)
        self.trace_cache = (TraceCache(config.trace_cache)
                            if config.trace_cache_enabled else None)
        self.fill_unit: Optional[FillUnit] = None
        if self.trace_cache is not None:
            self.trace_cache.events = events_arg
            self.trace_cache.spans = self.spans
            fill_config = FillUnitConfig(
                max_instrs=config.trace_cache.max_instrs,
                max_cond_branches=config.trace_cache.max_cond_branches,
                trace_packing=config.trace_packing,
                latency=config.fill_latency,
                num_clusters=config.num_clusters,
                cluster_size=config.cluster_size,
                optimizations=config.optimizations,
                verify=config.verify_fill,
                verify_each=config.verify_each_pass,
            )
            self.fill_unit = FillUnit(fill_config, self.trace_cache,
                                      self.predictor.bias,
                                      registry=registry_arg,
                                      events=events_arg,
                                      spans=self.spans)
        self.fus = FunctionalUnits(config.num_fus)
        self.rs = ReservationStations(config.num_fus, config.rs_per_fu)
        self.bypass = BypassNetwork(config.cluster_size,
                                    config.cross_cluster_penalty)
        self.rename_unit = RenameUnit(config.issue_width,
                                      config.max_blocks_per_cycle,
                                      config.window_size)
        self.checkpoints = CheckpointStore(config.max_checkpoints)
        self.retire_unit = RetireUnit(config.retire_width)
        self.memsched = MemoryScheduler(self.hierarchy,
                                        config.store_forward_window)

        #: the stage list, in pipeline order. Owned by the engine;
        #: tests may append observer stages before ``run()``.
        self.stages: List[PipelineStage] = [
            FetchStage(config, self.hierarchy, self.predictor,
                       self.trace_cache, self.fill_unit,
                       registry_arg, self.events),
            RenameStage(config, self.rename_unit, self.checkpoints,
                        registry_arg, self.events),
            IssueStage(config, self.fus, self.rs, self.bypass,
                       registry_arg),
            ExecuteStage(self.memsched, registry_arg),
            RetireStage(config, self.retire_unit, self.checkpoints,
                        self.predictor, registry_arg, self.events,
                        extra_is_tc_miss=self.trace_cache is not None),
            FillStage(self.fill_unit, registry_arg),
        ]
        #: always None; kept because external instrumentation probes
        #: ``engine.replay`` and skips ``None`` (docs/architecture.md
        #: §3).
        self.replay: None = None
        #: program image the TRRIP hints were last derived from
        #: (identity-compared so repeated runs skip the CFG walk).
        self._hint_source: Optional[Any] = None

    def _install_policy_hints(self, program: Any) -> None:
        """Feed static temperature hints to a hint-capable trace cache
        replacement policy (TRRIP), once per program image."""
        tc = self.trace_cache
        if tc is None or not hasattr(tc.policy, "set_static_hints"):
            return
        if self._hint_source is program:
            return
        from repro.cache.hints import static_temperature_hints
        tc.policy.set_static_hints(static_temperature_hints(program))
        self._hint_source = program

    # ==================================================================
    # The replay loop
    # ==================================================================

    def run(self, trace: Any, benchmark: str = "bench",
            label: str = "run", program: Optional[Any] = None
            ) -> SimResult:
        """Replay *trace* (a :class:`CommittedTrace`) and return the
        per-run statistics.

        *program* (the static image) is required when
        ``config.model_wrong_path`` is set — wrong-path instructions
        are decoded from it — and, when present, also feeds static
        temperature hints (natural-loop membership joined with
        instruction mix) to a TRRIP-style trace cache replacement
        policy.

        Raises:
            ConfigError: when wrong-path modeling is requested without
                a program image.
        """
        config = self.config
        if program is not None:
            self._install_policy_hints(program)
        wrong_path: Optional[Any] = None
        if config.model_wrong_path:
            if program is None:
                from repro.errors import ConfigError
                raise ConfigError(
                    "model_wrong_path requires the program image")
            from repro.core.wrongpath import WrongPathFetcher
            wrong_path = WrongPathFetcher(program, self.hierarchy,
                                          config.ic_fetch_width)
        records = trace.records
        n = len(records)
        result = SimResult(benchmark=benchmark, config_label=label,
                           instructions=n, cycles=0)
        events = self.events
        events.emit(RUN_STARTED, 0, benchmark=benchmark, label=label,
                    instructions=n)
        if n == 0:
            self._finish_stats(None, result)
            events.emit(RUN_FINISHED, 0, benchmark=benchmark,
                        label=label, instructions=0, cycles=0, ipc=0.0)
            return result

        accountant: Optional[CycleAccountant] = None
        if self.telemetry is not None and self.telemetry.attribution:
            accountant = CycleAccountant(config.cross_cluster_penalty)
        reg_ready: List[Tuple[int, Optional[int]]] = [(0, None)] * 32
        state = MachineState(
            records=records, n=n, result=result,
            reg_ready=reg_ready,
            accountant=accountant,
            emit_retired=events.wants_instr_timing,
            wrong_path=wrong_path)

        stages = self.stages
        # Bound once per run: instrumentation may have replaced the
        # stage objects since construction, never during a run.
        processes = [stage.process for stage in stages]
        retire_cycles = state.retire_cycles
        for stage in stages:
            stage.begin_run(state)
        while state.index < state.n:
            for stage in stages:
                stage.begin_group(state)
            group = state.group
            assert group is not None
            if not group.entries:   # defensive; not seen on real traces
                state.index += 1
                continue
            for entry in group.entries:
                slot = InstrSlot(entry, len(retire_cycles))
                for process in processes:
                    process(state, slot)
            for stage in stages:
                stage.end_group(state)
            state.index += group.consumed

        result.cycles = state.retire_cycles[-1]
        if wrong_path is not None:
            result.wrong_path_fetches = wrong_path.instructions
        if self.spans is not None:
            # Close whatever is still open on the simulated clock
            # (trace-cache residency spans of still-resident segments).
            self.spans.end_open(float(result.cycles))
        self._finish_stats(state, result)
        if accountant is not None:
            result.attribution = accountant.finish(result.cycles)
        events.emit(RUN_FINISHED, result.cycles, benchmark=benchmark,
                    label=label, instructions=n, cycles=result.cycles,
                    ipc=result.ipc,
                    mispredict_rate=result.mispredict_rate,
                    tc_instr_fraction=result.tc_instr_fraction,
                    attribution=result.attribution)
        return result

    # ------------------------------------------------------------------

    def _finish_stats(self, state: Optional[MachineState],
                      result: SimResult) -> None:
        """Let every stage fold its statistics into *result*, then
        snapshot the registry — the single source of truth — into
        ``result.telemetry``."""
        for stage in self.stages:
            stage.finish_run(state, result)
        result.telemetry = self.registry.flat()


__all__ = ["Engine"]
