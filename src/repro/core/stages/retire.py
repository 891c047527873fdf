"""Retire stage: in-order retirement, branch resolution and recovery.

Owns the retire unit (retire-width bound), the checkpoint store's
commit side, branch-outcome accounting (including promoted and
predicated-away branches), mispredict redirect pushback on the next
fetch group, wrong-path pollution, and the per-instruction observers:
the cycle accountant and opt-in ``instr.retired`` events.
"""

from __future__ import annotations

from typing import Any, Optional

from repro.core.config import SimConfig
from repro.core.results import SimResult
from repro.core.stages.base import (
    InstrSlot,
    MachineState,
    MetricBlock,
    PipelineStage,
)
from repro.telemetry.events import BRANCH_MISPREDICT, INSTR_RETIRED
from repro.telemetry.registry import TelemetryRegistry

_SCOPES = {
    "cond_branches": "branch.cond.seen",
    "mispredicts": "branch.cond.mispredicts",
    "promoted_fetches": "branch.promoted.fetches",
    "promoted_mispredicts": "branch.promoted.mispredicts",
    "indirect_mispredicts": "branch.indirect.mispredicts",
    "predicated_branches": "predication.branches",
}


class RetireStage(PipelineStage):
    """In-order retirement plus control-flow bookkeeping."""

    name = "retire"

    def __init__(self, config: SimConfig, retire_unit: Any,
                 checkpoints: Any, predictor: Any,
                 registry: TelemetryRegistry, events: Any,
                 extra_is_tc_miss: bool) -> None:
        self.retire_unit = retire_unit
        self.checkpoints = checkpoints
        self.predictor = predictor
        self.events = events
        self.redirect = config.mispredict_redirect
        self.extra_is_tc_miss = extra_is_tc_miss
        self._m = MetricBlock(registry, _SCOPES)

    def process(self, state: MachineState, slot: InstrSlot) -> None:
        entry = slot.entry
        if entry.phantom:
            return
        group = state.group
        assert group is not None
        record = entry.record
        decoded = entry.decoded
        m = self._m

        retire_cycle = self.retire_unit.retire(slot.complete)
        state.retire_cycles.append(retire_cycle)
        slot.retire_cycle = retire_cycle
        if state.accountant is not None:
            # Group-level delays are debited once, on the group's
            # first retiring instruction.
            state.accountant.on_retire(
                group.fetch_cycle, slot.complete, retire_cycle,
                recovery=group.recovery,
                fetch_extra=group.fetch_extra,
                extra_is_tc_miss=self.extra_is_tc_miss,
                serialize=group.serialize,
                bypass_penalized=slot.penalized)
            group.recovery = 0
            group.serialize = 0
            group.fetch_extra = 0
        if state.emit_retired:
            self.events.emit(
                INSTR_RETIRED, retire_cycle,
                seq=slot.seq, pc=record.pc, op=entry.instr.op.value,
                fetch=group.fetch_cycle, rename=slot.renamed,
                complete=slot.complete, retire=retire_cycle,
                slot=entry.slot, from_tc=entry.from_tc,
                mispredicted=entry.mispredicted)

        # The architected instruction's record: a trace-cache entry's
        # own may describe a rewritten copy (e.g. a branch predicated
        # away as a NOP).
        arch_cond_branch = record.instr.decoded.cond_branch
        if arch_cond_branch:
            m.cond_branches.add()
            # The bias table keeps learning from the architected
            # branch even when the segment carries it predicated
            # away (as a NOP).
            self.predictor.record_outcome(record.pc, record.taken)
            if entry.instr.guard is None and not decoded.cond_branch:
                m.predicated_branches.add()
            if entry.promoted:
                m.promoted_fetches.add()
                if entry.mispredicted:
                    m.promoted_mispredicts.add()
            if entry.mispredicted:
                m.mispredicts.add()
                self.events.emit(BRANCH_MISPREDICT, slot.complete,
                                 pc=record.pc, taken=record.taken,
                                 promoted=entry.promoted,
                                 indirect=False)
        elif entry.mispredicted:
            m.indirect_mispredicts.add()
            self.events.emit(BRANCH_MISPREDICT, slot.complete,
                             pc=record.pc, taken=True,
                             promoted=False, indirect=True)

        if slot.is_branch:
            self.checkpoints.commit(slot.complete)
        if entry.mispredicted:
            resume = slot.complete + self.redirect
            if resume > group.next_fetch:
                group.recovery_bump += resume - group.next_fetch
                group.next_fetch = resume
            if state.wrong_path is not None and arch_cond_branch:
                state.wrong_path.pollute(
                    state.wrong_path.wrong_target(record),
                    max(0, slot.complete - group.fetch_cycle))
        if decoded.serializing:
            group.serialize_after = retire_cycle

    def finish_run(self, state: Optional[MachineState],
                   result: SimResult) -> None:
        m = self._m
        result.cond_branches = m.delta("cond_branches")
        result.mispredicts = m.delta("mispredicts")
        result.promoted_fetches = m.delta("promoted_fetches")
        result.promoted_mispredicts = m.delta("promoted_mispredicts")
        result.indirect_mispredicts = m.delta("indirect_mispredicts")
        result.predicated_branches = m.delta("predicated_branches")


__all__ = ["RetireStage"]
