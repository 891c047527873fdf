"""Rename stage: in-order rename with checkpoint-repair limits.

Owns the rename unit (issue width, block limit, in-flight window) and
the checkpoint store's acquire side. Marked register moves complete
*inside* this stage — the destination mapping is copied from the
source mapping, so no reservation station or functional unit is
consumed (the paper's §4.2 mechanism).
"""

from __future__ import annotations

from typing import Any, List, Optional, Tuple

from repro.core.config import SimConfig
from repro.core.results import SimResult
from repro.core.stages.base import (
    InstrSlot,
    MachineState,
    MetricBlock,
    PipelineStage,
)
from repro.isa.decode import DecodeRecord
from repro.telemetry.events import CHECKPOINT_REPAIR
from repro.telemetry.registry import TelemetryRegistry

_SCOPES = {
    "checkpoint_stalls": "rename.checkpoint.stalls",
    "moves_eliminated": "rename.moves.eliminated",
}


class RenameStage(PipelineStage):
    """Assigns rename cycles; completes marked moves in-place."""

    name = "rename"

    def __init__(self, config: SimConfig, rename_unit: Any,
                 checkpoints: Any, registry: TelemetryRegistry,
                 events: Any) -> None:
        self.rename_unit = rename_unit
        self.checkpoints = checkpoints
        self.events = events
        self.window = config.window_size
        self._m = MetricBlock(registry, _SCOPES)
        self._registry = registry

    def process(self, state: MachineState, slot: InstrSlot) -> None:
        entry = slot.entry
        record = entry.record
        decoded = entry.decoded
        group = state.group
        assert group is not None
        fetch_cycle = group.fetch_cycle
        seq = slot.seq
        window_release = (state.retire_cycles[seq - self.window]
                          if seq >= self.window else 0)
        is_branch = decoded.cond_branch
        slot.is_branch = is_branch
        checkpoint_free = (self.checkpoints.acquire(fetch_cycle + 1)
                           if is_branch else 0)
        if checkpoint_free > fetch_cycle + 1:
            self._m.checkpoint_stalls.add()
            self.events.emit(CHECKPOINT_REPAIR, fetch_cycle,
                             pc=record.pc if record else 0,
                             resume=checkpoint_free)
        slot.renamed = self.rename_unit.rename(
            fetch_cycle, is_branch, window_release,
            not_before=checkpoint_free)
        if entry.phantom:
            # Phantoms issue and execute downstream; nothing more here.
            return
        if entry.instr.move_flag:
            slot.complete = self._execute_move(decoded, slot.renamed,
                                               state.reg_ready)
            slot.penalized = False
            slot.executed = True
            self._m.moves_eliminated.add()

    def _execute_move(self, decoded: DecodeRecord, renamed: int,
                      reg_ready: List[Tuple[int, Optional[int]]]) -> int:
        """A marked register move: completed by the rename logic.

        The destination inherits the source's tag — same availability
        time, same producing cluster — and no functional unit or
        reservation station is consumed.
        """
        sources = decoded.sources
        if sources and sources[0] != 0:
            ready = reg_ready[sources[0]]
        else:
            ready = (0, None)
        dest = decoded.dest
        if dest is not None:
            reg_ready[dest] = ready
        return max(renamed, ready[0])

    def finish_run(self, state: Optional[MachineState],
                   result: SimResult) -> None:
        result.moves_eliminated = self._m.delta("moves_eliminated")
        registry = self._registry
        registry.counter("rename.window_stalls").add(
            self.rename_unit.window_stalls)
        registry.counter("rename.width_stalls").add(
            self.rename_unit.width_stalls)
        registry.counter("rename.block_limit_stalls").add(
            self.rename_unit.block_limit_stalls)


__all__ = ["RenameStage"]
