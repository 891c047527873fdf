"""Issue stage: dataflow wakeup and clustered dispatch.

Computes when each source operand is visible to the consuming cluster
(charging the cross-cluster bypass penalty), applies the reservation
station capacity bound, and claims the functional-unit issue cycle.
Issue slot *k* of a fetch group feeds functional unit *k* — the
slot-wired datapath the placement optimization exploits.

NOPs (including instructions squashed by dead-code elimination) occupy
their trace cache slot but are never dispatched to a functional unit;
they complete here at their rename cycle.
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
from repro.telemetry.registry import TelemetryRegistry

_SCOPES = {
    "bypass_delayed": "backend.bypass.cross_cluster",
    "exec_with_sources": "backend.exec.with_sources",
}


class IssueStage(PipelineStage):
    """Source wakeup, RS admission and FU reservation."""

    name = "issue"

    def __init__(self, config: SimConfig, fus: Any, rs: Any,
                 bypass: Any, registry: TelemetryRegistry) -> None:
        self.fus = fus
        self.rs = rs
        self.bypass = bypass
        self.cluster_size = config.cluster_size
        self._m = MetricBlock(registry, _SCOPES)
        self._registry = registry

    def process(self, state: MachineState, slot: InstrSlot) -> None:
        if slot.executed:
            return              # completed in rename (marked move)
        decoded = slot.entry.decoded
        if decoded.nop:
            slot.complete = slot.renamed
            slot.penalized = False
            slot.executed = True
            return
        fu = slot.entry.slot
        cluster = fu // self.cluster_size
        slot.cluster = cluster
        effective_ready = self.bypass.effective_ready
        reg_ready = state.reg_ready

        # The last-arriving source sets dispatch; it was penalized if
        # any source arriving at that cycle paid the bypass penalty.
        dispatch_ready = 0      # all operands (last-arriving source)
        last_penalized = False
        for reg in decoded.addr_sources:
            ready, producer_cluster = reg_ready[reg]
            effective = effective_ready(ready, producer_cluster, cluster)
            if effective > dispatch_ready:
                dispatch_ready = effective
                last_penalized = effective != ready
            elif effective == dispatch_ready and effective != ready:
                last_penalized = True
        agen_ready = dispatch_ready     # address operands only (AGEN)
        data_ready = 0          # store-data path, joins in store queue
        data_reg = decoded.data_source
        if data_reg is not None:
            ready, producer_cluster = reg_ready[data_reg]
            data_ready = effective_ready(ready, producer_cluster, cluster)
            if data_ready > dispatch_ready:
                dispatch_ready = data_ready
                last_penalized = data_ready != ready
            elif data_ready == dispatch_ready and data_ready != ready:
                last_penalized = True
        if decoded.addr_sources or data_reg is not None:
            self._m.exec_with_sources.add()
            if last_penalized:
                self._m.bypass_delayed.add()

        rs_free = self.rs.admit(fu, slot.renamed)
        earliest = max(slot.renamed + 1,
                       agen_ready if decoded.store else dispatch_ready,
                       rs_free)
        exec_start = self.fus.reserve(fu, earliest)
        self.rs.occupy(fu, exec_start)
        slot.exec_start = exec_start
        slot.data_ready = data_ready
        slot.penalized = last_penalized

    def finish_run(self, state: Optional[MachineState],
                   result: SimResult) -> None:
        result.bypass_delayed = self._m.delta("bypass_delayed")
        result.executed_with_sources = self._m.delta("exec_with_sources")
        self._registry.counter("backend.bypass.crossings").add(
            self.bypass.crossings)


__all__ = ["IssueStage"]
