"""Predecoded instruction records for the timing model.

The paper's fill unit decodes dependencies once, stores the result with
each trace line and reuses it on every fetch (§4.1;
:mod:`repro.fillunit.predecode`). The timing model does the same for
the static facts its stages need: :func:`decode` derives them once per
instruction into an immutable :class:`DecodeRecord`, and
:attr:`Instruction.decoded <repro.isa.instruction.Instruction.decoded>`
caches that record on the instruction on first read.

Every field is computed by the :class:`~repro.isa.instruction.
Instruction` methods, which stay the one definition of the semantics;
the fill-unit passes, the verifier and the static analyzer call those
methods directly and never read a record (a pass rewrites fresh
``copy()``s, which carry no record).
"""

from __future__ import annotations

from dataclasses import dataclass, fields
from typing import TYPE_CHECKING, Any, Optional, Tuple

from repro.isa.opcodes import OpClass
from repro.isa.registers import ZERO_REG

if TYPE_CHECKING:
    from repro.isa.instruction import Instruction


@dataclass(frozen=True)
class DecodeRecord:
    """What the timing model reads of one instruction."""

    # Declared by hand: ``dataclass(slots=True)`` needs Python 3.10.
    __slots__ = ("nop", "load", "store", "cond_branch", "ctrl", "call",
                 "indirect", "returns", "serializing", "terminates",
                 "dest", "sources", "addr_sources", "data_source",
                 "latency")

    nop: bool
    load: bool
    store: bool
    cond_branch: bool
    ctrl: bool
    call: bool
    indirect: bool
    #: JR through the link register
    returns: bool
    serializing: bool
    #: the fill unit ends a trace segment after this instruction
    terminates: bool
    dest: Optional[int]
    #: effective sources (annotations applied, r0 kept)
    sources: Tuple[int, ...]
    #: operands the issue stage waits on for address generation (all
    #: sources for non-memory instructions), r0 filtered out
    addr_sources: Tuple[int, ...]
    #: a store's data register, ``None`` for everything else or r0
    data_source: Optional[int]
    latency: int

    def __reduce__(self) -> Tuple[Any, Tuple[Any, ...]]:
        # The default slot-state restore assigns attributes, which a
        # frozen class refuses; rebuild through the constructor so a
        # decoded instruction still copies and pickles.
        return (DecodeRecord,
                tuple(getattr(self, f.name) for f in fields(self)))


def decode(instr: Instruction) -> DecodeRecord:
    """A fresh :class:`DecodeRecord` for *instr*."""
    # mem_split() falls back to (sources(), None) for non-memory
    # instructions, which is exactly how issue treats their operands.
    addr_regs, data_reg = instr.mem_split()
    return DecodeRecord(
        nop=instr.opclass is OpClass.NOP,
        load=instr.is_load(),
        store=instr.is_store(),
        cond_branch=instr.is_cond_branch(),
        ctrl=instr.is_ctrl(),
        call=instr.is_call(),
        indirect=instr.is_indirect(),
        returns=instr.is_return(),
        serializing=instr.is_serializing(),
        terminates=instr.terminates_segment(),
        dest=instr.dest(),
        sources=instr.sources(),
        addr_sources=tuple(reg for reg in addr_regs
                           if reg is not None and reg != ZERO_REG),
        data_source=None if data_reg == ZERO_REG else data_reg,
        latency=instr.info.latency,
    )


__all__ = ["DecodeRecord", "decode"]
