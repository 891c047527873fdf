"""Pure functional semantics for the ISA.

:func:`evaluate` computes the architectural effect of one instruction
given a register-read callback, *without* mutating any state. The
functional machine (:mod:`repro.machine.executor`) applies the returned
:class:`Effect`. Keeping semantics pure lets the test suite verify the
fill-unit optimizations' semantic equivalence directly: a transformed
instruction must evaluate to the same effect as the original whenever
its enabling conditions hold.

All arithmetic is 32-bit two's complement. Immediates are sign-extended
16-bit values uniformly (including the logical immediates; this is an
internal simplification over MIPS's zero-extension and is consistent
across the assembler, encoder and executor).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, Dict, Optional

from repro.errors import ExecutionError
from repro.isa.instruction import Instruction
from repro.isa.opcodes import Op

MASK32 = 0xFFFFFFFF


def to_u32(value: int) -> int:
    """Truncate to an unsigned 32-bit value."""
    return value & MASK32


def to_s32(value: int) -> int:
    """Truncate to a signed 32-bit value."""
    value &= MASK32
    return value - 0x100000000 if value & 0x80000000 else value


@dataclass(frozen=True)
class MemOp:
    """A memory access computed by :func:`evaluate`."""

    is_store: bool
    addr: int
    size: int          # bytes: 1, 2 or 4
    signed: bool       # sign-extend loaded value
    store_value: int = 0


@dataclass(frozen=True)
class Effect:
    """The architectural effect of one instruction.

    Exactly the fields relevant to the opcode are populated:

    * ALU ops: ``dest``/``value``.
    * Loads: ``dest`` and ``mem`` (value filled in by the executor).
    * Stores: ``mem``.
    * Control: ``taken``/``target`` (``target`` is an absolute byte
      address; for not-taken conditional branches it is the fallthrough).
    * ``halt`` for HALT, ``serialize`` for SYSCALL/HALT.
    """

    dest: Optional[int] = None
    value: Optional[int] = None
    mem: Optional[MemOp] = None
    is_ctrl: bool = False
    taken: bool = False
    target: Optional[int] = None
    halt: bool = False
    serialize: bool = False


ReadReg = Callable[[int], int]

_LOAD_SIZES = {
    Op.LW: (4, True), Op.LH: (2, True), Op.LHU: (2, False),
    Op.LB: (1, True), Op.LBU: (1, False),
    Op.LWX: (4, True), Op.LBX: (1, True),
}
_STORE_SIZES = {Op.SW: 4, Op.SH: 2, Op.SB: 1, Op.SWX: 4, Op.SBX: 1}


def _rs_value(instr: Instruction, read: ReadReg) -> int:
    """Value of the ``rs`` operand slot, honouring a scale annotation.

    A scaled instruction reads the shift's *source* register and applies
    the short left shift inside the (scaled-add capable) functional
    unit, exactly as the paper's modified ALU does.
    """
    if instr.scale is not None:
        return to_s32(read(instr.scale.src) << instr.scale.shamt)
    return to_s32(read(instr.rs or 0))


def evaluate(instr: Instruction, read: ReadReg) -> Effect:
    """Evaluate *instr* against register values supplied by *read*.

    Raises:
        ExecutionError: for opcodes with no defined semantics (cannot
            happen for instructions produced by the assembler/decoder).
    """
    op = instr.op
    pc = instr.pc if instr.pc is not None else 0

    if instr.guard is not None:
        # Dynamic predication: an inactive guarded instruction keeps
        # its old destination value (conditional-move semantics). The
        # fill unit only guards simple single-destination ALU ops.
        is_zero = to_s32(read(instr.guard.reg)) == 0
        if is_zero != instr.guard.execute_if_zero:
            dest = instr.dest()
            return Effect(dest=dest,
                          value=to_s32(read(dest)) if dest is not None
                          else None)

    if op is Op.NOP:
        return Effect()
    if op is Op.HALT:
        return Effect(halt=True, serialize=True)
    if op is Op.SYSCALL:
        return Effect(serialize=True)

    if op in _ALU3:
        a = _rs_value(instr, read)
        b = to_s32(read(instr.rt or 0))
        return Effect(dest=instr.dest(), value=_ALU3[op](a, b))
    if op in _ALUI:
        a = _rs_value(instr, read)
        return Effect(dest=instr.dest(), value=_ALUI[op](a, instr.imm or 0))
    if op in (Op.SLL, Op.SRL, Op.SRA):
        a = to_s32(read(instr.rs or 0))
        return Effect(dest=instr.dest(),
                      value=_shift(op, a, (instr.imm or 0) & 0x1F))
    if op in _VAR_SHIFT:
        a = to_s32(read(instr.rs or 0))
        amount = read(instr.rt or 0) & 0x1F
        return Effect(dest=instr.dest(),
                      value=_shift(_VAR_SHIFT[op], a, amount))
    if op is Op.LUI:
        return Effect(dest=instr.dest(), value=_lui(instr.imm or 0))

    if op in _LOAD_SIZES:
        size, signed = _LOAD_SIZES[op]
        if op in (Op.LWX, Op.LBX):
            addr = to_u32(_rs_value(instr, read)
                          + to_s32(read(instr.rt or 0)))
        else:
            addr = to_u32(_rs_value(instr, read) + (instr.imm or 0))
        return Effect(dest=instr.dest(),
                      mem=MemOp(False, addr, size, signed))
    if op in _STORE_SIZES:
        size = _STORE_SIZES[op]
        if op in (Op.SWX, Op.SBX):
            addr = to_u32(_rs_value(instr, read)
                          + to_s32(read(instr.rt or 0)))
            value = to_u32(read(instr.rd or 0))
        else:
            addr = to_u32(_rs_value(instr, read) + (instr.imm or 0))
            value = to_u32(read(instr.rt or 0))
        return Effect(mem=MemOp(True, addr, size, False, value))

    if op in _BRANCH:
        a = to_s32(read(instr.rs or 0))
        b = to_s32(read(instr.rt or 0)) if op in _BRANCH2 else 0
        taken = _BRANCH[op](a, b)
        target = (to_u32(pc + (instr.imm or 0)) if taken
                  else to_u32(pc + 4))
        return Effect(is_ctrl=True, taken=taken, target=target)
    if op is Op.J:
        return Effect(is_ctrl=True, taken=True,
                      target=to_u32(instr.imm or 0))
    if op is Op.JAL:
        return Effect(dest=31, value=to_s32(pc + 4),
                      is_ctrl=True, taken=True,
                      target=to_u32(instr.imm or 0))
    if op is Op.JR:
        return Effect(is_ctrl=True, taken=True,
                      target=to_u32(read(instr.rs or 0)))
    if op is Op.JALR:
        return Effect(dest=instr.dest(), value=to_s32(pc + 4),
                      is_ctrl=True, taken=True,
                      target=to_u32(read(instr.rs or 0)))

    raise ExecutionError(f"no semantics for opcode {op.name}")


def _shift(op: Op, a: int, amount: int) -> int:
    if op is Op.SLL:
        return to_s32(a << amount)
    if op is Op.SRL:
        return to_s32(to_u32(a) >> amount)
    return to_s32(a >> amount)  # SRA on the signed value


def _lui(imm: int) -> int:
    return to_s32((imm & 0xFFFF) << 16)


def _div(a: int, b: int) -> int:
    if b == 0:
        return 0  # architected: division by zero yields zero, no trap
    # C-style truncation toward zero.
    q = abs(a) // abs(b)
    return to_s32(-q if (a < 0) != (b < 0) else q)


_ALU3: Dict[Op, Callable[[int, int], int]] = {
    Op.ADD: lambda a, b: to_s32(a + b),
    Op.SUB: lambda a, b: to_s32(a - b),
    Op.AND: lambda a, b: to_s32(a & b),
    Op.OR: lambda a, b: to_s32(a | b),
    Op.XOR: lambda a, b: to_s32(a ^ b),
    Op.NOR: lambda a, b: to_s32(~(a | b)),
    Op.SLT: lambda a, b: int(a < b),
    Op.SLTU: lambda a, b: int(to_u32(a) < to_u32(b)),
    Op.MULT: lambda a, b: to_s32(a * b),
    Op.DIV: _div,
}

_ALUI: Dict[Op, Callable[[int, int], int]] = {
    Op.ADDI: lambda a, i: to_s32(a + i),
    Op.ANDI: lambda a, i: to_s32(a & i),
    Op.ORI: lambda a, i: to_s32(a | i),
    Op.XORI: lambda a, i: to_s32(a ^ i),
    Op.SLTI: lambda a, i: int(a < i),
    Op.SLTIU: lambda a, i: int(to_u32(a) < to_u32(i)),
}

_VAR_SHIFT = {Op.SLLV: Op.SLL, Op.SRLV: Op.SRL, Op.SRAV: Op.SRA}

#: Conditional-branch predicates over the signed ``rs``/``rt`` values;
#: the one-register forms (all but :data:`_BRANCH2`) ignore ``b``.
_BRANCH: Dict[Op, Callable[[int, int], bool]] = {
    Op.BEQ: lambda a, b: a == b,
    Op.BNE: lambda a, b: a != b,
    Op.BLEZ: lambda a, b: a <= 0,
    Op.BGTZ: lambda a, b: a > 0,
    Op.BLTZ: lambda a, b: a < 0,
    Op.BGEZ: lambda a, b: a >= 0,
}
_BRANCH2 = (Op.BEQ, Op.BNE)

__all__ = ["Effect", "MemOp", "evaluate", "to_u32", "to_s32", "MASK32"]
