"""Functional executor.

Runs a :class:`~repro.program.Program` to architectural completion,
producing the committed instruction stream the timing model replays.

Each static instruction is compiled once per :class:`Executor`, on the
first fetch of its PC, into a *step* closure that binds its operands,
immediate, destination, fall-through and branch target, the register
list and the memory's load/store methods. A step reads and writes the
register list directly and returns the instruction's
:class:`CommittedInstr`. The arithmetic itself stays in
:mod:`repro.isa.semantics`: steps call its opcode tables, and an
instruction carrying a ``guard`` or ``scale`` annotation compiles to a
step that applies :func:`~repro.isa.semantics.evaluate`, which remains
the reference semantics.

A minimal syscall interface is provided for the example programs
(SPIM-style: service number in ``$v0``):

* ``$v0 == 1`` -- append the integer in ``$a0`` to :attr:`Executor.output`.
* ``$v0 == 11`` -- append ``chr($a0)`` to the output.
* ``$v0 == 10`` -- exit (equivalent to ``halt``).

Any other service number is a serializing no-op, which is all the
timing model needs (serializing instructions terminate trace segments).
"""

from __future__ import annotations

from typing import Callable, Iterable, List, Optional, Union

from repro.errors import ExecutionError
from repro.isa.instruction import Instruction
from repro.isa.opcodes import Format, Op
from repro.isa.semantics import (
    _ALU3,
    _ALUI,
    _BRANCH,
    _LOAD_SIZES,
    _STORE_SIZES,
    _VAR_SHIFT,
    MASK32,
    _lui,
    _shift,
    evaluate,
    to_s32,
    to_u32,
)
from repro.machine.memory import Memory
from repro.machine.state import ArchState
from repro.machine.tracing import CommittedInstr, CommittedTrace
from repro.program.image import Program
from repro.program.loader import load_program

DEFAULT_MAX_INSTRUCTIONS = 5_000_000

#: A compiled instruction: given the record's sequence number, execute
#: the instruction against its executor's machine and return the
#: committed record (the PC is advanced by the caller).
Step = Callable[[int], CommittedInstr]

_SHIFTS = (Op.SLL, Op.SRL, Op.SRA)


class Executor:
    """Architectural interpreter for one program."""

    def __init__(self, program: Program,
                 memory: Optional[Memory] = None,
                 state: Optional[ArchState] = None) -> None:
        self.program = program
        self.memory = memory if memory is not None else Memory()
        self.state = state if state is not None else ArchState()
        self.output: List[Union[int, str]] = []
        self.halted = False
        self.instructions_retired = 0
        load_program(program, self.memory, self.state)
        #: one compiled step per text slot, filled on first fetch
        self._steps: List[Optional[Step]] = \
            [None] * len(program.instructions)

    # ------------------------------------------------------------------

    def step(self) -> CommittedInstr:
        """Execute one instruction and return its committed record.

        Raises:
            ExecutionError: on fetch outside text, bad memory access, or
                stepping a halted machine.
        """
        if self.halted:
            raise ExecutionError("machine is halted")
        state = self.state
        record = self._fetch(state.pc)(self.instructions_retired)
        state.pc = record.next_pc
        self.instructions_retired += 1
        return record

    def _fetch(self, pc: int) -> Step:
        """The compiled step at *pc*, compiled on its first fetch.

        Raises:
            ExecutionError: if *pc* is outside the text segment or
                misaligned (as :meth:`Program.instr_at`).
        """
        offset = pc - self.program.text_base
        steps = self._steps
        if offset % 4 or not 0 <= offset < 4 * len(steps):
            raise ExecutionError(f"instruction fetch outside text: {pc:#x}")
        index = offset >> 2
        step = steps[index]
        if step is None:
            step = steps[index] = self._compile(
                pc, self.program.instructions[index])
        return step

    def _syscall(self) -> None:
        service = self.state.read_reg(2)          # $v0
        arg = self.state.read_reg(4)              # $a0
        if service == 1:
            self.output.append(to_s32(arg))
        elif service == 11:
            self.output.append(chr(arg & 0xFF))
        elif service == 10:
            self.halted = True

    # ------------------------------------------------------------------

    def _compile(self, pc: int, instr: Instruction) -> Step:
        """Specialise *instr*, fetched at *pc*, into a step closure."""
        op = instr.op
        if instr.guard is not None or instr.scale is not None:
            return self._reference(pc, instr)
        regs = self.state.regs
        record = CommittedInstr
        npc = pc + 4
        dest = instr.dest()
        rs, rt, imm = instr.rs or 0, instr.rt or 0, instr.imm or 0

        def nop(seq: int) -> CommittedInstr:
            return record(seq, pc, instr, npc)

        if op is Op.HALT:
            def halt(seq: int) -> CommittedInstr:
                self.halted = True
                return record(seq, pc, instr, pc)
            return halt
        if op is Op.SYSCALL:
            def syscall(seq: int) -> CommittedInstr:
                self._syscall()
                return record(seq, pc, instr, pc if self.halted else npc)
            return syscall

        if op in _ALU3 or op in _ALUI or op in _SHIFTS or \
                op in _VAR_SHIFT or op is Op.LUI:
            if dest is None:
                return nop     # the result is discarded, nothing raises
            rd = dest
            if op in _ALU3:
                alu3 = _ALU3[op]

                def alu_rr(seq: int) -> CommittedInstr:
                    regs[rd] = alu3(regs[rs], regs[rt])
                    return record(seq, pc, instr, npc)
                return alu_rr
            if op in _ALUI:
                alui = _ALUI[op]

                def alu_ri(seq: int) -> CommittedInstr:
                    regs[rd] = alui(regs[rs], imm)
                    return record(seq, pc, instr, npc)
                return alu_ri
            if op in _SHIFTS:
                amount = imm & 0x1F

                def shift_i(seq: int) -> CommittedInstr:
                    regs[rd] = _shift(op, regs[rs], amount)
                    return record(seq, pc, instr, npc)
                return shift_i
            if op in _VAR_SHIFT:
                base = _VAR_SHIFT[op]

                def shift_v(seq: int) -> CommittedInstr:
                    regs[rd] = _shift(base, regs[rs], regs[rt] & 0x1F)
                    return record(seq, pc, instr, npc)
                return shift_v
            value = _lui(imm)

            def lui(seq: int) -> CommittedInstr:
                regs[rd] = value
                return record(seq, pc, instr, npc)
            return lui

        if op in _LOAD_SIZES:
            size, signed = _LOAD_SIZES[op]
            load = self.memory.load
            indexed = instr.format is Format.LOADX

            def load_step(seq: int) -> CommittedInstr:
                addr = (regs[rs] + (regs[rt] if indexed else imm)) & MASK32
                loaded = load(addr, size, signed)
                if dest is not None:
                    regs[dest] = loaded
                return record(seq, pc, instr, npc, False, addr, size)
            return load_step
        if op in _STORE_SIZES:
            size = _STORE_SIZES[op]
            store = self.memory.store
            indexed = instr.format is Format.STOREX
            src = (instr.rd or 0) if indexed else rt

            def store_step(seq: int) -> CommittedInstr:
                addr = (regs[rs] + (regs[rt] if indexed else imm)) & MASK32
                store(addr, regs[src], size)
                return record(seq, pc, instr, npc, False, addr, size, True)
            return store_step

        if op in _BRANCH:
            cond = _BRANCH[op]
            target, fall = to_u32(pc + imm), to_u32(npc)

            def branch(seq: int) -> CommittedInstr:
                # One-register forms ignore the second operand.
                if cond(regs[rs], regs[rt]):
                    return record(seq, pc, instr, target, True)
                return record(seq, pc, instr, fall)
            return branch
        if op is Op.J or op is Op.JAL:
            target = to_u32(imm)
            link = to_s32(npc)
            is_call = op is Op.JAL

            def jump(seq: int) -> CommittedInstr:
                if is_call:
                    regs[31] = link
                return record(seq, pc, instr, target, True)
            return jump
        if op is Op.JR or op is Op.JALR:
            link = to_s32(npc)

            def jump_reg(seq: int) -> CommittedInstr:
                target = regs[rs] & MASK32      # read before the link
                if dest is not None:
                    regs[dest] = link
                return record(seq, pc, instr, target, True)
            return jump_reg
        if op is Op.NOP:
            return nop
        return self._reference(pc, instr)

    def _reference(self, pc: int, instr: Instruction) -> Step:
        """A step that applies :func:`evaluate`: annotated instructions,
        and opcodes with no semantics (which raise when executed)."""
        state, memory = self.state, self.memory

        def reference(seq: int) -> CommittedInstr:
            effect = evaluate(instr, state.read_reg)
            mem_addr: Optional[int] = None
            mem_size = 0
            is_store = False
            value = effect.value
            if effect.mem is not None:
                mem = effect.mem
                mem_addr, mem_size, is_store = mem.addr, mem.size, \
                    mem.is_store
                if mem.is_store:
                    memory.store(mem.addr, mem.store_value, mem.size)
                else:
                    value = memory.load(mem.addr, mem.size, mem.signed)
            if effect.dest is not None:
                assert value is not None
                state.write_reg(effect.dest, value)
            if instr.op is Op.SYSCALL:
                self._syscall()
            next_pc = pc + 4
            if effect.halt or self.halted:
                self.halted = True
                next_pc = pc
            elif effect.target is not None:
                next_pc = effect.target
            return CommittedInstr(seq, pc, instr, next_pc,
                                  effect.taken and effect.is_ctrl,
                                  mem_addr, mem_size, is_store)
        return reference

    # ------------------------------------------------------------------

    def run(self,
            max_instructions: int = DEFAULT_MAX_INSTRUCTIONS,
            collect: bool = True) -> CommittedTrace:
        """Run to halt (or the instruction limit) and return the trace.

        Raises:
            ExecutionError: if the program does not halt within
                *max_instructions* — almost always a workload bug, so it
                is loud rather than silent.
        """
        records: List[CommittedInstr] = []
        append = records.append
        step = self.step
        while not self.halted:
            if self.instructions_retired >= max_instructions:
                raise ExecutionError(
                    f"program did not halt within {max_instructions} "
                    f"instructions (pc={self.state.pc:#x})")
            record = step()
            if collect:
                append(record)
        return CommittedTrace(records, self.state, self.output)


def run_program(program: Program,
                max_instructions: int = DEFAULT_MAX_INSTRUCTIONS
                ) -> CommittedTrace:
    """Assemble-and-go convenience: execute *program* from a fresh
    machine and return its committed trace."""
    return Executor(program).run(max_instructions)


def execute_sequence(instrs: Iterable[Instruction], state: ArchState,
                     memory: Memory) -> None:
    """Execute a straight-line instruction sequence in order, mutating
    *state*'s registers and *memory* through :func:`evaluate`.

    Used by the optimization-equivalence tests: a trace segment replayed
    fully on-path must leave identical architectural state whether or
    not the fill unit transformed it. ``state.pc`` is never written:
    control-flow effects are ignored (the sequence itself encodes the
    path).
    """
    for instr in instrs:
        effect = evaluate(instr, state.read_reg)
        value = effect.value
        if effect.mem is not None:
            mem = effect.mem
            if mem.is_store:
                memory.store(mem.addr, mem.store_value, mem.size)
            else:
                value = memory.load(mem.addr, mem.size, mem.signed)
        if effect.dest is not None:
            assert value is not None
            state.write_reg(effect.dest, value)


__all__ = ["Executor", "run_program", "execute_sequence",
           "DEFAULT_MAX_INSTRUCTIONS"]
