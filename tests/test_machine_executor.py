"""Functional executor tests."""

import pytest

from repro import workloads
from repro.errors import ExecutionError
from repro.asm import assemble
from repro.isa.instruction import (GuardAnnotation, Instruction,
                                   ScaleAnnotation)
from repro.isa.opcodes import Format, Op, op_info
from repro.isa.semantics import evaluate, to_s32
from repro.machine import ArchState, Executor, Memory, run_program
from repro.machine.executor import execute_sequence
from repro.program.image import Program
from repro.program.loader import load_program
from tests.helpers import run_asm


def test_arithmetic_program():
    _, trace = run_asm("""
    main:
        li   $t0, 6
        li   $t1, 7
        mult $t2, $t0, $t1
        move $a0, $t2
        li   $v0, 1
        syscall
        halt
    """)
    assert trace.output == [42]


def test_loop_sum():
    _, trace = run_asm("""
    main:
        li   $t0, 10
        move $t1, $zero
    loop:
        add  $t1, $t1, $t0
        addi $t0, $t0, -1
        bgtz $t0, loop
        move $a0, $t1
        li   $v0, 1
        syscall
        halt
    """)
    assert trace.output == [55]


def test_memory_program():
    _, trace = run_asm("""
        .data
    arr: .word 3, 1, 4, 1, 5
        .text
    main:
        la   $s0, arr
        li   $t0, 5
        move $t1, $zero
    loop:
        lw   $t2, 0($s0)
        add  $t1, $t1, $t2
        addi $s0, $s0, 4
        addi $t0, $t0, -1
        bgtz $t0, loop
        move $a0, $t1
        li   $v0, 1
        syscall
        halt
    """)
    assert trace.output == [14]


def test_call_and_return():
    _, trace = run_asm("""
    main:
        li   $a0, 5
        jal  double
        move $a0, $v0
        li   $v0, 1
        syscall
        halt
    double:
        add  $v0, $a0, $a0
        ret
    """)
    assert trace.output == [10]


def test_recursion():
    _, trace = run_asm("""
    main:
        li   $a0, 6
        jal  fact
        move $a0, $v0
        li   $v0, 1
        syscall
        halt
    fact:
        blez $a0, base
        addi $sp, $sp, -8
        sw   $ra, 0($sp)
        sw   $a0, 4($sp)
        addi $a0, $a0, -1
        jal  fact
        lw   $t0, 4($sp)
        mult $v0, $v0, $t0
        lw   $ra, 0($sp)
        addi $sp, $sp, 8
        ret
    base:
        li   $v0, 1
        ret
    """)
    assert trace.output == [720]


def test_trace_records_control_flow():
    _, trace = run_asm("""
    main:
        li   $t0, 2
    loop:
        addi $t0, $t0, -1
        bgtz $t0, loop
        halt
    """)
    branches = [r for r in trace if r.instr.is_cond_branch()]
    assert [r.taken for r in branches] == [True, False]
    taken = branches[0]
    assert taken.next_pc != taken.pc + 4


def test_trace_records_memory():
    _, trace = run_asm("""
        .data
    v: .word 9
        .text
    main:
        la  $t0, v
        lw  $t1, 0($t0)
        sw  $t1, 4($t0)
        halt
    """)
    loads = [r for r in trace if r.instr.is_load()]
    stores = [r for r in trace if r.instr.is_store()]
    assert len(loads) == 1 and len(stores) == 1
    assert stores[0].mem_addr == loads[0].mem_addr + 4
    assert stores[0].is_store and not loads[0].is_store


def test_syscall_print_char():
    _, trace = run_asm("""
    main:
        li $v0, 11
        li $a0, 65
        syscall
        halt
    """)
    assert trace.output == ["A"]


def test_syscall_exit():
    _, trace = run_asm("""
    main:
        li $v0, 10
        syscall
        nop
        halt
    """)
    # exits at the syscall; the nop/halt never retire
    assert trace[-1].instr.op.value == "syscall"


def test_runaway_program_raises():
    prog = assemble("loop: j loop\n")
    with pytest.raises(ExecutionError) as err:
        Executor(prog).run(max_instructions=1000)
    assert "did not halt" in str(err.value)


def test_stepping_halted_machine_raises():
    prog = assemble("halt\n")
    ex = Executor(prog)
    ex.step()
    assert ex.halted
    with pytest.raises(ExecutionError):
        ex.step()


def test_fetch_outside_text_raises():
    prog = assemble("jr $t0\n")  # t0 = 0: jumps to unmapped address
    ex = Executor(prog)
    ex.step()
    with pytest.raises(ExecutionError):
        ex.step()


def test_loader_initializes_sp_gp_pc():
    prog = assemble(".data\nx: .word 1\n.text\nmain: halt\n")
    ex = Executor(prog)
    assert ex.state.pc == prog.entry
    assert ex.state.read_reg(29) > 0
    assert ex.state.read_reg(28) == prog.data_base


def test_r0_stays_zero():
    _, trace = run_asm("""
    main:
        addi $zero, $zero, 55
        move $a0, $zero
        li   $v0, 1
        syscall
        halt
    """)
    assert trace.output == [0]


def test_run_program_convenience():
    prog = assemble("main: halt\n")
    trace = run_program(prog)
    assert len(trace) == 1


def test_execute_sequence_straight_line():
    prog = assemble("""
        addi $t0, $zero, 4
        sll  $t1, $t0, 2
        add  $t2, $t1, $t0
        halt
    """)
    state, mem = ArchState(), Memory()
    execute_sequence(prog.instructions[:3], state, mem)
    assert state.read_reg(10) == 20
    assert state.pc == 0        # execute_sequence never writes the PC


def test_dynamic_op_mix():
    _, trace = run_asm("""
    main:
        lw   $t0, 0($sp)
        sw   $t0, 4($sp)
        add  $t1, $t0, $t0
        halt
    """)
    mix = trace.dynamic_op_mix()
    assert mix["load"] == 1 and mix["store"] == 1
    assert trace.conditional_branch_count() == 0


# ----------------------------------------------------------------------
# Compiled steps against the evaluate reference
# ----------------------------------------------------------------------

def _reference_step(instr, pc, state, memory, output):
    """Apply :func:`evaluate` to one instruction, as the executor did
    before it compiled instructions. Returns the record fields after
    ``seq``/``pc`` and whether the machine halted."""
    effect = evaluate(instr, state.read_reg)
    value, mem = effect.value, effect.mem
    if mem is not None:
        if mem.is_store:
            memory.store(mem.addr, mem.store_value, mem.size)
        else:
            value = memory.load(mem.addr, mem.size, mem.signed)
    if effect.dest is not None:
        state.write_reg(effect.dest, value)
    halted = effect.halt
    if instr.op is Op.SYSCALL:
        service, arg = state.read_reg(2), state.read_reg(4)
        if service == 1:
            output.append(to_s32(arg))
        elif service == 11:
            output.append(chr(arg & 0xFF))
        halted = service == 10
    next_pc = pc if halted else effect.target if effect.is_ctrl \
        else pc + 4
    row = (next_pc, effect.taken and effect.is_ctrl,
           mem.addr if mem else None, mem.size if mem else 0,
           bool(mem and mem.is_store))
    return row, halted


def _reference_run(program):
    state, memory, output = ArchState(), Memory(), []
    load_program(program, memory, state)
    rows, halted = [], False
    while not halted:
        pc = state.pc
        row, halted = _reference_step(program.instr_at(pc), pc, state,
                                      memory, output)
        state.pc = row[0]
        rows.append((len(rows), pc) + row)
    return rows, state, output


INT_MIN, INT_MAX = -2 ** 31, 2 ** 31 - 1
EDGES = (INT_MIN, -1, 0, 1, INT_MAX)
T0, T1, T2 = 8, 9, 10
DATA = 0x2000
#: bytes 0xff 0xf0 0x81 0x80, 0x7f 0x01 0x00 0x80: sign bits set and
#: clear in every byte and halfword position
WORDS = {DATA: to_s32(0x8081F0FF), DATA + 4: to_s32(0x8000017F)}


def _operand_cases(op):
    """``(instruction fields, register values)`` pairs covering *op*'s
    edge cases."""
    fmt = op_info(op).format
    if fmt is Format.R3:
        values = EDGES + (31, 32)
        cases = [(dict(rd=T2, rs=T0, rt=T1), {T0: a, T1: b})
                 for a in values for b in values]
        return cases + [(dict(rd=0, rs=T0, rt=T1), {T0: 5, T1: 7}),
                        (dict(rd=T0, rs=T0, rt=T0), {T0: INT_MIN})]
    if fmt is Format.R2I:
        return [(dict(rd=T2, rs=T0, imm=imm), {T0: a}) for a in EDGES
                for imm in (-32768, -1, 0, 1, 32767)] \
            + [(dict(rd=0, rs=T0, imm=3), {T0: 1})]
    if fmt is Format.SHIFT:
        return [(dict(rd=T2, rs=T0, imm=imm), {T0: a}) for a in EDGES
                for imm in (0, 1, 31)]
    if fmt is Format.LUI:
        return [(dict(rd=T2, imm=imm), {})
                for imm in (0, 1, -1, 0x7FFF, -32768)]
    # Memory forms try every byte offset, aligned or not.
    if fmt in (Format.LOAD, Format.STORE):
        reg = dict(rd=T2) if fmt is Format.LOAD else dict(rt=T1)
        cases = [(dict(reg, rs=T0, imm=imm), {T0: DATA, T1: value})
                 for imm in range(8) for value in (INT_MIN, -1)]
        if fmt is Format.LOAD:      # $zero loads still access memory
            cases += [(dict(rd=0, rs=T0, imm=imm), {T0: DATA})
                      for imm in (1, 4)]
        return cases + [(dict(reg, rs=T0, imm=-4), {T0: DATA + 4})]
    if fmt in (Format.LOADX, Format.STOREX):
        return [(dict(rd=T2, rs=T0, rt=T1), {T0: DATA, T1: off, T2: -1})
                for off in range(8)]
    if fmt is Format.BR2:
        return [(dict(rs=T0, rt=T1, imm=imm), {T0: a, T1: b})
                for a in EDGES for b in (INT_MIN, 0, INT_MAX)
                for imm in (4, -8)]
    if fmt is Format.BR1:
        return [(dict(rs=T0, imm=imm), {T0: a})
                for a in EDGES for imm in (4, 16)]
    if fmt is Format.J:
        return [(dict(imm=0x1040), {})]
    if fmt is Format.JR:
        return [(dict(rs=T0), {T0: a}) for a in (0x1040, -4)]
    if fmt is Format.JALR:
        return [(dict(rd=rd, rs=T0), {T0: 0x1040}) for rd in (31, 0, T0)]
    if op is Op.SYSCALL:
        return [({}, {2: service, 4: arg}) for service in (1, 5, 10, 11)
                for arg in (INT_MIN, -1, 65)]
    return [({}, {})]


#: the multi-byte accesses' sizes: they raise at a misaligned address
MULTIBYTE = {Op.LW: 4, Op.LH: 2, Op.LHU: 2, Op.SW: 4, Op.SH: 2,
             Op.LWX: 4, Op.SWX: 4}


def _both(op, fields, regs, annotations=None):
    """Run one instruction through a compiled step and through the
    evaluate reference; return both outcomes."""
    outcomes = []
    for compiled in (True, False):
        instr = Instruction(op, **fields, **(annotations or {}))
        program = Program([instr])
        ex = Executor(program)
        for reg, value in regs.items():
            ex.state.write_reg(reg, value)
        for addr, word in WORDS.items():
            ex.memory.store_word(addr, word)
        try:
            if compiled:
                record = ex.step()
                row = (record.next_pc, record.taken, record.mem_addr,
                       record.mem_size, record.is_store)
                halted = ex.halted
            else:
                row, halted = _reference_step(instr, ex.state.pc,
                                              ex.state, ex.memory,
                                              ex.output)
                ex.state.pc = row[0]
        except ExecutionError as err:
            outcomes.append(("raised", str(err)))
            continue
        outcomes.append((row, halted, ex.state.copy(),
                         ex.memory.snapshot(), list(ex.output)))
    return outcomes


@pytest.mark.parametrize("op", list(Op), ids=lambda op: op.name)
def test_compiled_step_matches_evaluate(op):
    errors = set()
    for fields, regs in _operand_cases(op):
        compiled, reference = _both(op, fields, regs)
        assert compiled == reference, (fields, regs)
        if compiled[0] == "raised":
            errors.add(compiled[1].split(" access")[0])
    size = MULTIBYTE.get(op)
    assert errors == ({f"misaligned {size}-byte"} if size else set())


def test_taken_branch_to_fallthrough_is_taken():
    ex = Executor(Program([Instruction(Op.BEQ, rs=0, rt=0, imm=4)]))
    record = ex.step()
    assert record.taken and record.next_pc == record.pc + 4


@pytest.mark.parametrize("annotations", [
    dict(scale=ScaleAnnotation(T1, 2)),
    dict(guard=GuardAnnotation(T1, True)),
    dict(guard=GuardAnnotation(T1, False)),
], ids=["scale", "guard-active", "guard-inactive"])
def test_annotated_instructions_apply_evaluate(annotations):
    for op, fields in ((Op.ADD, dict(rd=T2, rs=T0, rt=T0)),
                       (Op.ADDI, dict(rd=T2, rs=T0, imm=3)),
                       (Op.LW, dict(rd=T2, rs=T0, imm=0))):
        compiled, reference = _both(op, fields,
                                    {T0: DATA, T1: 0, T2: 77},
                                    annotations)
        assert compiled[0] != "raised" and compiled == reference


def test_every_workload_trace_matches_evaluate_reference():
    for name in workloads.names():
        program = workloads.build(name, scale=0.1)
        trace = Executor(program).run()
        rows, state, output = _reference_run(program)
        assert [(r.seq, r.pc, r.next_pc, r.taken, r.mem_addr, r.mem_size,
                 r.is_store) for r in trace] == rows, name
        assert trace.final_state == state, name
        assert trace.output == output, name
