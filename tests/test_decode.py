"""Decode records: agreement with the Instruction methods, the cache
contract, and a whole-run audit that no stage reads a stale record."""

from __future__ import annotations

import copy
from dataclasses import FrozenInstanceError, fields, replace
import pickle

import pytest

from repro import workloads
from repro.core.config import SimConfig
from repro.core.engine import Engine
from repro.core.stages.base import PipelineStage
from repro.fillunit.opts.base import OptimizationConfig
from repro.isa.decode import DecodeRecord, decode
from repro.isa.instruction import (GuardAnnotation, Instruction,
                                   ScaleAnnotation, move_source)
from repro.isa.opcodes import SCALED_ADD_TARGETS, Format, Op, OpClass
from repro.machine.executor import Executor

#: the operand fields each format uses
_FORMAT_FIELDS = {
    Format.R3: ("rd", "rs", "rt"),
    Format.R2I: ("rd", "rs", "imm"),
    Format.SHIFT: ("rd", "rs", "imm"),
    Format.LUI: ("rd", "imm"),
    Format.LOAD: ("rd", "rs", "imm"),
    Format.STORE: ("rt", "rs", "imm"),
    Format.LOADX: ("rd", "rs", "rt"),
    Format.STOREX: ("rd", "rs", "rt"),
    Format.BR2: ("rs", "rt", "imm"),
    Format.BR1: ("rs", "imm"),
    Format.J: ("imm",),
    Format.JR: ("rs",),
    Format.JALR: ("rd", "rs"),
    Format.NONE: (),
}

#: operand values: distinct registers, r0 in every role, the link
#: register (JR $ra is a return), and a zero immediate (moves).
_OPERAND_SETS = (
    {"rd": 8, "rs": 9, "rt": 10, "imm": 4},
    {"rd": 0, "rs": 0, "rt": 0, "imm": 4},
    {"rd": 31, "rs": 31, "rt": 31, "imm": 8},
    {"rd": 8, "rs": 9, "rt": 0, "imm": 0},
    {"rd": 8, "rs": 0, "rt": 10, "imm": 0},
)


def variants(op: Op) -> list:
    """*op* over every operand set, plain and with each fill-unit
    annotation that can apply to it."""
    out = []
    for operands in _OPERAND_SETS:
        used = _FORMAT_FIELDS[Instruction(op).format]
        plain = Instruction(op, pc=0x1000,
                            **{name: operands[name] for name in used})
        out.append(plain)
        if move_source(plain) is not None:
            out.append(replace(plain, move_flag=True))
        if op in SCALED_ADD_TARGETS:
            out.append(replace(plain, scale=ScaleAnnotation(11, 2)))
        # Predication guards single non-memory, non-control bodies
        # that write a register.
        if (plain.dest() is not None and not plain.is_mem()
                and not plain.is_ctrl()):
            for sense in (True, False):
                out.append(replace(plain,
                                   guard=GuardAnnotation(12, sense)))
    return out


def expected(instr: Instruction) -> dict:
    """Every record field, straight from the Instruction methods
    (memory instructions split their operands with ``mem_split()``,
    everything else waits on all of ``sources()``)."""
    if instr.is_mem():
        addr_regs, data_reg = instr.mem_split()
    else:
        addr_regs, data_reg = instr.sources(), None
    return {
        "nop": instr.opclass is OpClass.NOP,
        "load": instr.is_load(),
        "store": instr.is_store(),
        "cond_branch": instr.is_cond_branch(),
        "ctrl": instr.is_ctrl(),
        "call": instr.is_call(),
        "indirect": instr.is_indirect(),
        "returns": instr.is_return(),
        "serializing": instr.is_serializing(),
        "terminates": instr.terminates_segment(),
        "dest": instr.dest(),
        "sources": instr.sources(),
        "addr_sources": tuple(r for r in addr_regs if r not in (None, 0)),
        "data_source": data_reg if data_reg not in (None, 0) else None,
        "latency": instr.info.latency,
    }


@pytest.mark.parametrize("op", list(Op), ids=lambda op: op.value)
def test_decode_agrees_with_instruction_methods(op):
    for instr in variants(op):
        record = decode(instr)
        want = expected(instr)
        assert {f.name for f in fields(record)} == set(want)
        got = {name: getattr(record, name) for name in want}
        assert got == want, instr


def test_annotations_reach_the_record():
    sw = Instruction(Op.SW, rt=3, rs=29, imm=0)
    assert decode(sw).addr_sources == (29,)
    assert decode(sw).data_source == 3
    scaled = replace(sw, scale=ScaleAnnotation(7, 2))
    assert decode(scaled).addr_sources == (7,)
    move = Instruction(Op.ADDI, rd=4, rs=5, imm=0, move_flag=True)
    assert decode(move).sources == (5,)
    guarded = Instruction(Op.ADD, rd=4, rs=5, rt=6,
                          guard=GuardAnnotation(9, True))
    assert decode(guarded).sources == (5, 6, 9, 4)


def test_record_is_cached_and_immutable():
    instr = Instruction(Op.ADD, rd=3, rs=1, rt=2)
    record = instr.decoded
    assert instr.decoded is record
    assert record == decode(instr)
    with pytest.raises(FrozenInstanceError):
        record.dest = 5  # type: ignore[misc]


def test_copy_carries_no_record():
    instr = Instruction(Op.BEQ, rs=1, rt=0, imm=8)
    assert instr.decoded.cond_branch
    clone = instr.copy()
    assert "decoded" not in vars(clone)
    assert clone == instr
    # The copy is what a fill-unit pass rewrites; its record, built on
    # first read, describes the rewrite.
    clone.op = Op.NOP
    assert clone.decoded.nop and not clone.decoded.cond_branch
    assert instr.decoded.cond_branch


def test_decoded_instruction_copies_and_pickles():
    instr = Instruction(Op.LW, rd=3, rs=29, imm=4)
    record = instr.decoded
    for clone in (copy.deepcopy(instr), pickle.loads(pickle.dumps(instr))):
        assert clone == instr
        assert isinstance(clone.decoded, DecodeRecord)
        assert clone.decoded == record


class DecodeAudit(PipelineStage):
    """Observer: every record a stage read equals a fresh decode of
    its instruction, for the fetched copy and the architected one."""

    name = "decode-audit"

    def __init__(self) -> None:
        self.checked = 0

    def process(self, state, slot) -> None:
        entry = slot.entry
        assert entry.decoded == decode(entry.instr), entry.instr
        if entry.record is not None:
            arch = entry.record.instr
            assert arch.decoded == decode(arch), arch
        self.checked += 1


_STAGE_NAMES = ["fetch", "rename", "issue", "execute", "retire", "fill"]

_CONFIGS = {
    "all": SimConfig.paper(OptimizationConfig.all()),
    # CSE rewrites op, predication sets guard.
    "extended": SimConfig.paper(OptimizationConfig.extended()),
    "wrong-path": replace(SimConfig.paper(OptimizationConfig.all()),
                          model_wrong_path=True),
}


@pytest.mark.parametrize("label", sorted(_CONFIGS))
@pytest.mark.parametrize("bench", ["compress", "li"])
def test_no_stage_reads_a_stale_record(bench, label):
    program = workloads.build(bench, scale=0.2)
    trace = Executor(program).run()
    engine = Engine(_CONFIGS[label])
    assert [stage.name for stage in engine.stages] == _STAGE_NAMES
    audit = DecodeAudit()
    engine.stages.append(audit)
    result = engine.run(trace, bench, label, program=program)
    assert audit.checked == (result.instructions
                             + result.predication_phantoms)
    assert result.instructions == len(trace)
