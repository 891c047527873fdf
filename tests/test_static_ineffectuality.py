"""The ineffectuality oracle: static classification, the dynamic log,
the containment property, and timing neutrality of the observer."""

import pytest

from repro import workloads
from repro.analysis.static.cfg import build_cfg
from repro.analysis.static.dataflow import ReachingDefinitions, solve
from repro.analysis.static.ineffectuality import (
    MustUse,
    classify_ineffectuality,
    ineffectuality_sites,
)
from repro.analysis.static.interproc import interprocedural_analysis
from repro.analysis.static.valueflow import solve_valueflow
from repro.asm import assemble
from repro.core.config import SimConfig
from repro.core.engine import Engine
from repro.core.stages.ineff import IneffectualityLog, IneffectualityLogStage
from repro.errors import ConfigError
from repro.fillunit.opts.base import OptimizationConfig
from repro.harness.crosscheck import (
    IneffectualityCheck,
    collect_ineffectual_sites,
    ineffectuality_cross_check,
)
from repro.machine.executor import Executor, run_program

T0, T1 = 8, 9


def _sites(src):
    cfg = build_cfg(assemble(src))
    vf = solve_valueflow(cfg, cfg.program)
    return cfg, ineffectuality_sites(cfg, vf)


# -- static classification ----------------------------------------------

def test_overwritten_write_is_a_dead_candidate():
    cfg, sites = _sites("""
main:
    li   $t0, 1
    li   $t0, 2
    li   $v0, 1
    add  $a0, $t0, $zero
    syscall
    halt
""")
    first = cfg.program.symbols["main"]
    assert first in sites.dead_writes          # overwritten unread
    assert first + 4 not in sites.dead_writes  # read by the add


def test_must_used_write_is_excluded():
    cfg, sites = _sites("""
main:
    li   $t0, 7
    add  $t1, $t0, $t0
    li   $v0, 10
    syscall
    halt
""")
    assert cfg.program.symbols["main"] not in sites.dead_writes


def test_self_induction_is_not_predictable():
    # $t0 starts from the loader (ENTRY_DEF) and is only ever redefined
    # by the induction itself — the strict exclusion applies.
    cfg, sites = _sites("""
main:
loop:
    addi $t0, $t0, 1
    slti $t1, $t0, 50
    bne  $t1, $zero, loop
    halt
""")
    induction = next(i for i in cfg.program.instructions
                     if i.op.value == "addi"
                     and i.rd == T0 and i.rs == T0 and i.imm == 1)
    assert induction.pc not in sites.predictable
    # the comparison result (mostly 1, then 0) stays a candidate.
    slti = next(i for i in cfg.program.instructions
                if i.op.value == "slti")
    assert slti.pc in sites.predictable


def test_constant_producers_are_constants_and_predictable():
    cfg, sites = _sites("""
main:
    li   $t0, 123
    halt
""")
    pc = cfg.program.symbols["main"]
    assert pc in sites.constants
    assert pc in sites.predictable


def test_provably_not_silent_store_is_excluded():
    cfg, sites = _sites("""
main:
    li   $t0, 7
    sw   $t0, 0($sp)
    li   $t1, 9
    sw   $t1, 0($sp)
    halt
""")
    stores = [i for i in cfg.program.instructions
              if i.op.value == "sw"]
    # first store: slot holds the image value 0, stored value 7 —
    # provably different, excluded.
    assert stores[0].pc not in sites.silent_stores
    # second store: slot provably holds 7, stores 9 — also excluded.
    assert stores[1].pc not in sites.silent_stores


def test_possibly_silent_store_is_a_candidate():
    cfg, sites = _sites("""
main:
    li   $t0, 0
    sw   $t0, 0($sp)
    halt
""")
    store = next(i for i in cfg.program.instructions
                 if i.op.value == "sw")
    # stores 0 over the image's 0: genuinely silent, must be kept.
    assert store.pc in sites.silent_stores


def test_mustuse_syscall_keeps_only_its_own_reads():
    cfg = build_cfg(assemble("""
main:
    li   $v0, 1
    li   $a0, 5
    li   $t0, 9
    syscall
    add  $t1, $t0, $t0
    halt
"""))
    result = solve(cfg, MustUse())
    block = cfg.block_of(cfg.program.symbols["main"])
    before_syscall = result.instr_values(block.index)
    # at the write of $t0 (index 2), the value after the instruction
    # must not claim $t0 is surely read: the syscall may exit first.
    after_t0_write = before_syscall[2]
    assert not (after_t0_write >> T0) & 1
    assert (after_t0_write >> 2) & 1      # $v0 is read by the syscall


# -- the dynamic log -----------------------------------------------------

def _replay(src):
    program = assemble(src)
    trace = Executor(program).run()
    log = IneffectualityLog(program)
    for record in trace.records:
        log.observe(record)
    log.finish()
    return program, log


def test_dynamic_dead_write_detected():
    program, log = _replay("""
main:
    li   $t0, 1
    li   $t0, 2
    halt
""")
    assert program.symbols["main"] in log.sites["dead_write"]
    # end-of-run flush: the second write is never read either.
    assert program.symbols["main"] + 4 in log.sites["dead_write"]


def test_dynamic_silent_store_detected():
    program, log = _replay("""
main:
    li   $t0, 0
    sw   $t0, 0($sp)
    halt
""")
    store = next(i for i in program.instructions
                 if i.op.value == "sw")
    assert store.pc in log.sites["silent_store"]
    assert log.occurrences["silent_store"] == 1


def test_dynamic_predictable_value_detected():
    program, log = _replay("""
main:
    li   $t1, 0
loop:
    li   $t0, 7
    addi $t1, $t1, 1
    slti $t2, $t1, 3
    bne  $t2, $zero, loop
    halt
""")
    li7 = next(i for i in program.instructions
               if i.op.value == "addi" and i.imm == 7)
    assert li7.pc in log.sites["predictable"]
    induction = next(i for i in program.instructions
                     if i.op.value == "addi"
                     and i.rd == i.rs and i.imm == 1)
    assert induction.pc not in log.sites["predictable"]


# -- containment + the harness check ------------------------------------

@pytest.mark.parametrize("name", ["compress", "li"])
def test_containment_acceptance_workloads(name):
    program = workloads.build(name, 0.5)
    ia = interprocedural_analysis(program)
    trace = run_program(program)
    config = SimConfig.paper(OptimizationConfig.all())
    check = ineffectuality_cross_check(ia.ineff, trace, config,
                                       program, name)
    assert check.ok, check.render()
    check.ensure()                    # must not raise


def test_containment_all_workloads_small_scale():
    config = SimConfig.tiny()
    for name in workloads.names():
        program = workloads.build(name, 0.2)
        ia = interprocedural_analysis(program)
        trace = run_program(program)
        check = ineffectuality_cross_check(ia.ineff, trace, config,
                                           program, name)
        assert check.ok, f"{name}: {check.render()}"


def test_ensure_raises_on_violation():
    check = IneffectualityCheck(
        benchmark="x", config_label="all",
        static_counts={}, dynamic_counts={}, occurrences={})
    check.ensure()                    # no violations: fine
    from repro.harness.crosscheck import IneffViolation
    check.violations.append(IneffViolation(kind="dead_write", pc=0x1000))
    with pytest.raises(ConfigError):
        check.ensure()


def test_observer_is_timing_neutral():
    program = workloads.build("compress", 0.2)
    trace = run_program(program)
    for opts in (OptimizationConfig.none(), OptimizationConfig.all()):
        config = SimConfig.paper(opts)
        bare = Engine(config).run(trace, benchmark="compress",
                                  label="bare")
        result, _, _ = collect_ineffectual_sites(
            trace, config, program, "compress", "observed")
        assert result.cycles == bare.cycles
        assert result.instructions == bare.instructions


@pytest.mark.parametrize("name,golden", [("compress", 16344),
                                         ("li", 13709)])
def test_observer_preserves_golden_cycles(name, golden):
    # the seed's bit-for-bit cycle counts at the default scale, with
    # and without the ineffectuality log attached.
    program = workloads.build(name, 0.5)
    trace = run_program(program)
    config = SimConfig.paper(OptimizationConfig.all())
    bare = Engine(config).run(trace, benchmark=name, label="bare")
    assert bare.cycles == golden
    observed, _, _ = collect_ineffectual_sites(
        trace, config, program, name, "observed")
    assert observed.cycles == golden


def test_observer_stage_skips_phantoms():
    program = workloads.build("li", 0.2)
    trace = run_program(program)
    config = SimConfig.paper(OptimizationConfig.extended())
    model = Engine(config)
    stage = IneffectualityLogStage(program)
    model.stages.append(stage)
    model.run(trace, benchmark="li", label="phantoms")
    # the extended config introduces predicated phantoms; the log must
    # still exactly match a plain architectural replay.
    log = IneffectualityLog(program)
    for record in trace.records:
        log.observe(record)
    log.finish()
    assert stage.log.sites == log.sites
    assert stage.log.occurrences == log.occurrences


def test_interproc_candidates_never_looser_than_intra():
    # the interprocedural sets come from the refined graph: compare
    # against a run of the same classifier on the unrefined graph.
    for name in ("compress", "li", "vortex"):
        program = workloads.build(name, 0.2)
        cfg = build_cfg(program)
        vf = solve_valueflow(cfg, program)
        intra = ineffectuality_sites(cfg, vf)
        ia = interprocedural_analysis(program)
        for kind in ("dead_writes", "silent_stores", "predictable"):
            assert getattr(ia.ineff, kind) <= getattr(intra, kind), \
                (name, kind)


def test_refinement_strictly_tightens_candidates():
    # a branch the value flow decides prunes its dead arm, and the dead
    # arm's writes leave every candidate set — interprocedural sets are
    # strictly smaller than the unrefined run on the same program.
    program = assemble("""
main:
    li   $t0, 1
    beq  $t0, $zero, dead
    li   $v0, 10
    syscall
    halt
dead:
    li   $t1, 3
    li   $t1, 3
    halt
""")
    cfg = build_cfg(program)
    intra = ineffectuality_sites(cfg, solve_valueflow(cfg, program))
    ia = interprocedural_analysis(program)
    dead_pc = program.symbols["dead"]
    assert dead_pc in intra.dead_writes
    assert dead_pc not in ia.ineff.dead_writes
    assert ia.ineff.predictable < intra.predictable


def test_classify_skips_unreachable_pcs():
    program = assemble("""
main:
    li   $v0, 10
    syscall
    halt
orphan:
    li   $t0, 5
    li   $t0, 5
    halt
""")
    ia = interprocedural_analysis(program)
    orphan = program.symbols["orphan"]
    # the orphan block is value-flow unreachable: none of its writes
    # are candidates (they can never be observed).
    assert orphan not in ia.ineff.dead_writes
    assert orphan not in ia.ineff.predictable
    reaching = solve(ia.cfg, ReachingDefinitions())
    sites = classify_ineffectuality(ia.cfg, ia.valueflow, reaching)
    assert sites.dead_writes == ia.ineff.dead_writes
