"""Golden results: the simulator's full output, pinned cell by cell.

Every cell runs one machine over one committed trace and compares
three things against ``tests/data/golden_results.json``: the cycle
count, the committed instruction count and the sha256 of the
canonical JSON of the whole :class:`SimResult` (every counter, the
pass totals, optimization coverage and the flat telemetry snapshot).
Any change in simulated behaviour, however small, moves a digest.

The cells:

* every workload under the four paper machines (``SimConfig.tiny``,
  scale 0.2);
* compress and li under each replacement policy, with the program
  image passed so TRRIP's static hints install;
* two awkward kernels under the extended pass set: serializing
  syscalls inside the hot loop, and a predicated body that retires
  guard-false phantom records;
* the paper anchors, compress 16344 and li 13709 cycles at scale 0.5.

This module owns the table, its generator and the kernel cells. The
workload, policy and anchor cells are checked in
``tests/test_replay_equivalence.py``.

After a deliberate modelling change, regenerate the table with
``PYTHONPATH=src python -m tests.test_golden_results`` and name the
change in the commit that re-pins it.
"""

from __future__ import annotations

import dataclasses
import hashlib
import json
from pathlib import Path

import pytest

from repro import workloads
from repro.cache.policy import POLICY_NAMES
from repro.core.config import SimConfig
from repro.core.pipeline import PipelineModel
from repro.fillunit.opts.base import OptimizationConfig
from repro.machine import run_program
from tests.helpers import run_asm

GOLDEN = Path(__file__).parent / "data" / "golden_results.json"

#: the four paper machines: measured baseline, a single-optimization
#: machine, the combined paper configuration and the extended set.
PAPER_CONFIGS = {
    "baseline": OptimizationConfig.none,
    "moves": lambda: OptimizationConfig.only("moves"),
    "all": OptimizationConfig.all,
    "extended": OptimizationConfig.extended,
}

POLICY_BENCHES = ("compress", "li")

ANCHORS = {"compress": 16344, "li": 13709}

#: serializing syscalls inside the hot loop: every iteration retires
#: interrupt-adjacent records (SYSCALL both terminates segments and
#: serializes the pipeline).
SYSCALL_KERNEL = """
main:
    addi $t0, $zero, 40
    addi $v0, $zero, 1
loop:
    addi $a0, $t0, 0
    syscall
    addi $t0, $t0, -1
    bgtz $t0, loop
    halt
"""

#: a hard-to-predict short forward branch: under the extended pass set
#: its body runs predicated, retiring guard-false phantom records.
PHANTOM_KERNEL = """
main:
    addi $t0, $zero, 64
    addi $t1, $zero, 0
    addi $t2, $zero, 0
loop:
    andi $t3, $t0, 3
    beq  $t3, $zero, skip
    addi $t1, $t1, 1
skip:
    addi $t2, $t2, 1
    addi $t0, $t0, -1
    bgtz $t0, loop
    halt
"""

KERNELS = {"syscall": SYSCALL_KERNEL, "phantom": PHANTOM_KERNEL}

_TRACES: dict = {}


def _workload(name: str, scale: float):
    key = (name, scale)
    if key not in _TRACES:
        program = workloads.build(name, scale=scale)
        _TRACES[key] = (program, run_program(program))
    return _TRACES[key]


def _policy_config(policy: str) -> SimConfig:
    config = SimConfig.tiny(OptimizationConfig.all())
    return dataclasses.replace(
        config,
        trace_cache=dataclasses.replace(config.trace_cache,
                                        policy=policy),
        hierarchy=dataclasses.replace(config.hierarchy, policy=policy))


def run_cell(cell: str):
    """Simulate the golden cell named *cell*; returns its SimResult."""
    kind, _, rest = cell.partition("/")
    if kind == "kernel":
        _program, trace = run_asm(KERNELS[rest])
        config = SimConfig.tiny(OptimizationConfig.extended())
        return PipelineModel(config).run(trace, benchmark="kernel")
    bench, _, variant = rest.partition("/")
    if kind == "anchor":
        _program, trace = _workload(bench, 0.5)
        config = SimConfig.paper(OptimizationConfig.all())
        return PipelineModel(config).run(trace, benchmark=bench)
    program, trace = _workload(bench, 0.2)
    if kind == "policy":
        return PipelineModel(_policy_config(variant)).run(
            trace, benchmark=bench, program=program)
    config = SimConfig.tiny(PAPER_CONFIGS[variant]())
    return PipelineModel(config).run(trace, benchmark=bench)


def result_digest(result) -> str:
    """sha256 of the canonical JSON of *result*, without the run label
    and without the ``engine.replay.*`` scopes (host-side bookkeeping
    counters, not simulated behaviour)."""
    out = dataclasses.asdict(result)
    del out["config_label"]
    out["telemetry"] = {
        scope: value for scope, value in result.telemetry.items()
        if not scope.startswith("engine.replay.")}
    blob = json.dumps(out, sort_keys=True, separators=(",", ":"))
    return hashlib.sha256(blob.encode()).hexdigest()


def summarize(result) -> dict:
    return {"cycles": result.cycles,
            "instructions": result.instructions,
            "sha256": result_digest(result)}


def all_cells() -> list:
    cells = [f"paper/{bench}/{name}" for bench in workloads.names()
             for name in sorted(PAPER_CONFIGS)]
    cells += [f"policy/{bench}/{policy}" for bench in POLICY_BENCHES
              for policy in POLICY_NAMES]
    cells += [f"kernel/{name}" for name in KERNELS]
    cells += [f"anchor/{bench}" for bench in ANCHORS]
    return cells


@pytest.fixture(scope="module")
def golden() -> dict:
    return json.loads(GOLDEN.read_text())


def test_table_covers_every_cell(golden):
    assert sorted(golden) == sorted(all_cells())


@pytest.mark.parametrize("kernel", sorted(KERNELS))
def test_kernel(golden, kernel):
    cell = f"kernel/{kernel}"
    assert summarize(run_cell(cell)) == golden[cell]


if __name__ == "__main__":
    GOLDEN.parent.mkdir(exist_ok=True)
    table = {cell: summarize(run_cell(cell)) for cell in all_cells()}
    GOLDEN.write_text(json.dumps(table, indent=1, sort_keys=True) + "\n")
    print(f"wrote {len(table)} cells to {GOLDEN}")
