"""Rewrite ``pins.json`` from the simulator as it is now.

Usage, from the repository root::

    PYTHONPATH=src python3 perfbench/repin.py

Every op of every workload is simulated once and its cycles and
committed instructions are recorded. Re-pin only for a change that
names a modelling fix: the pins are how the benchmark proves that a
speed-up left every simulated result bit-for-bit alone.
"""

from __future__ import annotations

import json

import bench_workloads as bench
from tracer import NullRecorder


def main() -> None:
    pins = {}
    for name in ("suite-run", "tc16-policies", "paper-grid"):
        workload = bench.make_workload(name, 0, NullRecorder())
        result = workload.run_pass(NullRecorder(), {})
        raised = [op.error for op in result.ops
                  if op.error and "pinned" not in op.error]
        if raised:
            raise SystemExit("\n".join(raised))
        pins[name] = {op.key: [op.cycles, op.instructions]
                      for op in sorted(result.ops, key=lambda op: op.key)}
    # One op per line, so a re-pin diffs op by op.
    blocks = [f" {json.dumps(name)}: {{\n" + ",\n".join(
        f"  {json.dumps(key)}: {json.dumps(value)}"
        for key, value in ops.items()) + "\n }"
        for name, ops in sorted(pins.items())]
    with open(bench.PINS_PATH, "w") as handle:
        handle.write("{\n" + ",\n".join(blocks) + "\n}\n")


if __name__ == "__main__":
    main()
