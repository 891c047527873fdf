"""The repository's benchmark: host throughput of the simulator.

Usage, from the repository root::

    python3 perfbench/run.py                      # every workload, both runs
    python3 perfbench/run.py --workload suite-run --seed 3 --seconds 20 \\
        --trace 0

``--trace 0`` measures the end-to-end metrics with tracing off, in
host seconds calibrated against a host-speed probe (``calibrate.py``);
``--trace 1`` makes the separate traced run that gives the per-layer
metrics. Each measurement runs in fresh processes (``measure.py``),
which import ``repro`` from ``src/``. Metric names, units and
directions come from ``BENCHMARK.json``; ``README.md`` beside this
file says what each one means and which workload should move it.

The last line of standard output is one JSON object: ``correct``,
``attempted``, ``failed`` and ``metrics``. The exit code is 0 only
when every op matched its pinned output and every check held.
"""

from __future__ import annotations

import argparse
import json
import os
from pathlib import Path
import signal
import statistics
import subprocess
import sys
import time
from typing import Any, Dict, List, Optional, Tuple

from calibrate import calibrated

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
#: fresh set-ups per untraced run; ``setup_s`` is their median,
#: calibrated by the median host-speed probe taken after each.
SETUPS = 5
#: each measurement (one workload, traced or not) ends within this.
BUDGET_S = 170.0


class BenchError(Exception):
    """The benchmark itself could not run (not an op failure)."""


def child(args: List[str], deadline: float) -> Tuple[float, Dict[str, Any]]:
    """Run ``measure.py`` in a fresh process group; its spawn time and
    its JSON result. The whole group is killed on timeout."""
    env = dict(os.environ, PYTHONPATH=str(ROOT / "src"))
    spawned = time.perf_counter()
    proc = subprocess.Popen(
        [sys.executable, str(HERE / "measure.py"), *args], cwd=ROOT,
        env=env, stdout=subprocess.PIPE, text=True, start_new_session=True)
    try:
        out, _ = proc.communicate(
            timeout=max(1.0, deadline - time.perf_counter()))
    except subprocess.TimeoutExpired:
        os.killpg(proc.pid, signal.SIGKILL)
        proc.communicate()
        raise BenchError(f"measure.py {' '.join(args)} timed out")
    if proc.returncode != 0:
        raise BenchError(f"measure.py {' '.join(args)} exited "
                         f"{proc.returncode}")
    return spawned, json.loads(out.strip().splitlines()[-1])


def untraced(workload: str, seed: int, seconds: float,
             deadline: float) -> Dict[str, Any]:
    common = ["--workload", workload, "--seed", str(seed)]
    host_setups, probes = [], []
    for mode in ["setup"] * (SETUPS - 1) + ["run"]:
        spawned, out = child([*common, "--mode", mode, "--seconds",
                              str(seconds)], deadline)
        host_setups.append(out["first_op_at"] - spawned)
        probes.append(out["setup_probe"])
    setup_s = calibrated(statistics.median(host_setups),
                         statistics.median(probes))
    out["metrics"] = {"sim_kips": out["sim_kips"], "setup_s": setup_s,
                      "peak_rss_mb": out["peak_rss_mb"]}
    print(f"{workload}: {out['passes']} timed pass(es) in {seconds:g} s "
          f"(the last may be cut short); in host seconds: sim_kips "
          f"{out['sim_kips_host']:.4f}, set-up "
          + " ".join(f"{s:.3f}" for s in host_setups) + " s")
    if out["fig8"]:
        print_fig8(out["fig8"])
    return out


def print_fig8(gains: Dict[str, float]) -> None:
    print("  Figure 8, mean IPC gain of all four optimizations over the "
          "baseline on the paper-grid programs (simulated):")
    for latency, gain in gains.items():
        print(f"    fill latency {latency:>2}: {gain:5.1f}%")
    print('    paper: "slightly more than 18%"; fill latency impact '
          '"negligible" (EXPERIMENTS.md)')
    print("    The workloads are synthetic stand-ins with no "
          "real-hardware reference, so no error figure is claimed.")


def traced(workload: str, seed: int, deadline: float) -> Dict[str, Any]:
    _, out = child(["--workload", workload, "--seed", str(seed),
                    "--mode", "trace"], deadline)
    m = out["metrics"]
    print(f"{workload}: traced wall {out['traced_wall_s']:.3f} s, layer "
          f"self times {out['self_s_total']:.3f} s; replay hit ratio "
          f"{m['core.replay.hit_ratio']:.4f} of "
          f"{m['core.replay.visits']} visits")
    return out


def report(workload: str, out: Dict[str, Any],
           specs: List[Dict[str, str]]) -> Dict[str, Dict[str, Any]]:
    """Print every metric by name with its unit; the result entries."""
    attempted, failed = out["attempted"], len(out["errors"])
    for message in (out["errors"] + out["checks"])[:20]:
        print(f"  FAILED {message}")
    metrics = {}
    for spec in specs:
        value = out["metrics"][spec["name"]]
        better = spec.get("better")
        hint = f" ({better} is better)" if better else ""
        print(f"  {workload:14s} {spec['name']:44s} {value:14.6g} "
              f"{spec['unit']}{hint}")
        metrics[spec["name"]] = {"value": value, "unit": spec["unit"]}
    print(f"  {workload:14s} {'error_rate':44s} {failed / attempted:14.6g} "
          f"ratio (lower is better) of {attempted} attempted ops")
    return metrics


def main(argv: Optional[List[str]] = None) -> int:
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    names = [w["name"] for w in spec["workloads"]]
    parser = argparse.ArgumentParser(
        description=__doc__, formatter_class=argparse.RawTextHelpFormatter)
    parser.add_argument("--workload", choices=names + ["all"],
                        default="all")
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float,
                        default=spec["run_seconds"])
    parser.add_argument("--trace", choices=("0", "1", "both"),
                        default="both")
    args = parser.parse_args(argv)
    if not (ROOT / "src" / "repro" / "__init__.py").is_file():
        print("perfbench: no simulator source at src/repro; run from a "
              "checkout of the repository", file=sys.stderr)
        return 2
    modes = ("0", "1") if args.trace == "both" else (args.trace,)
    workloads = names if args.workload == "all" else [args.workload]
    result: Dict[str, Any] = {"correct": True, "attempted": 0,
                              "failed": 0, "metrics": {}}
    try:
        for workload in workloads:
            for mode in modes:
                deadline = time.perf_counter() + BUDGET_S
                if mode == "0":
                    out = untraced(workload, args.seed, args.seconds,
                                   deadline)
                    specs = spec["end_to_end"]
                else:
                    out = traced(workload, args.seed, deadline)
                    specs = spec["per_layer"]
                metrics = report(workload, out, specs)
                prefix = "" if len(workloads) * len(modes) == 1 \
                    else f"{workload}/"
                result["metrics"].update(
                    {prefix + k: v for k, v in metrics.items()})
                result["attempted"] += out["attempted"]
                result["failed"] += len(out["errors"])
                result["correct"] &= not (out["errors"] or out["checks"])
    except BenchError as exc:
        print(f"perfbench: {exc}", file=sys.stderr)
        return 1
    print(json.dumps(result))
    return 0 if result["correct"] else 1


if __name__ == "__main__":
    sys.exit(main())
