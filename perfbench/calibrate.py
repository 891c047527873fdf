"""Host-speed calibration: a fixed pure-Python probe run between ops.

Shared hosts change speed by up to 1.6x for seconds to minutes at a
time, far more than the regressions the benchmark must catch. A host
time measured next to a probe is scaled by ``REF_SECONDS / probe``:
on a host that runs the probe in ``REF_SECONDS`` the calibrated value
equals the raw one, and on a host that is slower for a while both
slow down together, so their ratio holds.

The probe mixes the kinds of work the simulator does (dict counting,
object arithmetic with operator dispatch, sequence matching, and a
slotted-object pipeline model) so that contention slows it about as
much as it slows the simulator. It imports nothing from ``repro``: a
faster simulator must not make the probe faster.
"""

from __future__ import annotations

import difflib
from fractions import Fraction
import random
import time
from typing import Any, List

#: probe seconds on an uncontended core of the host the benchmark was
#: written on (a 2-vCPU Intel Xeon VM); the unit calibrated times are
#: expressed in.
REF_SECONDS = 0.04

_RNG = random.Random(1)
_SEQ_A = [_RNG.randrange(40) for _ in range(700)]
_SEQ_B = [_RNG.randrange(40) for _ in range(700)]


class _Slot:
    __slots__ = ("src", "dst", "ready")

    def __init__(self, src: int, dst: int) -> None:
        self.src = src
        self.dst = dst
        self.ready = 0


def _pipeline(steps: int) -> int:
    regs = [0] * 32
    table: dict = {}
    window: List[_Slot] = []
    for i in range(steps):
        slot = _Slot(i % 31, (i * 7) % 29)
        slot.ready = max(regs[slot.src], regs[slot.dst]) + (
            1 if i & 3 else 3)
        regs[(slot.src + slot.dst) & 31] = slot.ready
        entry = table.get((slot.src, slot.dst & 7))
        if entry is None:
            table[(slot.src, slot.dst & 7)] = [slot.ready, 1]
        else:
            entry[0] = max(entry[0], slot.ready)
            entry[1] += 1
        window.append(slot)
        if len(window) > 64:
            window.pop(0)
    return len(table)


def _work() -> Any:
    counts: dict = {}
    for i in range(40000):
        key = i & 2047
        counts[key] = counts.get(key, 0) + 1
    x = Fraction(1, 3)
    for i in range(1, 650):
        x = (x * Fraction(i % 7 + 1, i % 5 + 2) + Fraction(1, i)) % 97
    matcher = difflib.SequenceMatcher(None, _SEQ_A, _SEQ_B,
                                      autojunk=False)
    return (len(counts), x, len(matcher.get_opcodes()), _pipeline(5000))


def probe() -> float:
    """Wall seconds of one run of the fixed probe."""
    start = time.perf_counter()
    _work()
    return time.perf_counter() - start


def calibrated(seconds: float, probe_seconds: float) -> float:
    """*seconds* of host time expressed at the reference host speed."""
    return seconds * REF_SECONDS / probe_seconds
