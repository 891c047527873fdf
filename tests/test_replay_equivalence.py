"""The stage loop reproduces the pinned golden results bit for bit.

Each golden cell in ``tests/data/golden_results.json`` was pinned while
the simulator still carried a segment-level timing memo, and the table
was checked to pass with the memo on and with it off. A pass here means
the per-instruction stage loop, now the only timing path, still yields
the result both of those machines agreed on: cycles, instructions and
the digest of the whole :class:`SimResult`.

The test names keep the ``memo`` wording of the on/off comparisons
they replace; the cells, helpers and table live in
``tests/test_golden_results.py``.
"""

from __future__ import annotations

import json

import pytest

from repro import workloads
from tests.test_golden_results import (
    ANCHORS,
    GOLDEN,
    PAPER_CONFIGS,
    POLICY_BENCHES,
    run_cell,
    summarize,
)


@pytest.fixture(scope="module")
def golden() -> dict:
    return json.loads(GOLDEN.read_text())


@pytest.mark.parametrize("config_name", sorted(PAPER_CONFIGS))
@pytest.mark.parametrize("bench", workloads.names())
def test_memo_bit_identical_every_workload(golden, bench, config_name):
    cell = f"paper/{bench}/{config_name}"
    assert summarize(run_cell(cell)) == golden[cell]


@pytest.mark.parametrize("bench,cycles", sorted(ANCHORS.items()))
def test_seed_cycles_preserved_with_memo(golden, bench, cycles):
    """The paper anchors at scale 0.5 on the paper machine."""
    cell = f"anchor/{bench}"
    summary = summarize(run_cell(cell))
    assert summary["cycles"] == cycles
    assert summary == golden[cell]


@pytest.mark.parametrize("policy", ["lru", "srrip", "trrip"])
@pytest.mark.parametrize("bench", POLICY_BENCHES)
def test_memo_bit_identical_under_every_policy(golden, bench, policy):
    """Replacement-policy metadata is timing state; every policy's
    cell must still match. The program is passed so TRRIP gets its
    static temperature hints."""
    cell = f"policy/{bench}/{policy}"
    assert summarize(run_cell(cell)) == golden[cell]
