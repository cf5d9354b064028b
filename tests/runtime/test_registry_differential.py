"""Registry-wide differential: campaign vs hybrid, budgets vs none.

For every registry circuit at the paper configuration (MOT, 30k-node
limit, all-X initial state, seed-1 random vectors):

* the campaign detects every fault the paper's hybrid simulator
  detects — the operational layers never cost coverage, and
* memory budgets that are never reached (an RSS budget of 1 TiB) or
  only evict (a tiny computed-table budget) leave the run unchanged:
  same detections (fault, strategy, frame), same fallbacks, GC runs
  and three-valued frames.

The tier-1 run uses 12 vectors; the CI memory-stress job calls
:func:`differential` on every circuit at 20.
"""

import pytest

from repro.circuit.compile import compile_circuit
from repro.circuits import registry
from repro.faults.collapse import collapse_faults
from repro.faults.status import FaultSet
from repro.runtime import ResourceGovernor, run_campaign
from repro.sequences.random_seq import random_sequence_for
from repro.symbolic.hybrid import hybrid_fault_simulate

NODE_LIMIT = 30_000
CACHE_BUDGET = 64


def signature(fault_set, result):
    detections = sorted(
        (str(r.fault.key()), r.detected_by, r.detected_at)
        for r in fault_set.detected()
    )
    return (
        detections,
        result.fallbacks,
        result.gc_runs,
        result.frames_three_valued,
    )


def differential(name, length):
    compiled = compile_circuit(registry.get_circuit(name))
    faults, _ = collapse_faults(compiled)
    sequence = random_sequence_for(compiled, length, seed=1)

    hybrid_set = FaultSet(faults)
    hybrid_fault_simulate(
        compiled, sequence, hybrid_set, node_limit=NODE_LIMIT
    )
    plain_set = FaultSet(faults)
    plain = run_campaign(
        compiled, sequence, plain_set, strategy="MOT",
        node_limit=NODE_LIMIT,
    )
    budgeted_set = FaultSet(faults)
    budgeted = run_campaign(
        compiled, sequence, budgeted_set, strategy="MOT",
        node_limit=NODE_LIMIT,
        governor=ResourceGovernor(
            rss_budget=1 << 40, cache_budget=CACHE_BUDGET
        ),
    )

    hybrid_keys = {r.fault.key() for r in hybrid_set.detected()}
    plain_keys = {r.fault.key() for r in plain_set.detected()}
    assert hybrid_keys <= plain_keys, (
        f"{name}: campaign misses {sorted(map(str, hybrid_keys - plain_keys))}"
    )
    assert signature(budgeted_set, budgeted) == signature(plain_set, plain)
    assert budgeted.pressure["rss_surrenders"] == 0


@pytest.mark.parametrize("name", registry.available())
def test_registry_differential(name):
    differential(name, 12)
