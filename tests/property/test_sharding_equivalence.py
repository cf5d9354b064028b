"""Hypothesis property: sharding and packing never change verdicts.

Fault simulation is per-fault independent, so three pipelines must
classify every fault identically on any circuit and sequence:

1. the serial three-valued engine,
2. the word-parallel engine at any ``pack_width`` (including the
   degenerate width 1 and widths that do not divide the fault count),
3. the shard fabric's inline mode (``workers=0``), which exercises the
   full shard/merge path — planning, ``run_shard``, payload
   serialization, deterministic merge — without process overhead.

A multiprocess pool is the same code path plus pickling, covered by
the integration tests in ``tests/runtime/test_fabric.py``.
"""

import random as random_module

import pytest
from hypothesis import given, settings, strategies as st

from repro.circuit.compile import compile_circuit
from repro.engines.parallel_fault_sim import fault_simulate_3v_parallel
from repro.engines.serial_fault_sim import fault_simulate_3v
from repro.faults.collapse import collapse_faults
from repro.faults.status import FaultSet
from repro.runtime.fabric import run_sharded_campaign
from repro.runtime.ladder import THREE_VALUED_RUNG, DegradationLadder
from tests.util import random_circuit


@st.composite
def circuit_and_sequence(draw, length=6, max_dffs=3, max_gates=12):
    seed = draw(st.integers(0, 10_000))
    num_pis = draw(st.integers(1, 3))
    num_dffs = draw(st.integers(1, max_dffs))
    num_gates = draw(st.integers(3, max_gates))
    num_pos = draw(st.integers(1, 2))
    compiled = compile_circuit(
        random_circuit(
            seed,
            num_pis=num_pis,
            num_dffs=num_dffs,
            num_gates=num_gates,
            num_pos=num_pos,
        )
    )
    seq_seed = draw(st.integers(0, 10_000))
    rng = random_module.Random(seq_seed)
    sequence = [
        tuple(rng.randrange(2) for _ in compiled.pis)
        for _ in range(length)
    ]
    return compiled, sequence


def signature(fault_set):
    return [
        (r.fault.key(), r.status, r.detected_by, r.detected_at)
        for r in fault_set
    ]


@given(circuit_and_sequence(), st.sampled_from([1, 3, 8, 256]))
@settings(max_examples=25, deadline=None)
def test_packed_parallel_matches_serial(pair, pack_width):
    compiled, sequence = pair
    faults, _ = collapse_faults(compiled)

    serial = FaultSet(faults)
    fault_simulate_3v(compiled, sequence, serial)

    packed = FaultSet(faults)
    fault_simulate_3v_parallel(
        compiled, sequence, packed, pack_width=pack_width
    )
    assert signature(packed) == signature(serial)


@given(circuit_and_sequence(), st.integers(1, 7))
@settings(max_examples=15, deadline=None)
def test_fabric_sharding_matches_serial(pair, shard_size):
    compiled, sequence = pair
    faults, _ = collapse_faults(compiled)

    serial = FaultSet(faults)
    fault_simulate_3v(compiled, sequence, serial)

    # a pure-3v ladder keeps the comparison engine-for-engine; shard
    # sizes 1..7 rarely divide the fault count, covering ragged tails
    # and singleton shards
    sharded = FaultSet(faults)
    result = run_sharded_campaign(
        compiled, sequence, sharded,
        workers=0, shard_size=shard_size,
        ladder=DegradationLadder([THREE_VALUED_RUNG]),
        xred=False,
    )
    assert signature(sharded) == signature(serial)
    assert result.stopped == "completed"
    fabric = result.runtime_summary()["fabric"]
    assert fabric["shards_completed"] == fabric["shards_planned"]


@given(circuit_and_sequence(), st.integers(1, 5))
@settings(max_examples=10, deadline=None)
def test_pressure_settings_preserve_sharding_equivalence(pair, shard_size):
    """Serial vs sharded under identical memory budgets.

    Computed-table eviction is per-manager and semantics-preserving,
    so a cache-budgeted serial campaign and a cache-budgeted
    inline-sharded campaign must classify every fault identically
    (nothing surrenders here: the node limit is generous and no RSS
    budget is set).
    """
    from repro.runtime import ResourceGovernor, run_campaign

    compiled, sequence = pair
    faults, _ = collapse_faults(compiled)

    serial = FaultSet(faults)
    sharded = FaultSet(faults)
    serial_governor = ResourceGovernor(cache_budget=4)
    with pytest.MonkeyPatch.context() as patch:
        # check the cache budget on every node allocation
        patch.setattr("repro.runtime.governor._CLOCK_STRIDE", 1)
        serial_result = run_campaign(
            compiled, sequence, serial,
            node_limit=20_000, governor=serial_governor,
        )
        result = run_sharded_campaign(
            compiled, sequence, sharded,
            workers=0, shard_size=shard_size,
            node_limit=20_000, governor=ResourceGovernor(cache_budget=4),
        )
    assert signature(sharded) == signature(serial)
    assert result.stopped == "completed"
    if serial_governor.nodes_allocated > 16:
        # some random circuits finish on a handful of nodes and never
        # fill the table; any run that builds real BDDs must evict
        assert serial_result.pressure["cache_evictions"] > 0
        assert result.pressure["cache_evictions"] > 0
