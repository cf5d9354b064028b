"""Hypothesis property: memory relief never changes BDD semantics.

Computed-table eviction (the governor's ``cache_budget``) and
root-preserving GC (the overflow protocol's first step) are purely
spatial: any interleaving of them with ordinary BDD construction must
leave every root's truth table (checked via ``sat_count`` and point
evaluations) untouched.  Only a surrender may alter results, and it
reuses the conservative fallback paths tested elsewhere.
"""

import random as random_module

import pytest
from hypothesis import given, settings, strategies as st

from repro.bdd import BddManager
from repro.circuit.compile import compile_circuit
from repro.faults.collapse import collapse_faults
from repro.faults.status import FaultSet
from repro.runtime import ResourceGovernor, run_campaign
from tests.util import random_circuit

NUM_VARS = 6
CACHE_BUDGET = 4
NONTRIVIAL_NODES = 16


def build_roots(manager, seed, count=3, depth=8):
    """A few random expressions over the manager's variables."""
    rng = random_module.Random(seed)
    roots = []
    for _ in range(count):
        node = manager.mk_var(rng.randrange(NUM_VARS))
        for _ in range(depth):
            other = manager.mk_var(rng.randrange(NUM_VARS))
            op = rng.choice(
                (manager.and_, manager.or_, manager.xor, manager.xnor)
            )
            node = op(node, other)
            if rng.random() < 0.3:
                node = manager.not_(node)
        roots.append(node)
    return roots


@given(
    seed=st.integers(0, 10_000),
    actions=st.lists(
        st.sampled_from(["evict", "evict_half", "collect", "build"]),
        min_size=1, max_size=8,
    ),
)
@settings(max_examples=40, deadline=None)
def test_relief_interleavings_preserve_truth_tables(seed, actions):
    manager = BddManager(num_vars=NUM_VARS)
    roots = build_roots(manager, seed)
    expected = [manager.sat_count(r, range(NUM_VARS)) for r in roots]
    probe = {v: (seed >> v) & 1 for v in range(NUM_VARS)}
    expected_points = [manager.evaluate(r, probe) for r in roots]

    extra_seed = seed
    for action in actions:
        if action == "evict":
            manager.evict_cache(1.0)
        elif action == "evict_half":
            manager.evict_cache(0.5)
        elif action == "collect":
            _, roots = manager.collect(roots, return_roots=True)
        else:  # interleave fresh construction (dirties the cache)
            extra_seed += 1
            build_roots(manager, extra_seed, count=1)

    assert [
        manager.sat_count(r, range(NUM_VARS)) for r in roots
    ] == expected
    assert [manager.evaluate(r, probe) for r in roots] == expected_points


@given(seed=st.integers(0, 10_000))
@settings(max_examples=10, deadline=None)
def test_pressured_campaign_matches_unconstrained(seed):
    """End-to-end: constant eviction, identical classifications.

    The node limit is generous (no overflow, no surrender) while the
    cache budget is absurdly tight (and checked on every allocation), so eviction fires without any
    fault ever degrading — verdicts must be identical to a
    pressure-free run, and the result stays exact.
    """
    compiled = compile_circuit(random_circuit(seed))
    faults, _ = collapse_faults(compiled)
    rng = random_module.Random(seed + 1)
    sequence = [
        tuple(rng.randrange(2) for _ in compiled.pis) for _ in range(6)
    ]

    baseline_set = FaultSet(faults)
    baseline = run_campaign(
        compiled, sequence, baseline_set, node_limit=50_000
    )

    pressured_set = FaultSet(faults)
    governor = ResourceGovernor(cache_budget=CACHE_BUDGET)
    with pytest.MonkeyPatch.context() as patch:
        # check the cache budget on every node allocation
        patch.setattr("repro.runtime.governor._CLOCK_STRIDE", 1)
        pressured = run_campaign(
            compiled, sequence, pressured_set, node_limit=50_000,
            governor=governor,
        )

    def signature(fault_set):
        return [
            (r.fault.key(), r.status, r.detected_by, r.detected_at)
            for r in fault_set
        ]

    assert signature(pressured_set) == signature(baseline_set)
    assert pressured.exact == baseline.exact
    assert pressured.stopped == "completed"
    if governor.nodes_allocated > NONTRIVIAL_NODES:
        # some random circuits finish on a handful of nodes and never
        # fill the table; any run that builds real BDDs must evict
        assert pressured.pressure["cache_evictions"] > 0
