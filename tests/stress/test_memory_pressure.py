"""Memory-pressure stress: blowup-prone circuits under tiny budgets.

These are the CI memory-stress scenarios: a campaign on an
order-hostile circuit with budgets far below anything sensible must
still complete, classify every fault, surface its relief work in the
accounting, and never detect a fault the unconstrained baseline does
not (eviction is semantics-preserving; surrender is conservative).
"""

from repro.circuit.compile import compile_circuit
from repro.circuits.generators import nlfsr
from repro.faults.collapse import collapse_faults
from repro.faults.status import FaultSet
from repro.runtime import ResourceGovernor, run_campaign
from repro.sequences.random_seq import random_sequence_for


def classified(fault_set):
    counts = fault_set.counts()
    return (
        counts["detected"]
        + counts["undetected"]
        + counts["x_redundant"]
        + counts.get("quarantined", 0)
    ) == counts["total"]


def detected_keys(fault_set):
    return {r.fault.key() for r in fault_set.detected()}


def test_tight_budgets_complete_and_stay_conservative():
    compiled = compile_circuit(nlfsr(9, seed=4))
    faults, _ = collapse_faults(compiled)
    sequence = random_sequence_for(compiled, 30, seed=5)

    baseline_set = FaultSet(faults)
    baseline = run_campaign(
        compiled, sequence, baseline_set, node_limit=200_000
    )
    assert baseline.stopped == "completed"

    pressured_set = FaultSet(faults)
    pressured = run_campaign(
        compiled, sequence, pressured_set,
        node_limit=3_000,
        governor=ResourceGovernor(cache_budget=128),
    )
    assert pressured.stopped == "completed"
    assert classified(pressured_set)
    accounting = pressured.pressure
    assert accounting is not None
    assert accounting["events"] > 0
    assert accounting["cache_evictions"] > 0
    assert pressured.gc_runs > 0  # the overflow protocol's GC
    assert pressured.runtime_summary()["pressure"] is accounting
    # conservatism: pressure can lose detections, never invent them
    assert detected_keys(pressured_set) <= detected_keys(baseline_set)


def test_hard_rss_surrender_degrades_through_the_ladder(monkeypatch):
    # a sampler stuck between the surrender threshold (0.9 of the
    # budget) and the budget forces every symbolic session that
    # allocates to surrender without stopping the run; a surrender is
    # evidence about the group, so the campaign must answer with
    # whole-group 3v fallbacks (never per-fault demotions) and finish.
    # Checking every 8 allocations makes the GC retry surrender too.
    monkeypatch.setattr("repro.runtime.governor._CLOCK_STRIDE", 8)
    compiled = compile_circuit(nlfsr(6, seed=2))
    faults, _ = collapse_faults(compiled)
    fault_set = FaultSet(faults)
    sequence = random_sequence_for(compiled, 12, seed=3)
    result = run_campaign(
        compiled, sequence, fault_set,
        node_limit=10_000,
        governor=ResourceGovernor(
            rss_budget=1_000_000, rss_sampler=lambda: 950_000,
        ),
    )
    assert result.stopped == "completed"
    assert classified(fault_set)
    assert result.pressure["rss_surrenders"] > 0
    assert result.demotions == 0
    assert result.fallbacks > 0
    assert not result.exact  # surrender is a degradation


def test_worker_rss_cap_recycles_and_completes():
    from repro.runtime.fabric import run_sharded_campaign

    compiled = compile_circuit(nlfsr(10, seed=6))
    faults, _ = collapse_faults(compiled)
    subset = FaultSet([f for f in faults][:2])
    sequence = random_sequence_for(compiled, 400, seed=7)
    # a 1-byte cap condemns every worker at its first heartbeat; the
    # retry -> bisect -> quarantine chain must terminate the campaign
    # instead of looping on respawns
    result = run_sharded_campaign(
        compiled, sequence, subset,
        workers=1, shard_size=2, max_retries=1,
        worker_rss_cap=1,
        heartbeat_timeout=30.0, shard_timeout=30.0,
    )
    fabric = result.runtime_summary()["fabric"]
    assert fabric["rss_recycles"] >= 1
    assert fabric["peak_worker_rss"] > 1
    assert result.stopped == "completed"
    assert subset.counts()["quarantined"] == 2
