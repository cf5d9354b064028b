"""Shard fabric: exactness, crash recovery, bisection, resume.

The fabric's core contract is that the worker count never changes a
result: the default plan (one shard) gives the single-process
campaign's verdicts, and a fixed explicit plan gives the same verdicts
inline and on any pool.  The failure-path tests use the deterministic
chaos hooks (``FabricConfig.chaos``) and the events observability hook
to kill real worker processes at precise moments.
"""

import json
import os
import signal

import pytest

from repro.circuit.compile import compile_circuit
from repro.circuits.registry import get_circuit
from repro.faults.collapse import collapse_faults
from repro.faults.status import QUARANTINED, FaultSet
from repro.runtime import ResourceGovernor, run_campaign
from repro.runtime.errors import CheckpointError
from repro.runtime.fabric import (
    FabricConfig,
    ShardFabric,
    load_fabric_checkpoint,
    plan_shards,
    resume_sharded_campaign,
    run_sharded_campaign,
    run_shard,
    shard_id_text,
)
from repro.runtime.fabric.sharding import Shard
from repro.sequences.random_seq import random_sequence_for


@pytest.fixture(scope="module")
def s27_setup():
    compiled = compile_circuit(get_circuit("s27"))
    sequence = random_sequence_for(compiled, 20, seed=7)
    return compiled, sequence


@pytest.fixture(scope="module")
def ctr8_setup():
    compiled = compile_circuit(get_circuit("ctr8"))
    sequence = random_sequence_for(compiled, 40, seed=7)
    return compiled, sequence


def fresh_faults(compiled):
    faults, _ = collapse_faults(compiled)
    return FaultSet(faults)


def signature(fault_set):
    return [
        (r.fault.key(), r.status, r.detected_by, r.detected_at)
        for r in fault_set
    ]


def baseline(compiled, sequence):
    fault_set = fresh_faults(compiled)
    run_campaign(compiled, sequence, fault_set)
    return signature(fault_set)


# ----------------------------------------------------------------------
# shard planning
# ----------------------------------------------------------------------
def test_shard_ids_sort_in_bisection_order():
    shard = Shard((3,), list(range(8)))
    low, high = shard.split()
    assert low.shard_id == (3, 0) and high.shard_id == (3, 1)
    assert low.indices + high.indices == shard.indices
    assert low.crashes == 0  # fresh counters for the halves
    assert sorted([(4,), (3, 1), (3,), (3, 0)]) == [
        (3,), (3, 0), (3, 1), (4,),
    ]
    assert shard_id_text((3, 1)) == "3.1"


def test_plan_shards_partitions_without_overlap():
    shards = plan_shards(list(range(10)), 4)
    assert [s.shard_id for s in shards] == [(0,), (1,), (2,)]
    assert [i for s in shards for i in s.indices] == list(range(10))


def test_plan_depends_only_on_indices_and_shard_size(s27_setup):
    live = list(range(3, 1003, 2))

    def layout(shard_size):
        return [(s.shard_id, s.indices) for s in plan_shards(live, shard_size)]

    # the default is one shard holding every live fault
    assert layout(None) == [((0,), live)]
    assert plan_shards([], None) == []
    # an explicit size is kept exactly, also above a pack width of 256
    assert [len(s) for s in plan_shards(live, 300)] == [300, 200]

    # the fabric plans the same shards whatever the pool size
    compiled, sequence = s27_setup
    for shard_size in (None, 5):
        plans = []
        for workers in (0, 1, 4):
            fabric = ShardFabric(
                compiled, sequence, fresh_faults(compiled),
                config=FabricConfig(workers=workers, shard_size=shard_size),
            )
            fabric._plan()
            plans.append([(s.shard_id, s.indices) for s in fabric._pending])
        assert plans[0] == plans[1] == plans[2]


# ----------------------------------------------------------------------
# exactness: pooled and inline runs match the single-process campaign
# ----------------------------------------------------------------------
@pytest.mark.parametrize("workers", [0, 1, 2])
def test_fabric_matches_single_process(s27_setup, workers):
    compiled, sequence = s27_setup
    expected = baseline(compiled, sequence)
    fault_set = fresh_faults(compiled)
    result = run_campaign(
        compiled, sequence, fault_set, workers=workers, shard_size=8
    )
    assert signature(fault_set) == expected
    assert result.stopped == "completed"
    fabric = result.runtime_summary()["fabric"]
    assert fabric["shards_completed"] == fabric["shards_planned"]


def test_fabric_matches_on_larger_circuit(ctr8_setup):
    compiled, sequence = ctr8_setup
    expected = baseline(compiled, sequence)
    fault_set = fresh_faults(compiled)
    result = run_campaign(compiled, sequence, fault_set, workers=2)
    assert signature(fault_set) == expected
    assert result.stopped == "completed"


# ----------------------------------------------------------------------
# overflow: the shard plan is part of the algorithm, the pool is not
# ----------------------------------------------------------------------
@pytest.fixture(scope="module")
def ctr16_overflow():
    """ctr16 at a 5k-node limit overflows within 20 frames."""
    compiled = compile_circuit(get_circuit("ctr16"))
    return compiled, random_sequence_for(compiled, 20, seed=1)


def overflow_run(setup, **kwargs):
    compiled, sequence = setup
    fault_set = fresh_faults(compiled)
    result = run_campaign(
        compiled, sequence, fault_set, node_limit=5000, **kwargs
    )
    return signature(fault_set), result


def test_default_plan_gives_serial_verdicts_on_overflow(ctr16_overflow):
    expected, serial = overflow_run(ctr16_overflow)
    assert serial.fallbacks > 0  # the group really overflows
    for workers in (0, 1, 2):
        got, result = overflow_run(ctr16_overflow, workers=workers)
        assert got == expected, f"workers={workers}"
        assert result.fallbacks > 0
        assert result.runtime_summary()["fabric"]["shards_planned"] == 1


def test_fixed_plan_gives_same_verdicts_on_any_pool(ctr16_overflow):
    signatures = {}
    for workers in (0, 1, 2):
        signatures[workers], result = overflow_run(
            ctr16_overflow, workers=workers, shard_size=8
        )
        assert result.fallbacks > 0
    assert signatures[0] == signatures[1] == signatures[2]


@pytest.mark.parametrize("workers", [0, 2])
def test_node_budget_holds_across_shards(workers):
    compiled = compile_circuit(get_circuit("ctr8"))
    sequence = random_sequence_for(compiled, 100, seed=1)
    result = run_campaign(
        compiled, sequence, fresh_faults(compiled),
        governor=ResourceGovernor(node_budget=20000),
        workers=workers, shard_size=16,
    )
    assert result.stopped == "nodes"
    assert result.budget["nodes_allocated"] <= 1.01 * 20000


def test_empty_shard_returns_canonical_payload(s27_setup):
    compiled, sequence = s27_setup
    faults = [r.fault for r in fresh_faults(compiled)]
    payload = run_shard(compiled, faults, sequence, [], {})
    assert payload["states"] == []
    assert payload["stopped"] == "completed"
    assert payload["nodes_allocated"] == 0


def test_indivisible_live_count_is_fully_covered(s27_setup):
    # 32 faults, shard_size 5: the tail shard is smaller, nothing lost
    compiled, sequence = s27_setup
    expected = baseline(compiled, sequence)
    fault_set = fresh_faults(compiled)
    run_campaign(compiled, sequence, fault_set, workers=2, shard_size=5)
    assert signature(fault_set) == expected


# ----------------------------------------------------------------------
# crash recovery
# ----------------------------------------------------------------------
def test_sigkill_mid_campaign_loses_no_detections(s27_setup):
    compiled, sequence = s27_setup
    expected = baseline(compiled, sequence)
    killed = []

    def events(event):
        if event["event"] == "dispatch" and not killed:
            killed.append(event["pid"])
            os.kill(event["pid"], signal.SIGKILL)

    fault_set = fresh_faults(compiled)
    config = FabricConfig(
        workers=2, shard_size=8, events=events, backoff_base=0.01
    )
    result = run_sharded_campaign(
        compiled, sequence, fault_set, config=config
    )
    fabric = result.runtime_summary()["fabric"]
    assert killed, "the events hook never saw a dispatch"
    assert fabric["retries"] >= 1
    assert fabric["respawns"] >= 1
    assert signature(fault_set) == expected


def test_poison_fault_is_bisected_and_quarantined(s27_setup):
    compiled, sequence = s27_setup
    expected = baseline(compiled, sequence)
    fault_set = fresh_faults(compiled)
    poison_index = 5
    poison = fault_set.records[poison_index].fault.key()
    config = FabricConfig(
        workers=2, shard_size=8, backoff_base=0.01,
        chaos={"crash_keys": [poison]},
    )
    result = run_sharded_campaign(
        compiled, sequence, fault_set, config=config
    )
    fabric = result.runtime_summary()["fabric"]
    assert fault_set.records[poison_index].status == QUARANTINED
    assert poison in result.quarantined
    assert fabric["bisections"] >= 1
    assert fabric["quarantined_by_crash"] == 1
    # every other fault still matches the single-process run
    got = signature(fault_set)
    for index, (want, have) in enumerate(zip(expected, got)):
        if index != poison_index:
            assert want == have
    assert not result.exact  # a quarantine makes the result conservative


def test_hung_worker_is_killed_via_heartbeat_timeout(s27_setup):
    compiled, sequence = s27_setup
    fault_set = fresh_faults(compiled)
    hang = fault_set.records[9].fault.key()
    config = FabricConfig(
        workers=2, shard_size=8, backoff_base=0.01,
        heartbeat_timeout=0.5, heartbeat_interval=0.01,
        chaos={"hang_keys": [hang], "hang_seconds": 120.0},
    )
    result = run_sharded_campaign(
        compiled, sequence, fault_set, config=config
    )
    fabric = result.runtime_summary()["fabric"]
    assert fabric["timeouts"] >= 1
    # a deterministic hang ends quarantined, like a deterministic crash
    assert fault_set.records[9].status == QUARANTINED
    assert result.stopped == "completed"


def test_crashed_shard_is_retried_with_backoff(s27_setup):
    # one crash (below max_retries=2) -> plain retry, no bisection
    compiled, sequence = s27_setup
    expected = baseline(compiled, sequence)
    killed = []

    def events(event):
        if event["event"] == "dispatch" and len(killed) < 1:
            killed.append(event["pid"])
            os.kill(event["pid"], signal.SIGKILL)

    fault_set = fresh_faults(compiled)
    config = FabricConfig(
        workers=1, shard_size=64, events=events,
        backoff_base=0.01, max_retries=3,
    )
    result = run_sharded_campaign(
        compiled, sequence, fault_set, config=config
    )
    fabric = result.runtime_summary()["fabric"]
    assert fabric["retries"] == 1
    assert fabric["bisections"] == 0
    assert signature(fault_set) == expected


def test_worker_error_message_requeues_the_shard(s27_setup, monkeypatch):
    # a Python-level exception in the worker (not a process death)
    # travels back as an "error" message and is handled like a crash
    compiled, sequence = s27_setup
    fault_set = fresh_faults(compiled)
    bad = fault_set.records[0].fault.key()

    import repro.runtime.fabric.worker as worker_mod

    original = worker_mod.run_shard

    def exploding(compiled, faults, sequence, indices, kwargs, **kw):
        if any(faults[i].key() == bad for i in indices):
            raise RuntimeError("injected shard failure")
        return original(compiled, faults, sequence, indices, kwargs, **kw)

    monkeypatch.setattr(worker_mod, "run_shard", exploding)
    # fork workers inherit the monkeypatched module
    config = FabricConfig(
        workers=1, shard_size=8, backoff_base=0.01,
        start_method="fork",
    )
    if "fork" not in __import__("multiprocessing").get_all_start_methods():
        pytest.skip("fork start method unavailable")
    result = run_sharded_campaign(
        compiled, sequence, fault_set, config=config
    )
    assert fault_set.records[0].status == QUARANTINED
    assert result.runtime_summary()["fabric"]["bisections"] >= 1


def test_cache_budget_evicts_in_shards_without_changing_verdicts(
    s27_setup, monkeypatch
):
    compiled, sequence = s27_setup
    expected = baseline(compiled, sequence)
    # check the cache budget on every node allocation
    monkeypatch.setattr("repro.runtime.governor._CLOCK_STRIDE", 1)
    fault_set = fresh_faults(compiled)
    result = run_sharded_campaign(
        compiled, sequence, fault_set, workers=0, shard_size=8,
        governor=ResourceGovernor(cache_budget=4),
    )
    assert result.stopped == "completed"
    assert result.pressure["cache_evictions"] > 0
    assert result.pressure["rss_surrenders"] == 0
    assert signature(fault_set) == expected


# ----------------------------------------------------------------------
# checkpoint / resume
# ----------------------------------------------------------------------
def test_fabric_checkpoint_roundtrip_and_resume(s27_setup, tmp_path):
    compiled, sequence = s27_setup
    expected = baseline(compiled, sequence)
    path = str(tmp_path / "fabric.ckpt")

    fault_set = fresh_faults(compiled)
    run_sharded_campaign(
        compiled, sequence, fault_set, workers=2, shard_size=8,
        checkpoint_path=path,
    )
    checkpoint = load_fabric_checkpoint(path)
    assert len(checkpoint.shards) == 4
    assert checkpoint.covered_indices() == set(range(32))

    # simulate a coordinator killed after three shards: drop the rest
    lines = open(path).read().splitlines(True)
    records = [json.loads(line) for line in lines]
    kept = [
        line
        for line, record in zip(lines, records)
        if record["type"] != "shard"
    ] + [
        line
        for line, record in zip(lines, records)
        if record["type"] == "shard"
    ][:3]
    with open(path, "w") as handle:
        handle.writelines(kept)

    resumed = fresh_faults(compiled)
    result = resume_sharded_campaign(
        path, compiled=compiled, fault_set=resumed
    )
    fabric = result.runtime_summary()["fabric"]
    assert fabric["resumed_shards"] == 3
    assert fabric["shards_completed"] == fabric["shards_planned"]
    assert signature(resumed) == expected


def test_fabric_resume_ignores_retired_pressure_keys(s27_setup, tmp_path):
    # shard summaries checkpointed before the in-engine pressure ladder
    # was retired carry its extra counters and event log under
    # "pressure"; the merge reads only the live counters
    compiled, sequence = s27_setup
    expected = baseline(compiled, sequence)
    path = str(tmp_path / "fabric.ckpt")
    run_sharded_campaign(
        compiled, sequence, fresh_faults(compiled), workers=0,
        shard_size=8, checkpoint_path=path,
        governor=ResourceGovernor(cache_budget=1 << 30),
    )
    legacy = {
        "events": 2, "cache_evictions": 1, "gc_runs": 1,
        "reorder_rescues": 0, "rss_surrenders": 0, "peak_rss": 7,
        "log": [{"trigger": "watermark", "action": "gc"}],
    }
    records = [json.loads(line) for line in open(path)]
    shards = [r for r in records if r["type"] == "shard"]
    assert [r["id"] for r in shards] == [[0], [1], [2], [3]]
    assert shards[0]["summary"]["pressure"] is not None
    for record in shards[1:3]:
        # crc-less records are accepted, so the edit needs no re-sealing
        del record["crc"]
        record["summary"]["pressure"] = legacy
    with open(path, "w") as handle:
        for record in records[:-1]:  # drop shard 3: it re-runs
            handle.write(json.dumps(record) + "\n")

    resumed = fresh_faults(compiled)
    result = resume_sharded_campaign(
        path, compiled=compiled, fault_set=resumed,
        governor=ResourceGovernor(cache_budget=1 << 30),
    )
    assert result.runtime_summary()["fabric"]["resumed_shards"] == 3
    assert signature(resumed) == expected
    assert set(result.pressure) == {
        "events", "cache_evictions", "rss_surrenders", "peak_rss",
    }
    assert result.pressure["events"] >= 2 * legacy["events"]
    assert result.pressure["cache_evictions"] >= 2
    assert result.pressure["peak_rss"] >= legacy["peak_rss"]


def test_fabric_resume_rejects_mismatched_faults(s27_setup, tmp_path):
    compiled, sequence = s27_setup
    path = str(tmp_path / "fabric.ckpt")
    fault_set = fresh_faults(compiled)
    run_sharded_campaign(
        compiled, sequence, fault_set, workers=0, checkpoint_path=path
    )
    wrong = fresh_faults(compiled)
    wrong.records = wrong.records[:-1]
    with pytest.raises(CheckpointError):
        resume_sharded_campaign(path, compiled=compiled, fault_set=wrong)


def test_load_fabric_checkpoint_requires_header(tmp_path):
    path = tmp_path / "bogus.ckpt"
    path.write_text('{"type": "shard", "id": [0]}\n')
    with pytest.raises(CheckpointError):
        load_fabric_checkpoint(str(path))


# ----------------------------------------------------------------------
# configuration and accounting
# ----------------------------------------------------------------------
def test_fabric_config_validation():
    with pytest.raises(ValueError):
        FabricConfig(workers=-1)
    with pytest.raises(ValueError):
        FabricConfig(max_retries=0)
    with pytest.raises(ValueError):
        FabricConfig(shard_size=0)


def test_fabric_accounting_in_runtime_summary(s27_setup):
    compiled, sequence = s27_setup
    fault_set = fresh_faults(compiled)
    result = run_campaign(compiled, sequence, fault_set, workers=2)
    summary = result.runtime_summary()
    fabric = summary["fabric"]
    for key in (
        "workers", "shards_planned", "shards_completed", "retries",
        "respawns", "bisections", "timeouts", "quarantined_by_crash",
        "resumed_shards",
    ):
        assert key in fabric
    # a single-process result carries no fabric block at all
    single = fresh_faults(compiled)
    plain = run_campaign(compiled, sequence, single)
    assert "fabric" not in plain.runtime_summary()
