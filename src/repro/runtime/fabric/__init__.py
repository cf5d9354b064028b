"""Fault-tolerant multiprocess shard fabric.

Splits a campaign's fault universe into shards and runs them on a pool
of worker processes with heartbeat liveness monitoring, per-shard
timeouts, retry with exponential backoff, automatic respawn of crashed
workers, poison-shard bisection into quarantine, and crash-safe
deterministic result merging.  See :mod:`.coordinator` for the full
failure-handling contract.
"""

from repro.runtime.fabric.checkpoint import (
    FabricCheckpoint,
    FabricCheckpointWriter,
    load_fabric_checkpoint,
)
from repro.runtime.fabric.coordinator import (
    FabricConfig,
    ShardFabric,
    resume_sharded_campaign,
    run_sharded_campaign,
)
from repro.runtime.fabric.sharding import (
    Shard,
    plan_shards,
    shard_id_text,
)
from repro.runtime.fabric.worker import run_shard

__all__ = [
    "FabricCheckpoint",
    "FabricCheckpointWriter",
    "FabricConfig",
    "Shard",
    "ShardFabric",
    "load_fabric_checkpoint",
    "plan_shards",
    "resume_sharded_campaign",
    "run_shard",
    "run_sharded_campaign",
    "shard_id_text",
]
