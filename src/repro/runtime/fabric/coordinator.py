"""The shard-fabric coordinator: a fault-tolerant worker pool.

:class:`ShardFabric` splits a campaign's live fault universe into
shards (:mod:`.sharding`), runs them on a pool of worker processes
(:mod:`.worker`) and merges the per-fault verdicts back into the master
:class:`~repro.faults.status.FaultSet` deterministically (sorted by
shard id, never by completion order).  The shard plan depends on the
live faults and ``shard_size`` alone: the default is one shard holding
every live fault, the paper's single OBDD group, so the merged verdicts
equal the single-process campaign's.  An explicit ``shard_size`` splits
the group, which changes verdicts only on circuits that overflow the
node limit (see :mod:`.sharding`).  The worker count decides who
computes a shard, never what it computes.

Failure handling, from mildest to worst:

* **slow shard** — per-shard wall-clock timeout (``shard_timeout``);
  the worker is SIGKILLed and the shard handled as a crash,
* **hung worker** — heartbeat liveness: an explicit
  ``heartbeat_timeout`` if configured, else the default hang watchdog
  (``hang_grace`` missed intervals) distinguishes a stalled-but-alive
  process (counted in ``hangs``) from a dead one; same remedy,
* **crashed worker** (segfault-class death, OOM kill, chaos
  injection) — the shard is retried with exponential backoff plus
  jitter and a fresh worker is spawned into the vacant slot,
* **poison shard** — a shard that has killed its worker
  ``max_retries`` times is *bisected*; the halves retry independently,
  so the bisection tree isolates the offending fault in a singleton
  shard, which is then routed into the campaign's existing quarantine
  (status ``quarantined``) instead of looping forever,
* **dead pool** — if every freshly spawned worker dies before its
  first message, :class:`~repro.runtime.errors.WorkerCrashed` is
  raised rather than spinning.

The governor's budgets are apportioned: each dispatch hands the worker
the *remaining* wall-clock deadline and a share of the node budget
that is left (see :meth:`ShardFabric._task_opts`), so the shards
together stay within the budget.  Completed shards are absorbed into a
crash-safe checkpoint the moment they land, so a killed coordinator
resumes with partial progress (:func:`resume_sharded_campaign`).
``SIGINT`` and ``SIGTERM`` (both via
:class:`~repro.runtime.checkpoint.SignalGuard`) drain the pool
identically and gracefully: no new dispatches, in-flight shards
finish, a partial result is returned with ``stopped == "signal"``.
Workers ignore both signals themselves, so a signal delivered to the
whole process group (Ctrl-C in a terminal, ``systemctl stop``, a
container runtime's ``SIGTERM``) still drains cleanly instead of
killing workers mid-shard.
"""

import multiprocessing
import random
import time as _time
from multiprocessing.connection import wait as _connection_wait

from repro import failpoints as _failpoints
from repro.faults.status import (
    UNDETECTED,
    X_REDUNDANT,
    FaultSet,
    fault_key_from_json,
)
from repro.runtime.checkpoint import circuit_fingerprint, verify_fingerprint
from repro.runtime.errors import CheckpointError, WorkerCrashed
from repro.runtime.fabric.checkpoint import (
    FabricCheckpointWriter,
    load_fabric_checkpoint,
)
from repro.runtime.fabric.frames import FrameProtocolError, FrameReader
from repro.runtime.fabric.sharding import plan_shards, shard_id_text
from repro.runtime.fabric.worker import (
    WorkerPipes,
    _make_observability,
    run_task,
    task_governor,
    worker_main,
)
from repro.runtime.governor import ResourceGovernor
from repro.runtime.ladder import DegradationLadder

COMPLETED = "completed"

#: how long the event loop sleeps at most between bookkeeping passes
_POLL_INTERVAL = 0.25

#: the hang watchdog's grace window is ``hang_grace`` heartbeat
#: intervals, but never less than this: ``heartbeat_interval=0.0``
#: ("beat as fast as you can") must not collapse the window to zero
#: and declare every busy worker hung on the first bookkeeping pass
_HANG_WINDOW_FLOOR = 1.0


def _merge_pressure(merged, shard_pressure):
    """Fold one shard's memory-pressure accounting into the total.

    The counters are summed and ``peak_rss`` is the max over shards.
    Only these keys are read, so a shard summary restored from an older
    checkpoint (which may carry further keys) merges the same way.
    """
    if not shard_pressure:
        return merged
    if merged is None:
        merged = {
            "events": 0,
            "cache_evictions": 0,
            "rss_surrenders": 0,
            "peak_rss": 0,
        }
    for key in ("events", "cache_evictions", "rss_surrenders"):
        merged[key] += shard_pressure.get(key, 0)
    merged["peak_rss"] = max(
        merged["peak_rss"], shard_pressure.get("peak_rss") or 0
    )
    return merged


class FabricConfig:
    """Tuning knobs of the shard fabric (all with safe defaults)."""

    def __init__(
        self,
        workers=2,
        shard_size=None,
        shard_timeout=None,
        heartbeat_timeout=None,
        heartbeat_interval=0.05,
        hang_grace=200,
        max_retries=2,
        backoff_base=0.05,
        backoff_cap=2.0,
        backoff_jitter=0.5,
        start_method=None,
        seed=0,
        events=None,
        chaos=None,
        worker_rss_cap=None,
    ):
        if workers < 0:
            raise ValueError("workers must be >= 0 (0 = inline)")
        if max_retries < 1:
            raise ValueError("max_retries must be >= 1")
        if shard_size is not None and shard_size < 1:
            raise ValueError("shard_size must be >= 1 (None = one shard)")
        self.workers = workers
        #: faults per shard; None plans one shard holding every live
        #: fault (the paper's single group).  Never derived from
        #: ``workers``: the plan decides verdicts, the pool only speed
        self.shard_size = shard_size
        self.shard_timeout = shard_timeout
        self.heartbeat_timeout = heartbeat_timeout
        self.heartbeat_interval = heartbeat_interval
        #: the hang watchdog, ON by default: a busy worker silent for
        #: ``hang_grace`` heartbeat intervals is presumed wedged —
        #: alive but making no progress (stuck syscall, half-written
        #: pipe frame, runaway C loop) — and is SIGKILLed, its shard
        #: retried under the normal backoff/bisection machinery.
        #: Workers beat at frame boundaries *and* at BDD-allocation
        #: granularity, so a legitimately expensive frame keeps
        #: beating.  The grace window (``hang_grace *
        #: heartbeat_interval``) never shrinks below one second, so a
        #: tiny or zero beat interval cannot turn the watchdog into a
        #: hair trigger.  An explicit ``heartbeat_timeout`` takes
        #: precedence; ``None`` disables the watchdog.
        self.hang_grace = hang_grace
        self.max_retries = max_retries
        self.backoff_base = backoff_base
        self.backoff_cap = backoff_cap
        self.backoff_jitter = backoff_jitter
        self.start_method = start_method
        #: the fabric's ONLY random stream: retry-backoff jitter.  It
        #: never influences shard planning, merge order or any verdict
        #: — simulation results are deterministic regardless of this
        #: value.  Every draw that *can* affect an outcome (the audit's
        #: sampling and constant-witness states, see
        #: :mod:`repro.audit.runner`) uses its own string-seeded
        #: ``random.Random(f"{seed}:<purpose>:<fault>")`` streams,
        #: reproducible across processes, resumes and shard layouts.
        self.seed = seed
        #: observability hook: called with one dict per fabric event
        #: (dispatch, heartbeat, result, crash, respawn, bisect,
        #: quarantine, drain); the fault-injection tests use it to kill
        #: workers at precise moments
        self.events = events
        #: deterministic fault injection for tests/CI: a dict with
        #: ``crash_keys`` / ``hang_keys`` / ``hang_seconds``
        self.chaos = chaos
        #: per-worker resident-set cap in bytes: a worker whose last
        #: heartbeat reported more is SIGKILLed and its shard retried on
        #: a fresh process — the pool-level backstop behind the
        #: governor's RSS budget (None disables the cap)
        self.worker_rss_cap = worker_rss_cap

    def to_json(self):
        return {
            "workers": self.workers,
            "shard_size": self.shard_size,
            "shard_timeout": self.shard_timeout,
            "heartbeat_timeout": self.heartbeat_timeout,
            "hang_grace": self.hang_grace,
            "max_retries": self.max_retries,
            "worker_rss_cap": self.worker_rss_cap,
        }


class _WorkerHandle:
    """Coordinator-side state of one pool worker.

    ``cmd`` is the blocking send end of the command pipe; ``reader``
    is a :class:`FrameReader` over the report pipe, so a worker that
    wedges mid-frame can never block the coordinator's event loop.
    """

    __slots__ = ("worker_id", "process", "cmd", "reader", "shard",
                 "node_grant", "dispatched_at", "last_beat", "last_rss",
                 "killing", "ready")

    def __init__(self, worker_id, process, cmd, reader):
        self.worker_id = worker_id
        self.process = process
        self.cmd = cmd
        self.reader = reader
        self.shard = None  # in-flight Shard, if busy
        self.node_grant = 0  # node budget handed to the in-flight shard
        self.dispatched_at = None
        self.last_beat = None
        self.last_rss = None  # bytes, from the latest heartbeat
        self.killing = False  # SIGKILL issued, death not yet reaped
        self.ready = False  # first message received

    @property
    def busy(self):
        return self.shard is not None


class _FabricAccounting:
    """Counters surfaced as ``runtime_summary()["fabric"]``."""

    def __init__(self):
        self.workers = 0
        self.shards_planned = 0
        self.shards_completed = 0
        self.retries = 0
        self.respawns = 0
        self.bisections = 0
        self.timeouts = 0
        self.hangs = 0  # stalled-but-alive workers reaped by the watchdog
        self.quarantined_by_crash = []  # fault keys, in fault order
        self.resumed_shards = 0
        self.rss_recycles = 0  # workers killed for breaching the RSS cap
        self.peak_worker_rss = 0  # bytes, max over every heartbeat/shard

    def to_json(self):
        return {
            "workers": self.workers,
            "shards_planned": self.shards_planned,
            "shards_completed": self.shards_completed,
            "retries": self.retries,
            "respawns": self.respawns,
            "bisections": self.bisections,
            "timeouts": self.timeouts,
            "hangs": self.hangs,
            "quarantined_by_crash": len(self.quarantined_by_crash),
            "resumed_shards": self.resumed_shards,
            "rss_recycles": self.rss_recycles,
            "peak_worker_rss": self.peak_worker_rss,
        }


class ShardFabric:
    """One sharded, fault-tolerant campaign (see module docstring)."""

    def __init__(
        self,
        compiled,
        sequence,
        fault_set,
        strategy="MOT",
        ladder=None,
        node_limit=None,
        governor=None,
        checkpoint_path=None,
        fallback_frames=5,
        initial_state=None,
        variable_scheme="interleaved",
        xred=True,
        pre_pass_3v=True,
        circuit_spec=None,
        signal_guard=None,
        config=None,
        resume_from=None,
        tracer=None,
        metrics=None,
        progress_hook=None,
    ):
        from repro.obs.metrics import MetricsRegistry
        from repro.obs.tracer import NULL_TRACER
        from repro.symbolic.hybrid import DEFAULT_NODE_LIMIT

        if isinstance(fault_set, (list, tuple)):
            fault_set = FaultSet(fault_set)
        if ladder is None:
            ladder = DegradationLadder.from_strategy(strategy)
        elif not isinstance(ladder, DegradationLadder):
            ladder = DegradationLadder(ladder)
        self.compiled = compiled
        self.sequence = [tuple(v) for v in sequence]
        self.fault_set = fault_set
        self.ladder = ladder
        self.node_limit = (
            DEFAULT_NODE_LIMIT if node_limit is None else node_limit
        )
        self.governor = governor or ResourceGovernor()
        self.checkpoint_path = checkpoint_path
        self.fallback_frames = fallback_frames
        if initial_state is None:
            from repro.logic import threeval

            initial_state = [threeval.X] * compiled.num_dffs
        self.initial_state = list(initial_state)
        self.variable_scheme = variable_scheme
        self.xred = xred
        self.pre_pass_3v = pre_pass_3v
        self.circuit_spec = circuit_spec or compiled.circuit.name
        self.signal_guard = signal_guard
        self.config = config or FabricConfig()
        self.resume_from = resume_from

        # observability: workers trace into canonical (wall-free)
        # in-memory sinks and ship records + metric snapshots home in
        # result payloads; the coordinator replays them into *tracer*
        # sorted by shard id (deterministic bytes) and folds snapshots
        # into *metrics*.  Heartbeat metric deltas feed only the live
        # progress display, never the merged result.
        self.tracer = tracer if tracer is not None else NULL_TRACER
        self.metrics = metrics
        self.progress_hook = progress_hook
        self._observe = self.tracer.enabled or metrics is not None
        self._beat_registry = MetricsRegistry() if self._observe else None
        self._shard_workers = {}  # shard_id -> worker_id attribution
        self._resumed_shard_ids = set()

        self._faults = [record.fault for record in fault_set]
        # backoff jitter only — see FabricConfig.seed for why this can
        # never influence verdicts
        self._rng = random.Random(self.config.seed)
        self._handles = {}  # worker_id -> _WorkerHandle
        self._next_worker_id = 0
        self._pending = []  # Shards awaiting dispatch
        self._results = {}  # shard_id -> payload
        self._shard_records = {}  # shard_id -> indices (for merge order)
        self._stop_reason = None
        self._draining = False
        self._writer = None
        self._worker_nodes = 0  # node allocations reported by shards
        self._spawn_failures = 0  # consecutive deaths before readiness
        self._faults_done = 0  # faults in completed shards
        self._shard_demotions = 0  # demotions reported by shards
        self._start_monotonic = _time.monotonic()
        self.accounting = _FabricAccounting()

    # ------------------------------------------------------------------
    # events
    # ------------------------------------------------------------------
    def _emit(self, event, **fields):
        if self.config.events is not None:
            fields["event"] = event
            self.config.events(fields)

    # ------------------------------------------------------------------
    # planning and resumption
    # ------------------------------------------------------------------
    def _live_indices(self):
        return [
            index
            for index, record in enumerate(self.fault_set)
            if record.status in (UNDETECTED, X_REDUNDANT)
        ]

    def _absorb_resume(self):
        """Apply completed shards of a prior run; returns covered set."""
        checkpoint = self.resume_from
        if checkpoint is None:
            return set(), 0
        keys = [record.fault.key() for record in self.fault_set]
        verify_fingerprint(
            checkpoint.path, checkpoint.fingerprint, self.compiled, keys
        )
        if keys != checkpoint.fault_keys:
            raise CheckpointError(
                checkpoint.path,
                "fault universe does not match the checkpointed campaign "
                f"({len(keys)} vs {len(checkpoint.fault_keys)} faults)",
            )
        next_ordinal = 0
        for shard_id in sorted(checkpoint.shards):
            record = checkpoint.shards[shard_id]
            payload = dict(record["summary"])
            payload["states"] = record["states"]
            payload["demotion_log"] = []
            payload["quarantined"] = [
                fault_key_from_json(k) for k in record["quarantined"]
            ]
            self._apply_payload(shard_id, record["indices"], payload,
                                checkpointed=True)
            self._resumed_shard_ids.add(shard_id)
            self.accounting.resumed_shards += 1
            next_ordinal = max(next_ordinal, shard_id[0] + 1)
        return checkpoint.covered_indices(), next_ordinal

    def _plan(self):
        covered, next_ordinal = self._absorb_resume()
        live = [i for i in self._live_indices() if i not in covered]
        shards = plan_shards(live, self.config.shard_size)
        for shard in shards:
            shard.shard_id = (shard.shard_id[0] + next_ordinal,)
        self._pending = shards
        # absorbed shards count as planned: completed/planned then reads
        # as overall progress even on a resumed run
        self.accounting.shards_planned = (
            len(shards) + self.accounting.resumed_shards
        )

    # ------------------------------------------------------------------
    # checkpointing
    # ------------------------------------------------------------------
    def _open_writer(self):
        if self.checkpoint_path is None:
            return
        self._writer = FabricCheckpointWriter(self.checkpoint_path)
        if self.resume_from is None:
            fault_keys = [r.fault.key() for r in self.fault_set]
            self._writer.write_fabric_header(
                circuit_spec=self.circuit_spec,
                sequence=self.sequence,
                fault_keys=fault_keys,
                ladder=self.ladder,
                node_limit=self.node_limit,
                initial_state=self.initial_state,
                variable_scheme=self.variable_scheme,
                fallback_frames=self.fallback_frames,
                xred=self.xred,
                pre_pass_3v=self.pre_pass_3v,
                config=self.config.to_json(),
                fingerprint=circuit_fingerprint(self.compiled, fault_keys),
            )

    # ------------------------------------------------------------------
    # the worker pool
    # ------------------------------------------------------------------
    def _context(self):
        method = self.config.start_method
        if method is None:
            available = multiprocessing.get_all_start_methods()
            method = "fork" if "fork" in available else "spawn"
        return multiprocessing.get_context(method)

    def _init_payload(self):
        return {
            "compiled": self.compiled,
            "faults": self._faults,
            "sequence": self.sequence,
            "ladder": self.ladder.to_json(),
            "node_limit": self.node_limit,
            "fallback_frames": self.fallback_frames,
            "initial_state": self.initial_state,
            "variable_scheme": self.variable_scheme,
            "xred": self.xred,
            "pre_pass_3v": self.pre_pass_3v,
            "heartbeat_interval": self.config.heartbeat_interval,
            "chaos": self.config.chaos,
            # ship the active failpoint spec so worker-side sites
            # (heartbeat drop/dup, stall, pipe truncate, bdd.alloc,
            # pressure.evict) fire in the pool exactly as inline
            "failpoints": _failpoints.active_spec(),
            "observe": self._observe,
        }

    def _spawn_worker(self, ctx, init):
        worker_id = self._next_worker_id
        self._next_worker_id += 1
        # two half-duplex pipes: commands stay blocking (tiny, always
        # drained), reports are read through a non-blocking FrameReader
        # so a half-written frame cannot stall the event loop
        cmd_recv, cmd_send = ctx.Pipe(duplex=False)
        report_recv, report_send = ctx.Pipe(duplex=False)
        process = ctx.Process(
            target=worker_main,
            args=(worker_id, WorkerPipes(cmd_recv, report_send), init),
            name=f"fabric-worker-{worker_id}",
            daemon=True,
        )
        process.start()
        cmd_recv.close()
        report_send.close()
        handle = _WorkerHandle(
            worker_id, process, cmd_send, FrameReader(report_recv)
        )
        handle.last_beat = _time.monotonic()
        self._handles[worker_id] = handle
        self.accounting.workers = max(
            self.accounting.workers, len(self._handles)
        )
        return handle

    def _try_spawn(self, ctx, init):
        """Spawn a replacement worker, tolerating transient failures.

        A respawn can fail for reasons that pass (fork EAGAIN, a brief
        fd squeeze); one failure retries on the next event-loop pass
        instead of crashing the campaign.  Three consecutive failures
        — shared with the died-before-ready counter, and reset by any
        worker reaching readiness — mean the pool is unrecoverable:
        :class:`WorkerCrashed` propagates.  Returns None on a
        tolerated failure.
        """
        try:
            if _failpoints.fire("fabric.respawn.fail"):
                raise OSError("injected: failpoint fabric.respawn.fail")
            return self._spawn_worker(ctx, init)
        except OSError as exc:
            self._spawn_failures += 1
            self._emit(
                "respawn-failed", error=str(exc),
                failures=self._spawn_failures,
            )
            if self._spawn_failures >= 3:
                raise WorkerCrashed(
                    None,
                    f"{self._spawn_failures} consecutive worker spawn "
                    f"failures (last: {exc})",
                )
            return None

    def _task_opts(self):
        """Apportion the governor's budgets for one dispatch.

        The shard gets the remaining deadline.  Of the node budget it
        gets what is left, after the nodes finished shards reported and
        the grants of running shards, split over the free slots that
        have a shard to take (at least 1 node).  Inline there is one
        slot and nothing in flight, so a shard gets all that is left.
        """
        deadline = None
        if self.governor.deadline is not None:
            deadline = max(self.governor.deadline - self.governor.elapsed(),
                           0.0)
        node_grant = None
        if self.governor.node_budget is not None:
            busy = [h for h in self._handles.values() if h.busy]
            left = (
                self.governor.node_budget - self._worker_nodes
                - sum(h.node_grant for h in busy)
            )
            # the shard being dispatched has already left _pending
            free_slots = min(self.config.workers - len(busy),
                             len(self._pending) + 1)
            node_grant = max(left // max(free_slots, 1), 1)
        return {
            "deadline": deadline,
            "node_budget": node_grant,
            "fault_frame_nodes": self.governor.fault_frame_nodes,
            "fault_frame_events": self.governor.fault_frame_events,
            # per-process limits: every worker owns its whole RSS, so
            # these are handed down unsplit
            "rss_budget": self.governor.rss_budget,
            "cache_budget": self.governor.cache_budget,
        }

    def _dispatch(self, handle, shard):
        opts = self._task_opts()
        handle.shard = shard
        handle.node_grant = opts["node_budget"] or 0
        handle.dispatched_at = _time.monotonic()
        handle.last_beat = handle.dispatched_at
        handle.cmd.send(("run", shard.shard_id, shard.indices, opts))
        self._emit(
            "dispatch",
            worker_id=handle.worker_id,
            pid=handle.process.pid,
            shard=shard_id_text(shard.shard_id),
            faults=len(shard),
        )

    def _kill_worker(self, handle, reason):
        handle.killing = True
        if reason == "rss-cap":
            self.accounting.rss_recycles += 1
            self._emit(
                "recycle", worker_id=handle.worker_id, reason=reason,
                rss=handle.last_rss,
                shard=shard_id_text(handle.shard.shard_id)
                if handle.shard else None,
            )
        elif reason == "hang":
            # stalled but alive: the process exists, the pipe is open,
            # yet no beat arrived for hang_grace intervals — distinct
            # from a death (sentinel fires) and from a slow shard
            # (which keeps beating); accounted separately so operators
            # can tell wedged processes from genuine timeouts
            self.accounting.hangs += 1
            self._emit(
                "hang", worker_id=handle.worker_id,
                shard=shard_id_text(handle.shard.shard_id)
                if handle.shard else None,
            )
        else:
            self.accounting.timeouts += 1
            self._emit(
                "timeout", worker_id=handle.worker_id, reason=reason,
                shard=shard_id_text(handle.shard.shard_id)
                if handle.shard else None,
            )
        try:
            handle.process.kill()
        except OSError:
            pass

    def _shutdown_pool(self):
        for handle in self._handles.values():
            try:
                handle.cmd.send(("stop",))
            except OSError:
                pass
        for handle in self._handles.values():
            handle.process.join(timeout=1.0)
            if handle.process.is_alive():
                handle.process.terminate()
                handle.process.join(timeout=1.0)
            if handle.process.is_alive():  # pragma: no cover - stubborn
                handle.process.kill()
                handle.process.join(timeout=1.0)
            try:
                handle.cmd.close()
            except OSError:
                pass
            handle.reader.close()
        self._handles.clear()

    # ------------------------------------------------------------------
    # failure handling
    # ------------------------------------------------------------------
    def _backoff(self, crashes):
        delay = min(
            self.config.backoff_cap,
            self.config.backoff_base * (2 ** (crashes - 1)),
        )
        return delay * (1.0 + self.config.backoff_jitter * self._rng.random())

    def _record_crash(self, shard, reason):
        """Retry, bisect or quarantine a shard whose attempt died."""
        if shard.shard_id in self._results:
            return  # a late result already landed; nothing to redo
        shard.crashes += 1
        self._emit(
            "crash", shard=shard_id_text(shard.shard_id),
            crashes=shard.crashes, reason=reason,
        )
        if shard.crashes < self.config.max_retries:
            self.accounting.retries += 1
            shard.not_before = _time.monotonic() + self._backoff(shard.crashes)
            self._pending.append(shard)
            return
        if len(shard) > 1:
            self.accounting.bisections += 1
            low, high = shard.split()
            self._emit(
                "bisect", shard=shard_id_text(shard.shard_id),
                into=[shard_id_text(low.shard_id),
                      shard_id_text(high.shard_id)],
            )
            self._pending.extend((low, high))
            return
        # a singleton shard that keeps killing workers: the fault is
        # poison — quarantine it instead of looping forever
        index = shard.indices[0]
        record = self.fault_set.records[index]
        record.mark_quarantined()
        self.accounting.quarantined_by_crash.append(record.fault.key())
        self._emit(
            "quarantine", shard=shard_id_text(shard.shard_id),
            fault=str(record.fault.key()),
        )
        # coordinator-side quarantine: no worker trace exists for this
        # fault, so emit the event here to keep the merged trace's
        # quarantine count reconcilable with the result
        self.tracer.event(
            "quarantine",
            fault=str(record.fault.key()),
            shard=shard_id_text(shard.shard_id),
            reason="crash",
        )

    def _on_worker_death(self, handle, reason):
        self._handles.pop(handle.worker_id, None)
        try:
            handle.cmd.close()
        except OSError:
            pass
        handle.reader.close()
        shard = handle.shard
        handle.shard = None
        if shard is not None:
            self._record_crash(shard, reason)
        if not handle.ready:
            # died before its first message: the pool itself is broken
            # (import error under spawn, OOM on start-up, ...), not a
            # poison shard — bail out instead of respawning forever
            self._spawn_failures += 1
            if self._spawn_failures >= 3:
                raise WorkerCrashed(
                    handle.worker_id,
                    f"{self._spawn_failures} consecutive workers died "
                    f"before reporting ready (last: {reason})",
                    shard_id=(
                        shard_id_text(shard.shard_id) if shard else None
                    ),
                )
        return shard

    # ------------------------------------------------------------------
    # results
    # ------------------------------------------------------------------
    def _apply_payload(self, shard_id, indices, payload, checkpointed=False):
        if shard_id in self._results:
            return
        self._results[shard_id] = payload
        self._shard_records[shard_id] = list(indices)
        for index, state in zip(indices, payload["states"]):
            self.fault_set.records[index].state_from_json(state)
        self._worker_nodes += payload.get("nodes_allocated", 0)
        self._faults_done += len(indices)
        self._shard_demotions += payload.get("demotions", 0) or 0
        self.accounting.shards_completed += 1
        if self._writer is not None and not checkpointed:
            self._writer.write_shard(shard_id, indices, payload)

    def _accept_result(self, handle, shard_id, payload):
        shard = handle.shard
        handle.shard = None
        if shard is None or shard.shard_id != shard_id:
            # a late result from a worker we already gave up on
            shard = None
        indices = (
            shard.indices if shard is not None
            else self._find_pending_indices(shard_id)
        )
        if indices is None:
            return
        self._shard_workers.setdefault(shard_id, handle.worker_id)
        self._apply_payload(shard_id, indices, payload)
        self._emit(
            "result", worker_id=handle.worker_id,
            shard=shard_id_text(shard_id), stopped=payload["stopped"],
        )
        self._emit_progress()

    def _find_pending_indices(self, shard_id):
        for position, shard in enumerate(self._pending):
            if shard.shard_id == shard_id:
                del self._pending[position]
                return shard.indices
        return None

    # ------------------------------------------------------------------
    # the event loop
    # ------------------------------------------------------------------
    def _check_stop_conditions(self):
        if (
            self.signal_guard is not None
            and self.signal_guard.stop_requested
            and not self._draining
        ):
            self._draining = True
            self._stop_reason = "signal"
            self._emit("drain", reason="signal")
        if (
            self.governor.deadline is not None
            and self.governor.elapsed() >= self.governor.deadline
            and not self._draining
        ):
            self._draining = True
            self._stop_reason = "deadline"
            self._emit("drain", reason="deadline")

    def _dispatch_ready(self, ctx, init):
        if self._draining:
            return
        now = _time.monotonic()
        idle = [h for h in self._handles.values()
                if not h.busy and not h.killing]
        while idle and self._pending:
            ready = [s for s in self._pending if s.not_before <= now]
            if not ready:
                break
            ready.sort(key=lambda s: s.shard_id)
            shard = ready[0]
            self._pending.remove(shard)
            self._dispatch(idle.pop(), shard)
        # keep the pool at strength while work remains
        want = min(self.config.workers,
                   len(self._pending) + sum(
                       1 for h in self._handles.values() if h.busy))
        while len(self._handles) < want:
            if self._try_spawn(ctx, init) is None:
                break  # tolerated failure: retry next event-loop pass
            self.accounting.respawns += 1

    def _enforce_timeouts(self):
        now = _time.monotonic()
        for handle in list(self._handles.values()):
            if not handle.busy or handle.killing:
                continue
            if (
                self.config.shard_timeout is not None
                and now - handle.dispatched_at > self.config.shard_timeout
            ):
                self._kill_worker(handle, "shard-timeout")
            elif (
                self.config.heartbeat_timeout is not None
                and now - handle.last_beat > self.config.heartbeat_timeout
            ):
                self._kill_worker(handle, "heartbeat-timeout")
            elif (
                self.config.heartbeat_timeout is None
                and self.config.hang_grace is not None
                and now - handle.last_beat
                > max(
                    self.config.hang_grace
                    * self.config.heartbeat_interval,
                    _HANG_WINDOW_FLOOR,
                )
            ):
                self._kill_worker(handle, "hang")
            elif (
                self.config.worker_rss_cap is not None
                and handle.last_rss is not None
                and handle.last_rss > self.config.worker_rss_cap
            ):
                self._kill_worker(handle, "rss-cap")

    def _wait_timeout(self):
        timeout = _POLL_INTERVAL
        now = _time.monotonic()
        for shard in self._pending:
            if shard.not_before > now:
                timeout = min(timeout, shard.not_before - now)
        return max(timeout, 0.01)

    def _handle_message(self, handle, message):
        if not handle.ready:
            handle.ready = True
            self._spawn_failures = 0
        kind = message[0]
        if kind == "ready":
            handle.last_beat = _time.monotonic()
        elif kind == "heartbeat":
            _, worker_id, shard_id, frame, rss, metrics_delta = message
            handle.last_beat = _time.monotonic()
            if rss is not None:
                handle.last_rss = rss
                self.accounting.peak_worker_rss = max(
                    self.accounting.peak_worker_rss, rss
                )
            if self._beat_registry is not None:
                self._beat_registry.fold_delta(metrics_delta)
            self._emit(
                "heartbeat", worker_id=worker_id,
                pid=handle.process.pid,
                shard=shard_id_text(shard_id), frame=frame, rss=rss,
            )
            self._emit_progress(frame=frame)
        elif kind == "result":
            _, _worker_id, shard_id, payload = message
            self._accept_result(handle, shard_id, payload)
        elif kind == "error":
            _, _worker_id, shard_id, reason = message
            shard = handle.shard
            handle.shard = None
            if shard is not None and shard.shard_id == shard_id:
                self._record_crash(shard, reason)

    def _drain_reader(self, handle):
        """Process every complete report frame; False once the stream
        is dead (EOF past the buffered frames, or unparseable)."""
        try:
            for message in handle.reader.drain():
                self._handle_message(handle, message)
        except (FrameProtocolError, OSError):
            return False
        return not handle.reader.at_eof()

    def _pump_events(self):
        """Wait for pipe traffic or worker deaths and process them.

        Report pipes are drained through each handle's
        :class:`FrameReader`: complete frames are dispatched, a
        partial frame stays buffered and the loop moves on — a worker
        wedged mid-write (``fabric.pipe.truncate``) degrades into a
        silent worker for the hang watchdog instead of a deadlocked
        coordinator.
        """
        sources = {}
        for handle in self._handles.values():
            sources[handle.reader] = handle
            sources[handle.process.sentinel] = handle
        if not sources:
            return
        ready = _connection_wait(list(sources), timeout=self._wait_timeout())
        dead = []
        for source in ready:
            handle = sources[source]
            if source is handle.reader:
                if not self._drain_reader(handle):
                    dead.append(handle)
            elif not handle.process.is_alive():
                dead.append(handle)
        for handle in dead:
            if handle.worker_id not in self._handles:
                continue  # reaped via the other source already
            # drain any result the worker managed to send before dying
            # (e.g. killed for a timeout it had just beaten)
            self._drain_reader(handle)
            handle.process.join(timeout=0.1)
            code = handle.process.exitcode
            reason = (
                "killed" if handle.killing else f"worker died (exit {code})"
            )
            self._on_worker_death(handle, reason)

    def _run_pool(self):
        ctx = self._context()
        init = self._init_payload()
        for _ in range(min(self.config.workers, max(len(self._pending), 1))):
            self._spawn_worker(ctx, init)

        def any_busy():
            return any(h.busy for h in self._handles.values())

        try:
            while (self._pending and not self._draining) or any_busy():
                self._check_stop_conditions()
                self._dispatch_ready(ctx, init)
                self._enforce_timeouts()
                self._pump_events()
        finally:
            self._shutdown_pool()

    def _run_inline(self):
        """``workers=0``: the pool's shard path, run in this process."""
        init = self._init_payload()
        while self._pending:
            self._check_stop_conditions()
            if self._draining:
                break
            self._pending.sort(key=lambda s: s.shard_id)
            shard = self._pending.pop(0)
            tracer, registry = _make_observability(init)
            try:
                payload = run_task(
                    init, shard.indices, task_governor(self._task_opts()),
                    tracer, registry,
                )
            except Exception as exc:
                shard.not_before = 0.0  # no backoff sleeps inline
                self._record_crash(shard, f"{type(exc).__name__}: {exc}")
                continue
            self._apply_payload(shard.shard_id, shard.indices, payload)
            if self._beat_registry is not None:
                # no heartbeats inline: feed the progress display from
                # the completed shard's snapshot instead
                self._beat_registry.fold_snapshot(payload.get("metrics"))
            self._emit(
                "result", worker_id=None,
                shard=shard_id_text(shard.shard_id),
                stopped=payload["stopped"],
            )
            self._emit_progress()

    # ------------------------------------------------------------------
    # observability
    # ------------------------------------------------------------------
    def _emit_progress(self, frame=None):
        if self.progress_hook is None:
            return
        now = _time.monotonic()
        payload = {
            "shards_done": self.accounting.shards_completed,
            "shards": self.accounting.shards_planned,
            "workers": len(self._handles) or None,
            "frame": frame,
            # live-consumer enrichment (ProgressLine, /jobs/<id>/events,
            # `repro top`): throughput/ETA inputs plus the health signals
            # an operator actually watches
            "monotonic": round(now, 3),
            "elapsed": round(now - self._start_monotonic, 3),
            "faults_done": self._faults_done,
            "faults_total": len(self._faults),
            "nodes_allocated": self._worker_nodes,
            "demotions": self._shard_demotions,
            "worker_rss": {
                str(worker_id): handle.last_rss
                for worker_id, handle in sorted(self._handles.items())
                if getattr(handle, "last_rss", None)
            },
            "peak_worker_rss": self.accounting.peak_worker_rss,
        }
        if self._beat_registry is not None:
            payload["metrics"] = self._beat_registry.flat()
        self.progress_hook(payload)

    def _write_observability(self, stopped, merged):
        """Merged trace, final metrics and the top-level summary.

        Shards are replayed in shard-id order with worker attribution
        stamped onto every record, so two runs with the same seeds
        produce byte-identical merged traces (canonical ``wall=False``
        worker records, deterministic coordinator ``seq`` numbering).
        """
        if not self._observe:
            return
        from repro.obs.metrics import MetricsRegistry

        final_registry = MetricsRegistry()
        for shard_id in sorted(self._results):
            final_registry.fold_snapshot(
                self._results[shard_id].get("metrics")
            )
        if self.metrics is not None:
            self.metrics.fold_snapshot(final_registry.snapshot())
        if not self.tracer.enabled:
            return
        truncated = 0
        for shard_id in sorted(self._results):
            payload = self._results[shard_id]
            worker = self._shard_workers.get(shard_id)
            dropped = payload.get("trace_dropped", 0) or 0
            truncated += dropped
            span = self.tracer.span(
                "shard",
                shard=shard_id_text(shard_id),
                worker=worker,
                faults=len(self._shard_records.get(shard_id, ())),
                stopped=payload.get("stopped"),
                resumed=shard_id in self._resumed_shard_ids,
                trace_dropped=dropped,
            )
            extra = {"shard": shard_id_text(shard_id)}
            if worker is not None:
                extra["worker"] = worker
            self.tracer.replay(payload.get("trace") or (), **extra)
            span.close()
        self.tracer.event("fabric", **self.accounting.to_json())
        flat = final_registry.flat()
        if flat:
            self.tracer.metrics("final", flat)
        summary = {
            "stopped": stopped,
            "frames_total": merged["frames_total"],
            "frames_symbolic": merged["frames_symbolic"],
            "frames_three_valued": merged["frames_three_valued"],
            "fallbacks": merged["fallbacks"],
            "gc_runs": merged["gc_runs"],
            "demotions": merged["demotions"],
            "quarantined": merged["quarantined"],
            "detected": len(self.fault_set.detected()),
            "total_faults": len(self.fault_set),
            "peak_nodes": merged["peak_nodes"],
            "pressure_events": merged["pressure_events"],
            "shards": self.accounting.shards_completed,
            "workers": self.accounting.workers,
        }
        if self.accounting.resumed_shards:
            # resumed shards contribute counters but no trace records;
            # drop the reconcilable keys rather than publish totals the
            # trace cannot substantiate
            for key in ("fallbacks", "gc_runs", "demotions",
                        "quarantined", "detected", "pressure_events"):
                summary.pop(key)
            summary["resumed_shards"] = self.accounting.resumed_shards
        self.tracer.summary(summary)

    # ------------------------------------------------------------------
    # merging
    # ------------------------------------------------------------------
    def _merge(self):
        """Fold shard payloads into one result, sorted by shard id.

        ``frames_total`` is the deepest frame any shard reached;
        frame/fallback/gc counters are *summed* across shards (they are
        work accounting, and their zero-ness — which is what
        ``CampaignResult.exact`` inspects — is preserved either way).
        """
        from repro.runtime.campaign import CampaignResult

        frames_total = 0
        frames_symbolic = 0
        frames_three_valued = 0
        fallbacks = 0
        gc_runs = 0
        peak_nodes = 2
        demotions = 0
        demotion_log = []
        quarantined = []
        rung_population = {}
        shard_stop = None
        pressure = None
        for shard_id in sorted(self._results):
            payload = self._results[shard_id]
            frames_total = max(frames_total, payload["frames_total"])
            frames_symbolic += payload["frames_symbolic"]
            frames_three_valued += payload["frames_three_valued"]
            fallbacks += payload["fallbacks"]
            gc_runs += payload["gc_runs"]
            peak_nodes = max(peak_nodes, payload["peak_nodes"])
            demotions += payload["demotions"]
            demotion_log.extend(tuple(e) for e in payload["demotion_log"])
            quarantined.extend(payload["quarantined"])
            for rung, population in payload["rung_population"].items():
                rung_population[rung] = (
                    rung_population.get(rung, 0) + population
                )
            if payload["stopped"] != COMPLETED and shard_stop is None:
                shard_stop = payload["stopped"]
            pressure = _merge_pressure(pressure, payload.get("pressure"))
            self.accounting.peak_worker_rss = max(
                self.accounting.peak_worker_rss,
                payload.get("peak_rss") or 0,
            )
        quarantined.extend(self.accounting.quarantined_by_crash)
        self.governor.nodes_allocated += self._worker_nodes

        if self._stop_reason is not None:
            stopped = self._stop_reason
        elif shard_stop is not None:
            stopped = shard_stop
        elif self._pending:
            stopped = "incomplete"  # should not happen; be honest if it does
        else:
            stopped = COMPLETED

        fabric = self.accounting.to_json()
        self._write_observability(
            stopped,
            {
                "frames_total": frames_total,
                "frames_symbolic": frames_symbolic,
                "frames_three_valued": frames_three_valued,
                "fallbacks": fallbacks,
                "gc_runs": gc_runs,
                "demotions": demotions,
                "quarantined": len(quarantined),
                "peak_nodes": peak_nodes,
                "pressure_events": (
                    pressure["events"] if pressure else 0
                ),
            },
        )
        return CampaignResult(
            self.fault_set,
            self.ladder.rungs[0].strategy,
            frames_total=frames_total,
            frames_symbolic=frames_symbolic,
            frames_three_valued=frames_three_valued,
            fallbacks=fallbacks,
            gc_runs=gc_runs,
            peak_nodes=peak_nodes,
            demotions=demotions,
            demotion_log=demotion_log,
            quarantined=quarantined,
            checkpoints_written=(
                self._writer.checkpoints_written if self._writer else 0
            ),
            checkpoint_path=self._writer.path if self._writer else None,
            resumed_from=None,
            stopped=stopped,
            budget=self.governor.accounting(),
            ladder_names=self.ladder.names(),
            rung_population=rung_population,
            fabric=fabric,
            pressure=pressure,
        )

    # ------------------------------------------------------------------
    def run(self):
        """Drive the sharded campaign to completion (or graceful stop)."""
        self.governor.start()
        self._open_writer()
        # coordinator-side failpoint fires (fabric checkpoint writes,
        # respawn failures) land in the merged trace/metrics; worker-
        # side fires are traced by the worker's own Campaign and ride
        # home in the shard payload.  Only installed under injection.
        with _failpoints.observed_by(self.tracer, self.metrics):
            try:
                self._plan()
                if self._pending:
                    if self.config.workers == 0:
                        self._run_inline()
                    else:
                        self._run_pool()
                return self._merge()
            finally:
                if self._writer is not None:
                    self._writer.close()


# ----------------------------------------------------------------------
# public entry points
# ----------------------------------------------------------------------
def run_sharded_campaign(compiled, sequence, fault_set, **kwargs):
    """Run a campaign across a pool of worker processes.

    Accepts the :class:`ShardFabric` keywords; the fabric knobs can be
    given either as a ``config=FabricConfig(...)`` or via the common
    shortcuts ``workers`` / ``shard_size`` / ``shard_timeout`` /
    ``heartbeat_timeout`` / ``max_retries`` / ``worker_rss_cap``.
    Every worker applies the governor's memory budgets against its own
    process RSS and computed tables.  Returns a merged
    :class:`~repro.runtime.campaign.CampaignResult` whose
    ``runtime_summary()`` carries a ``"fabric"`` accounting block.
    """
    # the fabric checkpoints every completed shard, not every N frames
    kwargs.pop("checkpoint_every", None)
    fields = {}
    for name in ("workers", "shard_size", "shard_timeout",
                 "heartbeat_timeout", "max_retries", "worker_rss_cap"):
        value = kwargs.pop(name, None)
        if value is not None:
            fields[name] = value
    config = kwargs.pop("config", None) or FabricConfig(**fields)
    return ShardFabric(compiled, sequence, fault_set,
                       config=config, **kwargs).run()


def resume_sharded_campaign(
    checkpoint_path,
    compiled=None,
    fault_set=None,
    governor=None,
    signal_guard=None,
    config=None,
    on_corrupt=None,
    **kwargs,
):
    """Resume a sharded campaign from its fabric checkpoint.

    Completed shards are absorbed (their verdicts applied without
    re-simulation); only the remainder of the fault universe is
    re-sharded and run.  Because re-running a shard reproduces its
    verdicts exactly, a fabric resume — unlike an in-process campaign
    resume — does not make the result conservative.

    A shard record failing its CRC is quarantined (default: one
    ``RuntimeWarning`` per record, or pass *on_corrupt* to collect
    reports): its indices drop out of the covered set and the shard
    simply re-runs — same verdicts, more work.  Only a corrupt header
    is verdict-affecting, and still refuses with a typed
    :class:`~repro.runtime.errors.CheckpointError`.
    """
    if on_corrupt is None:
        def on_corrupt(report, _path=str(checkpoint_path)):
            import warnings

            warnings.warn(
                f"fabric checkpoint {_path}: quarantined corrupt record "
                f"at line {report['line']} ({report['reason']}); the "
                "affected shard will re-run",
                RuntimeWarning,
                stacklevel=2,
            )
    checkpoint = load_fabric_checkpoint(checkpoint_path, on_corrupt=on_corrupt)
    if compiled is None:
        from repro.runtime.campaign import _load_compiled

        compiled = _load_compiled(checkpoint.circuit_spec)
    if fault_set is None:
        from repro.faults.collapse import collapse_faults

        faults, _ = collapse_faults(compiled)
        fault_set = FaultSet(faults)
    if config is None:
        recorded = checkpoint.config
        config = FabricConfig(
            workers=recorded.get("workers", 2),
            shard_size=recorded.get("shard_size"),
            shard_timeout=recorded.get("shard_timeout"),
            heartbeat_timeout=recorded.get("heartbeat_timeout"),
            hang_grace=recorded.get("hang_grace", 200),
            max_retries=recorded.get("max_retries", 2),
            worker_rss_cap=recorded.get("worker_rss_cap"),
        )
    fabric = ShardFabric(
        compiled,
        checkpoint.sequence,
        fault_set,
        ladder=DegradationLadder.from_json(checkpoint.ladder_json()),
        node_limit=checkpoint.node_limit,
        governor=governor,
        checkpoint_path=checkpoint_path,
        fallback_frames=checkpoint.fallback_frames,
        initial_state=checkpoint.initial_state,
        variable_scheme=checkpoint.variable_scheme,
        xred=checkpoint.header.get("xred", True),
        pre_pass_3v=checkpoint.header.get("pre_pass_3v", True),
        circuit_spec=checkpoint.circuit_spec,
        signal_guard=signal_guard,
        config=config,
        resume_from=checkpoint,
        **kwargs,
    )
    return fabric.run()
