"""The resilient campaign driver.

:func:`run_campaign` wraps the whole fault-simulation flow — the
``ID_X-red`` pre-pass, the word-parallel three-valued pre-pass and the
symbolic strategies — behind one driver that composes

* a :class:`~repro.runtime.governor.ResourceGovernor` (wall-clock
  deadline, total-node and per-fault frame budgets),
* between-frame checkpoints plus ``SIGINT``/``SIGTERM`` handling
  (:mod:`repro.runtime.checkpoint`), and
* the per-fault :class:`~repro.runtime.ladder.DegradationLadder`.

Faults live in one *group* per ladder rung.  Symbolic groups run a
:class:`~repro.symbolic.fault_sim.SymbolicSession` each (own OBDD
manager, own node limit); the bottom ``3v`` group runs the serial
three-valued engine.  All groups advance in lockstep, one test vector
per iteration.  Three-valued steps run against a shared conservative
good-machine trajectory (simulated on demand), except during an
interlude: there a group starts from its dropped session's good state
projected onto 0/1/X, as the paper does, so constants that only the
symbolic state knows survive.  This is the only frame loop with a
fallback: the paper's hybrid simulator
(:func:`repro.symbolic.hybrid.hybrid_fault_simulate`) is this loop
with a one-rung ladder.  When a session raises

* :class:`SpaceLimitExceeded` (a node-limit overflow, or its
  :class:`MemoryPressureExceeded` subclass) or :class:`MemoryError` —
  evidence about the *group*: its faults share one manager, so no
  single fault is to blame.  The group gets the paper's protocol:
  garbage collection, a retry of the frame when that left the table
  below half the limit, otherwise a three-valued interlude of a few
  frames, after which a fresh session re-opens,
* :class:`BudgetExceeded` with a fault key (a per-fault frame budget)
  — the fault's own evidence: that fault alone is demoted one rung (or
  quarantined off the bottom); the rung it lands on re-opens its
  session from the three-valued projection before it steps again,
* :class:`BudgetExceeded` without a fault key (deadline / total
  nodes) — the frame is *completed* three-valued for the remaining
  groups (so every fault sits on the same frame boundary), a final
  checkpoint is written and a partial :class:`CampaignResult` is
  returned.

A step that raises never mutates its session, so every recovery path
resumes from consistent state.  Any fallback, demotion or resume makes
the classification conservative: the result is flagged
``exact=False``.

The overflow protocol above is the campaign's only memory policy.  The
governor's memory budgets feed into it: a ``cache_budget`` evicts
computed-table entries (semantics-preserving, so ``exact`` never
moves), and a session allocating past 0.9 of the ``rss_budget``
surrenders with :class:`~repro.bdd.errors.MemoryPressureExceeded`,
which is handled like any overflow.  Evictions and surrenders are
counted in :attr:`CampaignResult.pressure` and the checkpoint counters.
"""

import time
import warnings

from repro import failpoints as _failpoints
from repro.bdd.errors import MemoryPressureExceeded, SpaceLimitExceeded
from repro.engines.algebra import THREE_VALUED
from repro.engines.evaluate import next_state_of, simulate_frame
from repro.engines.parallel_fault_sim import fault_simulate_3v_parallel
from repro.engines.propagate import propagate_fault
from repro.engines.serial_fault_sim import _check_sot_detection
from repro.faults.status import BY_3V, QUARANTINED, FaultSet
from repro.logic import threeval
from repro.obs.tracer import NULL_TRACER
from repro.runtime.checkpoint import (
    CheckpointWriter,
    circuit_fingerprint,
    load_checkpoint,
    verify_fingerprint,
)
from repro.runtime.disk import (
    LEVEL_HARD,
    LEVEL_OK,
    DiskConfig,
    DiskGovernor,
    compact_checkpoint,
)
from repro.runtime.errors import (
    BudgetExceeded,
    CheckpointError,
    DegradationExhausted,
)
from repro.runtime.governor import ResourceGovernor
from repro.runtime.ladder import (
    DEFAULT_FALLBACK_FRAMES,
    DEFAULT_NODE_LIMIT,
    GC_RETRY_FRACTION,
    DegradationLadder,
    LadderState,
)
from repro.symbolic.fault_sim import SymbolicSession
from repro.xred.idxred import eliminate_x_redundant

DEFAULT_CHECKPOINT_EVERY = 25

COMPLETED = "completed"

#: BDD manager counters aggregated across sessions (see
#: :meth:`repro.bdd.manager.BddManager.stats`); gauges (``num_nodes``,
#: ``cache_size``) are summed over live sessions only and
#: ``peak_nodes`` is maxed.
_BDD_COUNTER_KEYS = (
    "ite_calls",
    "nodes_created",
    "cache_hits",
    "cache_misses",
    "cache_evictions",
    "entries_evicted",
    "gc_runs",
)


class CampaignResult:
    """Outcome of a campaign (and of a hybrid run): the classified
    fault set plus frame, fallback, budget, degradation and checkpoint
    accounting."""

    def __init__(
        self,
        fault_set,
        strategy_name,
        frames_total,
        frames_symbolic,
        frames_three_valued,
        fallbacks,
        gc_runs,
        peak_nodes,
        demotions,
        demotion_log,
        quarantined,
        checkpoints_written,
        checkpoint_path,
        resumed_from,
        stopped,
        budget,
        ladder_names,
        rung_population,
        fabric=None,
        pressure=None,
        disk=None,
    ):
        self.fault_set = fault_set
        self.strategy = strategy_name
        self.frames_total = frames_total
        self.frames_symbolic = frames_symbolic
        self.frames_three_valued = frames_three_valued
        self.fallbacks = fallbacks
        self.gc_runs = gc_runs
        self.peak_nodes = peak_nodes
        self.demotions = demotions
        self.demotion_log = demotion_log
        self.quarantined = quarantined
        self.checkpoints_written = checkpoints_written
        self.checkpoint_path = checkpoint_path
        self.resumed_from = resumed_from
        self.stopped = stopped
        self.budget = budget
        self.ladder = ladder_names
        self.rung_population = rung_population
        #: shard-fabric accounting dict, None for single-process runs
        self.fabric = fabric
        #: :class:`repro.audit.AuditReport` of the post-campaign
        #: witness-replay audit, None when no audit ran (class default
        #: so fabric-merged results carry it too)
        self.audit = None
        #: memory-pressure accounting dict (events, cache_evictions,
        #: rss_surrenders, peak_rss), None when the governor set no
        #: memory budget and nothing fired.  Evictions never influence
        #: :attr:`exact`; surrenders show up as fallbacks.
        self.pressure = pressure
        #: disk-pressure accounting dict (usage, watermark crossings,
        #: compactions, reclaimed bytes, interval stretches), None when
        #: no disk budget was armed.  Like memory pressure, the relief
        #: rungs are semantics-preserving and never influence
        #: :attr:`exact` — only a ``stopped="disk"`` surrender stops
        #: the run early, cleanly checkpointed.
        self.disk = disk

    @property
    def exact(self):
        """True only for an uninterrupted, undegraded, complete run."""
        return (
            self.stopped == COMPLETED
            and self.fallbacks == 0
            and self.demotions == 0
            and not self.quarantined
            and self.resumed_from is None
            and self.frames_three_valued == 0
        )

    def demotion_reasons(self):
        """Demotions grouped by why (``budget``: a per-fault budget).

        Entries predating reason tracking count as ``unattributed``;
        demotions whose log entries were lost (e.g. a fabric resume,
        which restores counts but not logs) count as ``unrecorded`` so
        the breakdown always sums to :attr:`demotions`.
        """
        return _demotion_reasons(self.demotion_log, self.demotions)

    def runtime_summary(self):
        """Accounting dict for reports and JSON export."""
        summary = {
            "stopped": self.stopped,
            "frames_total": self.frames_total,
            "frames_symbolic": self.frames_symbolic,
            "frames_three_valued": self.frames_three_valued,
            "fallbacks": self.fallbacks,
            "gc_runs": self.gc_runs,
            "demotions": self.demotions,
            "demotion_reasons": self.demotion_reasons(),
            "quarantined": len(self.quarantined),
            "checkpoints_written": self.checkpoints_written,
            "checkpoint_path": self.checkpoint_path,
            "resumed_from": self.resumed_from,
            "peak_nodes": self.peak_nodes,
            "exact": self.exact,
            "ladder": self.ladder,
            "rung_population": self.rung_population,
            "budget": self.budget,
        }
        if self.fabric is not None:
            summary["fabric"] = self.fabric
        if self.pressure is not None:
            summary["pressure"] = self.pressure
        if self.disk is not None:
            summary["disk"] = self.disk
        if self.audit is not None:
            summary["audit"] = self.audit.summary()
        return summary

    def __repr__(self):
        counts = self.fault_set.counts()
        flag = "exact" if self.exact else "conservative"
        return (
            f"CampaignResult({self.strategy}, "
            f"{counts['detected']}/{counts['total']} detected, "
            f"{self.stopped} after {self.frames_total} frames, {flag})"
        )


class _Group:
    """The faults currently on one ladder rung.

    A symbolic group is either *running* (``session`` holds the
    records) or in a three-valued *interlude* after a whole-group
    overflow fallback (``records``/``diffs`` hold them until the
    interlude expires and a fresh session re-opens).  A fault demoted
    onto a running group is parked in ``records``/``diffs`` too, never
    attached to the session: the session's good state is a function of
    its initial variables, and a state bit that is X in both machines
    would take that function, tying the faulty machine to the good
    one.  At the group's turn in the same frame (demotions only move
    down the ladder) the session is closed and a fresh one opens from
    its three-valued projection, whose X bits are free variables.  The
    bottom ``3v`` group only ever uses ``records``/``diffs``.
    """

    def __init__(self, rung_index, rung):
        self.rung_index = rung_index
        self.rung = rung
        self.session = None
        self.records = {}  # id(record) -> record (outside a session)
        self.diffs = {}  # id(record) -> {dff: 3v value} vs the reference
        self.interlude_left = 0
        # the reference of ``diffs`` during an interlude: the dropped
        # session's good state projected onto 0/1/X, advanced frame by
        # frame.  None means the campaign's shared trajectory.
        self.good_3v = None

    def live_count(self):
        live = len(self.records)
        if self.session is not None:
            live += len(self.session.live_records())
        return live


class Campaign:
    """One resilient fault-simulation campaign (see module docstring)."""

    def __init__(
        self,
        compiled,
        sequence,
        fault_set,
        strategy="MOT",
        ladder=None,
        node_limit=DEFAULT_NODE_LIMIT,
        governor=None,
        checkpoint_path=None,
        checkpoint_every=DEFAULT_CHECKPOINT_EVERY,
        fallback_frames=DEFAULT_FALLBACK_FRAMES,
        initial_state=None,
        variable_scheme="interleaved",
        progress_hook=None,
        signal_guard=None,
        circuit_spec=None,
        xred=True,
        pre_pass_3v=True,
        disk=None,
        tracer=None,
        metrics=None,
    ):
        if fallback_frames < 1:
            raise ValueError("fallback_frames must be at least 1")
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
        self.node_limit = node_limit
        self.governor = governor or ResourceGovernor()
        self.checkpoint_every = max(int(checkpoint_every), 1)
        self.fallback_frames = fallback_frames
        self.variable_scheme = variable_scheme
        self.progress_hook = progress_hook
        self.signal_guard = signal_guard
        self.circuit_spec = circuit_spec or compiled.circuit.name
        self.xred = xred
        self.pre_pass_3v = pre_pass_3v

        # observability: a live tracer and/or metrics registry turns on
        # span/event emission, opt-in BDD stat counting on every
        # session manager, and per-fault effort accounting.  With both
        # absent the campaign holds NULL_TRACER and every instrumented
        # site reduces to an attribute check.
        self.tracer = tracer if tracer is not None else NULL_TRACER
        self.metrics = metrics
        self._observe = self.tracer.enabled or metrics is not None
        # fault key -> [symbolic frames, three-valued frames, nodes]
        self._fault_effort = {}
        # BDD stats folded out of discarded sessions; live sessions are
        # summed on top at sample time
        self._bdd_base = {}
        self._bdd_peak = 2
        self._root_span = None
        # counter values at run() start: the trace summary reports
        # this-run deltas so a resumed campaign still reconciles
        # exactly against its own trace events
        self._trace_base = {}

        # disk-pressure policy: a DiskConfig (or its JSON dict) arms
        # the disk governor over this campaign's own artifacts — the
        # checkpoint file is the one that grows without bound.  The
        # relief ladder (compact -> stretch the checkpoint interval ->
        # checkpointed surrender) runs at frame boundaries, the same
        # safe points the resource governor checks.
        if isinstance(disk, dict):
            disk = DiskConfig(
                budget=disk.get("budget"),
                free_floor=disk.get("free_floor"),
                soft=disk.get("soft", 0.8),
            )
        self._disk = None
        if disk is not None and disk.enabled:
            paths = [checkpoint_path] if checkpoint_path else []
            self._disk = DiskGovernor(disk, paths=paths)
        self._base_checkpoint_every = self.checkpoint_every
        self.pressure_events = 0
        self.cache_evictions = 0
        self.rss_surrenders = 0

        if initial_state is None:
            initial_state = [threeval.X] * compiled.num_dffs
        self.initial_state = list(initial_state)
        # the shared three-valued good-machine trajectory depends only
        # on the sequence, so it is simulated on demand (_shared_good):
        # a campaign whose groups all stay symbolic never pays for it
        self._good_3v = list(initial_state)
        self._good_frame = 0
        self._frame_values = None  # its gate values for this frame

        self.ladder_state = LadderState(ladder)
        self.groups = [_Group(i, rung) for i, rung in enumerate(ladder.rungs)]
        self._record_of = {r.fault.key(): r for r in fault_set}

        self.frame = 0
        self.frames_symbolic = 0
        self.frames_three_valued = 0
        self.fallbacks = 0
        self.gc_runs = 0
        self.peak_nodes = 2
        self.quarantined = []  # fault keys
        self.resumed_from = None
        self.stopped = None
        self._resume_elapsed = 0.0

        self._writer = (
            CheckpointWriter(checkpoint_path) if checkpoint_path else None
        )
        self._attached = False  # faults distributed onto the ladder

    # ------------------------------------------------------------------
    # construction from a checkpoint
    # ------------------------------------------------------------------
    @classmethod
    def from_checkpoint(
        cls,
        checkpoint,
        compiled,
        fault_set,
        governor=None,
        checkpoint_path=None,
        checkpoint_every=DEFAULT_CHECKPOINT_EVERY,
        progress_hook=None,
        signal_guard=None,
        disk=None,
        tracer=None,
        metrics=None,
    ):
        """Rebuild a campaign from the last snapshot of *checkpoint*.

        Symbolic sessions are *not* serialized; they re-open from the
        snapshot's three-valued projection, so the resumed result is
        conservative and flagged ``exact=False``.  Raises
        :class:`~repro.runtime.errors.CheckpointMismatch` when the
        checkpoint's fingerprint names a different circuit or fault
        universe than the resume target.
        """
        keys = [r.fault.key() for r in fault_set]
        verify_fingerprint(
            checkpoint.path, checkpoint.fingerprint, compiled, keys
        )
        if keys != checkpoint.fault_keys:
            raise CheckpointError(
                checkpoint.path,
                "fault universe does not match the checkpointed campaign "
                f"({len(keys)} vs {len(checkpoint.fault_keys)} faults)",
            )
        ladder = DegradationLadder.from_json(checkpoint.ladder_json())
        campaign = cls(
            compiled,
            checkpoint.sequence,
            fault_set,
            ladder=ladder,
            node_limit=checkpoint.node_limit,
            governor=governor,
            checkpoint_path=checkpoint_path or checkpoint.path,
            checkpoint_every=checkpoint_every,
            fallback_frames=checkpoint.fallback_frames,
            variable_scheme=checkpoint.variable_scheme,
            progress_hook=progress_hook,
            signal_guard=signal_guard,
            circuit_spec=checkpoint.circuit_spec,
            xred=False,
            pre_pass_3v=False,
            disk=disk,
            tracer=tracer,
            metrics=metrics,
        )
        campaign.frame = checkpoint.frame
        campaign.resumed_from = checkpoint.frame
        campaign._good_3v = checkpoint.good_state
        campaign._good_frame = checkpoint.frame
        counters = checkpoint.counters
        campaign.frames_symbolic = counters.get("frames_symbolic", 0)
        campaign.frames_three_valued = counters.get("frames_three_valued", 0)
        campaign.fallbacks = counters.get("fallbacks", 0)
        campaign.gc_runs = counters.get("gc_runs", 0)
        campaign.peak_nodes = counters.get("peak_nodes", 2)
        campaign.pressure_events = counters.get("pressure_events", 0)
        campaign.cache_evictions = counters.get("cache_evictions", 0)
        campaign.rss_surrenders = counters.get("rss_surrenders", 0)
        campaign.ladder_state.demotions = counters.get("demotions", 0)
        campaign.governor.nodes_allocated = counters.get("nodes_allocated", 0)
        campaign._resume_elapsed = checkpoint.elapsed
        if campaign._disk is not None:
            campaign._disk.compactions = counters.get("disk_compactions", 0)
            campaign._disk.stretches = counters.get("disk_stretches", 0)
            campaign._disk.soft_events = counters.get("disk_soft_events", 0)
            campaign._disk.hard_events = counters.get("disk_hard_events", 0)
            campaign._disk.reclaimed_bytes = counters.get(
                "disk_reclaimed_bytes", 0
            )

        for record, (state, rung_index, diff) in zip(
            fault_set, checkpoint.fault_states()
        ):
            record.state_from_json(state)
            if record.status == QUARANTINED:
                campaign.quarantined.append(record.fault.key())
            if rung_index is None:
                continue
            campaign.ladder_state.assign(record.fault.key(), rung_index)
            group = campaign.groups[rung_index]
            group.records[id(record)] = record
            group.diffs[id(record)] = diff or {}
        campaign._attached = True
        return campaign

    # ------------------------------------------------------------------
    # the main loop
    # ------------------------------------------------------------------
    def run(self):
        """Drive the campaign to completion (or a graceful stop)."""
        self.governor.start(
            elapsed_before=self._resume_elapsed,
            nodes_before=self.governor.nodes_allocated,
        )
        self._trace_base = {
            "detected": len(self.fault_set.detected()),
            "demotions": self.ladder_state.demotions,
            "quarantined": len(self.quarantined),
            "fallbacks": self.fallbacks,
            "gc_runs": self.gc_runs,
            "pressure_events": self.pressure_events,
        }
        self._root_span = self.tracer.span(
            "campaign",
            circuit=self.circuit_spec,
            frames=len(self.sequence),
            faults=len(self.fault_set),
            ladder=self.ladder.names(),
            resumed_from=self.resumed_from,
        )
        # the governor reports its cache evictions back; unhooked after
        # the run so the governor does not keep this campaign alive
        self.governor.on_evict = self._on_pressure_event
        with _failpoints.observed_by(self.tracer, self.metrics):
            try:
                if not self._attached:
                    self._write_header()
                    stopped_early = self._pre_passes()
                    self._distribute_faults()
                    if stopped_early:
                        return self._finish(stopped_early)
                return self._main_loop()
            finally:
                self.governor.on_evict = None
                if self._writer is not None:
                    self._writer.close()

    def _pre_passes(self):
        """ID_X-red and the conventional three-valued pass.

        Returns a stop reason if a budget expired mid-pass, else None.
        """
        try:
            self.governor.check_frame(0)
            if self.xred:
                span = self.tracer.span("xred")
                before = len(self.fault_set.x_redundant())
                try:
                    eliminate_x_redundant(
                        self.compiled,
                        self.sequence,
                        self.fault_set,
                        initial_state=self.initial_state,
                    )
                finally:
                    # record the delta even on a budget stop: detections
                    # and eliminations made before the stop stand, and
                    # the profiler reconciles against them
                    span.add(
                        x_redundant=len(self.fault_set.x_redundant()) - before
                    )
                    span.close()
            if self.pre_pass_3v:
                span = self.tracer.span("prepass-3v")
                before = len(self.fault_set.detected())
                try:
                    fault_simulate_3v_parallel(
                        self.compiled,
                        self.sequence,
                        self.fault_set,
                        initial_state=self.initial_state,
                        frame_hook=self.governor.check_frame,
                    )
                finally:
                    span.add(
                        detected=len(self.fault_set.detected()) - before
                    )
                    span.close()
        except BudgetExceeded as exc:
            self._note_budget_stop(exc)
            return exc.kind
        return None

    def _distribute_faults(self):
        if any(rung.symbolic for rung in self.ladder.rungs):
            candidates = self.fault_set.symbolic_candidates()
        elif self.pre_pass_3v:
            # a three-valued-only ladder would replay the pre-pass
            # frame for frame: nothing is left for it to find
            candidates = []
        else:
            candidates = self.fault_set.undetected()
        start_group = self.groups[0]
        for record in candidates:
            self.ladder_state.assign(record.fault.key(), 0)
            start_group.records[id(record)] = record
            start_group.diffs[id(record)] = {}
        self._attached = True

    def _main_loop(self):
        sequence = self.sequence
        while self.frame < len(sequence):
            if not any(group.live_count() for group in self.groups):
                break
            if (
                self.signal_guard is not None
                and self.signal_guard.stop_requested
            ):
                return self._finish("signal")
            try:
                self.governor.check_frame(self.frame)
                self._check_disk()
            except BudgetExceeded as exc:
                self._note_budget_stop(exc)
                return self._finish(exc.kind)
            stop = self._run_frame(sequence[self.frame])
            self.frame += 1
            if stop is not None:
                return self._finish(stop)
            if (
                self.frame % self.checkpoint_every == 0
                and self.frame < len(sequence)
            ):
                self._write_checkpoint()
                self._emit_progress()
        return self._finish(COMPLETED)

    def _run_frame(self, vector):
        """One lockstep frame; returns a stop reason (budget kind) or None.

        A campaign-level budget can expire while some groups have
        already stepped; the frame is then *completed* three-valued for
        the remaining groups so every fault sits on the same frame
        boundary when the final checkpoint is written.
        """
        time = self.frame + 1  # detection times are 1-based
        stop = None
        stepped_symbolic = False
        stepped_3v = False
        pending = list(self.groups)
        while pending:
            group = pending.pop(0)
            if stop is not None:
                # budget expired mid-frame: drain remaining groups 3v
                if group.rung.symbolic and group.session is not None:
                    self._begin_interlude(group)
                if group.records:
                    self._three_valued_step(
                        vector, group, time,
                        quarantine_on_budget=not group.rung.symbolic,
                    )
                    stepped_3v = True
                if group.interlude_left > 0:
                    group.interlude_left -= 1
                continue
            if not group.rung.symbolic:
                if group.records:
                    self._three_valued_step(
                        vector, group, time, quarantine_on_budget=True
                    )
                    stepped_3v = True
                continue
            if group.interlude_left > 0:
                if group.records:
                    self._three_valued_step(vector, group, time)
                    stepped_3v = True
                group.interlude_left -= 1
                continue
            if group.session is not None and group.records:
                # faults demoted onto the running rung (see _Group)
                self._close_session(group)
            if group.session is None and group.records:
                try:
                    self._open_session(group)
                except (SpaceLimitExceeded, MemoryError) as exc:
                    # the rung's limit cannot even hold the state
                    # encoding (or the allocation itself failed — a
                    # real OOM or the bdd.alloc failpoint): run this
                    # group three-valued for a while
                    self._note_surrender(exc)
                    self.fallbacks += 1
                    self.tracer.event(
                        "fallback",
                        frame=self.frame,
                        rung=group.rung.strategy,
                        reason="open-session",
                    )
                    group.session = None
                    group.interlude_left = self.fallback_frames
                    self._three_valued_step(vector, group, time)
                    group.interlude_left -= 1
                    stepped_3v = True
                    continue
                except BudgetExceeded as exc:
                    self._note_budget_stop(exc)
                    stop = exc.kind
                    group.session = None
                    pending.insert(0, group)
                    continue
            if group.session is not None:
                span = self.tracer.span(
                    "step",
                    frame=self.frame,
                    rung=group.rung.strategy,
                    mode="symbolic",
                    live=len(group.session.live_records()),
                )
                try:
                    outcome = self._step_symbolic_group(group, vector)
                except BudgetExceeded as exc:
                    span.add(outcome="budget")
                    span.close()
                    self._note_budget_stop(exc)
                    stop = exc.kind
                    pending.insert(0, group)
                    continue
                span.add(
                    outcome=(
                        outcome if isinstance(outcome, str)
                        else ("stepped" if outcome else "empty")
                    )
                )
                span.close()
                if outcome == "interlude":
                    self._three_valued_step(vector, group, time)
                    group.interlude_left -= 1
                    stepped_3v = True
                elif outcome:
                    stepped_symbolic = True
                if (
                    group.session is not None
                    and not group.session.live_records()
                ):
                    # every fault was detected or demoted: retire the
                    # session, so a later demotion parks its record and
                    # a fresh session opens at the then-current frame
                    self._fold_session_stats(group.session)
                    group.session = None
        if self._frame_values is not None:
            self._good_3v = next_state_of(self.compiled, self._frame_values)
            self._good_frame = self.frame + 1
            self._frame_values = None
        if stepped_symbolic:
            self.frames_symbolic += 1
        if stepped_3v:
            self.frames_three_valued += 1
        return stop

    # ------------------------------------------------------------------
    # symbolic groups
    # ------------------------------------------------------------------
    def _shared_good(self):
        """The shared three-valued good state at the current frame."""
        while self._good_frame < self.frame:
            values = simulate_frame(
                self.compiled, THREE_VALUED,
                self.sequence[self._good_frame], self._good_3v,
            )
            self._good_3v = next_state_of(self.compiled, values)
            self._good_frame += 1
        return self._good_3v

    def _shared_values(self, vector):
        """The shared good machine's gate values for this frame."""
        if self._frame_values is None:
            self._frame_values = simulate_frame(
                self.compiled, THREE_VALUED, vector, self._shared_good()
            )
        return self._frame_values

    def _reference(self, group):
        """The three-valued good state *group*'s parked diffs are against."""
        if group.good_3v is not None and not group.records:
            group.good_3v = None  # nothing is parked against it any more
        if group.good_3v is not None:
            return group.good_3v
        return self._shared_good()

    def _open_session(self, group):
        """Fresh session for *group* from its three-valued state."""
        session = SymbolicSession(
            self.compiled,
            group.rung.strategy,
            good_state_3v=self._reference(group),
            node_limit=group.rung.node_limit(self.node_limit),
            variable_scheme=self.variable_scheme,
            start_time=self.frame,
        )
        self.governor.attach_manager(session.manager)
        if self._observe:
            session.manager.enable_stats()
            session.tracer = self.tracer
            session.metrics = self.metrics
        governor_hook = (
            self.governor.check_fault_frame_nodes
            if self.governor.fault_frame_nodes is not None
            else None
        )
        if self._observe and governor_hook is not None:

            def cost_hook(record, nodes, _inner=governor_hook):
                # count the effort first: a budget check that raises
                # still spent the nodes it is complaining about
                self._note_fault_cost(record, nodes)
                _inner(record, nodes)

            session.fault_cost_hook = cost_hook
        elif self._observe:
            session.fault_cost_hook = self._note_fault_cost
        elif governor_hook is not None:
            session.fault_cost_hook = governor_hook
        for key, record in group.records.items():
            session.attach_fault(record, group.diffs.get(key))
        group.records = {}
        group.diffs = {}
        group.good_3v = None
        group.session = session

    def _step_symbolic_group(self, group, vector):
        """One frame for a symbolic group, with the retry protocol.

        Returns True on a successful step, ``"interlude"`` after a
        whole-group fallback (the caller then simulates this frame
        three-valued), False when the group emptied out.  A per-fault
        budget overrun demotes just that fault and retries; the step is
        atomic, so a retry re-runs the frame from unchanged state.
        """
        gc_tried = False
        while True:
            session = group.session
            if not session.live_records():
                return False
            try:
                detected = session.step(vector)
            except (SpaceLimitExceeded, MemoryError) as exc:
                # the group's shared manager overflowed (or memory
                # pressure surrendered, or an allocation failed outright
                # — a real OOM or the bdd.alloc failpoint): evidence
                # about the group, not about whichever fault allocated
                # last.  The step left the session untouched, so the
                # paper's GC-then-interlude protocol stays conservative.
                self.peak_nodes = max(
                    self.peak_nodes, session.manager.peak_nodes
                )
                self._note_surrender(exc)
                if not gc_tried:
                    freed = session.compact()
                    self.gc_runs += 1
                    self.tracer.event(
                        "gc", frame=self.frame, freed=freed,
                        rung=group.rung.strategy,
                    )
                    gc_tried = True
                    limit = session.manager.node_limit or 0
                    if session.manager.num_nodes < GC_RETRY_FRACTION * limit:
                        continue
                self._begin_interlude(group)
                return "interlude"
            except BudgetExceeded as exc:
                if exc.fault_key is not None:
                    self._demote(group, exc.fault_key, reason="budget")
                    continue
                raise
            self.peak_nodes = max(self.peak_nodes, session.manager.peak_nodes)
            for record in detected:
                self.ladder_state.forget(record.fault.key())
            return True

    def _demote(self, group, fault_key, reason=None):
        """Move one fault a rung down (or quarantine it off the end)."""
        record = self._record_of[fault_key]
        index = group.rung_index + 1
        target = self.groups[index] if index < len(self.groups) else None
        reference = self._reference(target) if target is not None else None
        diff = group.session.detach(record, relative_to=reference)
        try:
            new_index = self.ladder_state.demote(
                fault_key, frame=self.frame, reason=reason
            )
        except DegradationExhausted:
            self._quarantine(record)
            return
        if self.tracer.enabled:
            self.tracer.event(
                "demote",
                fault=str(fault_key),
                frame=self.frame,
                reason=reason,
                to=self.groups[new_index].rung.strategy,
                **{"from": group.rung.strategy},
            )
        # parked, never attached to a running session (see _Group)
        target.records[id(record)] = record
        target.diffs[id(record)] = diff or {}

    def _quarantine(self, record):
        record.mark_quarantined()
        key = record.fault.key()
        self.ladder_state.forget(key)
        self.quarantined.append(key)
        self.tracer.event("quarantine", fault=str(key), frame=self.frame)

    def _begin_interlude(self, group):
        """Whole-group fallback: project to three-valued, drop the
        session, simulate ``fallback_frames`` frames conventionally.

        The interlude starts from the session's own projection, as in
        the paper: it keeps every constant the symbolic good state
        knows, which the shared trajectory may have lost to
        reconvergence.  Those constants hold for every initial state.
        """
        self.fallbacks += 1
        self.tracer.event(
            "fallback",
            frame=self.frame,
            rung=group.rung.strategy,
            reason="interlude",
        )
        self._close_session(group)
        group.interlude_left = self.fallback_frames

    def _close_session(self, group):
        """Drop *group*'s session: its records join the parked ones,
        all re-expressed against the session's good state projected
        onto 0/1/X."""
        session = group.session
        self._fold_session_stats(session)
        good = session.project_state_3v()
        diffs = group.diffs
        if diffs:
            shared = self._shared_good()
            diffs = {
                key: _rebase(diff, shared, good)
                for key, diff in diffs.items()
            }
        for record in session.live_records():
            group.records[id(record)] = record
            diffs[id(record)] = session.detach(record, relative_to=good)
        group.session = None
        group.diffs = diffs
        group.good_3v = good

    # ------------------------------------------------------------------
    # disk-pressure relief ladder
    # ------------------------------------------------------------------
    #: ceiling of checkpoint-interval stretching, as a multiple of the
    #: configured interval; past it the ladder has no rungs left
    _DISK_STRETCH_MAX = 8

    def _check_disk(self):
        """One frame-boundary watermark check plus the relief ladder.

        ``soft`` compacts the checkpoint (dropping superseded snapshot
        records) and, when that is not enough, stretches the
        checkpoint interval — both semantics-preserving.  ``hard``
        runs the same rungs and, once they are exhausted, raises
        :class:`~repro.runtime.errors.DiskPressureExceeded`, which the
        main loop routes like every budget stop: final checkpoint,
        partial result, ``stopped="disk"``.
        """
        governor = self._disk
        if governor is None:
            return
        level = governor.check()
        if level == LEVEL_OK:
            return
        if self._compact_own_checkpoint(force=level == LEVEL_HARD):
            level = governor.check(force=True)
            if level == LEVEL_OK:
                return
        stretched = self._disk_stretch()
        if level == LEVEL_HARD and not stretched:
            governor.hard_stop(frame=self.frame)

    def _compact_own_checkpoint(self, force=False):
        """Online compaction at a safe point (no record mid-write).

        Closes the writer, rewrites the file keeping only the records
        a resume reads, and reopens for append.  A failed compaction
        (including the ``disk.compact.crash`` failpoint) leaves the
        original file untouched and reports no relief.
        """
        writer = self._writer
        if writer is None:
            return False
        if writer.records_written == 0 and not force:
            return False  # nothing new since the last compaction
        checkpoints_written = writer.checkpoints_written
        path = writer.path
        writer.close()
        self._writer = None
        stats = None
        try:
            stats = compact_checkpoint(path)
        except CheckpointError:
            pass
        finally:
            self._writer = CheckpointWriter(path)
            self._writer.checkpoints_written = checkpoints_written
        if stats is None:
            self.tracer.event(
                "disk", action="compact-failed", frame=self.frame
            )
            return False
        self._disk.note_compaction(
            stats["bytes_before"], stats["bytes_after"]
        )
        if self.metrics is not None:
            self.metrics.inc("disk.compactions")
        self.tracer.event(
            "disk",
            action="compact",
            frame=self.frame,
            records_before=stats["records_before"],
            records_after=stats["records_after"],
        )
        return True

    def _disk_stretch(self):
        """Double the checkpoint interval (bounded); True when it moved.

        Fewer snapshot records per frame means slower checkpoint-file
        growth at the price of more re-run work after a crash — a
        durability trade, never a verdict trade.
        """
        limit = self._base_checkpoint_every * self._DISK_STRETCH_MAX
        if self.checkpoint_every >= limit:
            return False
        self.checkpoint_every = min(self.checkpoint_every * 2, limit)
        self._disk.note_stretch()
        if self.metrics is not None:
            self.metrics.inc("disk.stretches")
        self.tracer.event(
            "disk",
            action="stretch",
            frame=self.frame,
            checkpoint_every=self.checkpoint_every,
        )
        return True

    def _disk_accounting(self):
        """The ``disk`` dict of the result; None when no budget armed."""
        if self._disk is None:
            return None
        data = self._disk.accounting()
        data["config"] = self._disk.config.to_json()
        data["checkpoint_every"] = self.checkpoint_every
        return data

    # ------------------------------------------------------------------
    # memory-pressure bookkeeping
    # ------------------------------------------------------------------
    def _on_pressure_event(self, event):
        """Count one eviction or surrender and trace it."""
        self.pressure_events += 1
        if event["action"] == "evict":
            self.cache_evictions += 1
        else:
            self.rss_surrenders += 1
        if self.tracer.enabled:
            self.tracer.event("pressure", frame=self.frame, **event)

    def _note_surrender(self, exc):
        """Record a pressure surrender (only MemoryPressureExceeded)."""
        if not isinstance(exc, MemoryPressureExceeded):
            return
        self._on_pressure_event(
            {
                "action": "surrender",
                "trigger": "rss",
                "rss": exc.requested,
            }
        )

    def _pressure_accounting(self):
        """The ``pressure`` dict of the result; None when inert."""
        governor = self.governor
        if (
            governor.rss_budget is None
            and governor.cache_budget is None
            and self.pressure_events == 0
        ):
            return None
        return {
            "events": self.pressure_events,
            "cache_evictions": self.cache_evictions,
            "rss_surrenders": self.rss_surrenders,
            "peak_rss": governor.peak_rss,
        }

    # ------------------------------------------------------------------
    # observability: per-fault effort, BDD stats, metric samples
    # ------------------------------------------------------------------
    def _note_fault_cost(self, record, nodes):
        """Session hook: one symbolic frame stepped for *record*."""
        effort = self._fault_effort.setdefault(record.fault.key(), [0, 0, 0])
        effort[0] += 1
        effort[2] += nodes

    def _note_budget_stop(self, exc):
        """Trace a campaign-level budget expiry (the stop reason)."""
        self.tracer.event(
            "budget",
            budget_kind=exc.kind,
            frame=self.frame,
            observed=exc.observed,
            limit=exc.limit,
        )

    def _fold_session_stats(self, session):
        """Bank a dying session's BDD counters before it is dropped."""
        if not self._observe:
            return
        stats = session.manager.stats()
        self._bdd_peak = max(self._bdd_peak, stats["peak_nodes"])
        for key in _BDD_COUNTER_KEYS:
            self._bdd_base[key] = self._bdd_base.get(key, 0) + stats[key]

    def _bdd_stats(self):
        """Aggregate BDD stats: banked sessions plus live ones."""
        totals = {
            key: self._bdd_base.get(key, 0) for key in _BDD_COUNTER_KEYS
        }
        totals["num_nodes"] = 0
        totals["cache_size"] = 0
        peak = self._bdd_peak
        for group in self.groups:
            if group.session is None:
                continue
            stats = group.session.manager.stats()
            for key in _BDD_COUNTER_KEYS:
                totals[key] += stats[key]
            totals["num_nodes"] += stats["num_nodes"]
            totals["cache_size"] += stats["cache_size"]
            peak = max(peak, stats["peak_nodes"])
        totals["peak_nodes"] = peak
        return totals

    def _sample_metrics(self, name="sample"):
        """Push current totals into the registry and the trace.

        Everything sampled here is a deterministic function of the
        simulation (never RSS or wall clock), so canonical traces stay
        byte-reproducible.
        """
        if not self._observe:
            return
        stats = self._bdd_stats()
        detected = len(self.fault_set.detected())
        live = sum(group.live_count() for group in self.groups)
        if self.metrics is not None:
            for key in _BDD_COUNTER_KEYS:
                self.metrics.set_total("bdd." + key, stats[key])
            self.metrics.gauge("bdd.num_nodes", stats["num_nodes"])
            self.metrics.gauge("bdd.cache_size", stats["cache_size"])
            self.metrics.gauge_max("bdd.peak_nodes", stats["peak_nodes"])
            self.metrics.gauge("campaign.frame", self.frame)
            self.metrics.gauge("campaign.live", live)
            self.metrics.set_total("campaign.detected", detected)
            self.metrics.set_total(
                "campaign.frames_symbolic", self.frames_symbolic
            )
            self.metrics.set_total(
                "campaign.frames_three_valued", self.frames_three_valued
            )
            self.metrics.set_total("campaign.fallbacks", self.fallbacks)
            self.metrics.set_total("campaign.gc_runs", self.gc_runs)
            self.metrics.set_total(
                "campaign.demotions", self.ladder_state.demotions
            )
            self.metrics.set_total(
                "campaign.quarantined", len(self.quarantined)
            )
            self.metrics.set_total(
                "campaign.pressure_events", self.pressure_events
            )
            self.metrics.set_total(
                "governor.nodes_allocated", self.governor.nodes_allocated
            )
        if self.tracer.enabled:
            self.tracer.metrics(
                name,
                {
                    "campaign.frame": self.frame,
                    "campaign.live": live,
                    "campaign.detected": detected,
                    "bdd.cache_hits": stats["cache_hits"],
                    "bdd.cache_misses": stats["cache_misses"],
                    "bdd.nodes_created": stats["nodes_created"],
                    "bdd.num_nodes": stats["num_nodes"],
                    "governor.nodes_allocated": (
                        self.governor.nodes_allocated
                    ),
                },
            )

    def _close_trace(self, stopped):
        """Fault spans, the root span and the summary record."""
        if self.tracer.enabled:
            # one span per fault in the universe — faults classified
            # before symbolic stepping (x-red, 3v pre-pass) show zero
            # effort, so the profiler sees the whole population
            for key in sorted(self._record_of, key=str):
                effort = self._fault_effort.get(key, (0, 0, 0))
                record = self._record_of[key]
                self.tracer.span(
                    "fault",
                    fault=str(key),
                    frames_symbolic=effort[0],
                    frames_3v=effort[1],
                    nodes=effort[2],
                    state=record.status,
                ).close()
        if self._root_span is not None:
            self._root_span.add(stopped=stopped)
            self._root_span.close()
            self._root_span = None
        if not self.tracer.enabled:
            return
        base = self._trace_base
        # the log restarts on resume, so it holds this run's demotions
        demotions = self.ladder_state.demotions - base.get("demotions", 0)
        summary = {
            "stopped": stopped,
            "frames_total": self.frame,
            "frames_symbolic": self.frames_symbolic,
            "frames_three_valued": self.frames_three_valued,
            "fallbacks": self.fallbacks - base.get("fallbacks", 0),
            "gc_runs": self.gc_runs - base.get("gc_runs", 0),
            "demotions": demotions,
            "demotion_reasons": _demotion_reasons(
                self.ladder_state.demotion_log, demotions
            ),
            "quarantined": (
                len(self.quarantined) - base.get("quarantined", 0)
            ),
            "checkpoints_written": (
                self._writer.checkpoints_written if self._writer else 0
            ),
            "peak_nodes": self.peak_nodes,
            "detected": (
                len(self.fault_set.detected()) - base.get("detected", 0)
            ),
            "total_faults": len(self.fault_set),
            "nodes_allocated": self.governor.nodes_allocated,
            "pressure_events": (
                self.pressure_events - base.get("pressure_events", 0)
            ),
        }
        if self.resumed_from is not None:
            summary["resumed_from"] = self.resumed_from
        if _failpoints.armed_count():
            # only under injection: a clean run's summary is unchanged
            summary["failpoints_fired"] = sum(
                _failpoints.fired_counts().values()
            )
        if self.tracer.wall:
            summary["elapsed"] = round(self.governor.elapsed(), 3)
        self.tracer.summary(summary)

    # ------------------------------------------------------------------
    # three-valued stepping (interludes and the bottom rung)
    # ------------------------------------------------------------------
    def _three_valued_step(
        self, vector, group, time, quarantine_on_budget=False
    ):
        if group.good_3v is None:
            good_values = self._shared_values(vector)
        else:
            good_values = simulate_frame(
                self.compiled, THREE_VALUED, vector, group.good_3v
            )
            group.good_3v = next_state_of(self.compiled, good_values)
        records, diffs = group.records, group.diffs
        span = self.tracer.span(
            "step",
            frame=time - 1,
            rung=group.rung.strategy,
            mode="3v",
            live=len(records),
        )
        observing = self._observe
        for key in list(records):
            record = records[key]
            if observing:
                effort = self._fault_effort.setdefault(
                    record.fault.key(), [0, 0, 0]
                )
                effort[1] += 1
            result = propagate_fault(
                self.compiled,
                THREE_VALUED,
                good_values,
                record.fault,
                diffs[key],
            )
            if quarantine_on_budget:
                try:
                    self.governor.check_fault_frame_events(
                        record, len(result.diff)
                    )
                except BudgetExceeded:
                    del records[key], diffs[key]
                    self._quarantine(record)
                    continue
            if _check_sot_detection(
                self.compiled, good_values, result, THREE_VALUED
            ):
                record.mark_detected(BY_3V, time)
                self.ladder_state.forget(record.fault.key())
                del records[key], diffs[key]
                if self.tracer.enabled:
                    self.tracer.event(
                        "detect",
                        fault=str(record.fault.key()),
                        rung=group.rung.strategy,
                        frame=time - 1,
                        by=BY_3V,
                        acc_nodes=0,
                    )
            else:
                diffs[key] = result.next_state_diff
        span.add(outcome="stepped")
        span.close()

    # ------------------------------------------------------------------
    # checkpoints, progress, finishing
    # ------------------------------------------------------------------
    def _write_header(self):
        if self._writer is None:
            return
        fault_keys = [r.fault.key() for r in self.fault_set]
        self._writer.write_header(
            circuit_spec=self.circuit_spec,
            sequence=self.sequence,
            fault_keys=fault_keys,
            ladder=self.ladder,
            node_limit=self.node_limit,
            initial_state=self.initial_state,
            variable_scheme=self.variable_scheme,
            fallback_frames=self.fallback_frames,
            fingerprint=circuit_fingerprint(self.compiled, fault_keys),
        )

    def _live_snapshot(self):
        """(rung_indices, diffs) keyed by id(record) for all live faults."""
        shared = self._shared_good()
        rungs = {}
        diffs = {}
        for group in self.groups:
            if group.session is not None:
                session_diffs = group.session.snapshot_diffs(
                    relative_to=shared
                )
                for record in group.session.live_records():
                    rungs[id(record)] = group.rung_index
                    diffs[id(record)] = session_diffs[id(record)]
            reference = self._reference(group)
            for key, record in group.records.items():
                rungs[id(record)] = group.rung_index
                diffs[id(record)] = _rebase(
                    group.diffs.get(key, {}), reference, shared
                )
        return rungs, diffs

    def _counters(self):
        counters = {
            "frames_symbolic": self.frames_symbolic,
            "frames_three_valued": self.frames_three_valued,
            "fallbacks": self.fallbacks,
            "gc_runs": self.gc_runs,
            "demotions": self.ladder_state.demotions,
            "peak_nodes": self.peak_nodes,
            "nodes_allocated": self.governor.nodes_allocated,
            "pressure_events": self.pressure_events,
            "cache_evictions": self.cache_evictions,
            "rss_surrenders": self.rss_surrenders,
        }
        if self._disk is not None:
            # only the deterministic relief counters: usage/free bytes
            # vary run to run and would break byte-stable comparisons
            counters["disk_compactions"] = self._disk.compactions
            counters["disk_stretches"] = self._disk.stretches
            counters["disk_soft_events"] = self._disk.soft_events
            counters["disk_hard_events"] = self._disk.hard_events
            counters["disk_reclaimed_bytes"] = self._disk.reclaimed_bytes
        return counters

    def _write_checkpoint(self):
        if self._writer is None:
            return
        rungs, diffs = self._live_snapshot()
        self._writer.write_checkpoint(
            frame=self.frame,
            good_state_3v=self._shared_good(),
            fault_set=self.fault_set,
            rung_indices=rungs,
            diffs_3v=diffs,
            counters=self._counters(),
            elapsed=round(self.governor.elapsed(), 6),
        )
        self.tracer.event(
            "checkpoint",
            frame=self.frame,
            written=self._writer.checkpoints_written,
        )

    def _progress_payload(self):
        counts = self.fault_set.counts()
        return {
            "frame": self.frame,
            "frames_total": len(self.sequence),
            "detected": counts["detected"],
            "live": sum(group.live_count() for group in self.groups),
            "quarantined": len(self.quarantined),
            "rung_population": self.ladder_state.population(),
            "fallbacks": self.fallbacks,
            "demotions": self.ladder_state.demotions,
            "peak_nodes": self.peak_nodes,
            "elapsed": round(self.governor.elapsed(), 3),
            # for live consumers (`repro top`, /jobs/<id>/events):
            # a monotonic stamp to order payloads across sources and
            # the cumulative BDD-node effort so throughput and ETA can
            # be derived without guessing at wall-clock skew
            "monotonic": round(time.monotonic(), 3),
            "nodes_allocated": self.governor.nodes_allocated,
        }

    def _emit_progress(self, final=False):
        self._sample_metrics("final" if final else "sample")
        payload = self._progress_payload()
        if self._writer is not None:
            self._writer.write_progress(payload)
        if self.progress_hook is not None:
            if self.metrics is not None:
                payload = dict(payload, metrics=self.metrics.flat())
            self.progress_hook(payload)

    def _finish(self, stopped):
        self.stopped = stopped
        for group in self.groups:
            if group.session is not None:
                self.peak_nodes = max(
                    self.peak_nodes, group.session.manager.peak_nodes
                )
        self._write_checkpoint()
        self._emit_progress(final=True)
        self._close_trace(stopped)
        return CampaignResult(
            self.fault_set,
            self.ladder.rungs[0].strategy,
            frames_total=self.frame,
            frames_symbolic=self.frames_symbolic,
            frames_three_valued=self.frames_three_valued,
            fallbacks=self.fallbacks,
            gc_runs=self.gc_runs,
            peak_nodes=self.peak_nodes,
            demotions=self.ladder_state.demotions,
            demotion_log=list(self.ladder_state.demotion_log),
            quarantined=list(self.quarantined),
            checkpoints_written=(
                self._writer.checkpoints_written if self._writer else 0
            ),
            checkpoint_path=self._writer.path if self._writer else None,
            resumed_from=self.resumed_from,
            stopped=stopped,
            budget=self.governor.accounting(),
            ladder_names=self.ladder.names(),
            rung_population=self.ladder_state.population(),
            pressure=self._pressure_accounting(),
            disk=self._disk_accounting(),
        )


def _demotion_reasons(demotion_log, demotions):
    """Demotion counts by reason; see :meth:`CampaignResult.demotion_reasons`."""
    reasons = {}
    for entry in demotion_log:
        reason = entry[4] if len(entry) > 4 and entry[4] else None
        reason = reason or "unattributed"
        reasons[reason] = reasons.get(reason, 0) + 1
    recorded = sum(reasons.values())
    if recorded < demotions:
        reasons["unrecorded"] = demotions - recorded
    return dict(sorted(reasons.items()))


def _rebase(diff, old_good, new_good):
    """Re-express a three-valued state diff against another good state."""
    if old_good is new_good:
        return diff
    rebased = {}
    for dff, good in enumerate(new_good):
        value = diff.get(dff, old_good[dff])
        if value != good:
            rebased[dff] = value
    return rebased


# ----------------------------------------------------------------------
# public entry points
# ----------------------------------------------------------------------
_FABRIC_KWARGS = (
    "workers",
    "shard_size",
    "shard_timeout",
    "heartbeat_timeout",
    "max_retries",
    "worker_rss_cap",
    "fabric_config",
)


def run_campaign(compiled, sequence, fault_set, **kwargs):
    """Run a resilient fault-simulation campaign; see :class:`Campaign`.

    Accepts every :class:`Campaign` keyword (strategy, ladder,
    node_limit, governor, checkpoint_path, checkpoint_every,
    fallback_frames, initial_state, variable_scheme, progress_hook,
    signal_guard, circuit_spec, xred, pre_pass_3v, disk, tracer,
    metrics) and returns a :class:`CampaignResult`.

    Passing ``workers`` (or any other shard-fabric keyword:
    ``shard_size``, ``shard_timeout``, ``heartbeat_timeout``,
    ``max_retries``, ``worker_rss_cap``, ``fabric_config``) routes the
    run through the
    multiprocess :class:`~repro.runtime.fabric.ShardFabric` instead of
    a single in-process campaign; the returned result then also carries
    ``fabric`` accounting.

    ``audit="sample"`` / ``"full"`` (or an
    :class:`~repro.audit.AuditOptions`) runs the witness-replay audit
    (:func:`repro.audit.run_audit`) over the finished campaign's
    verdicts: the report lands on ``result.audit`` (and in
    ``runtime_summary()``), refuted faults are quarantined, and — when
    the campaign itself was sharded — the audit reuses the same worker
    pool sizing.  ``audit_seed`` / ``audit_node_limit`` /
    ``audit_checkpoint_path`` parameterize it.
    """
    audit = kwargs.pop("audit", None)
    audit_seed = kwargs.pop("audit_seed", 0)
    audit_node_limit = kwargs.pop("audit_node_limit", None)
    audit_checkpoint_path = kwargs.pop("audit_checkpoint_path", None)
    if audit in (None, False, "off"):
        audit = None
    if audit is not None:
        initial = kwargs.get("initial_state")
        if initial is not None and any(v != threeval.X for v in initial):
            raise ValueError(
                "audit requires an all-X initial state: witness "
                "extraction certifies pairs of initial states, which is "
                "meaningless for a campaign pinned to a concrete one"
            )
    # the audit reuses the campaign's pool sizing and observability
    audit_workers = kwargs.get("workers")
    audit_fabric_config = kwargs.get("fabric_config")
    audit_tracer = kwargs.get("tracer")
    audit_metrics = kwargs.get("metrics")

    if any(key in kwargs for key in _FABRIC_KWARGS):
        from repro.runtime.fabric import run_sharded_campaign

        # disk governance is a single-process campaign (and service)
        # concern: the fabric checkpoints per shard, compacted offline
        # via `repro compact` (the service does it on recovery)
        if kwargs.pop("disk", None) is not None:
            warnings.warn(
                "disk budget ignored for sharded runs: compact the "
                "fabric checkpoint offline with `repro compact`",
                RuntimeWarning,
                stacklevel=2,
            )
        config = kwargs.pop("fabric_config", None)
        if config is not None:
            kwargs["config"] = config
        result = run_sharded_campaign(
            compiled, sequence, fault_set, **kwargs
        )
    else:
        result = Campaign(compiled, sequence, fault_set, **kwargs).run()

    if audit is not None:
        from repro.audit import AuditOptions, run_audit

        if isinstance(audit, AuditOptions):
            options = audit
        else:
            options = AuditOptions(
                mode=audit,
                seed=audit_seed,
                node_limit=audit_node_limit,
                checkpoint_path=audit_checkpoint_path,
            )
        report = run_audit(
            compiled,
            sequence,
            result.fault_set,
            options=options,
            strategy=result.ladder[0] if result.ladder else "MOT",
            complete=result.stopped == COMPLETED,
            exact=result.exact,
            workers=audit_workers,
            fabric_config=audit_fabric_config,
            tracer=audit_tracer,
            metrics=audit_metrics,
            quarantine=True,
        )
        result.audit = report
        result.quarantined.extend(report.refuted_keys())
    return result


def _load_compiled(circuit_spec):
    import os

    from repro.circuit.compile import compile_circuit

    if os.path.exists(circuit_spec):
        from repro.circuit.bench import load_bench

        return compile_circuit(load_bench(circuit_spec))
    from repro.circuits.registry import get_circuit

    return compile_circuit(get_circuit(circuit_spec))


def resume_campaign(
    checkpoint_path,
    compiled=None,
    fault_set=None,
    governor=None,
    checkpoint_every=DEFAULT_CHECKPOINT_EVERY,
    progress_hook=None,
    signal_guard=None,
    disk=None,
    tracer=None,
    metrics=None,
    on_corrupt=None,
):
    """Resume a campaign from the last snapshot in *checkpoint_path*.

    When *compiled* / *fault_set* are omitted they are rebuilt from the
    checkpoint header (registry name or ``.bench`` path, collapsed
    fault universe) and validated against the recorded fault keys.
    Returns a :class:`CampaignResult` with ``resumed_from`` set and
    ``exact=False``.

    A record failing its CRC (or otherwise unparseable mid-file) is
    *quarantined*, not fatal: snapshots are cumulative, so resuming
    from the latest intact one only re-runs frames — verdicts are
    unaffected.  The default *on_corrupt* emits a ``RuntimeWarning``
    per quarantined record; pass a callable to collect the reports
    instead.  Resume still refuses (typed
    :class:`~repro.runtime.errors.CheckpointError`) when the loss is
    verdict-affecting: a corrupt header, or no intact snapshot left.
    """
    if on_corrupt is None:
        def on_corrupt(report, _path=str(checkpoint_path)):
            warnings.warn(
                f"checkpoint {_path}: quarantined corrupt record at line "
                f"{report['line']} ({report['reason']}); resuming from "
                "the latest intact snapshot",
                RuntimeWarning,
                stacklevel=2,
            )
    checkpoint = load_checkpoint(checkpoint_path, on_corrupt=on_corrupt)
    if compiled is None:
        compiled = _load_compiled(checkpoint.circuit_spec)
    if fault_set is None:
        from repro.faults.collapse import collapse_faults

        faults, _ = collapse_faults(compiled)
        fault_set = FaultSet(faults)
    campaign = Campaign.from_checkpoint(
        checkpoint,
        compiled,
        fault_set,
        governor=governor,
        checkpoint_path=checkpoint_path,
        checkpoint_every=checkpoint_every,
        progress_hook=progress_hook,
        signal_guard=signal_guard,
        disk=disk,
        tracer=tracer,
        metrics=metrics,
    )
    return campaign.run()
