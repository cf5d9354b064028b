"""OBDD-based symbolic fault simulation (Section IV.A).

:class:`SymbolicSession` drives one *symbolic stretch*: the unknown
present state is encoded with one BDD variable per memory element, a
symbolic true-value simulation computes the fault-free frame, and every
live fault is propagated by the same event-driven single-fault engine
the three-valued simulator uses — only over BDD values.  The chosen
observation strategy (SOT / rMOT / MOT) inspects the primary outputs
and accumulates the per-fault detection function.

A session steps one time frame at a time so the campaign frame loop
(which also runs the paper's hybrid simulator) can catch
:class:`~repro.bdd.errors.SpaceLimitExceeded` between (and inside)
frames, snapshot the state down to three-valued logic, and later open
a fresh session.  A step that raises leaves the session state exactly
as it was before the step.  All faults share the session's manager, so
an overflow says nothing about the fault that happened to allocate the
last node; the exception carries no fault attribution.
"""

from repro.bdd import BddManager, StateVariables
from repro.bdd.manager import FALSE, TRUE
from repro.engines.algebra import BddAlgebra
from repro.engines.evaluate import next_state_of, outputs_of, simulate_frame
from repro.engines.propagate import propagate_fault
from repro.logic import threeval
from repro.obs.tracer import NULL_TRACER
from repro.symbolic.strategies import FrameContext, get_strategy


class SymbolicSession:
    """One symbolic stretch of the (hybrid) fault simulator."""

    def __init__(
        self,
        compiled,
        strategy,
        good_state_3v=None,
        node_limit=None,
        variable_scheme="interleaved",
        start_time=0,
    ):
        if isinstance(strategy, str):
            strategy = get_strategy(strategy)
        self.compiled = compiled
        self.strategy = strategy
        self.state_vars = StateVariables(
            compiled.num_dffs, scheme=variable_scheme
        )
        self.manager = BddManager(
            num_vars=self.state_vars.num_vars, node_limit=node_limit
        )
        self.algebra = BddAlgebra(self.manager)

        if good_state_3v is None:
            good_state_3v = [threeval.X] * compiled.num_dffs
        self.good_state = [
            self._state_bit_to_bdd(i, v) for i, v in enumerate(good_state_3v)
        ]
        # id(record) -> [record, state_diff (dict dff->bdd), accumulator]
        self._store = {}
        # start_time offsets detection times: a campaign opening a
        # session mid-sequence passes the current frame index so
        # detected_at stays absolute across session re-opens
        self.time = start_time
        # optional callback (record, nodes_allocated_this_frame) called
        # after each fault's propagation inside step(); the campaign
        # governor uses it to bound per-fault frame cost.  A raising
        # hook aborts the step without mutating the session.
        self.fault_cost_hook = None
        # observability: the campaign swaps in a live tracer/registry
        # when --trace/--metrics are requested; detections then emit
        # events carrying the detection-function BDD size
        self.tracer = NULL_TRACER
        self.metrics = None

    # ------------------------------------------------------------------
    def _state_bit_to_bdd(self, dff_idx, value3v):
        if value3v == threeval.X:
            return self.manager.mk_var(self.state_vars.x(dff_idx))
        return TRUE if value3v == threeval.ONE else FALSE

    def attach_fault(self, record, state_diff_3v=None):
        """Register a live fault, optionally with a three-valued state
        difference carried over from a three-valued interlude."""
        diff = {}
        for dff_idx, value in (state_diff_3v or {}).items():
            bdd = self._state_bit_to_bdd(dff_idx, value)
            if bdd != self.good_state[dff_idx]:
                diff[dff_idx] = bdd
        self._store[id(record)] = [
            record,
            diff,
            self.strategy.initial_state(self.manager),
        ]

    def attach_faults(self, records, diffs_3v=None):
        for record in records:
            diff = diffs_3v.get(id(record)) if diffs_3v else None
            self.attach_fault(record, diff)

    def live_records(self):
        return [entry[0] for entry in self._store.values()]

    # ------------------------------------------------------------------
    def step(self, vector, mark_detected=True):
        """Simulate one time frame; returns the newly detected records.

        Raises :class:`SpaceLimitExceeded` without mutating the session
        when the OBDD node limit is hit.  With ``mark_detected=False``
        the fault records' statuses are left untouched (used by cloned
        trial sessions in the MOT-guided test generator) — detected
        records are still dropped from this session's store.
        """
        compiled = self.compiled
        algebra = self.algebra
        pi_values = []
        for bit in vector:
            if bit not in (0, 1):
                raise ValueError(
                    "symbolic simulation expects fully specified vectors"
                )
            pi_values.append(algebra.const(bit))

        good_values = simulate_frame(
            compiled, algebra, pi_values, self.good_state
        )
        ctx = FrameContext(
            self.manager, self.state_vars, outputs_of(compiled, good_values)
        )
        observe_silent = self.strategy.needs_y_variables

        observing = self.tracer.enabled or self.metrics is not None
        cost_hook = self.fault_cost_hook
        po_sinks = compiled.po_sinks
        observe = self.strategy.observe
        detected = []
        detect_sizes = []
        new_store = {}
        for key, (record, state_diff, acc) in self._store.items():
            if cost_hook is not None:
                nodes_before = self.manager.num_nodes
            result = propagate_fault(
                compiled, algebra, good_values, record.fault, state_diff
            )
            po_diff = {}
            for sig, faulty in result.diff.items():
                for po_pos in po_sinks[sig]:
                    po_diff[po_pos] = faulty
            hit = False
            if po_diff or observe_silent:
                hit, acc = observe(ctx, acc, po_diff)
            if cost_hook is not None:
                cost_hook(record, self.manager.num_nodes - nodes_before)
            if hit:
                detected.append(record)
                if observing:
                    size = (
                        self.manager.size(acc) if acc is not None else 0
                    )
                    detect_sizes.append(size)
                    if self.metrics is not None:
                        self.metrics.observe("bdd.detect_fn_nodes", size)
            else:
                new_store[key] = [record, result.next_state_diff, acc]

        # Commit only after the whole frame succeeded.
        self.time += 1
        self._store = new_store
        self.good_state = next_state_of(compiled, good_values)
        if mark_detected:
            for position, record in enumerate(detected):
                # X-redundant faults may well be symbolically detectable
                # — that is the whole point of the MOT strategies.
                record.mark_detected(self.strategy.detected_by, self.time)
                if self.tracer.enabled:
                    self.tracer.event(
                        "detect",
                        fault=str(record.fault.key()),
                        rung=self.strategy.name,
                        frame=self.time,
                        by="symbolic",
                        acc_nodes=detect_sizes[position],
                    )
        return detected

    def clone(self):
        """A cheap fork of the session sharing the BDD manager.

        The manager is append-only between garbage collections, so the
        clone and the original stay valid side by side; this is what
        lets the MOT-guided test generator *try* a candidate vector and
        discard the outcome.  Do not call :meth:`compact` while clones
        are alive — collection invalidates their node indices.
        """
        other = SymbolicSession.__new__(SymbolicSession)
        other.compiled = self.compiled
        other.strategy = self.strategy
        other.state_vars = self.state_vars
        other.manager = self.manager
        other.algebra = self.algebra
        other.good_state = list(self.good_state)
        other._store = {
            key: [record, dict(diff), acc]
            for key, (record, diff, acc) in self._store.items()
        }
        other.time = self.time
        other.fault_cost_hook = self.fault_cost_hook
        # clones run untraced, so trial steps of the test generator
        # never pollute the trace
        other.tracer = NULL_TRACER
        other.metrics = None
        return other

    # ------------------------------------------------------------------
    def _to_3v(self, bdd):
        value = self.manager.const_value(bdd)
        return threeval.X if value is None else value

    def project_state_3v(self):
        """The fault-free state projected down to three-valued logic."""
        return [self._to_3v(b) for b in self.good_state]

    def _diff_relative(self, state_diff, good_3v):
        """Three-valued faulty-state diff of one fault vs *good_3v*.

        The faulty machine differs from this session's good state only
        on the keys of *state_diff*; the reference state may differ
        elsewhere too (e.g. the campaign's shared three-valued
        trajectory is less defined than the symbolic one), so every
        memory element is compared.  Projected faulty values are sound
        individually, which keeps the combined diff conservative.
        """
        diff3 = {}
        for dff_idx, good_bdd in enumerate(self.good_state):
            value = self._to_3v(state_diff.get(dff_idx, good_bdd))
            if value != good_3v[dff_idx]:
                diff3[dff_idx] = value
        return diff3

    def snapshot_diffs(self, relative_to=None):
        """Per-fault three-valued state diffs keyed by ``id(record)``.

        *relative_to* is the three-valued good state the diffs are
        expressed against (default: this session's own projection).
        The campaign runtime passes its shared good-machine state here
        when checkpointing.
        """
        if relative_to is None:
            relative_to = self.project_state_3v()
        return {
            key: self._diff_relative(entry[1], relative_to)
            for key, entry in self._store.items()
        }

    def detach(self, record, relative_to=None):
        """Remove *record* from the session without touching its status.

        Returns the fault's three-valued state diff (against
        *relative_to*, defaulting to the session's projected good
        state) so the caller can hand the fault to a three-valued
        engine or another session.
        """
        entry = self._store.pop(id(record))
        if relative_to is None:
            relative_to = self.project_state_3v()
        return self._diff_relative(entry[1], relative_to)

    def _roots(self):
        """Every BDD index the session holds: the GC root set."""
        roots = list(self.good_state)
        for _record, state_diff, acc in self._store.values():
            roots.extend(state_diff.values())
            if acc is not None:
                roots.append(acc)
        return roots

    def compact(self):
        """Garbage-collect the manager, keeping only live session roots.

        Returns the number of nodes freed.
        """
        before = self.manager.num_nodes
        translate = self.manager.collect(self._roots())
        self.good_state = [translate[b] for b in self.good_state]
        for entry in self._store.values():
            entry[1] = {
                dff: translate[b] for dff, b in entry[1].items()
            }
            if entry[2] is not None:
                entry[2] = translate[entry[2]]
        return before - self.manager.num_nodes
