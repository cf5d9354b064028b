"""Cooperative resource budgets for long fault-simulation runs.

A :class:`ResourceGovernor` owns five independent budgets:

* **wall-clock deadline** — checked between frames
  (:meth:`check_frame`) and, because a single pathological frame can
  run for minutes, also at OBDD node-allocation granularity via the
  :attr:`~repro.bdd.manager.BddManager.alloc_hook` callback
  (:meth:`note_node`, throttled to every 1024 allocations),
* **total BDD nodes** — cumulative node allocations across every
  manager the campaign opens (sessions are re-opened after fallbacks
  and demotions; the budget spans all of them),
* **per-fault frame cost** — the number of nodes a single fault's
  propagation may allocate within one frame (symbolic rungs) and the
  number of differing signals it may touch (three-valued rung),
* **process RSS** — the resident set size sampled from
  ``/proc/self/statm`` (via :class:`~repro.runtime.memory.RssSampler`,
  throttled to the same allocation stride as the clock).  At
  :data:`RSS_SURRENDER_FRACTION` of the budget an allocating session
  surrenders with :class:`~repro.bdd.errors.MemoryPressureExceeded`,
  which the campaign answers like a node-limit overflow (GC, then a
  three-valued interlude); at the budget itself the campaign stops
  gracefully, checkpoint intact,
* **computed-table entries** — on the same stride, an allocating
  manager whose computed table holds more than ``cache_budget``
  entries drops its older half.  The table is pure memoisation, so
  eviction never changes a result.

The budget checks raise :class:`~repro.runtime.errors.BudgetExceeded`;
the per-fault checks tag the exception with the offending
``fault_key`` so the campaign can demote just that fault instead of
stopping.

The governor is *cooperative*: nothing is preempted, the simulators
simply call in at safe points, which is what keeps a raised budget from
corrupting session state (a :meth:`SymbolicSession.step
<repro.symbolic.fault_sim.SymbolicSession.step>` that raises leaves the
session untouched).
"""

import functools
import time as _time
import weakref

from repro import failpoints as _failpoints
from repro.bdd.errors import MemoryPressureExceeded
from repro.runtime.errors import BudgetExceeded
from repro.runtime.memory import RssSampler

# check the wall clock only every N node allocations: a monotonic clock
# read per mk() would dominate the BDD package's runtime.
_CLOCK_STRIDE = 1024

#: fraction of the RSS budget at which an allocating session surrenders
RSS_SURRENDER_FRACTION = 0.9


class ResourceGovernor:
    """Budget bookkeeping shared by one campaign."""

    def __init__(
        self,
        deadline=None,
        node_budget=None,
        fault_frame_nodes=None,
        fault_frame_events=None,
        rss_budget=None,
        cache_budget=None,
        clock=_time.monotonic,
        rss_sampler=None,
    ):
        if deadline is not None and deadline < 0:
            raise ValueError("deadline must be >= 0 seconds")
        for name, value in (
            ("node_budget", node_budget),
            ("fault_frame_nodes", fault_frame_nodes),
            ("fault_frame_events", fault_frame_events),
            ("rss_budget", rss_budget),
            ("cache_budget", cache_budget),
        ):
            if value is not None and value < 0:
                raise ValueError(f"{name} must be >= 0")
        self.deadline = deadline
        self.node_budget = node_budget
        self.fault_frame_nodes = fault_frame_nodes
        self.fault_frame_events = fault_frame_events
        self.rss_budget = rss_budget
        self.cache_budget = cache_budget
        if rss_sampler is None and rss_budget is not None:
            rss_sampler = RssSampler()
        self._rss_sampler = rss_sampler
        self.peak_rss = 0
        self._clock = clock
        self._started = None
        self._elapsed_before = 0.0  # carried over by a resumed campaign
        self.nodes_allocated = 0
        self._since_clock_check = 0
        self.frame = None  # current frame, for error context
        self.pack = None  # current pack of the word-parallel engine
        #: called with one event dict per cache eviction; the campaign
        #: folds it into its pressure accounting and trace
        self.on_evict = None

    # ------------------------------------------------------------------
    def start(self, elapsed_before=0.0, nodes_before=0):
        """Begin (or resume) metering; prior consumption carries over."""
        self._started = self._clock()
        self._elapsed_before = elapsed_before
        self.nodes_allocated = nodes_before
        return self

    def elapsed(self):
        """Wall-clock seconds consumed, including pre-resume time."""
        if self._started is None:
            return self._elapsed_before
        return self._elapsed_before + (self._clock() - self._started)

    # ------------------------------------------------------------------
    def check_deadline(self):
        if self.deadline is None:
            return
        elapsed = self.elapsed()
        if elapsed >= self.deadline:
            raise BudgetExceeded(
                "deadline", self.deadline, elapsed, frame=self.frame,
                pack=self.pack,
            )

    def check_frame(self, frame, pack=None):
        """Frame-boundary check; also usable as an engine frame hook.

        The word-parallel engine restarts its frame count per pack and
        passes the 0-based *pack* index along, so a raised budget names
        the absolute (pack, frame) position instead of a frame number
        that repeats every pack.
        """
        self.frame = frame
        self.pack = pack
        self.check_deadline()
        self.check_rss()

    def sample_rss(self):
        """Latest RSS sample in bytes (None without a sampler or off
        Linux); tracks the peak for accounting."""
        if self._rss_sampler is None:
            return None
        rss = self._rss_sampler()
        if rss is not None and rss > self.peak_rss:
            self.peak_rss = rss
        return rss

    def check_rss(self):
        """Stop at the RSS budget; returns the sample (None when no
        budget is set or RSS is unavailable)."""
        if self.rss_budget is None:
            return None
        rss = self.sample_rss()
        if rss is not None and rss > self.rss_budget:
            raise BudgetExceeded(
                "rss", self.rss_budget, rss, frame=self.frame,
                pack=self.pack,
            )
        return rss

    def note_node(self, manager=None):
        """Node-allocation hook for *manager*'s ``alloc_hook``."""
        self.nodes_allocated += 1
        if (
            self.node_budget is not None
            and self.nodes_allocated > self.node_budget
        ):
            raise BudgetExceeded(
                "nodes", self.node_budget, self.nodes_allocated,
                frame=self.frame, pack=self.pack,
            )
        self._since_clock_check += 1
        if self._since_clock_check >= _CLOCK_STRIDE:
            self._since_clock_check = 0
            self.check_deadline()
            self._check_memory(manager)

    def _check_memory(self, manager):
        """The cache and RSS checks at allocation granularity.

        Only the computed table may change here: in-flight traversals
        hold node indices, so the node store stays as it is and
        anything more drastic unwinds through an exception.
        """
        if (
            self.cache_budget is not None
            and manager is not None
            and manager.cache_size > self.cache_budget
        ):
            if _failpoints.fire("pressure.evict"):
                # eviction "fails": surrender through the group protocol
                raise MemoryPressureExceeded(
                    self.cache_budget, manager.cache_size
                )
            dropped = manager.evict_cache(0.5)
            if self.on_evict is not None:
                self.on_evict(
                    {
                        "action": "evict",
                        "dropped": dropped,
                        "cache_size": manager.cache_size,
                    }
                )
        rss = self.check_rss()
        if rss is None:
            return
        surrender = int(RSS_SURRENDER_FRACTION * self.rss_budget)
        if rss >= surrender:
            raise MemoryPressureExceeded(surrender, rss)

    def check_fault_frame_nodes(self, record, nodes):
        """Per-fault frame-cost hook for symbolic sessions."""
        if (
            self.fault_frame_nodes is not None
            and nodes > self.fault_frame_nodes
        ):
            raise BudgetExceeded(
                "fault-frame-nodes", self.fault_frame_nodes, nodes,
                fault_key=record.fault.key(), frame=self.frame,
            )

    def check_fault_frame_events(self, record, events):
        """Per-fault frame-cost check for the three-valued rung."""
        if (
            self.fault_frame_events is not None
            and events > self.fault_frame_events
        ):
            raise BudgetExceeded(
                "fault-frame-events", self.fault_frame_events, events,
                fault_key=record.fault.key(), frame=self.frame,
            )

    # ------------------------------------------------------------------
    def _wants_alloc_hook(self):
        """Should :meth:`attach_manager` install :meth:`note_node`?

        Subclasses widen this: the fabric's :class:`WorkerGovernor`
        always attaches so heartbeats keep flowing during long frames
        even when no budgets are armed.
        """
        return (
            self.node_budget is not None
            or self.deadline is not None
            or self.rss_budget is not None
            or self.cache_budget is not None
        )

    def attach_manager(self, manager):
        """Meter *manager*'s node allocations (and the clock, RSS and
        its computed table) via mk().

        Chains with any hook already installed (the ``bdd.alloc``
        failpoint arms one at manager construction) instead of
        overwriting it.
        """
        if not self._wants_alloc_hook():
            return
        note_node = self.note_node
        if self.cache_budget is not None:
            # the cache check evicts from the allocating manager; a
            # proxy, so the manager's own hook does not keep it alive
            note_node = functools.partial(note_node, weakref.proxy(manager))
        previous = manager.alloc_hook
        if previous is None:
            manager.alloc_hook = note_node
        else:

            def chained(_previous=previous, _note=note_node):
                _previous()
                _note()

            manager.alloc_hook = chained

    def accounting(self):
        """Budget consumption snapshot for results and checkpoints."""
        return {
            "deadline": self.deadline,
            "elapsed": round(self.elapsed(), 6),
            "node_budget": self.node_budget,
            "nodes_allocated": self.nodes_allocated,
            "fault_frame_nodes": self.fault_frame_nodes,
            "fault_frame_events": self.fault_frame_events,
            "rss_budget": self.rss_budget,
            "cache_budget": self.cache_budget,
            "peak_rss": self.peak_rss,
        }

    def __repr__(self):
        return (
            f"ResourceGovernor(deadline={self.deadline}, "
            f"node_budget={self.node_budget}, "
            f"fault_frame_nodes={self.fault_frame_nodes})"
        )
