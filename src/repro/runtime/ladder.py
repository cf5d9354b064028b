"""The graceful degradation ladder.

The paper's hybrid simulator degrades in one global step: symbolic ->
three-valued for a few frames.  The campaign runtime refines this into
a *per-fault* policy: every live fault sits on a rung of a ladder, by
default

    MOT  ->  rMOT  ->  SOT  ->  three-valued

with shrinking OBDD node limits, and is demoted one rung each time it
overruns a per-fault frame budget — the fault's own evidence.  A
node-limit overflow (or a memory-pressure surrender) is not: the faults
of a rung share one OBDD manager, so the whole rung gets the paper's
global step instead (garbage collection, then a three-valued interlude
of ``DEFAULT_FALLBACK_FRAMES`` frames) and nobody is demoted.  The
constants of that overflow policy live here, next to the ladder.  A
fault that falls off the bottom is *quarantined* (status
``quarantined``), so one pathological fault can no longer stall a
whole campaign.  Every demotion restarts the fault's detection
accumulator from scratch (exactly like the paper's fallback), so
results stay conservative — demoted runs are flagged ``exact=False``.

:class:`DegradationLadder` is the immutable policy (rung order and
node-limit scales); :class:`LadderState` is the mutable per-campaign
assignment of faults to rungs, which is what checkpoints serialize.
"""

from repro.runtime.errors import DegradationExhausted

DEFAULT_NODE_LIMIT = 30_000  # the paper's space limit
DEFAULT_FALLBACK_FRAMES = 5

# After a GC the step is retried only if the table is comfortably below
# the limit again; otherwise we would thrash between GC and overflow.
GC_RETRY_FRACTION = 0.5

THREE_VALUED_RUNG = "3v"

#: strongest-to-weakest order the default ladders are cut from
STRATEGY_ORDER = ("MOT", "rMOT", "SOT", THREE_VALUED_RUNG)

_DEFAULT_SCALES = {"MOT": 1.0, "rMOT": 0.5, "SOT": 0.25}

#: never hand a symbolic session a limit too small to hold terminals
MIN_NODE_LIMIT = 64


class Rung:
    """One ladder rung: an observation strategy plus a node-limit scale."""

    __slots__ = ("strategy", "scale")

    def __init__(self, strategy, scale=None):
        if strategy not in STRATEGY_ORDER:
            raise ValueError(
                f"unknown ladder rung {strategy!r}; "
                f"choose from {', '.join(STRATEGY_ORDER)}"
            )
        if strategy == THREE_VALUED_RUNG:
            scale = None
        elif scale is None:
            scale = _DEFAULT_SCALES[strategy]
        self.strategy = strategy
        self.scale = scale

    @property
    def symbolic(self):
        return self.strategy != THREE_VALUED_RUNG

    def node_limit(self, base_limit):
        """The effective node limit of this rung (None for the 3v rung)."""
        if not self.symbolic:
            return None
        if base_limit is None:
            return None
        return max(int(base_limit * self.scale), MIN_NODE_LIMIT)

    def __repr__(self):
        if self.symbolic:
            return f"Rung({self.strategy}, scale={self.scale})"
        return f"Rung({self.strategy})"


class DegradationLadder:
    """The rung sequence a campaign demotes faults along."""

    def __init__(self, rungs=None):
        if rungs is None:
            rungs = STRATEGY_ORDER
        normalized = []
        for rung in rungs:
            if isinstance(rung, Rung):
                normalized.append(rung)
            elif isinstance(rung, str):
                normalized.append(Rung(rung))
            else:  # ("MOT", 0.75) pairs
                normalized.append(Rung(*rung))
        if not normalized:
            raise ValueError("a ladder needs at least one rung")
        for earlier, later in zip(normalized, normalized[1:]):
            if not earlier.symbolic:
                raise ValueError(
                    "the three-valued rung must be the last rung "
                    f"(found {later.strategy!r} after it)"
                )
        self.rungs = tuple(normalized)

    @classmethod
    def from_strategy(cls, strategy):
        """The default ladder starting at *strategy* (e.g. rMOT->SOT->3v).

        The requested strategy runs at the full node limit; only the
        rungs below it get their default scales.
        """
        if strategy not in STRATEGY_ORDER:
            raise ValueError(
                f"unknown strategy {strategy!r}; "
                f"choose from {', '.join(STRATEGY_ORDER)}"
            )
        top, *rest = STRATEGY_ORDER[STRATEGY_ORDER.index(strategy):]
        return cls([(top, 1.0), *rest])

    def __len__(self):
        return len(self.rungs)

    def __getitem__(self, index):
        return self.rungs[index]

    def names(self):
        return [rung.strategy for rung in self.rungs]

    def describe(self):
        return " -> ".join(self.names())

    def to_json(self):
        return [[r.strategy, r.scale] for r in self.rungs]

    @classmethod
    def from_json(cls, data):
        return cls([(strategy, scale) for strategy, scale in data])

    def __repr__(self):
        return f"DegradationLadder({self.describe()})"


class LadderState:
    """Mutable fault->rung assignment for one campaign."""

    def __init__(self, ladder):
        self.ladder = ladder
        self._rung_of = {}  # fault key -> rung index
        self.demotions = 0
        # (fault_key, from_rung, to_rung, frame, reason); reason is the
        # trigger class — "budget" (per-fault budget) for campaign
        # demotions, None when the caller did not attribute one
        self.demotion_log = []

    def assign(self, fault_key, rung_index=0):
        if not 0 <= rung_index < len(self.ladder):
            raise ValueError(f"no rung {rung_index} on {self.ladder!r}")
        self._rung_of[fault_key] = rung_index

    def rung_index(self, fault_key):
        return self._rung_of[fault_key]

    def rung(self, fault_key):
        return self.ladder[self._rung_of[fault_key]]

    def forget(self, fault_key):
        """Drop a fault that left the campaign (detected/quarantined)."""
        self._rung_of.pop(fault_key, None)

    def demote(self, fault_key, frame=None, reason=None):
        """Move *fault_key* one rung down; returns the new rung index.

        *reason* tags the demotion-log entry with what triggered the
        demotion (see the ``demotion_log`` comment).  Raises
        :class:`DegradationExhausted` when the fault is already on the
        last rung — the campaign quarantines it then.
        """
        index = self._rung_of[fault_key]
        if index + 1 >= len(self.ladder):
            raise DegradationExhausted(
                fault_key, self.ladder.names()[: index + 1]
            )
        self._rung_of[fault_key] = index + 1
        self.demotions += 1
        self.demotion_log.append(
            (
                fault_key,
                self.ladder[index].strategy,
                self.ladder[index + 1].strategy,
                frame,
                reason,
            )
        )
        return index + 1

    def population(self):
        """Live-fault count per rung name (for progress records)."""
        counts = {name: 0 for name in self.ladder.names()}
        for index in self._rung_of.values():
            counts[self.ladder[index].strategy] += 1
        return counts
