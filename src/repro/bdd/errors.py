"""Errors raised by the OBDD package."""


class BddError(Exception):
    """Base class for OBDD errors."""


class SpaceLimitExceeded(BddError):
    """The unique table grew past the configured node limit.

    The campaign frame loop, and with it the hybrid fault simulator
    (Section IV.A of the paper), catches this and applies the paper's
    protocol to the whole group of faults sharing the manager: garbage
    collection, then a three-valued interlude of a few frames.  The
    limit bounds the *shared* table, so an overflow is evidence about
    the group, never about the fault that allocated the last node; no
    fault is demoted for it.
    """

    def __init__(self, limit, requested):
        self.limit = limit
        self.requested = requested
        super().__init__(
            f"OBDD node limit exceeded: {requested} nodes requested, "
            f"limit is {limit}"
        )


class MemoryPressureExceeded(SpaceLimitExceeded):
    """Process memory crossed the governor's surrender threshold.

    Raised from a session's node allocation by
    :class:`~repro.runtime.governor.ResourceGovernor` once the resident
    set reaches 0.9 of its RSS budget (and by the ``pressure.evict``
    failpoint).  Subclassing :class:`SpaceLimitExceeded` means the
    campaign frame loop handles memory pressure exactly like a
    node-limit overflow: evidence about the whole group, answered with
    garbage collection and then a three-valued interlude, never with a
    per-fault demotion.

    ``limit`` is the surrender threshold in bytes, ``requested`` the
    observed resident set size.
    """

    def __init__(self, limit, observed):
        self.limit = limit
        self.requested = observed
        BddError.__init__(
            self,
            f"memory pressure: RSS {observed} bytes over surrender "
            f"threshold {limit}",
        )


class VariableOrderError(BddError):
    """A rename/compose would violate the fixed variable order."""
