"""Shard planning and poison-shard bisection.

A *shard* is a slice of the campaign's live fault universe, identified
by the indices of its faults in the canonical fault order (the order of
the master :class:`~repro.faults.status.FaultSet`).  Each shard runs a
campaign of its own, and the merge takes every fault's verdict from its
shard.

The faults of one shard share one OBDD manager, and an overflow of the
node limit is evidence about that whole group: the paper's fallback
turns the group three-valued.  The grouping is therefore part of the
algorithm, and it is decided here from two inputs only, the live fault
indices and ``shard_size``.  ``shard_size=None`` plans one shard holding
every live fault, the paper's single group, so the fabric's default
plan gives the verdicts of the serial campaign.  An explicit size is
kept exactly; a smaller group overflows later and keeps more faults
symbolic, which is a coverage-for-time choice the caller makes.  The
worker count never enters the plan: for a fixed plan the verdicts are
the same on any number of workers, inline or pooled.

Shard ids are tuples of ints: a planned shard is ``(3,)``, the halves
a poison shard is bisected into are ``(3, 0)`` and ``(3, 1)``, and so
on down to singletons.  Tuples sort in bisection-tree order, which is
what makes the fabric's merge deterministic regardless of completion
order.
"""


def shard_id_text(shard_id):
    """Render a shard id tuple, e.g. ``(3, 1)`` -> ``"3.1"``."""
    return ".".join(str(part) for part in shard_id)


class Shard:
    """One unit of work: fault indices plus retry/bisection bookkeeping."""

    __slots__ = ("shard_id", "indices", "crashes", "not_before")

    def __init__(self, shard_id, indices):
        self.shard_id = tuple(shard_id)
        self.indices = list(indices)
        self.crashes = 0  # worker deaths while running this shard
        self.not_before = 0.0  # backoff gate (monotonic clock)

    def __len__(self):
        return len(self.indices)

    def split(self):
        """Bisect into two child shards with fresh crash counters.

        The caller guarantees ``len(self) > 1``; the halves partition
        the indices in order, so the bisection tree eventually isolates
        a poison fault in a singleton shard.
        """
        mid = len(self.indices) // 2
        return (
            Shard(self.shard_id + (0,), self.indices[:mid]),
            Shard(self.shard_id + (1,), self.indices[mid:]),
        )

    def __repr__(self):
        return (
            f"Shard({shard_id_text(self.shard_id)}, "
            f"{len(self.indices)} faults, {self.crashes} crashes)"
        )


def plan_shards(indices, shard_size=None):
    """Slice *indices* into :class:`Shard`\\ s of at most *shard_size*.

    ``shard_size=None`` plans one shard holding every index.
    """
    shard_size = shard_size or max(len(indices), 1)
    return [
        Shard((ordinal,), indices[start : start + shard_size])
        for ordinal, start in enumerate(range(0, len(indices), shard_size))
    ]
