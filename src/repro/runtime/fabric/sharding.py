"""Shard planning and poison-shard bisection.

A *shard* is a slice of the campaign's live fault universe, identified
by the indices of its faults in the canonical fault order (the order of
the master :class:`~repro.faults.status.FaultSet`).  Each shard runs a
campaign of its own, and the merge takes every fault's verdict from its
shard.  As long as no shard overflows the OBDD node limit, this is
exact: a fault's verdict does not depend on which faults share its
shard.  Once a shard overflows, the fallback applies to that shard's
whole group (the faults share one manager), so a smaller shard
overflows later and keeps more faults symbolic.  On circuits that
overflow, the shard size, and through :func:`aligned_shard_size` the
worker count, therefore changes the detected count (see item 1 of
ROADMAP.md: ``mac10 --length 60`` detects 17 serially and 78 with
``--workers 2``).  With the shard plan held fixed, the verdicts are the
same for any worker count.

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


def aligned_shard_size(live_count, workers, shard_size=None, align=None):
    """Pick (or validate) a shard size.

    With no explicit *shard_size* the planner aims for a few shards per
    worker, so a straggler does not serialize the tail of the sweep.
    When *align* is given (the word-parallel engine's ``pack_width``)
    and the size exceeds it, the size is rounded down to a multiple, so
    shards do not fragment packs.
    """
    if shard_size is None:
        per_worker_shards = 4
        shard_size = -(-live_count // max(workers * per_worker_shards, 1))
    shard_size = max(int(shard_size), 1)
    if align and shard_size > align:
        shard_size -= shard_size % align
    return shard_size


def plan_shards(indices, shard_size):
    """Slice *indices* into :class:`Shard`\\ s of at most *shard_size*."""
    return [
        Shard((ordinal,), indices[start : start + shard_size])
        for ordinal, start in enumerate(range(0, len(indices), shard_size))
    ]
