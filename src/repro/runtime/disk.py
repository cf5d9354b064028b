"""Bounded-disk operation: probing, quotas, watermarks, compaction.

The governor already budgets time, nodes and RSS; this module is the
fourth leg — disk.  Campaign checkpoints append one record per
checkpoint interval forever, the service journal grows across every
restart, and traces accumulate until the filesystem fills, at which
point the ENOSPC handling can only surrender.  Bounded-disk operation
turns that cliff into a ladder:

* :func:`read_free_bytes` probes free space via ``os.statvfs`` (the
  ``disk.statvfs`` failpoint makes it lie, for chaos drills),
* :func:`artifact_usage_bytes` meters the files a run owns,
* :class:`DiskSampler` throttles both behind a call counter, exactly
  like :class:`~repro.runtime.memory.RssSampler` throttles ``/proc``
  reads,
* :class:`DiskGovernor` folds usage and free space against a quota
  (``--disk-budget``) and a free-space floor into three levels —
  ``ok`` / ``soft`` / ``hard`` — and keeps the accounting,
* :func:`compact_checkpoint` rewrites a campaign or fabric checkpoint
  keeping only the records a resume actually reads, atomically and
  byte-reproducibly (records round-trip through the same
  CRC-splicing serializer that wrote them).

The relief ladder itself lives in the consumers: the campaign
compacts its checkpoint, then stretches the checkpoint interval, and
only surrenders (:class:`~repro.runtime.errors.DiskPressureExceeded`,
routed like every other budget stop — final checkpoint, partial
result, never a crash) when the hard watermark holds after relief.
The service sheds new admissions with 507 and ages out terminal-job
artifacts under its quota.

Exactness: every relief rung is semantics-preserving.  Compaction
keeps the exact records a resume reads (the header and the latest
snapshot), a stretched checkpoint interval only changes how much work
a crash can lose, and a surrender stops early but never misclassifies
— the verdicts of a disk-pressured run are byte-identical to an
unconstrained run, or the run stops cleanly with a resumable
checkpoint.
"""

import os
import tempfile

from repro import failpoints as _failpoints
from repro.runtime.checkpoint import (
    JsonlWriter,
    fsync_best_effort,
    read_jsonl_records,
)
from repro.runtime.errors import CheckpointError, DiskPressureExceeded

#: watermark levels, in escalating order
LEVEL_OK = "ok"
LEVEL_SOFT = "soft"
LEVEL_HARD = "hard"


def read_free_bytes(path):
    """Free bytes available to unprivileged writers on *path*'s fs.

    ``f_bavail * f_frsize`` — the space a write can actually use, not
    the root-reserved total.  Returns None when the path cannot be
    statted (or the platform has no ``statvfs``), in which case
    free-space watermarks degrade to inert, like an unreadable
    ``/proc`` degrades the RSS budget.

    The ``disk.statvfs`` failpoint makes the probe lie that the disk
    is full — the chaos drills use it to prove the ladder reacts to a
    hostile kernel answer with a clean surrender, not a crash.
    """
    if _failpoints.fire("disk.statvfs"):
        return 0
    try:
        stats = os.statvfs(path)
    except (OSError, AttributeError, ValueError):
        return None
    return stats.f_bavail * stats.f_frsize


def artifact_usage_bytes(paths):
    """Total on-disk bytes of *paths* (files, or directories walked).

    Races with concurrent deletion are absorbed per entry — a file
    that vanishes mid-walk simply stops counting, which is the answer
    the quota wants anyway.
    """
    total = 0
    for path in paths:
        if path is None:
            continue
        path = str(path)
        if os.path.isdir(path):
            for root, _dirs, files in os.walk(path):
                for name in files:
                    try:
                        total += os.path.getsize(os.path.join(root, name))
                    except OSError:
                        pass
        else:
            try:
                total += os.path.getsize(path)
            except OSError:
                pass
    return total


class _Unavailable:
    pass


_UNAVAILABLE = _Unavailable()


class DiskSampler:
    """Throttled usage/free-space sampler for frame-boundary checks.

    Statting the governed artifacts and the filesystem every frame is
    cheap but not free; the sampler re-measures only every *refresh*
    calls and serves the cached pair in between, mirroring
    :class:`~repro.runtime.memory.RssSampler`.  It remembers the peak
    usage and the lowest free space it has seen for accounting.  A
    free-space probe that returns None on first use marks free-space
    sampling unavailable for good (usage metering keeps working).
    """

    def __init__(self, paths=(), refresh=8, read_free=read_free_bytes,
                 read_usage=artifact_usage_bytes):
        if refresh < 1:
            raise ValueError("refresh must be >= 1")
        self.paths = [str(p) for p in paths]
        self.refresh = refresh
        self._read_free = read_free
        self._read_usage = read_usage
        self._calls = 0
        self._usage = None
        self._free = None
        self.peak_usage = 0
        self.low_free = None
        self.samples = 0

    def _probe_root(self):
        """The directory whose filesystem free space is metered."""
        for path in self.paths:
            directory = path if os.path.isdir(path) \
                else os.path.dirname(os.path.abspath(path))
            return directory or "."
        return "."

    def __call__(self):
        """Return ``(usage_bytes, free_bytes_or_None)``, throttled."""
        if self._usage is None or self._calls >= self.refresh:
            self._calls = 0
            self.samples += 1
            usage = self._read_usage(self.paths)
            self._usage = usage
            if usage > self.peak_usage:
                self.peak_usage = usage
            if self._free is not _UNAVAILABLE:
                free = self._read_free(self._probe_root())
                if free is None and self._free is None:
                    self._free = _UNAVAILABLE
                elif free is not None:
                    self._free = free
                    if self.low_free is None or free < self.low_free:
                        self.low_free = free
        self._calls += 1
        free = None if self._free is _UNAVAILABLE else self._free
        return self._usage, free


class DiskConfig:
    """Watermark configuration for a :class:`DiskGovernor`.

    *budget* caps the combined size of the governed artifacts (the
    ``--disk-budget`` flag); *free_floor* is the minimum free space
    the filesystem must keep (hard watermark — the soft watermark sits
    at ``free_floor / soft``).  *soft* is the fraction of the budget
    at which relief starts (default 0.8: compaction and interval
    stretching begin at 80% of quota, surrender at 100%).  Either
    limit may be None (unlimited); with both None the governor is
    inert.
    """

    def __init__(self, budget=None, free_floor=None, soft=0.8, refresh=8):
        if budget is not None and budget <= 0:
            raise ValueError("disk budget must be positive")
        if free_floor is not None and free_floor < 0:
            raise ValueError("free floor must be >= 0")
        if not 0.0 < soft <= 1.0:
            raise ValueError("soft watermark fraction must be in (0, 1]")
        self.budget = budget
        self.free_floor = free_floor
        self.soft = soft
        self.refresh = refresh

    @property
    def enabled(self):
        return self.budget is not None or self.free_floor is not None

    def to_json(self):
        return {
            "budget": self.budget,
            "free_floor": self.free_floor,
            "soft": self.soft,
        }


class DiskGovernor:
    """Watermark bookkeeping over a set of governed artifact paths.

    The governor measures (throttled), classifies the measurement
    into ``ok`` / ``soft`` / ``hard``, and keeps the accounting the
    trace and the campaign counters surface.  It deliberately does
    *not* run the relief ladder itself — compaction needs the
    checkpoint writer, shedding needs the HTTP edge — so consumers
    call :meth:`check`, act on the level, report what they did via
    :meth:`note_compaction` / :meth:`note_stretch`, and call
    :meth:`hard_stop` when relief failed to bring the hard watermark
    back down.
    """

    def __init__(self, config, paths=()):
        self.config = config or DiskConfig()
        self.sampler = DiskSampler(paths, refresh=self.config.refresh)
        self.soft_events = 0
        self.hard_events = 0
        self.compactions = 0
        self.reclaimed_bytes = 0
        self.stretches = 0
        self.last_usage = 0
        self.last_free = None

    @property
    def enabled(self):
        return self.config.enabled

    def measure(self, force=False):
        """Sample (throttled unless *force*); returns (usage, free)."""
        if force:
            self.sampler._usage = None
        usage, free = self.sampler()
        self.last_usage = usage
        self.last_free = free
        return usage, free

    def level_of(self, usage, free):
        """Classify a measurement against the watermarks."""
        config = self.config
        level = LEVEL_OK
        if config.budget is not None:
            if usage >= config.budget:
                return LEVEL_HARD
            if usage >= config.budget * config.soft:
                level = LEVEL_SOFT
        if config.free_floor is not None and free is not None:
            if free <= config.free_floor:
                return LEVEL_HARD
            if free <= config.free_floor / config.soft:
                level = LEVEL_SOFT
        return level

    def check(self, force=False):
        """Measure and classify; counts soft/hard crossings."""
        if not self.enabled:
            return LEVEL_OK
        usage, free = self.measure(force=force)
        level = self.level_of(usage, free)
        if level == LEVEL_SOFT:
            self.soft_events += 1
        elif level == LEVEL_HARD:
            self.hard_events += 1
        return level

    def note_compaction(self, bytes_before, bytes_after):
        self.compactions += 1
        self.reclaimed_bytes += max(0, bytes_before - bytes_after)

    def note_stretch(self):
        self.stretches += 1

    def hard_stop(self, frame=None):
        """Raise the typed surrender for the current measurement."""
        config = self.config
        usage, free = self.last_usage, self.last_free
        if config.free_floor is not None and free is not None \
                and free <= config.free_floor:
            limit, observed = config.free_floor, free
        else:
            limit, observed = config.budget, usage
        raise DiskPressureExceeded(
            limit, observed,
            path=self.sampler.paths[0] if self.sampler.paths else None,
            frame=frame,
        )

    def accounting(self):
        """Counter snapshot for checkpoints, traces and results."""
        return {
            "disk_usage": self.last_usage,
            "disk_peak_usage": self.sampler.peak_usage,
            "disk_free": self.last_free,
            "disk_low_free": self.sampler.low_free,
            "disk_soft_events": self.soft_events,
            "disk_hard_events": self.hard_events,
            "disk_compactions": self.compactions,
            "disk_reclaimed_bytes": self.reclaimed_bytes,
            "disk_stretches": self.stretches,
        }


# ---------------------------------------------------------------------------
# checkpoint compaction


def rewrite_jsonl_atomic(path, records, site_prefix="checkpoint"):
    """Atomically replace *path* with *records*, re-CRC'd per line.

    The compaction primitive: serialize every record through the same
    :class:`~repro.runtime.checkpoint.JsonlWriter` discipline that
    wrote it (version splice, canonical ``sort_keys`` dump, CRC32
    splice — so surviving records are byte-identical to their
    originals), into a temporary file in the same directory, then
    ``os.replace`` over the target and fsync the directory.  Readers
    see either the complete old file or the complete new one.

    On any failure — including the ``disk.compact.crash`` failpoint,
    which injects a crash between the finished temp file and the
    rename — the temp file is removed and the original is untouched,
    so a failed compaction costs nothing but the retry.
    """
    path = str(path)
    directory = os.path.dirname(os.path.abspath(path))
    fd, tmp_path = tempfile.mkstemp(
        dir=directory, prefix=os.path.basename(path) + ".", suffix=".tmp"
    )
    os.close(fd)
    writer = None
    try:
        writer = JsonlWriter(tmp_path, site_prefix=site_prefix)
        for record in records:
            # _write mutates (version splice); never touch the caller's copy
            writer._write(dict(record))
        writer.close()
        writer = None
        if _failpoints.fire("disk.compact.crash"):
            raise CheckpointError(
                path, "failpoint disk.compact.crash fired before rename"
            )
        os.replace(tmp_path, path)
    except BaseException:
        if writer is not None:
            writer.close()
        try:
            os.unlink(tmp_path)
        except OSError:
            pass
        raise
    try:
        dir_fd = os.open(directory, os.O_RDONLY)
    except OSError:  # pragma: no cover - exotic platforms
        return
    try:
        fsync_best_effort(dir_fd, directory)
    finally:
        os.close(dir_fd)


def _compact_campaign_records(records):
    """Survivors of a campaign checkpoint: header + latest snapshot.

    Resume reads the header and the *last* ``checkpoint`` record;
    everything else is history.  The last ``progress`` record is kept
    too (``repro top`` resurfaces it), as is anything unrecognized —
    compaction must never destroy what it does not understand.
    """
    keep = set()
    last = {}
    for index, record in enumerate(records):
        kind = record.get("type")
        if kind in ("checkpoint", "progress"):
            last[kind] = index
        else:
            keep.add(index)
    keep.update(last.values())
    return [records[i] for i in sorted(keep)]


def _compact_fabric_records(records):
    """Survivors of a fabric checkpoint: header + latest per shard.

    The loader folds shard records last-write-wins keyed by shard id,
    so only each shard's final record matters.  Order of survivors is
    the order of those final occurrences, preserving append
    semantics.
    """
    keep = set()
    last_shard = {}
    for index, record in enumerate(records):
        if record.get("type") == "shard":
            last_shard[tuple(record.get("id") or ())] = index
        else:
            keep.add(index)
    keep.update(last_shard.values())
    return [records[i] for i in sorted(keep)]


def compact_checkpoint(path):
    """Compact a campaign or fabric checkpoint file in place.

    Keeps exactly the records a resume reads (see the per-flavor
    helpers), rewrites atomically, and returns the accounting::

        {"kind", "records_before", "records_after",
         "bytes_before", "bytes_after"}

    Corruption refuses the compaction (``CheckpointError``) — a
    damaged file is ``repro fsck --repair``'s job, and compacting
    around quarantined records could silently launder them away.  A
    torn tail is fine (readers skip it; compaction drops it, which a
    reopening writer would have done anyway).
    """
    path = str(path)
    records = list(read_jsonl_records(path))
    if not records:
        raise CheckpointError(path, "no records")
    first = records[0].get("type")
    if first in ("header", "checkpoint", "progress"):
        survivors = _compact_campaign_records(records)
        site_prefix = "checkpoint"
        kind = "campaign"
    elif first in ("fabric-header", "shard"):
        survivors = _compact_fabric_records(records)
        site_prefix = "fabric.checkpoint"
        kind = "fabric"
    else:
        raise CheckpointError(
            path, f"cannot compact artifact with first record type {first!r}"
        )
    try:
        bytes_before = os.path.getsize(path)
    except OSError:  # pragma: no cover - raced deletion
        bytes_before = 0
    rewrite_jsonl_atomic(path, survivors, site_prefix=site_prefix)
    try:
        bytes_after = os.path.getsize(path)
    except OSError:  # pragma: no cover - raced deletion
        bytes_after = bytes_before
    return {
        "kind": kind,
        "records_before": len(records),
        "records_after": len(survivors),
        "bytes_before": bytes_before,
        "bytes_after": bytes_after,
    }
