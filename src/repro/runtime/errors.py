"""Exception taxonomy of the campaign runtime.

Every error the runtime raises derives from :class:`ReproError` and
carries machine-readable context (budget kind, limits, fault keys,
checkpoint paths) so callers — the CLI, a service wrapper, a test —
can react without parsing message strings.

This module is a leaf: it must not import anything from
:mod:`repro`, because low-level packages (the ``.bench`` loader, the
OBDD manager) raise these errors too.
"""


class ReproError(Exception):
    """Base class for all structured errors raised by this package."""

    def context(self):
        """Machine-readable payload describing the error (a dict)."""
        return {}


class BudgetExceeded(ReproError):
    """A resource governor budget was exhausted.

    ``kind`` is one of ``"deadline"``, ``"nodes"``, ``"rss"`` (process
    resident set size over the RSS budget) or ``"fault-frame-nodes"`` /
    ``"fault-frame-events"`` (per-fault frame cost).  ``fault_key`` is
    set when the violation is attributable to
    a single fault, in which case the campaign demotes that fault on
    its degradation ladder instead of stopping.  ``pack`` is set when
    the violation happened inside the word-parallel engine, whose frame
    numbering restarts per pack: ``frame`` is then the 1-based frame
    *within* pack number ``pack`` (0-based).
    """

    def __init__(self, kind, limit, observed, fault_key=None, frame=None,
                 pack=None):
        self.kind = kind
        self.limit = limit
        self.observed = observed
        self.fault_key = fault_key
        self.frame = frame
        self.pack = pack
        where = f" (fault {fault_key})" if fault_key is not None else ""
        if frame is not None and pack is not None:
            at = f" at pack {pack}, frame {frame}"
        elif frame is not None:
            at = f" at frame {frame}"
        else:
            at = ""
        super().__init__(
            f"{kind} budget exceeded{at}{where}: "
            f"observed {observed}, limit {limit}"
        )

    def context(self):
        return {
            "kind": self.kind,
            "limit": self.limit,
            "observed": self.observed,
            "fault_key": self.fault_key,
            "frame": self.frame,
            "pack": self.pack,
        }


class DiskPressureExceeded(BudgetExceeded):
    """Free disk space (or an artifact quota) fell below the hard
    watermark after every relief rung ran.

    Routed exactly like the other budget kinds: the campaign catches
    it at a frame boundary, writes a final (compacted) checkpoint and
    returns a partial result with ``stopped="disk"`` — a clean,
    resumable surrender, never a crash.  Raised only after the relief
    ladder (compaction, checkpoint-interval stretch) failed to bring
    usage back under the watermark.
    """

    def __init__(self, limit, observed, path=None, frame=None):
        super().__init__("disk", limit, observed, frame=frame)
        self.path = None if path is None else str(path)

    def context(self):
        data = super().context()
        data["path"] = self.path
        return data


class CheckpointError(ReproError):
    """A checkpoint file could not be written, read or validated."""

    def __init__(self, path, reason):
        self.path = str(path)
        self.reason = reason
        super().__init__(f"checkpoint {self.path}: {reason}")

    def context(self):
        return {"path": self.path, "reason": self.reason}


class CheckpointMismatch(CheckpointError):
    """A checkpoint belongs to a different circuit / fault universe.

    Checkpoint headers embed a stable fingerprint of the circuit
    structure and the serialized fault keys; resuming against an
    edited circuit (or a different collapse) would silently
    misclassify, so resume refuses instead.  Headers written before
    fingerprints existed carry none and resume with the legacy
    fault-key identity check only.
    """

    def __init__(self, path, expected, found):
        self.expected = expected
        self.found = found
        super().__init__(
            path,
            f"circuit/fault-universe fingerprint mismatch: checkpoint "
            f"was written for {found}, resume target is {expected}",
        )

    def context(self):
        data = super().context()
        data["expected"] = self.expected
        data["found"] = self.found
        return data


class DegradationExhausted(ReproError):
    """A fault fell off the bottom of the degradation ladder.

    The campaign catches this and quarantines the fault; it only
    propagates to callers driving the ladder directly.
    """

    def __init__(self, fault_key, rungs_tried):
        self.fault_key = fault_key
        self.rungs_tried = list(rungs_tried)
        super().__init__(
            f"fault {fault_key} exhausted the degradation ladder "
            f"({' -> '.join(self.rungs_tried)})"
        )

    def context(self):
        return {"fault_key": self.fault_key, "rungs_tried": self.rungs_tried}


class WorkerCrashed(ReproError):
    """A shard-fabric worker process died (or hung) and could not be
    replaced.

    The fabric normally absorbs worker deaths — respawn, retry with
    backoff, bisect poison shards — so this only propagates when the
    pool itself is unusable (e.g. every freshly spawned worker dies
    before reporting ready).
    """

    def __init__(self, worker_id, reason, shard_id=None):
        self.worker_id = worker_id
        self.reason = reason
        self.shard_id = shard_id
        at = f" running shard {shard_id}" if shard_id is not None else ""
        super().__init__(f"worker {worker_id}{at}: {reason}")

    def context(self):
        return {
            "worker_id": self.worker_id,
            "reason": self.reason,
            "shard_id": self.shard_id,
        }


class CircuitFormatError(ReproError):
    """A circuit description (e.g. ``.bench`` text) is ill-formed.

    :class:`repro.circuit.bench.BenchParseError` derives from this so
    loader failures are part of the structured taxonomy while staying a
    ``ValueError`` for backwards compatibility.
    """
