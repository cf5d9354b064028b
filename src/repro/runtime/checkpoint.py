"""Between-frame campaign checkpoints (versioned JSON lines).

A checkpoint file is append-only JSON-lines:

* one ``header`` record written when the campaign starts — circuit
  spec, the full test sequence (vectors as ``01`` strings), ladder,
  node limit, the serialized fault keys and a
  :func:`circuit_fingerprint` of circuit + fault universe (both
  checked on resume; a mismatching fingerprint raises
  :class:`~repro.runtime.errors.CheckpointMismatch`),
* periodic ``checkpoint`` records — frame index, the conservative
  three-valued good state, per-fault status / rung / three-valued
  state diff and the campaign counters,
* periodic ``progress`` records (informational only).

Every record carries ``"version": 1``; readers reject other versions.

What is deliberately **not** serialized: the symbolic sessions (BDDs,
detection functions).  Resuming re-opens fresh symbolic sessions from
the three-valued projection, exactly like the paper's space-limit
fallback — so a resumed campaign is conservative and its result is
flagged ``exact=False``.

:class:`SignalGuard` turns ``SIGINT``/``SIGTERM`` into a cooperative
stop request the campaign polls at frame boundaries, writing a final
checkpoint before exiting cleanly.
"""

import errno
import hashlib
import json
import os
import signal
import tempfile
import warnings
import zlib

from repro import failpoints as _failpoints
from repro.faults.status import (
    fault_key_from_json,
    fault_key_to_json,
)
from repro.logic import threeval
from repro.runtime.errors import CheckpointError, CheckpointMismatch

CHECKPOINT_VERSION = 1


def record_crc(body):
    """CRC32 of a serialized record body (the canonical JSON line).

    The canonical form is ``json.dumps(record, sort_keys=True)`` with
    the ``"crc"`` key absent — exactly what :class:`JsonlWriter`
    serializes before splicing the checksum in, and what readers
    reproduce by popping ``"crc"`` and re-dumping.  JSON round-trips
    this form stably (sorted keys, shortest-repr floats, ASCII
    escapes), so writer and reader always agree on the covered bytes.
    """
    return zlib.crc32(body.encode("utf-8")) & 0xFFFFFFFF

#: ``fsync`` errno values that mean "this filesystem cannot fsync this
#: descriptor" (overlayfs directories, some tmpfs/FUSE mounts) rather
#: than "your data is lost".  Durability degrades to the filesystem's
#: own guarantees; crashing the checkpoint path would lose *more*.
_FSYNC_UNSUPPORTED_ERRNOS = (errno.EINVAL, errno.EBADF, errno.ENOTSUP)


def fsync_best_effort(fd, path):
    """``os.fsync`` that degrades to a warning where fsync is refused.

    Returns True when the sync happened (or genuinely failed in a way
    worth propagating — those OSErrors are re-raised), False when the
    filesystem refused the fsync itself (``EINVAL``/``EBADF``/
    ``ENOTSUP``), in which case one :class:`RuntimeWarning` is emitted
    and the caller should stop trying to fsync this file.
    """
    try:
        os.fsync(fd)
        return True
    except OSError as exc:
        if exc.errno not in _FSYNC_UNSUPPORTED_ERRNOS:
            raise
        warnings.warn(
            f"fsync not supported for {path!r} ({exc}); durability "
            "degrades to the filesystem's own write-back guarantees",
            RuntimeWarning,
            stacklevel=2,
        )
        return False


def circuit_fingerprint(compiled, fault_keys):
    """Stable identity hash of a circuit plus its fault universe.

    Covers the circuit *structure* — inputs, outputs, flip-flops and
    gates in sorted order — and the serialized fault keys, never object
    identities or the circuit's name, so the same netlist loaded twice
    (or from a renamed file) fingerprints identically while any edit to
    connectivity, gate kinds or the fault list changes the hash.
    Campaign and fabric checkpoint headers embed it at write time;
    resume recomputes it and refuses on mismatch
    (:class:`~repro.runtime.errors.CheckpointMismatch`).
    """
    circuit = getattr(compiled, "circuit", compiled)
    parts = [
        "inputs:" + ",".join(circuit.inputs),
        "outputs:" + ",".join(circuit.outputs),
        "dffs:" + ",".join(
            f"{q}<-{d}" for q, d in sorted(circuit.dffs.items())
        ),
        "gates:" + ";".join(
            f"{net}={gate.kind}({','.join(gate.fanins)})"
            for net, gate in sorted(circuit.gates.items())
        ),
        "faults:" + ";".join(
            json.dumps(fault_key_to_json(key), sort_keys=True)
            for key in fault_keys
        ),
    ]
    digest = hashlib.sha256("\n".join(parts).encode("utf-8"))
    return digest.hexdigest()[:16]


def verify_fingerprint(path, recorded, compiled, fault_keys):
    """Refuse a resume whose checkpoint fingerprint does not match.

    *recorded* is the header's fingerprint (None for legacy headers,
    which are accepted — they predate fingerprinting).
    """
    if recorded is None:
        return
    expected = circuit_fingerprint(compiled, fault_keys)
    if recorded != expected:
        raise CheckpointMismatch(path, expected, recorded)


def write_json_atomic(path, payload):
    """Write *payload* as JSON with no torn-tail window.

    Appending JSONL records survives a crash losing at most the final
    line, but whole-file results (campaign summaries, metrics dumps,
    audit reports) would be left half-written by a crash mid-``write``.
    So: serialize to a temporary file in the *same* directory, fsync
    it, then ``os.replace`` over the target (atomic on POSIX) and fsync
    the directory so the rename itself is durable.  Readers see either
    the complete old file or the complete new one, never a prefix.
    """
    path = str(path)
    directory = os.path.dirname(os.path.abspath(path))
    fd, tmp_path = tempfile.mkstemp(
        dir=directory, prefix=os.path.basename(path) + ".", suffix=".tmp"
    )
    try:
        with os.fdopen(fd, "w") as handle:
            json.dump(payload, handle, indent=2, sort_keys=True)
            handle.write("\n")
            handle.flush()
            fsync_best_effort(handle.fileno(), tmp_path)
        os.replace(tmp_path, path)
    except BaseException:
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
        # overlay/tmpfs mounts may refuse directory fsync outright
        # (EINVAL); the rename already happened, so degrade to a
        # warning rather than failing a write that succeeded
        fsync_best_effort(dir_fd, directory)
    finally:
        os.close(dir_fd)


def state_to_text(state_3v):
    """Render a three-valued state vector as a '01X' string."""
    return "".join(threeval.to_char(v) for v in state_3v)


def state_from_text(text):
    return [threeval.from_char(c) for c in text]


def _diff_to_json(diff_3v):
    """A {dff_index: three-valued value} diff as a JSON object."""
    if diff_3v is None:
        return None
    return {str(dff): threeval.to_char(v) for dff, v in diff_3v.items()}


def _diff_from_json(data):
    if data is None:
        return None
    return {int(dff): threeval.from_char(v) for dff, v in data.items()}


def _trim_torn_tail(path):
    """Truncate a final line left without its newline (torn write).

    A crash mid-append (SIGKILL, power loss) can leave a partial last
    line; readers already skip it.  But a writer *re-opening* the file
    in append mode would glue its next record onto the partial line,
    turning two harmless artifacts into one corrupt mid-file record
    that costs a quarantined entry on the next read.  Trimming the
    torn tail before appending loses nothing durable — the partial
    record was never readable — and keeps resume-after-crash files
    byte-clean.
    """
    try:
        with open(path, "rb+") as handle:
            handle.seek(0, os.SEEK_END)
            size = handle.tell()
            if size == 0:
                return
            handle.seek(size - 1)
            if handle.read(1) == b"\n":
                return
            # walk back in chunks to the last newline; everything
            # after it is the torn record
            position = size
            keep = 0
            while position > 0:
                chunk_size = min(4096, position)
                position -= chunk_size
                handle.seek(position)
                chunk = handle.read(chunk_size)
                newline = chunk.rfind(b"\n")
                if newline >= 0:
                    keep = position + newline + 1
                    break
            handle.truncate(keep)
    except OSError:
        # unreadable/missing file: the append open below will say so
        pass


class JsonlWriter:
    """Appends versioned, fsync'd JSON-lines records to a file.

    The shared crash-safety primitive behind campaign checkpoints,
    fabric shard checkpoints and the service job journal.  Every record
    is written as one line ending in a newline, flushed and ``fsync``'d
    before the writer moves on.  A crash (power loss, ``SIGKILL``) can
    therefore lose at most the record being written, leaving a
    truncated final line that :func:`read_jsonl_records` detects (no
    trailing newline / malformed JSON on the last line) and skips
    instead of failing the read.

    On filesystems that refuse ``fsync`` itself (``EINVAL``/``EBADF``
    on some overlay and tmpfs mounts) the writer degrades once to a
    :class:`RuntimeWarning` and keeps appending without fsync rather
    than crashing the checkpoint path.

    Every record carries a ``"crc"`` field: the CRC32 of its canonical
    serialization (:func:`record_crc`), letting readers detect bit rot
    and mid-file corruption that torn-tail logic cannot (readers
    accept crc-less records for backward compatibility).

    An ``OSError`` mid-record — ENOSPC being the canonical case —
    never corrupts the file: the writer remembers the pre-write size,
    truncates the partial record back out and raises a typed
    :class:`CheckpointError`.  The file stays valid JSONL, so a resume
    after space returns picks up from the last durable record.

    *site_prefix* names this writer's failpoint sites
    (``<prefix>.write.enospc`` / ``.write.torn`` / ``.fsync.before`` /
    ``.fsync.after`` — see :mod:`repro.failpoints`), so chaos tests
    can target the campaign checkpoint, the fabric shard checkpoint,
    the audit checkpoint and the service journal independently.
    """

    def __init__(self, path, fsync=True, site_prefix="checkpoint"):
        self.path = str(path)
        self.fsync = fsync
        self.site_prefix = site_prefix
        self.records_written = 0
        _trim_torn_tail(self.path)
        try:
            self._handle = open(self.path, "a")
        except OSError as exc:
            raise CheckpointError(path, f"cannot open for append: {exc}")

    def _tail_position(self):
        """Current end-of-file offset (None when even fstat fails)."""
        try:
            return os.fstat(self._handle.fileno()).st_size
        except OSError:  # pragma: no cover - fd already dead
            return None

    def _repair_to(self, position):
        """Truncate a partially written record back out of the file.

        Runs after an ``OSError`` mid-record (ENOSPC, EIO): whatever
        prefix of the record reached the file is removed so the file
        stays valid JSONL and the *next* successful write appends a
        clean record.  If the truncate itself fails the torn tail is
        left behind — readers tolerate exactly one.
        """
        if position is None:
            return
        try:
            self._handle.seek(position)
            self._handle.truncate()
        except (OSError, ValueError):
            pass

    def _write(self, record):
        record["version"] = CHECKPOINT_VERSION
        try:
            body = json.dumps(record, sort_keys=True)
        except (TypeError, ValueError) as exc:
            raise CheckpointError(self.path, f"cannot write record: {exc}")
        # splice the checksum into the serialized body so the CRC
        # covers exactly the canonical form readers will reconstruct
        line = f'{body[:-1]}, "crc": {record_crc(body)}}}\n'
        prefix = self.site_prefix
        start = self._tail_position()
        try:
            if _failpoints.fire(prefix + ".write.enospc"):
                # the disk fills mid-record: half the bytes land, the
                # write fails, and the repair below truncates them
                self._handle.write(line[: len(line) // 2])
                self._handle.flush()
                raise OSError(
                    errno.ENOSPC, "injected: no space left on device"
                )
            if _failpoints.fire(prefix + ".write.torn"):
                # SIGKILL mid-write: half a record stays on disk and no
                # repair runs (the process would already be gone)
                self._handle.write(line[: len(line) // 2])
                self._handle.flush()
                raise CheckpointError(
                    self.path, f"failpoint {prefix}.write.torn fired"
                )
            self._handle.write(line)
            self._handle.flush()
            if _failpoints.fire(prefix + ".fsync.before"):
                raise OSError(errno.EIO, "injected: error before fsync")
            if self.fsync and not fsync_best_effort(
                self._handle.fileno(), self.path
            ):
                self.fsync = False  # warned once; stop retrying
            if _failpoints.fire(prefix + ".fsync.after"):
                raise OSError(errno.EIO, "injected: error after fsync")
        except OSError as exc:
            # unsynced bytes may or may not have reached the platter;
            # the conservative story is "this record never happened"
            self._repair_to(start)
            raise CheckpointError(self.path, f"cannot write record: {exc}")
        self.records_written += 1

    def close(self):
        try:
            self._handle.close()
        except OSError:
            pass


class CheckpointWriter(JsonlWriter):
    """Appends header/checkpoint/progress records to a JSONL file."""

    def __init__(self, path, fsync=True, site_prefix="checkpoint"):
        super().__init__(path, fsync=fsync, site_prefix=site_prefix)
        self.checkpoints_written = 0

    def write_header(
        self,
        circuit_spec,
        sequence,
        fault_keys,
        ladder,
        node_limit,
        initial_state,
        variable_scheme,
        fallback_frames,
        fingerprint=None,
    ):
        self._write(
            {
                "type": "header",
                "circuit": circuit_spec,
                "sequence": [
                    "".join(str(b) for b in vector) for vector in sequence
                ],
                "fault_keys": [fault_key_to_json(k) for k in fault_keys],
                "ladder": ladder.to_json(),
                "node_limit": node_limit,
                "initial_state": state_to_text(initial_state),
                "variable_scheme": variable_scheme,
                "fallback_frames": fallback_frames,
                "fingerprint": fingerprint,
            }
        )

    def write_checkpoint(
        self,
        frame,
        good_state_3v,
        fault_set,
        rung_indices,
        diffs_3v,
        counters,
        elapsed=None,
    ):
        """Snapshot everything needed to resume after *frame* frames.

        *rung_indices* and *diffs_3v* map ``id(record)`` to the rung
        index / three-valued state diff of each still-live record.
        """
        faults = []
        for record in fault_set:
            faults.append(
                {
                    "state": record.state_to_json(),
                    "rung": rung_indices.get(id(record)),
                    "diff": _diff_to_json(diffs_3v.get(id(record))),
                }
            )
        record = {
            "type": "checkpoint",
            "frame": frame,
            "good_state": state_to_text(good_state_3v),
            "faults": faults,
            "counters": counters,
            "elapsed": elapsed,
        }
        self._write(record)
        self.checkpoints_written += 1

    def write_progress(self, payload):
        record = {"type": "progress"}
        record.update(payload)
        self._write(record)


class Checkpoint:
    """The parsed last checkpoint of a campaign file."""

    def __init__(self, path, header, snapshot):
        self.path = str(path)
        self.header = header
        self.snapshot = snapshot

    # -- header accessors ------------------------------------------------
    @property
    def circuit_spec(self):
        return self.header["circuit"]

    @property
    def sequence(self):
        return [
            tuple(int(c) for c in line) for line in self.header["sequence"]
        ]

    @property
    def fault_keys(self):
        return [fault_key_from_json(k) for k in self.header["fault_keys"]]

    @property
    def node_limit(self):
        return self.header["node_limit"]

    @property
    def variable_scheme(self):
        return self.header["variable_scheme"]

    @property
    def fallback_frames(self):
        return self.header["fallback_frames"]

    @property
    def fingerprint(self):
        """Circuit + fault-universe hash (None for legacy headers)."""
        return self.header.get("fingerprint")

    def ladder_json(self):
        return self.header["ladder"]

    # -- snapshot accessors ----------------------------------------------
    @property
    def frame(self):
        return self.snapshot["frame"]

    @property
    def good_state(self):
        return state_from_text(self.snapshot["good_state"])

    @property
    def counters(self):
        return self.snapshot["counters"]

    @property
    def elapsed(self):
        return self.snapshot.get("elapsed") or 0.0

    def fault_states(self):
        """Per-fault [state, rung, diff] aligned with the header keys."""
        return [
            (
                entry["state"],
                entry["rung"],
                _diff_from_json(entry["diff"]),
            )
            for entry in self.snapshot["faults"]
        ]


def read_jsonl_records(path, expected_version=CHECKPOINT_VERSION,
                       on_corrupt=None):
    """Yield the parsed records of a checkpoint JSONL file.

    A record and its trailing newline are written (and fsync'd) as a
    unit, so a crash mid-write leaves exactly one signature: a *final*
    line with no trailing newline.  Such a line is skipped — the file
    resumes from the previous complete record.

    Everything else — a malformed line anywhere else (or one that
    *does* end in a newline), a version mismatch, a CRC32 mismatch on
    a record that carries one — is corruption, not a torn write.  With
    the default ``on_corrupt=None`` that raises
    :class:`CheckpointError`; passing a callable instead quarantines
    the record — ``on_corrupt({"line": n, "reason": ...})`` is called
    and the read continues, so loaders can skip damage and let the
    caller decide whether the loss is verdict-affecting.

    Records without a ``"crc"`` field (written before checksumming
    existed) are accepted unverified; the field itself is popped, so
    consumers see the same record shape either way.
    """
    if not os.path.exists(path):
        raise CheckpointError(path, "file does not exist")
    with open(path) as handle:
        lines = handle.readlines()
    last_index = len(lines) - 1

    def corrupt(index, reason):
        if on_corrupt is None:
            raise CheckpointError(path, f"line {index + 1}: {reason}")
        on_corrupt({"line": index + 1, "reason": reason})

    for index, line in enumerate(lines):
        stripped = line.strip()
        if not stripped:
            continue
        torn_tail = index == last_index and not line.endswith("\n")
        try:
            record = json.loads(stripped)
        except json.JSONDecodeError as exc:
            if torn_tail:
                return  # torn final write: resume from the prior record
            corrupt(index, str(exc))
            continue
        if not isinstance(record, dict):
            if torn_tail:
                return
            corrupt(index, "record is not a JSON object")
            continue
        crc = record.pop("crc", None)
        if crc is not None:
            body = json.dumps(record, sort_keys=True)
            if record_crc(body) != crc:
                if torn_tail:
                    return  # torn mid-record but still parseable JSON
                corrupt(
                    index,
                    f"crc mismatch (recorded {crc}, "
                    f"computed {record_crc(body)})",
                )
                continue
        version = record.get("version")
        if version != expected_version:
            if torn_tail:
                return
            corrupt(
                index,
                f"unsupported version {version!r} "
                f"(expected {expected_version})",
            )
            continue
        yield record


def sniff_checkpoint_kind(path):
    """``"campaign"`` or ``"fabric"`` from the first record of *path*."""
    for record in read_jsonl_records(path):
        kind = record.get("type")
        if kind == "fabric-header":
            return "fabric"
        return "campaign"
    raise CheckpointError(path, "no records")


def load_checkpoint(path, on_corrupt=None):
    """Parse the header and the *last* checkpoint record of *path*.

    With *on_corrupt* (see :func:`read_jsonl_records`) damaged records
    are quarantined instead of failing the load: a corrupt snapshot
    simply stops being the resume point (the previous good one wins —
    conservative, never wrong), while a corrupt *header* still fails
    the load with "no header record", because resuming without the
    fault universe would be verdict-affecting.
    """
    header = None
    snapshot = None
    for record in read_jsonl_records(path, on_corrupt=on_corrupt):
        kind = record.get("type")
        if kind == "header":
            header = record
        elif kind == "checkpoint":
            snapshot = record
    if header is None:
        raise CheckpointError(path, "no header record")
    if snapshot is None:
        raise CheckpointError(path, "no checkpoint record to resume from")
    if len(snapshot["faults"]) != len(header["fault_keys"]):
        raise CheckpointError(
            path, "checkpoint fault list does not match header fault keys"
        )
    return Checkpoint(path, header, snapshot)


class SignalGuard:
    """Turns SIGINT/SIGTERM into a cooperative stop request.

    The campaign polls :attr:`stop_requested` at frame boundaries;
    when set it writes a final checkpoint and returns a partial
    result instead of dying mid-frame.  A second SIGINT falls through
    to the previous handler (usually KeyboardInterrupt), so a hung
    campaign can still be killed interactively.
    """

    def __init__(self, signals=(signal.SIGINT, signal.SIGTERM)):
        self.signals = signals
        self.stop_requested = None  # signal name once requested
        self._previous = {}
        self._installed = False

    def _handler(self, signum, frame):
        if self.stop_requested is not None:
            # second signal: restore and re-raise the default behaviour
            self.uninstall()
            os.kill(os.getpid(), signum)
            return
        self.stop_requested = signal.Signals(signum).name

    def install(self):
        for sig in self.signals:
            self._previous[sig] = signal.signal(sig, self._handler)
        self._installed = True
        return self

    def uninstall(self):
        if not self._installed:
            return
        for sig, previous in self._previous.items():
            signal.signal(sig, previous)
        self._previous.clear()
        self._installed = False

    def __enter__(self):
        return self.install()

    def __exit__(self, *exc_info):
        self.uninstall()
        return False
