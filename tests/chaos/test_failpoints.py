"""CI chaos job: sweep the failpoint catalog, demand the contract.

Every documented injection site (``repro.failpoints.CATALOG``) is
driven through a real campaign/audit/journal/service run with its
failure armed, and the run must end in one of exactly three states:

* **identical verdicts** — after recovery/retry/resume, the fault
  statuses match the uninjected baseline bit for bit,
* **a clean typed error** — ``CheckpointError`` / ``WorkerCrashed`` /
  another :class:`~repro.runtime.errors.ReproError` subclass, with
  every durable file still valid (``fsck`` clean),
* **quarantine** — affected faults conservatively marked, never
  silently mis-verdicted (a chaos detection must exist in the
  baseline).

Never a silent wrong answer.  The sweep is the acceptance test of the
failpoint tentpole; the dedicated tests below it pin the sharper
guarantees (hang accounting, partial-frame tolerance, CRC quarantine
on resume, crash-exactly-between-result-and-journal recovery).
"""

import json
import os
import signal
import subprocess
import sys
import time
import urllib.error
import urllib.request

import pytest

from repro import failpoints
from repro.audit import AuditOptions, run_audit
from repro.circuit.compile import compile_circuit
from repro.circuits.registry import get_circuit
from repro.faults.collapse import collapse_faults
from repro.faults.status import FaultSet
from repro.runtime import CheckpointError, run_campaign
from repro.runtime.campaign import resume_campaign
from repro.runtime.errors import ReproError
from repro.runtime.fabric import (
    FabricConfig,
    resume_sharded_campaign,
    run_sharded_campaign,
)
from repro.runtime.fsck import fsck_file
from repro.sequences.random_seq import random_sequence_for


@pytest.fixture(autouse=True)
def _clean_registry():
    failpoints.clear()
    yield
    failpoints.clear()


@pytest.fixture(scope="module")
def s27_setup():
    compiled = compile_circuit(get_circuit("s27"))
    sequence = random_sequence_for(compiled, 20, seed=7)
    baseline = fresh_faults(compiled)
    run_campaign(compiled, sequence, baseline)
    return compiled, sequence, signature(baseline)


def fresh_faults(compiled):
    faults, _ = collapse_faults(compiled)
    return FaultSet(faults)


def signature(fault_set):
    return [
        (r.fault.key(), r.status, r.detected_by, r.detected_at)
        for r in fault_set
    ]


def detected_keys(fault_set):
    return {r.fault.key() for r in fault_set.detected()}


def assert_conservative(fault_set, expected_signature):
    """No invented verdicts: chaos detections ⊆ baseline detections."""
    baseline_detected = {
        key for key, status, _by, _at in expected_signature
        if status == "detected"
    }
    invented = detected_keys(fault_set) - baseline_detected
    assert not invented, f"chaos run invented detections: {invented}"


# ----------------------------------------------------------------------
# per-site scenarios
# ----------------------------------------------------------------------
def _scenario_campaign_writer(site, s27_setup, tmp_path):
    """A checkpoint-writer failure mid-campaign: typed error, valid
    file, resume reproduces the baseline (satellite: every JSONL
    writer under ENOSPC and torn-write)."""
    compiled, sequence, expected = s27_setup
    path = str(tmp_path / "run.ckpt")
    failpoints.set_failpoint(site, "after:2")
    fault_set = fresh_faults(compiled)
    with pytest.raises(CheckpointError):
        run_campaign(
            compiled, sequence, fault_set,
            checkpoint_path=path, checkpoint_every=2,
        )
    failpoints.clear()
    report = fsck_file(path)
    assert report.corrupt == [] and report.problems == []
    resumed = fresh_faults(compiled)
    result = resume_campaign(path, compiled=compiled, fault_set=resumed)
    assert result.stopped == "completed"
    assert signature(resumed) == expected


def _scenario_fabric_writer(site, s27_setup, tmp_path):
    compiled, sequence, expected = s27_setup
    path = str(tmp_path / "fab.ckpt")
    failpoints.set_failpoint(site, "after:2")
    fault_set = fresh_faults(compiled)
    with pytest.raises(CheckpointError):
        run_sharded_campaign(
            compiled, sequence, fault_set,
            config=FabricConfig(workers=0, shard_size=8),
            checkpoint_path=path,
        )
    failpoints.clear()
    report = fsck_file(path)
    assert report.corrupt == [] and report.problems == []
    resumed = fresh_faults(compiled)
    result = resume_sharded_campaign(
        path, compiled=compiled, fault_set=resumed,
    )
    assert result.stopped == "completed"
    assert signature(resumed) == expected


def _scenario_audit_writer(site, s27_setup, tmp_path):
    compiled, sequence, _expected = s27_setup
    path = str(tmp_path / "audit.ckpt")
    fault_set = fresh_faults(compiled)
    run_campaign(compiled, sequence, fault_set)
    options = AuditOptions(mode="full", checkpoint_path=path)
    failpoints.set_failpoint(site, "after:2")
    with pytest.raises(CheckpointError):
        run_audit(
            compiled, sequence, fault_set, options=options,
            complete=False, exact=False,
        )
    failpoints.clear()
    assert fsck_file(path).corrupt == []
    # the resumed audit re-verifies the uncovered faults and passes
    report = run_audit(
        compiled, sequence, fault_set, options=options,
        complete=False, exact=False,
    )
    assert report.ok


def _scenario_journal_writer(site, s27_setup, tmp_path):
    from repro.service.journal import JobJournal, replay_journal

    path = str(tmp_path / "journal.jsonl")
    journal = JobJournal(path)
    journal.service_event("start")
    journal.job_event("job-1", "submitted", spec={"circuit": "s27"})
    failpoints.set_failpoint(site, "once")
    with pytest.raises(CheckpointError):
        journal.job_event("job-1", "running")
    failpoints.clear()
    journal.close()
    # prior durable state intact; the failed transition simply never
    # happened
    jobs, _service = replay_journal(path)
    assert jobs["job-1"]["state"] == "submitted"
    # a restarted journal (seeded from replay, as the server does)
    # appends cleanly past the damage
    journal = JobJournal(path)
    journal.note_replayed_state("job-1", jobs["job-1"]["state"])
    journal.job_event("job-1", "running")
    journal.job_event("job-1", "done")
    journal.close()
    jobs, _service = replay_journal(path)
    assert jobs["job-1"]["state"] == "done"
    assert fsck_file(path).ok


def _scenario_bdd_alloc(site, s27_setup, tmp_path):
    compiled, sequence, expected = s27_setup
    failpoints.set_failpoint(site, "after:25")
    fault_set = fresh_faults(compiled)
    result = run_campaign(compiled, sequence, fault_set)
    assert result.stopped == "completed"
    assert_conservative(fault_set, expected)


def _scenario_pressure(site, s27_setup, tmp_path):
    from repro.runtime import ResourceGovernor

    compiled, sequence, expected = s27_setup
    failpoints.set_failpoint(site, "once")
    fault_set = fresh_faults(compiled)
    with pytest.MonkeyPatch.context() as patch:
        # s27 allocates a few dozen nodes: check the cache on each one
        patch.setattr("repro.runtime.governor._CLOCK_STRIDE", 1)
        result = run_campaign(
            compiled, sequence, fault_set,
            node_limit=400,
            governor=ResourceGovernor(cache_budget=8),
        )
    assert failpoints.fired_counts()[site] == 1
    assert result.stopped == "completed"
    assert_conservative(fault_set, expected)


def _scenario_heartbeat(site, s27_setup, tmp_path):
    compiled, sequence, expected = s27_setup
    failpoints.set_failpoint(site, "every:2")
    fault_set = fresh_faults(compiled)
    result = run_sharded_campaign(
        compiled, sequence, fault_set,
        config=FabricConfig(workers=2, shard_size=8, backoff_base=0.01),
    )
    assert result.stopped == "completed"
    assert signature(fault_set) == expected


def _scenario_stall(site, s27_setup, tmp_path):
    run_stall_campaign(s27_setup, "fabric.worker.stall=after:1")


def _scenario_pipe_truncate(site, s27_setup, tmp_path):
    compiled, sequence, expected = s27_setup
    # each worker truncates its second result frame and wedges; the
    # coordinator must buffer the partial frame without blocking, let
    # the hang watchdog reap the worker, and retry the shard
    failpoints.set_failpoint(site, "after:1")
    fault_set = fresh_faults(compiled)
    result = run_sharded_campaign(
        compiled, sequence, fault_set,
        config=FabricConfig(
            workers=2, shard_size=8, hang_grace=8,
            heartbeat_interval=0.05, backoff_base=0.01,
        ),
    )
    assert result.stopped == "completed"
    assert signature(fault_set) == expected


def _scenario_respawn_fail(site, s27_setup, tmp_path):
    compiled, sequence, expected = s27_setup
    # a stalled worker forces a respawn; the first respawn attempt
    # fails (tolerated), the retry succeeds, the campaign completes
    failpoints.configure(
        "fabric.worker.stall=after:1,fabric.respawn.fail=once"
    )
    events = []
    fault_set = fresh_faults(compiled)
    result = run_sharded_campaign(
        compiled, sequence, fault_set,
        config=FabricConfig(
            workers=2, shard_size=8, hang_grace=8,
            heartbeat_interval=0.05, backoff_base=0.01,
            events=lambda e: events.append(e["event"]),
        ),
    )
    assert result.stopped == "completed"
    assert signature(fault_set) == expected
    assert "respawn-failed" in events


def _scenario_service_crash(site, s27_setup, tmp_path):
    run_service_crash_drill(tmp_path)


def _scenario_disk_statvfs(site, s27_setup, tmp_path):
    """The kernel lying that the disk is full: the relief ladder runs,
    then a clean checkpointed surrender (``stopped == "disk"``) —
    never a crash, never a corrupt file."""
    compiled, sequence, expected = s27_setup
    path = str(tmp_path / "lied.ckpt")
    failpoints.set_failpoint(site, "every:1")
    fault_set = fresh_faults(compiled)
    result = run_campaign(
        compiled, sequence, fault_set,
        checkpoint_path=path, checkpoint_every=1,
        disk={"free_floor": 1024 * 1024},
    )
    assert result.stopped == "disk"
    failpoints.clear()
    assert fsck_file(path).ok
    resumed = fresh_faults(compiled)
    result = resume_campaign(path, compiled=compiled, fault_set=resumed)
    assert result.stopped == "completed"
    assert_conservative(resumed, expected)


def _scenario_disk_compact_crash(site, s27_setup, tmp_path):
    """A crash mid-compaction, before the atomic rename: typed error,
    original checkpoint byte-identical, no temp orphans; the retry
    succeeds and resume reproduces the baseline."""
    from repro.runtime.disk import compact_checkpoint

    compiled, sequence, expected = s27_setup
    path = tmp_path / "run.ckpt"
    fault_set = fresh_faults(compiled)
    run_campaign(
        compiled, sequence, fault_set,
        checkpoint_path=str(path), checkpoint_every=2,
    )
    original = path.read_bytes()
    failpoints.set_failpoint(site, "once")
    with pytest.raises(CheckpointError):
        compact_checkpoint(str(path))
    failpoints.clear()
    assert path.read_bytes() == original
    assert not [
        name for name in os.listdir(tmp_path) if name.endswith(".tmp")
    ]
    compact_checkpoint(str(path))
    assert fsck_file(str(path)).ok
    resumed = fresh_faults(compiled)
    result = resume_campaign(
        str(path), compiled=compiled, fault_set=resumed
    )
    assert result.stopped == "completed"
    assert signature(resumed) == expected


SCENARIOS = {
    "checkpoint.write.enospc": _scenario_campaign_writer,
    "checkpoint.write.torn": _scenario_campaign_writer,
    "checkpoint.fsync.before": _scenario_campaign_writer,
    "checkpoint.fsync.after": _scenario_campaign_writer,
    "fabric.checkpoint.write.enospc": _scenario_fabric_writer,
    "fabric.checkpoint.write.torn": _scenario_fabric_writer,
    "audit.checkpoint.write.enospc": _scenario_audit_writer,
    "audit.checkpoint.write.torn": _scenario_audit_writer,
    "journal.write.enospc": _scenario_journal_writer,
    "journal.write.torn": _scenario_journal_writer,
    "bdd.alloc": _scenario_bdd_alloc,
    "pressure.evict": _scenario_pressure,
    "fabric.heartbeat.drop": _scenario_heartbeat,
    "fabric.heartbeat.dup": _scenario_heartbeat,
    "fabric.worker.stall": _scenario_stall,
    "fabric.pipe.truncate": _scenario_pipe_truncate,
    "fabric.respawn.fail": _scenario_respawn_fail,
    "service.result.crash": _scenario_service_crash,
    "disk.statvfs": _scenario_disk_statvfs,
    "disk.compact.crash": _scenario_disk_compact_crash,
}


def test_every_catalogued_site_has_a_sweep_scenario():
    assert set(SCENARIOS) == set(failpoints.SITES)


@pytest.mark.parametrize("site", sorted(SCENARIOS))
def test_catalog_sweep_contract(site, s27_setup, tmp_path):
    """Verdict identity, a typed error, or quarantine — never a
    silent wrong answer."""
    try:
        SCENARIOS[site](site, s27_setup, tmp_path)
    except ReproError:
        raise AssertionError(
            f"site {site}: scenario let a typed error escape unasserted"
        )


# ----------------------------------------------------------------------
# hang watchdog
# ----------------------------------------------------------------------
def run_stall_campaign(s27_setup, spec):
    compiled, sequence, expected = s27_setup
    failpoints.configure(spec, replace=True)
    events = []
    fault_set = fresh_faults(compiled)
    result = run_sharded_campaign(
        compiled, sequence, fault_set,
        config=FabricConfig(
            workers=2, shard_size=8, hang_grace=8,
            heartbeat_interval=0.05, backoff_base=0.01,
            events=lambda e: events.append(e["event"]),
        ),
    )
    assert result.stopped == "completed"
    assert signature(fault_set) == expected
    fabric = result.runtime_summary()["fabric"]
    assert fabric["hangs"] >= 1, (
        "the stalled-but-alive worker was never detected as a hang"
    )
    assert "hang" in events
    return fabric


def test_hang_watchdog_kills_stalled_worker_and_accounts_it(s27_setup):
    """Satellite: a worker that beats, then wedges (alive, silent) is
    killed after hang_grace missed beats and accounted as a hang —
    distinguishable from the dead-process respawn path."""
    fabric = run_stall_campaign(s27_setup, "fabric.worker.stall=after:1")
    # hangs are their own counter, not folded into crash retries
    assert fabric["hangs"] >= 1


def test_hang_watchdog_disabled_with_explicit_timeout(s27_setup):
    """heartbeat_timeout (the stricter legacy knob) takes precedence;
    the stall is then caught by it instead, still to exact verdicts."""
    compiled, sequence, expected = s27_setup
    failpoints.set_failpoint("fabric.worker.stall", "after:1")
    fault_set = fresh_faults(compiled)
    result = run_sharded_campaign(
        compiled, sequence, fault_set,
        config=FabricConfig(
            workers=2, shard_size=8, heartbeat_timeout=0.4,
            heartbeat_interval=0.05, backoff_base=0.01,
        ),
    )
    assert result.stopped == "completed"
    assert signature(fault_set) == expected


# ----------------------------------------------------------------------
# CRC quarantine on resume (flipped byte, not torn tail)
# ----------------------------------------------------------------------
def checkpointed_run(s27_setup, tmp_path):
    compiled, sequence, _expected = s27_setup
    path = tmp_path / "run.ckpt"
    fault_set = fresh_faults(compiled)
    run_campaign(
        compiled, sequence, fault_set,
        checkpoint_path=str(path), checkpoint_every=5,
    )
    return compiled, path


def flip_byte_in_line(path, line_no, needle):
    lines = path.read_bytes().split(b"\n")
    line = lines[line_no]
    pos = line.find(needle)
    assert pos >= 0, f"{needle!r} not in line {line_no}"
    lines[line_no] = line[:pos] + bytes([line[pos] ^ 0x01]) + line[pos + 1:]
    path.write_bytes(b"\n".join(lines))


def test_flipped_byte_is_quarantined_by_resume_and_fsck(
    s27_setup, tmp_path
):
    """Acceptance: a flipped byte in a checkpoint is CRC-detected,
    quarantined (warning, not crash), and reported by both fsck and
    the resume path."""
    compiled, path = checkpointed_run(s27_setup, tmp_path)
    # damage a mid-file snapshot (line 1 = first checkpoint record);
    # the header and later snapshots stay intact
    flip_byte_in_line(path, 1, b'"frame"')
    report = fsck_file(str(path))
    assert not report.ok
    assert [entry["line"] for entry in report.corrupt] == [2]

    resumed = fresh_faults(compiled)
    with pytest.warns(RuntimeWarning, match="quarantined corrupt record"):
        result = resume_campaign(
            str(path), compiled=compiled, fault_set=resumed
        )
    assert result.stopped == "completed"


def test_flipped_byte_in_header_refuses_resume(s27_setup, tmp_path):
    """Verdict-affecting loss (the header) refuses with a typed error
    instead of guessing."""
    compiled, path = checkpointed_run(s27_setup, tmp_path)
    flip_byte_in_line(path, 0, b'"fingerprint"')
    resumed = fresh_faults(compiled)
    with pytest.warns(RuntimeWarning):
        with pytest.raises(CheckpointError, match="no header record"):
            resume_campaign(str(path), compiled=compiled, fault_set=resumed)


# ----------------------------------------------------------------------
# service: crash between result write and terminal journal record
# ----------------------------------------------------------------------
JOB = {"circuit": "s27", "length": 30, "seed": 3, "shard_size": 8}
POLL = 0.05


def _repro_env(**extra):
    import repro

    env = dict(os.environ)
    src = os.path.dirname(os.path.dirname(os.path.abspath(repro.__file__)))
    env["PYTHONPATH"] = src + os.pathsep + env.get("PYTHONPATH", "")
    env.pop("REPRO_FAILPOINTS", None)
    env.update(extra)
    return env


def _start_daemon(state_dir, env):
    proc = subprocess.Popen(
        [sys.executable, "-m", "repro", "serve", "--port", "0",
         "--state-dir", str(state_dir), "--queue-limit", "4"],
        env=env, stdout=subprocess.PIPE, stderr=subprocess.PIPE,
        text=True, start_new_session=True,
    )
    endpoint = os.path.join(str(state_dir), "endpoint.json")
    deadline = time.monotonic() + 60
    while time.monotonic() < deadline:
        if proc.poll() is not None:
            out, err = proc.communicate()
            raise AssertionError(f"daemon died on startup: {out} {err}")
        if os.path.exists(endpoint):
            with open(endpoint, encoding="utf-8") as handle:
                record = json.load(handle)
            if record.get("pid") == proc.pid:
                base = f"http://{record['host']}:{record['port']}"
                try:
                    _request(base, "GET", "/healthz")
                    return proc, base
                except (urllib.error.URLError, OSError):
                    pass
        time.sleep(POLL)
    raise AssertionError("daemon never became healthy")


def _request(base, method, path, body=None):
    data = json.dumps(body).encode("utf-8") if body is not None else None
    request = urllib.request.Request(base + path, data=data, method=method)
    try:
        with urllib.request.urlopen(request, timeout=30) as response:
            return response.status, json.loads(response.read())
    except urllib.error.HTTPError as error:
        return error.code, json.loads(error.read())


def _poll_done(base, job_id, timeout=300):
    deadline = time.monotonic() + timeout
    body = None
    while time.monotonic() < deadline:
        _, body = _request(base, "GET", f"/jobs/{job_id}")
        if body.get("state") == "done":
            return body
        assert body.get("state") not in ("failed", "cancelled"), body
        time.sleep(POLL)
    raise AssertionError(f"job {job_id} never finished: {body}")


def run_service_crash_drill(tmp_path):
    """Crash the daemon exactly between the result write and the
    terminal journal record; a restart must requeue and reproduce."""
    state_dir = tmp_path / "state"
    chaos_env = _repro_env(REPRO_FAILPOINTS="service.result.crash=once")
    proc, base = _start_daemon(state_dir, chaos_env)
    status, body = _request(base, "POST", "/jobs", JOB)
    assert status == 202, body
    job_id = body["id"]
    # the failpoint hard-exits the daemon after the result file lands
    # but before the journal's "done" record
    out, err = proc.communicate(timeout=300)
    assert proc.returncode == 86, (proc.returncode, out, err)

    clean_env = _repro_env()
    proc, base = _start_daemon(state_dir, clean_env)
    try:
        recovered = _poll_done(base, job_id)
        assert recovered["result"]["stopped"] == "completed"

        # reproduction bar: a fresh run of the same spec on the same
        # daemon agrees exactly
        status, body = _request(base, "POST", "/jobs", JOB)
        assert status == 202, body
        reference = _poll_done(base, body["id"])
        assert (
            recovered["result"]["verdicts"]
            == reference["result"]["verdicts"]
        )
        assert (
            recovered["result"]["counts"] == reference["result"]["counts"]
        )
    finally:
        os.kill(proc.pid, signal.SIGTERM)
        proc.communicate(timeout=60)


def test_service_crash_between_result_and_journal(tmp_path):
    run_service_crash_drill(tmp_path)
