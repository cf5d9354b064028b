"""Campaign runtime: exactness, budgets, degradation, checkpoint/resume.

The kill-and-resume acceptance scenario runs twice: in-process with a
fake clock (deterministic) and as a real subprocess killed with SIGINT
mid-run (the CLI contract).
"""

import json
import os
import signal
import subprocess
import sys
import time

import pytest

import repro
from repro.baselines.enumeration import mot_detectable
from repro.bdd.errors import SpaceLimitExceeded
from repro.circuit.compile import compile_circuit
from repro.circuits.registry import get_circuit
from repro.engines.parallel_fault_sim import fault_simulate_3v_parallel
from repro.faults.collapse import collapse_faults
from repro.faults.status import DETECTED, QUARANTINED, FaultSet
from repro.runtime import (
    DegradationLadder,
    ResourceGovernor,
    resume_campaign,
    run_campaign,
)
from repro.sequences.random_seq import random_sequence_for
from tests.util import random_circuit
from repro.symbolic.fault_sim import SymbolicSession
from repro.symbolic.hybrid import hybrid_fault_simulate
from repro.xred.idxred import eliminate_x_redundant


class FakeClock:
    def __init__(self, inc):
        self.t = 0.0
        self.inc = inc

    def __call__(self):
        self.t += self.inc
        return self.t


@pytest.fixture(scope="module")
def ctr8_setup():
    compiled = compile_circuit(get_circuit("ctr8"))
    faults, _ = collapse_faults(compiled)
    sequence = random_sequence_for(compiled, 40, seed=7)
    return compiled, faults, sequence


def detected_map(fault_set):
    return {
        r.fault.key(): (r.detected_by, r.detected_at)
        for r in fault_set.detected()
    }


# ----------------------------------------------------------------------
# exactness: an untroubled campaign equals the classic pipeline
# ----------------------------------------------------------------------
def test_exact_campaign_matches_reference(s27_compiled, s27_fault_set,
                                          s27_sequence):
    reference = s27_fault_set.clone()
    eliminate_x_redundant(s27_compiled, s27_sequence, reference)
    fault_simulate_3v_parallel(s27_compiled, s27_sequence, reference)
    hybrid_fault_simulate(
        s27_compiled, s27_sequence, reference,
        strategy="MOT", node_limit=300_000,
    )
    result = run_campaign(
        s27_compiled, s27_sequence, s27_fault_set,
        strategy="MOT", node_limit=300_000,
    )
    assert result.stopped == "completed"
    assert result.exact
    assert result.frames_total == len(s27_sequence)
    assert detected_map(s27_fault_set) == detected_map(reference)


# ----------------------------------------------------------------------
# step atomicity: a mid-frame overflow must not corrupt the session
# ----------------------------------------------------------------------
def test_space_limit_mid_frame_leaves_session_intact(ctr8_setup):
    compiled, faults, sequence = ctr8_setup
    fault_set = FaultSet(faults)
    session = SymbolicSession(compiled, "MOT", node_limit=800)
    session.attach_faults(fault_set.records)
    blown = None
    for vector in sequence:
        before = (
            session.time,
            list(session.good_state),
            {key: (entry[0], dict(entry[1]), entry[2])
             for key, entry in session._store.items()},
        )
        try:
            session.step(vector)
        except SpaceLimitExceeded as exc:
            blown = (vector, exc)
            break
    assert blown is not None, "node limit was never hit"
    vector, exc = blown
    # the faults share the manager, so no fault is blamed for the
    # overflow ...
    assert not hasattr(exc, "fault_key")
    # ... and the session is exactly as it was before the step
    after = (
        session.time,
        list(session.good_state),
        {key: (entry[0], dict(entry[1]), entry[2])
         for key, entry in session._store.items()},
    )
    assert after == before
    # the untouched session is still usable once the pressure is gone
    session.manager.node_limit = None
    session.step(vector)
    assert session.time == before[0] + 1


# ----------------------------------------------------------------------
# governor: deadline ~0 terminates promptly with a valid partial result
# ----------------------------------------------------------------------
def test_deadline_zero_stops_promptly(s27_compiled, s27_fault_set,
                                      s27_sequence):
    governor = ResourceGovernor(deadline=0.0)
    result = run_campaign(
        s27_compiled, s27_sequence, s27_fault_set,
        strategy="MOT", governor=governor,
    )
    assert result.stopped == "deadline"
    assert result.frames_total == 0
    assert not result.exact
    assert result.budget["deadline"] == 0.0
    # the partial result is still a coherent CampaignResult
    counts = result.fault_set.counts()
    assert counts["total"] == len(s27_fault_set)
    assert result.runtime_summary()["stopped"] == "deadline"


# ----------------------------------------------------------------------
# deadline mid-run + resume from the checkpoint (in-process, fake clock)
# ----------------------------------------------------------------------
def test_deadline_checkpoint_resume_matches_uninterrupted(
    tmp_path, s27_compiled, s27_fault_set, s27_sequence
):
    pristine = s27_fault_set.clone()
    path = tmp_path / "run.ckpt"
    governor = ResourceGovernor(deadline=1.0, clock=FakeClock(0.015))
    interrupted = run_campaign(
        s27_compiled, s27_sequence, s27_fault_set,
        strategy="MOT", node_limit=2000, governor=governor,
        checkpoint_path=str(path), checkpoint_every=5,
    )
    assert interrupted.stopped == "deadline"
    assert 0 < interrupted.frames_total < len(s27_sequence)
    assert interrupted.checkpoints_written >= 1
    assert not interrupted.exact

    resumed_set = pristine.clone()
    resumed = resume_campaign(
        str(path), compiled=s27_compiled, fault_set=resumed_set
    )
    assert resumed.stopped == "completed"
    assert resumed.resumed_from == interrupted.frames_total
    assert resumed.frames_total == len(s27_sequence)
    assert not resumed.exact  # resumed sessions are conservative

    uninterrupted_set = pristine.clone()
    run_campaign(
        s27_compiled, s27_sequence, uninterrupted_set,
        strategy="MOT", node_limit=2000,
    )
    # same faults detected, by the same strategies, at the same frames
    assert detected_map(resumed_set) == detected_map(uninterrupted_set)


def test_checkpoint_with_retired_pressure_counters_resumes(
    tmp_path, monkeypatch, s27_compiled, s27_fault_set, s27_sequence
):
    # checkpoints written before the in-engine pressure ladder was
    # retired carry its counters; a resume must simply ignore them
    from repro.runtime.campaign import Campaign

    retired = {"pressure_gc_runs": 3, "reorder_rescues": 1}
    counters = Campaign._counters
    monkeypatch.setattr(
        Campaign, "_counters", lambda self: dict(counters(self), **retired)
    )
    pristine = s27_fault_set.clone()
    path = tmp_path / "legacy.ckpt"
    interrupted = run_campaign(
        s27_compiled, s27_sequence, s27_fault_set,
        strategy="MOT", node_limit=2000,
        governor=ResourceGovernor(deadline=1.0, clock=FakeClock(0.015)),
        checkpoint_path=str(path), checkpoint_every=5,
    )
    assert interrupted.stopped == "deadline"
    monkeypatch.undo()
    records = [json.loads(line) for line in path.read_text().splitlines()]
    assert any(
        all(key in json.dumps(record) for key in retired)
        for record in records
    )

    resumed_set = pristine.clone()
    resumed = resume_campaign(
        str(path), compiled=s27_compiled, fault_set=resumed_set
    )
    assert resumed.stopped == "completed"
    assert resumed.resumed_from == interrupted.frames_total
    uninterrupted_set = pristine.clone()
    run_campaign(
        s27_compiled, s27_sequence, uninterrupted_set,
        strategy="MOT", node_limit=2000,
    )
    assert detected_map(resumed_set) == detected_map(uninterrupted_set)


# ----------------------------------------------------------------------
# degradation: per-fault budgets demote offenders, the campaign finishes
# ----------------------------------------------------------------------
def test_per_fault_budget_demotes_only_offenders(s27_compiled,
                                                 s27_fault_set,
                                                 s27_sequence):
    governor = ResourceGovernor(fault_frame_nodes=3)
    result = run_campaign(
        s27_compiled, s27_sequence, s27_fault_set,
        strategy="MOT", node_limit=300_000, governor=governor,
    )
    # per-fault violations never stop the campaign
    assert result.stopped == "completed"
    assert result.frames_total == len(s27_sequence)
    assert result.demotions > 0
    assert not result.exact
    # a full ladder ends on the three-valued rung: nothing quarantined
    assert not result.quarantined
    demoted_keys = {entry[0] for entry in result.demotion_log}
    all_keys = {r.fault.key() for r in s27_fault_set}
    assert demoted_keys <= all_keys


def test_demotion_onto_an_emptied_rung_opens_a_fresh_session():
    """A session whose faults have all been detected or demoted is
    retired.  Here the only rMOT fault moves on to SOT in frame 0, so
    the rMOT session stops stepping; a MOT fault demoted onto rMOT in a
    later frame must get a fresh session at that frame, not join the
    stale one (whose good state is frames behind), or it is credited
    with a detection the exact checker refutes."""
    compiled = compile_circuit(random_circuit(2, num_dffs=3, num_gates=14))
    faults, _ = collapse_faults(compiled)
    sequence = random_sequence_for(compiled, 12, seed=2)
    fault_set = FaultSet(faults)
    result = run_campaign(
        compiled, sequence, fault_set, strategy="MOT",
        governor=ResourceGovernor(fault_frame_nodes=4),
    )
    # demotion_log entries: (fault key, from, to, frame, reason)
    emptied = min(e[3] for e in result.demotion_log if e[1] == "rMOT")
    assert any(
        e[2] == "rMOT" and e[3] > emptied for e in result.demotion_log
    ), result.demotion_log
    assert fault_set.detected()
    for record in fault_set.detected():
        prefix = sequence[: record.detected_at]
        assert mot_detectable(compiled, prefix, record.fault), (
            f"{record.fault.describe(compiled)} claimed by "
            f"{record.detected_by} at frame {record.detected_at}"
        )


@pytest.mark.parametrize("budget", [2, 4, 8])
@pytest.mark.parametrize("seed,num_dffs,num_gates", [(13, 3, 14),
                                                     (5, 4, 18)])
def test_demoted_fault_never_joins_a_running_session(
    seed, num_dffs, num_gates, budget
):
    """A fault demoted onto a rung whose session is still running never
    joins that session: the rung re-opens from its three-valued
    projection instead.  Joining would give every state bit that is X
    in both machines the session's good BDD, tying the faulty state to
    the good machine: these rows used to claim rMOT/SOT detections
    that exact MOT refutes."""
    compiled = compile_circuit(
        random_circuit(seed, num_dffs=num_dffs, num_gates=num_gates)
    )
    faults, _ = collapse_faults(compiled)
    sequence = random_sequence_for(compiled, 12, seed=seed)
    fault_set = FaultSet(faults)
    result = run_campaign(
        compiled, sequence, fault_set, strategy="MOT",
        governor=ResourceGovernor(fault_frame_nodes=budget),
    )
    assert result.demotions > 0
    for record in fault_set.detected():
        if record.detected_by == "3-valued":
            continue
        prefix = sequence[: record.detected_at]
        assert mot_detectable(compiled, prefix, record.fault), (
            f"{record.fault.describe(compiled)} claimed by "
            f"{record.detected_by} at frame {record.detected_at}"
        )


def test_tiny_node_limit_quarantines_only_offenders(ctr8_setup):
    compiled, faults, sequence = ctr8_setup
    # symbolic-only ladder: falling off the bottom means quarantine
    ladder = DegradationLadder([("MOT", 1.0), ("SOT", 0.5)])

    # a tiny node limit overflows the group's shared manager: evidence
    # about the group, answered with 3v interludes — nobody is blamed
    fault_set = FaultSet(faults)
    result = run_campaign(
        compiled, sequence, fault_set, ladder=ladder, node_limit=300,
    )
    assert result.stopped == "completed"
    assert result.fallbacks > 0
    assert result.demotions == 0
    assert not result.quarantined
    assert not fault_set.quarantined()

    # a per-fault budget is the fault's own evidence: offenders alone
    # are demoted, and quarantined once they exhaust the ladder
    fault_set = FaultSet(faults)
    result = run_campaign(
        compiled, sequence, fault_set, ladder=ladder,
        governor=ResourceGovernor(fault_frame_nodes=50),
    )
    assert result.stopped == "completed"
    assert result.frames_total == len(sequence)
    assert {entry[4] for entry in result.demotion_log} == {"budget"}
    quarantined = fault_set.quarantined()
    assert quarantined, "expected some faults to exhaust the ladder"
    # only the offenders are quarantined; the rest finished the run
    # with an ordinary classification
    assert len(quarantined) < len(fault_set)
    assert sorted(result.quarantined) == sorted(
        r.fault.key() for r in quarantined
    )
    counts = fault_set.counts()
    assert counts["detected"] > 0
    assert (
        counts["detected"] + counts["undetected"]
        + counts["x_redundant"] + counts["quarantined"]
        == counts["total"]
    )


def test_three_valued_ladder_stops_after_the_pre_pass(ctr8_setup):
    # the serial 3v rung would replay the word-parallel pre-pass frame
    # for frame, so it gets no faults: same verdicts, no frames
    compiled, faults, sequence = ctr8_setup
    serial_set = FaultSet(faults)
    run_campaign(
        compiled, sequence, serial_set, strategy="3v", pre_pass_3v=False,
    )
    fault_set = FaultSet(faults)
    result = run_campaign(compiled, sequence, fault_set, strategy="3v")
    assert result.stopped == "completed"
    assert result.frames_three_valued == 0
    assert detected_map(fault_set) == detected_map(serial_set)
    assert fault_set.detected()


# ----------------------------------------------------------------------
# the acceptance scenario: SIGINT-killed CLI campaign, resumed, equal
# ----------------------------------------------------------------------
def _repro_env():
    env = dict(os.environ)
    src = os.path.dirname(os.path.dirname(os.path.abspath(repro.__file__)))
    env["PYTHONPATH"] = src + os.pathsep + env.get("PYTHONPATH", "")
    return env


def _detected(payload):
    return {
        f["fault"] for f in payload["faults"] if f["status"] == DETECTED
    }


def test_sigint_kill_and_resume_cli(tmp_path):
    env = _repro_env()
    path = tmp_path / "run.ckpt"
    base = [sys.executable, "-m", "repro", "campaign", "ctr8",
            "--length", "200", "--seed", "7", "--json"]
    proc = subprocess.Popen(
        base + ["--checkpoint", str(path), "--checkpoint-every", "2"],
        env=env, stdout=subprocess.PIPE, stderr=subprocess.PIPE,
        text=True,
    )
    # kill as soon as two between-frame checkpoints are on disk
    deadline = time.monotonic() + 60
    while time.monotonic() < deadline and proc.poll() is None:
        if path.exists():
            with open(path) as handle:
                if sum('"type": "checkpoint"' in line
                       for line in handle) >= 2:
                    break
        time.sleep(0.005)
    if proc.poll() is None:
        proc.send_signal(signal.SIGINT)
    out, err = proc.communicate(timeout=60)
    if proc.returncode == 0:
        pytest.skip("campaign finished before the signal landed")
    assert proc.returncode == 3, err
    partial = json.loads(out)
    assert partial["runtime"]["stopped"] == "signal"
    assert partial["runtime"]["checkpoints_written"] >= 2

    resumed_proc = subprocess.run(
        [sys.executable, "-m", "repro", "campaign",
         "--resume", str(path), "--json"],
        env=env, capture_output=True, text=True, timeout=120,
    )
    assert resumed_proc.returncode == 0, resumed_proc.stderr
    resumed = json.loads(resumed_proc.stdout)
    assert resumed["runtime"]["stopped"] == "completed"
    assert resumed["runtime"]["resumed_from"] >= 2
    assert resumed["runtime"]["exact"] is False
    assert resumed["runtime"]["checkpoints_written"] >= 1

    reference_proc = subprocess.run(
        base, env=env, capture_output=True, text=True, timeout=120,
    )
    assert reference_proc.returncode == 0, reference_proc.stderr
    reference = json.loads(reference_proc.stdout)
    # the killed-and-resumed campaign detects exactly the same fault
    # set as the uninterrupted one (MOT accumulators restart on resume,
    # so detection *times* may be later — conservative, never lossy)
    assert _detected(resumed) == _detected(reference)


def test_quarantined_status_excluded_from_coverage(ctr8_setup):
    compiled, faults, _ = ctr8_setup
    fault_set = FaultSet(faults)
    record = fault_set.records[0]
    record.mark_quarantined()
    assert record.status == QUARANTINED
    assert fault_set.coverage() == 0.0
    assert record not in fault_set.symbolic_candidates()
