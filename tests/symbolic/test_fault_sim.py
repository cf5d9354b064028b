"""SymbolicSession mechanics: step atomicity, snapshots, compaction."""

import pytest

from repro.bdd.errors import SpaceLimitExceeded
from repro.circuit.compile import compile_circuit
from repro.circuits.generators import counter, nlfsr
from repro.circuits.iscas import s27
from repro.faults.collapse import collapse_faults
from repro.faults.status import FaultSet
from repro.logic import threeval as tv
from repro.sequences.random_seq import random_sequence_for
from repro.symbolic.fault_sim import SymbolicSession
from repro.symbolic.hybrid import hybrid_fault_simulate


def make_session(strategy="MOT", node_limit=None, circuit=None):
    compiled = compile_circuit(circuit or s27())
    faults, _ = collapse_faults(compiled)
    fs = FaultSet(faults)
    session = SymbolicSession(compiled, strategy, node_limit=node_limit)
    session.attach_faults(fs.undetected())
    return compiled, fs, session


def test_step_counts_time():
    compiled, fs, session = make_session()
    sequence = random_sequence_for(compiled, 5, seed=0)
    for vector in sequence:
        session.step(vector)
    assert session.time == 5


def test_step_requires_binary_vectors():
    compiled, fs, session = make_session()
    with pytest.raises(ValueError):
        session.step((tv.X,) * compiled.num_pis)


def test_detected_faults_leave_the_store():
    compiled, fs, session = make_session()
    sequence = random_sequence_for(compiled, 20, seed=1)
    total = len(session.live_records())
    detected = 0
    for vector in sequence:
        detected += len(session.step(vector))
    assert len(session.live_records()) == total - detected
    assert detected == fs.counts()["detected"]


def test_step_is_atomic_under_space_limit():
    compiled, fs, session = make_session(node_limit=200,
                                         circuit=nlfsr(10, seed=3))
    # find the failing step; state before must be intact afterwards
    sequence = random_sequence_for(compiled, 30, seed=2)
    for vector in sequence:
        time_before = session.time
        state_before = list(session.good_state)
        store_before = {
            k: (dict(v[1]), v[2]) for k, v in session._store.items()
        }
        try:
            session.step(vector)
        except SpaceLimitExceeded:
            assert session.time == time_before
            assert session.good_state == state_before
            for k, (diff, acc) in store_before.items():
                assert session._store[k][1] == diff
                assert session._store[k][2] == acc
            break
    else:
        pytest.skip("limit never hit; lower node_limit")


def test_projection_roundtrip():
    compiled, fs, session = make_session()
    sequence = random_sequence_for(compiled, 6, seed=3)
    for vector in sequence:
        session.step(vector)
    good_3v = session.project_state_3v()
    diffs = session.snapshot_diffs(relative_to=good_3v)
    assert len(good_3v) == compiled.num_dffs
    # constants survive, non-constants become X
    for bdd, v3 in zip(session.good_state, good_3v):
        if session.manager.is_const(bdd):
            assert v3 == session.manager.const_value(bdd)
        else:
            assert v3 == tv.X
    # a fresh session accepts the snapshot
    session2 = SymbolicSession(compiled, "MOT", good_state_3v=good_3v)
    session2.attach_faults(session.live_records(), diffs)
    session2.step(sequence[0])


def test_compact_preserves_future_behaviour():
    compiled1, fs1, s1 = make_session(strategy="rMOT")
    compiled2, fs2, s2 = make_session(strategy="rMOT")
    sequence = random_sequence_for(compiled1, 16, seed=4)
    for i, vector in enumerate(sequence):
        s1.step(vector)
        s2.step(vector)
        if i == 7:
            freed = s2.compact()
            assert freed >= 0
    assert fs1.counts() == fs2.counts()
    d1 = {r.fault.key(): r.detected_at for r in fs1.detected()}
    d2 = {r.fault.key(): r.detected_at for r in fs2.detected()}
    assert d1 == d2


def test_initial_state_mixes_constants_and_variables():
    compiled = compile_circuit(counter(4))
    faults, _ = collapse_faults(compiled)
    fs = FaultSet(faults)
    # two known bits, two unknown
    initial = [0, tv.X, 1, tv.X]
    result = hybrid_fault_simulate(
        compiled,
        random_sequence_for(compiled, 10, seed=5),
        fs,
        strategy="MOT",
        initial_state=initial,
        node_limit=None,
    )
    assert result.frames_total == 10
    assert result.exact


def test_result_repr():
    compiled = compile_circuit(s27())
    faults, _ = collapse_faults(compiled)
    fs = FaultSet(faults)
    result = hybrid_fault_simulate(
        compiled, random_sequence_for(compiled, 4, seed=1), fs,
        strategy="rMOT", node_limit=None,
    )
    assert "rMOT" in repr(result)
    assert "exact" in repr(result)
