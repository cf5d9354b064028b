"""MOT-guided test generation."""

import pytest

from repro.atpg.generator import generate_mot_tests
from repro.baselines.enumeration import mot_detectable, rmot_detectable, \
    sot_detectable
from repro.circuit.compile import compile_circuit
from repro.circuits.generators import counter, sync_controller
from repro.circuits.iscas import s27
from repro.faults.collapse import collapse_faults
from repro.faults.status import FaultSet
from repro.sequences.random_seq import random_sequence_for
from repro.symbolic.hybrid import hybrid_fault_simulate

ORACLES = {
    "SOT": sot_detectable,
    "rMOT": rmot_detectable,
    "MOT": mot_detectable,
}


@pytest.mark.parametrize("strategy", ["SOT", "rMOT", "MOT"])
def test_generated_detections_are_oracle_sound(strategy):
    compiled = compile_circuit(s27())
    faults, _ = collapse_faults(compiled)
    result = generate_mot_tests(
        compiled, faults, strategy=strategy, max_length=20, seed=2
    )
    oracle = ORACLES[strategy]
    for record in result.fault_set.detected():
        assert oracle(compiled, result.sequence, record.fault), (
            record.fault.describe(compiled)
        )


def test_detected_at_frames_within_sequence():
    compiled = compile_circuit(s27())
    faults, _ = collapse_faults(compiled)
    result = generate_mot_tests(compiled, faults, max_length=16, seed=1)
    for record in result.fault_set.detected():
        assert 1 <= record.detected_at <= len(result.sequence)


def test_beats_random_at_equal_length_on_counter():
    """The MOT-guided generator's raison d'etre: on the circuit class
    where conventional generation is hopeless, guided beats random."""
    compiled = compile_circuit(counter(6))
    faults, _ = collapse_faults(compiled)
    result = generate_mot_tests(
        compiled, faults, strategy="MOT", max_length=40, seed=3,
        candidates=4,
    )
    fs_random = FaultSet(faults)
    hybrid_fault_simulate(
        compiled,
        random_sequence_for(compiled, len(result.sequence), seed=3),
        fs_random,
        strategy="MOT",
        node_limit=None,
    )
    assert (
        result.fault_set.counts()["detected"]
        >= fs_random.counts()["detected"]
    )


def test_stops_when_everything_detected():
    compiled = compile_circuit(sync_controller(4))
    faults, _ = collapse_faults(compiled)
    result = generate_mot_tests(
        compiled, faults, strategy="rMOT", max_length=200, seed=1,
        patience=30,
    )
    # generation must terminate well before max_length once the live
    # list empties or goes stale
    assert len(result.sequence) < 200
    assert result.coverage() > 0.5


def test_respects_max_length():
    compiled = compile_circuit(counter(8))
    faults, _ = collapse_faults(compiled)
    result = generate_mot_tests(compiled, faults, max_length=10, seed=1)
    assert len(result.sequence) <= 10


def test_reproducible():
    compiled = compile_circuit(s27())
    faults, _ = collapse_faults(compiled)
    a = generate_mot_tests(compiled, faults, max_length=12, seed=9)
    b = generate_mot_tests(compiled, faults, max_length=12, seed=9)
    assert a.sequence == b.sequence


def test_accepts_fault_set_with_preclassified_faults():
    compiled = compile_circuit(s27())
    faults, _ = collapse_faults(compiled)
    fs = FaultSet(faults)
    fs.records[0].mark_detected("3-valued", 1)
    before = fs.counts()["detected"]
    result = generate_mot_tests(compiled, fs, max_length=10, seed=4)
    assert result.fault_set is fs
    assert fs.counts()["detected"] >= before
    # the preclassified fault kept its original attribution
    assert fs.records[0].detected_by == "3-valued"


def test_default_node_limit_does_not_overflow_on_ctr8():
    """Discarded candidate trials are collected after every committed
    vector, so ctr8 stays far below the default 30k-node limit (it used
    to raise SpaceLimitExceeded before vector 20)."""
    compiled = compile_circuit(counter(8))
    faults, _ = collapse_faults(compiled)
    result = generate_mot_tests(
        compiled, faults, max_length=20, seed=1, node_limit=30000
    )
    assert result.stopped is None
    assert len(result.sequence) == 20


def test_overflow_stops_with_the_committed_prefix():
    compiled = compile_circuit(counter(6))
    faults, _ = collapse_faults(compiled)
    unlimited = generate_mot_tests(compiled, faults, max_length=5, seed=3)
    fs = FaultSet(faults)
    result = generate_mot_tests(
        compiled, fs, max_length=30, seed=3, node_limit=2000
    )
    assert result.stopped == "node-limit"
    assert 0 < len(result.sequence) < 5
    assert result.sequence == unlimited.sequence[:len(result.sequence)]
    # the overflowing round marked nothing: the verdicts are exactly
    # those of the committed prefix
    kept = len(result.sequence)
    assert {
        (r.fault.key(), r.detected_at) for r in fs.detected()
    } == {
        (r.fault.key(), r.detected_at)
        for r in unlimited.fault_set.detected() if r.detected_at <= kept
    }
