"""Symbolic test evaluation (Section IV.B)."""

import random

import pytest

from repro.baselines.enumeration import all_states, simulate_concrete
from repro.circuit.compile import compile_circuit
from repro.circuits.generators import counter, johnson, nlfsr
from repro.circuits.iscas import s27
from repro.faults.collapse import collapse_faults
from repro.faults.status import FaultSet
from repro.sequences.random_seq import random_sequence_for
from repro.symbolic.evaluation import (
    generate_response,
    symbolic_output_sequence,
)
from repro.symbolic.hybrid import hybrid_fault_simulate
from tests.util import random_circuit


@pytest.mark.parametrize("seed", range(6))
def test_fault_free_responses_always_accepted(seed):
    rng = random.Random(seed)
    compiled = compile_circuit(random_circuit(seed, num_dffs=4))
    sequence = random_sequence_for(compiled, 12, seed=seed)
    symbolic = symbolic_output_sequence(compiled, sequence)
    for _ in range(4):
        state = [rng.randrange(2) for _ in range(compiled.num_dffs)]
        response = generate_response(compiled, sequence, state)
        accepted, conflict = symbolic.evaluate(response)
        assert accepted and conflict is None


@pytest.mark.parametrize("seed", range(4))
def test_acceptance_matches_enumeration_exactly(seed):
    """A response is accepted iff SOME initial state produces it —
    cross-checked against brute-force enumeration with corrupted and
    genuine responses."""
    rng = random.Random(seed + 10)
    compiled = compile_circuit(random_circuit(seed, num_dffs=3))
    sequence = random_sequence_for(compiled, 8, seed=seed)
    symbolic = symbolic_output_sequence(compiled, sequence)
    genuine = {
        simulate_concrete(compiled, sequence, p)
        for p in all_states(compiled.num_dffs)
    }
    for trial in range(12):
        response = [
            list(frame)
            for frame in rng.choice(sorted(genuine))
        ]
        if trial % 2:
            # corrupt a random bit
            t = rng.randrange(len(response))
            j = rng.randrange(compiled.num_pos)
            response[t][j] ^= 1
        expected = tuple(tuple(f) for f in response) in genuine
        accepted, _ = symbolic.evaluate(response)
        assert accepted == expected


def test_mot_detected_fault_rejected_on_the_tester():
    compiled = compile_circuit(johnson(6))
    sequence = random_sequence_for(compiled, 40, seed=3)
    symbolic = symbolic_output_sequence(compiled, sequence)
    faults, _ = collapse_faults(compiled)
    rng = random.Random(1)
    checked = 0
    for fault in faults:
        fs = FaultSet([fault])
        hybrid_fault_simulate(compiled, sequence, fs, strategy="MOT",
                              node_limit=None)
        if fs.counts()["detected"] != 1:
            continue
        state = [rng.randrange(2) for _ in range(compiled.num_dffs)]
        response = generate_response(compiled, sequence, state,
                                     fault=fault)
        accepted, conflict = symbolic.evaluate(response)
        assert not accepted
        assert 1 <= conflict <= len(sequence)
        checked += 1
        if checked >= 10:
            break
    assert checked > 0


def test_partial_sequence_under_node_limit_is_conservative():
    compiled = compile_circuit(nlfsr(14, seed=5))
    sequence = random_sequence_for(compiled, 40, seed=5)
    symbolic = symbolic_output_sequence(
        compiled, sequence, node_limit=500
    )
    assert not symbolic.exact
    assert symbolic.restarts >= 1
    # genuine responses still accepted (conservativeness direction)
    rng = random.Random(2)
    for _ in range(3):
        state = [rng.randrange(2) for _ in range(compiled.num_dffs)]
        response = generate_response(compiled, sequence, state)
        accepted, _ = symbolic.evaluate(response)
        assert accepted


def test_bdd_size_reported():
    compiled = compile_circuit(counter(5))
    sequence = random_sequence_for(compiled, 20, seed=1)
    symbolic = symbolic_output_sequence(compiled, sequence)
    assert symbolic.bdd_size() >= 2
    assert symbolic.exact


def test_response_length_checked():
    compiled = compile_circuit(s27())
    sequence = random_sequence_for(compiled, 5, seed=1)
    symbolic = symbolic_output_sequence(compiled, sequence)
    with pytest.raises(ValueError):
        symbolic.evaluate([[0]] * 3)


def test_known_initial_state_pins_response():
    """With a reset state the symbolic sequence accepts exactly the one
    golden response."""
    compiled = compile_circuit(s27())
    sequence = random_sequence_for(compiled, 10, seed=2)
    reset = [0] * compiled.num_dffs
    symbolic = symbolic_output_sequence(
        compiled, sequence, initial_state=reset
    )
    golden = generate_response(compiled, sequence, reset)
    accepted, _ = symbolic.evaluate(golden)
    assert accepted
    corrupted = [list(f) for f in golden]
    corrupted[4][0] ^= 1
    accepted, conflict = symbolic.evaluate(corrupted)
    assert not accepted and conflict == 5
