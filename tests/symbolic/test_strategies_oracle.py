"""THE cross-validation: the symbolic fault simulator's SOT/rMOT/MOT
verdicts must equal the explicit-enumeration oracle (Definitions 2/3)
on every fault of randomized small circuits.

This pins the whole Section IV machinery — symbolic true-value
simulation, event-driven propagation over BDDs, the x->y rename, the
per-strategy observation rules and fault dropping — against an
independent, brute-force implementation of the paper's definitions.
"""

import pytest

from repro.baselines.enumeration import (
    mot_detectable,
    rmot_detectable,
    sot_detectable,
)
from repro.circuit.compile import compile_circuit
from repro.circuits.iscas import s27
from repro.faults.collapse import collapse_faults
from repro.faults.status import FaultSet
from repro.sequences.random_seq import random_sequence_for
from repro.symbolic.hybrid import hybrid_fault_simulate
from tests.util import random_circuit

ORACLES = {
    "SOT": sot_detectable,
    "rMOT": rmot_detectable,
    "MOT": mot_detectable,
}


def assert_all_strategies_match(compiled, faults, sequence):
    for strategy, oracle in ORACLES.items():
        fs = FaultSet(faults)
        hybrid_fault_simulate(compiled, sequence, fs, strategy=strategy,
                              node_limit=None)
        symbolic = {
            r.fault.key() for r in fs.detected()
        }
        expected = {
            f.key() for f in faults if oracle(compiled, sequence, f)
        }
        assert symbolic == expected, (
            f"{strategy}: extra={symbolic - expected} "
            f"missing={expected - symbolic}"
        )


@pytest.mark.parametrize("seed", range(10))
def test_random_circuits_match_oracle(seed):
    compiled = compile_circuit(
        random_circuit(seed, num_dffs=3, num_gates=12, num_pos=2)
    )
    faults, _ = collapse_faults(compiled)
    sequence = random_sequence_for(compiled, 6, seed=seed)
    assert_all_strategies_match(compiled, faults, sequence)


@pytest.mark.parametrize("seed", (3, 7))
def test_s27_matches_oracle(seed):
    compiled = compile_circuit(s27())
    faults, _ = collapse_faults(compiled)
    sequence = random_sequence_for(compiled, 10, seed=seed)
    assert_all_strategies_match(compiled, faults, sequence)


@pytest.mark.parametrize("seed", range(4))
def test_detection_hierarchy_symbolically(seed):
    """detected(SOT) <= detected(rMOT) <= detected(MOT) as sets."""
    compiled = compile_circuit(
        random_circuit(seed + 50, num_dffs=4, num_gates=16)
    )
    faults, _ = collapse_faults(compiled)
    sequence = random_sequence_for(compiled, 12, seed=seed)
    detected = {}
    for strategy in ("SOT", "rMOT", "MOT"):
        fs = FaultSet(faults)
        hybrid_fault_simulate(compiled, sequence, fs, strategy=strategy,
                              node_limit=None)
        detected[strategy] = {r.fault.key() for r in fs.detected()}
    assert detected["SOT"] <= detected["rMOT"] <= detected["MOT"]


@pytest.mark.parametrize("seed", range(4))
def test_longer_sequences_detect_more(seed):
    """Monotonicity in the sequence: detection sets only grow."""
    compiled = compile_circuit(random_circuit(seed + 80, num_dffs=3))
    faults, _ = collapse_faults(compiled)
    sequence = random_sequence_for(compiled, 12, seed=seed)
    for strategy in ("SOT", "rMOT", "MOT"):
        fs_short = FaultSet(faults)
        hybrid_fault_simulate(
            compiled, sequence[:6], fs_short, strategy=strategy,
            node_limit=None,
        )
        fs_long = FaultSet(faults)
        hybrid_fault_simulate(
            compiled, sequence, fs_long, strategy=strategy, node_limit=None,
        )
        short = {r.fault.key() for r in fs_short.detected()}
        long = {r.fault.key() for r in fs_long.detected()}
        assert short <= long


def test_known_reset_state_sot_equals_concrete():
    """With a fully known initial state the machines are concrete; all
    three strategies agree and match plain Boolean comparison."""
    from repro.baselines.enumeration import simulate_concrete

    compiled = compile_circuit(s27())
    faults, _ = collapse_faults(compiled)
    sequence = random_sequence_for(compiled, 10, seed=5)
    reset = [0] * compiled.num_dffs
    golden = simulate_concrete(compiled, sequence, reset)
    expected = {
        f.key()
        for f in faults
        if simulate_concrete(compiled, sequence, reset, f) != golden
    }
    for strategy in ("SOT", "rMOT", "MOT"):
        fs = FaultSet(faults)
        hybrid_fault_simulate(
            compiled, sequence, fs, strategy=strategy, initial_state=reset,
            node_limit=None,
        )
        assert {r.fault.key() for r in fs.detected()} == expected, strategy
