"""Hypothesis-driven end-to-end properties on generated circuits.

The seeds-based tests elsewhere pin specific circuits; here hypothesis
explores the circuit space itself (gate kinds, arities, fanout shapes,
duplicate fanins, state feedback) and shrinks failures to minimal
netlists.  The properties are the load-bearing ones:

1. event-driven propagation == full re-evaluation (Boolean),
2. symbolic SOT/rMOT/MOT == explicit-enumeration oracle,
3. ID_X-red never eliminates a three-valued-detectable fault,
4. detection hierarchy SOT <= rMOT <= MOT.
"""

import random as random_module

from hypothesis import given, settings, strategies as st

from repro.baselines.enumeration import (
    mot_detectable,
    rmot_detectable,
    sot_detectable,
)
from repro.circuit.compile import compile_circuit
from repro.engines.algebra import BOOL
from repro.engines.evaluate import simulate_frame
from repro.engines.propagate import propagate_fault
from repro.engines.serial_fault_sim import fault_simulate_3v
from repro.faults.collapse import collapse_faults
from repro.faults.status import FaultSet
from repro.faults.universe import enumerate_faults
from repro.symbolic.hybrid import hybrid_fault_simulate
from repro.xred.idxred import id_x_red
from tests.util import random_circuit, reference_faulty_values


@st.composite
def circuits(draw, max_dffs=3, max_gates=12):
    seed = draw(st.integers(0, 10_000))
    num_pis = draw(st.integers(1, 3))
    num_dffs = draw(st.integers(1, max_dffs))
    num_gates = draw(st.integers(3, max_gates))
    num_pos = draw(st.integers(1, 2))
    return compile_circuit(
        random_circuit(
            seed,
            num_pis=num_pis,
            num_dffs=num_dffs,
            num_gates=num_gates,
            num_pos=num_pos,
        )
    )


@st.composite
def circuit_and_sequence(draw, length=5, **kw):
    compiled = draw(circuits(**kw))
    seq_seed = draw(st.integers(0, 10_000))
    rng = random_module.Random(seq_seed)
    sequence = [
        tuple(rng.randrange(2) for _ in compiled.pis)
        for _ in range(length)
    ]
    return compiled, sequence


@given(circuits(), st.integers(0, 10_000))
@settings(max_examples=25, deadline=None)
def test_propagation_equals_reference(compiled, value_seed):
    rng = random_module.Random(value_seed)
    pi_values = [rng.randrange(2) for _ in compiled.pis]
    good_state = [rng.randrange(2) for _ in compiled.ppis]
    faulty_state = [
        b if rng.random() < 0.7 else 1 - b for b in good_state
    ]
    good = simulate_frame(compiled, BOOL, pi_values, good_state)
    diff = {
        i: fv
        for i, (gv, fv) in enumerate(zip(good_state, faulty_state))
        if gv != fv
    }
    for fault in enumerate_faults(compiled):
        result = propagate_fault(compiled, BOOL, good, fault, diff)
        reference = reference_faulty_values(
            compiled, BOOL, pi_values, faulty_state, fault
        )
        for sig in range(compiled.num_signals):
            assert result.faulty_value(good, sig) == reference[sig]


@given(circuit_and_sequence(length=4))
@settings(max_examples=15, deadline=None)
def test_strategies_match_oracle(pair):
    compiled, sequence = pair
    faults, _ = collapse_faults(compiled)
    oracles = {
        "SOT": sot_detectable,
        "rMOT": rmot_detectable,
        "MOT": mot_detectable,
    }
    for strategy, oracle in oracles.items():
        fs = FaultSet(faults)
        hybrid_fault_simulate(compiled, sequence, fs,
                              strategy=strategy, node_limit=None)
        got = {r.fault.key() for r in fs.detected()}
        want = {
            f.key() for f in faults if oracle(compiled, sequence, f)
        }
        assert got == want, strategy


@given(circuit_and_sequence(length=6, max_gates=16))
@settings(max_examples=20, deadline=None)
def test_idxred_soundness(pair):
    compiled, sequence = pair
    faults = enumerate_faults(compiled)
    result = id_x_red(compiled, sequence, faults)
    victims = [f for f in faults if result.is_x_redundant(f)]
    if not victims:
        return
    fs = FaultSet(victims)
    fault_simulate_3v(compiled, sequence, fs)
    assert fs.counts()["detected"] == 0


@given(circuit_and_sequence(length=5))
@settings(max_examples=15, deadline=None)
def test_detection_hierarchy(pair):
    compiled, sequence = pair
    faults, _ = collapse_faults(compiled)
    detected = {}
    for strategy in ("SOT", "rMOT", "MOT"):
        fs = FaultSet(faults)
        hybrid_fault_simulate(compiled, sequence, fs,
                              strategy=strategy, node_limit=None)
        detected[strategy] = {r.fault.key() for r in fs.detected()}
    assert detected["SOT"] <= detected["rMOT"] <= detected["MOT"]
