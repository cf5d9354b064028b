"""Consistency between the incremental detection functions accumulated
by the fault simulator and the batch computation of
:func:`repro.symbolic.detection.detection_function` from complete
symbolic output sequences.

This guards the subtle part of the MOT implementation: the event-driven
simulator must account for unreached outputs (whose faulty function
equals the fault-free one but still constrains (x, y)) exactly like the
textbook product over all t and j does.
"""

import pytest

from repro.bdd import BddManager, StateVariables
from repro.bdd.manager import FALSE
from repro.circuit.compile import compile_circuit
from repro.circuits.iscas import s27
from repro.engines.algebra import BddAlgebra
from repro.engines.evaluate import next_state_of, outputs_of, simulate_frame
from repro.engines.propagate import propagate_fault
from repro.faults.collapse import collapse_faults
from repro.faults.status import FaultSet
from repro.sequences.random_seq import random_sequence_for
from repro.symbolic.detection import detection_function
from repro.symbolic.hybrid import hybrid_fault_simulate
from tests.util import random_circuit


def batch_detection(compiled, fault, sequence, rename):
    """Full symbolic output sequences -> detection function."""
    state_vars = StateVariables(compiled.num_dffs)
    manager = BddManager(num_vars=compiled.num_dffs)
    algebra = BddAlgebra(manager)
    state = [
        manager.mk_var(state_vars.x(i)) for i in range(compiled.num_dffs)
    ]
    diff = {}
    good_seq, faulty_seq = [], []
    for vector in sequence:
        pi_values = [algebra.const(b) for b in vector]
        values = simulate_frame(compiled, algebra, pi_values, state)
        result = propagate_fault(compiled, algebra, values, fault, diff)
        good_seq.append(outputs_of(compiled, values))
        faulty_seq.append(
            [result.faulty_value(values, sig) for sig in compiled.pos]
        )
        diff = result.next_state_diff
        state = next_state_of(compiled, values)
    mapping = state_vars.x_to_y() if rename else None
    return detection_function(manager, good_seq, faulty_seq, mapping)


@pytest.mark.parametrize("seed", range(6))
def test_mot_verdict_matches_batch(seed):
    compiled = compile_circuit(random_circuit(seed, num_dffs=3))
    faults, _ = collapse_faults(compiled)
    sequence = random_sequence_for(compiled, 6, seed=seed)
    for fault in faults[:30]:
        fs = FaultSet([fault])
        hybrid_fault_simulate(compiled, sequence, fs, strategy="MOT",
                              node_limit=None)
        incremental = fs.counts()["detected"] == 1
        batch = batch_detection(compiled, fault, sequence, rename=True)
        assert incremental == (batch == FALSE), fault


def test_mot_verdict_matches_batch_s27():
    compiled = compile_circuit(s27())
    faults, _ = collapse_faults(compiled)
    sequence = random_sequence_for(compiled, 8, seed=11)
    for fault in faults:
        fs = FaultSet([fault])
        hybrid_fault_simulate(compiled, sequence, fs, strategy="MOT",
                              node_limit=None)
        incremental = fs.counts()["detected"] == 1
        batch = batch_detection(compiled, fault, sequence, rename=True)
        assert incremental == (batch == FALSE), fault.describe(compiled)


@pytest.mark.parametrize("seed", range(4))
def test_rmot_detection_implies_shared_product_zero(seed):
    """rMOT detection means the *shared-variable* product restricted to
    well-defined outputs hits 0 — check against a batch recomputation
    restricted the same way."""
    from repro.bdd.manager import TRUE

    compiled = compile_circuit(random_circuit(seed + 40, num_dffs=3))
    faults, _ = collapse_faults(compiled)
    sequence = random_sequence_for(compiled, 6, seed=seed)

    state_vars = StateVariables(compiled.num_dffs)
    for fault in faults[:20]:
        manager = BddManager(num_vars=compiled.num_dffs)
        algebra = BddAlgebra(manager)
        state = [
            manager.mk_var(state_vars.x(i))
            for i in range(compiled.num_dffs)
        ]
        diff = {}
        product = TRUE
        for vector in sequence:
            pi_values = [algebra.const(b) for b in vector]
            values = simulate_frame(compiled, algebra, pi_values, state)
            result = propagate_fault(compiled, algebra, values, fault,
                                     diff)
            for po_pos, sig in enumerate(compiled.pos):
                good = values[sig]
                if not manager.is_const(good):
                    continue  # rMOT only observes well-defined outputs
                faulty = result.faulty_value(values, sig)
                product = manager.and_(
                    product, manager.xnor(good, faulty)
                )
            diff = result.next_state_diff
            state = next_state_of(compiled, values)
        fs = FaultSet([fault])
        hybrid_fault_simulate(compiled, sequence, fs, strategy="rMOT",
                              node_limit=None)
        assert (fs.counts()["detected"] == 1) == (product == FALSE), fault
