"""Failure injection and edge-case robustness across module boundaries."""

import pytest

from repro.bdd import BddManager, SpaceLimitExceeded
from repro.circuit.compile import compile_circuit
from repro.circuit.netlist import Circuit
from repro.circuits.iscas import s27
from repro.engines.serial_fault_sim import fault_simulate_3v
from repro.faults.collapse import collapse_faults
from repro.faults.status import FaultSet
from repro.sequences.random_seq import random_sequence_for
from repro.symbolic.hybrid import hybrid_fault_simulate


def test_empty_sequence_is_a_noop():
    compiled = compile_circuit(s27())
    faults, _ = collapse_faults(compiled)
    fs = FaultSet(faults)
    fault_simulate_3v(compiled, [], fs)
    assert fs.counts()["detected"] == 0
    result = hybrid_fault_simulate(compiled, [], fs, strategy="MOT",
                                   node_limit=None)
    assert result.frames_total == 0


def test_empty_fault_set():
    compiled = compile_circuit(s27())
    fs = FaultSet([])
    sequence = random_sequence_for(compiled, 5, seed=1)
    fault_simulate_3v(compiled, sequence, fs)
    hybrid_fault_simulate(compiled, sequence, fs)
    assert fs.counts()["total"] == 0


def test_circuit_without_flipflops():
    """Purely combinational circuits are a degenerate sequential case
    (m = 0): everything must still work, and with no unknown state the
    three strategies coincide with plain response comparison."""
    c = Circuit("comb")
    c.add_input("a")
    c.add_input("b")
    c.add_gate("g", "AND", ["a", "b"])
    c.add_gate("o", "XOR", ["g", "a"])
    c.add_output("o")
    compiled = compile_circuit(c)
    faults, _ = collapse_faults(compiled)
    sequence = [(0, 0), (0, 1), (1, 0), (1, 1)]  # exhaustive
    detected = {}
    for strategy in ("SOT", "rMOT", "MOT"):
        fs = FaultSet(faults)
        hybrid_fault_simulate(compiled, sequence, fs,
                              strategy=strategy, node_limit=None)
        detected[strategy] = {r.fault.key() for r in fs.detected()}
    assert detected["SOT"] == detected["rMOT"] == detected["MOT"]
    fs3 = FaultSet(faults)
    fault_simulate_3v(compiled, sequence, fs3)
    assert {r.fault.key() for r in fs3.detected()} == detected["SOT"]


def test_circuit_without_primary_outputs():
    """No observation points: nothing is ever detectable."""
    c = Circuit("blind")
    c.add_input("a")
    c.add_dff("q", "d")
    c.add_gate("d", "XOR", ["q", "a"])
    compiled = compile_circuit(c)
    faults, _ = collapse_faults(compiled)
    sequence = [(1,), (0,), (1,)]
    for strategy in ("SOT", "rMOT", "MOT"):
        fs = FaultSet(faults)
        hybrid_fault_simulate(compiled, sequence, fs,
                              strategy=strategy, node_limit=None)
        assert fs.counts()["detected"] == 0


def test_single_input_wire_circuit():
    c = Circuit("wire")
    c.add_input("a")
    c.add_gate("o", "BUF", ["a"])
    c.add_output("o")
    compiled = compile_circuit(c)
    faults, _ = collapse_faults(compiled)
    fs = FaultSet(faults)
    fault_simulate_3v(compiled, [(0,), (1,)], fs)
    assert fs.counts()["detected"] == fs.counts()["total"]


def test_manager_survives_space_limit():
    """After SpaceLimitExceeded the manager still answers queries on
    the nodes it already holds."""
    m = BddManager(num_vars=32, node_limit=20)
    f = m.and_(m.mk_var(0), m.mk_var(1))
    with pytest.raises(SpaceLimitExceeded):
        g = f
        for i in range(2, 32):
            g = m.and_(g, m.mk_var(i))
    assert m.evaluate(f, {0: 1, 1: 1}) == 1
    # reachable: node over var0, node over var1, TRUE, FALSE
    assert m.size(f) == 4


def test_zero_node_limit_rejected_gracefully():
    m = BddManager(num_vars=2, node_limit=2)
    with pytest.raises(SpaceLimitExceeded):
        m.mk_var(0)


def test_sequence_width_mismatch_symbolic():
    compiled = compile_circuit(s27())
    faults, _ = collapse_faults(compiled)
    fs = FaultSet(faults)
    with pytest.raises((ValueError, IndexError)):
        hybrid_fault_simulate(compiled, [(0, 1)], fs, node_limit=None)


def test_duplicate_fault_records_are_independent():
    compiled = compile_circuit(s27())
    faults, _ = collapse_faults(compiled)
    fs = FaultSet([faults[0], faults[0]])
    sequence = random_sequence_for(compiled, 30, seed=1)
    fault_simulate_3v(compiled, sequence, fs)
    statuses = {r.status for r in fs.records}
    assert len(statuses) == 1  # both copies classified identically
