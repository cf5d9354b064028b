"""In-session memory relief: computed-table eviction keeps verdicts."""

from repro.circuit.compile import compile_circuit
from repro.circuits.generators import nlfsr
from repro.faults.collapse import collapse_faults
from repro.faults.status import FaultSet
from repro.runtime import ResourceGovernor
from repro.sequences.random_seq import random_sequence_for
from repro.symbolic.fault_sim import SymbolicSession


def sessions_pair(circuit, node_limit=None):
    compiled = compile_circuit(circuit)
    faults, _ = collapse_faults(compiled)
    plain_set, pressured_set = FaultSet(faults), FaultSet(faults)
    plain = SymbolicSession(compiled, "MOT", node_limit=node_limit)
    plain.attach_faults(plain_set.undetected())
    pressured = SymbolicSession(compiled, "MOT", node_limit=node_limit)
    pressured.attach_faults(pressured_set.undetected())
    return compiled, (plain_set, plain), (pressured_set, pressured)


def detected_map(fault_set):
    return {
        r.fault.key(): (r.detected_by, r.detected_at)
        for r in fault_set.detected()
    }


def test_pressured_session_matches_plain_session(monkeypatch):
    # eviction on every allocation: the computed table is pure
    # memoisation, so neither verdicts nor the node store may move
    monkeypatch.setattr("repro.runtime.governor._CLOCK_STRIDE", 1)
    compiled, (plain_set, plain), (pressured_set, pressured) = (
        sessions_pair(nlfsr(7, seed=2), node_limit=50_000)
    )
    events = []
    governor = ResourceGovernor(cache_budget=32)
    governor.on_evict = events.append
    governor.attach_manager(pressured.manager)
    sequence = random_sequence_for(compiled, 20, seed=4)
    for vector in sequence:
        plain.step(vector)
        pressured.step(vector)
        assert pressured.project_state_3v() == plain.project_state_3v()
        assert pressured.manager.num_nodes == plain.manager.num_nodes
    assert detected_map(pressured_set) == detected_map(plain_set)
    assert events  # the budget actually fired
