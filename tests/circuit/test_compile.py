"""Compilation: levelisation, fanout lists, sink accounting."""

import pytest

from repro.circuit import gates as gatelib
from repro.circuit.compile import compile_circuit
from repro.circuit.netlist import Circuit
from repro.circuit.validate import CircuitError
from repro.circuits.iscas import s27
from tests.util import random_circuit


def test_levels_respect_topology(s27_compiled):
    for cg in s27_compiled.gates:
        for src in cg.fanins:
            assert s27_compiled.level[src] < cg.level


def test_gate_order_is_by_level(s27_compiled):
    levels = [cg.level for cg in s27_compiled.gates]
    assert levels == sorted(levels)


def test_sources_at_level_zero(s27_compiled):
    for sig in s27_compiled.pis + s27_compiled.ppis:
        assert s27_compiled.level[sig] == 0


def test_index_roundtrip(s27_compiled):
    for sig, name in enumerate(s27_compiled.names):
        assert s27_compiled.index[name] == sig


def test_fanout_gates_consistent(s27_compiled):
    for cg in s27_compiled.gates:
        for pin, src in enumerate(cg.fanins):
            assert (cg.pos, pin) in s27_compiled.fanout_gates[src]


@pytest.mark.parametrize("seed", range(4))
def test_precomputed_tables_match_the_gate_list(seed):
    compiled = compile_circuit(random_circuit(seed, num_gates=20))
    for cg in compiled.gates:
        assert compiled.gate_ops[cg.pos] == (
            (cg.out, cg.fanins) + gatelib.base_op(cg.kind)
        )
    for sig in range(compiled.num_signals):
        expected = []
        for gate_pos, _pin in compiled.fanout_gates[sig]:
            event = (compiled.gates[gate_pos].level, gate_pos)
            if event not in expected:
                expected.append(event)
        assert compiled.event_sinks[sig] == expected


def test_sink_count_matches_fanout_map(s27_compiled):
    circuit = s27_compiled.circuit
    fanout = circuit.fanout_map()
    for net, sinks in fanout.items():
        sig = s27_compiled.index[net]
        assert s27_compiled.sink_count(sig) == len(sinks)


def test_dff_alignment(s27_compiled):
    circuit = s27_compiled.circuit
    for (q, d), q_sig, d_sig in zip(
        circuit.dffs.items(), s27_compiled.ppis, s27_compiled.dff_d
    ):
        assert s27_compiled.names[q_sig] == q
        assert s27_compiled.names[d_sig] == d


def test_po_order_preserved(s27_compiled):
    circuit = s27_compiled.circuit
    assert [s27_compiled.names[s] for s in s27_compiled.pos] == \
        circuit.outputs


def test_compile_validates():
    c = Circuit("bad")
    c.add_input("a")
    c.add_gate("g1", "AND", ["a", "g2"])
    c.add_gate("g2", "OR", ["g1", "a"])
    c.add_output("g2")
    with pytest.raises(CircuitError):
        compile_circuit(c)


@pytest.mark.parametrize("seed", range(8))
def test_random_circuits_compile(seed):
    compiled = compile_circuit(random_circuit(seed))
    # every gate readable, every level consistent
    for cg in compiled.gates:
        assert cg.level >= 1
        for src in cg.fanins:
            assert compiled.level[src] < cg.level


def test_duplicated_fanin_counts_two_sinks():
    c = Circuit("dup")
    c.add_input("a")
    c.add_gate("g", "XOR", ["a", "a"])
    c.add_output("g")
    compiled = compile_circuit(c)
    a = compiled.index["a"]
    assert compiled.sink_count(a) == 2
    assert compiled.has_fanout_branches(a)
