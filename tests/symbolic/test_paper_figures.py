"""Figures 1-3: the reconstructed circuits must show exactly the
phenomenon each figure illustrates, under both the symbolic simulator
and the enumeration oracle."""

import pytest

from repro.baselines.enumeration import (
    mot_detectable,
    rmot_detectable,
    sot_detectable,
)
from repro.bdd.manager import FALSE
from repro.circuit.compile import compile_circuit
from repro.circuits.figures import (
    figure1_circuit,
    figure2_circuit,
    figure3_circuit,
)
from repro.experiments.figures import run_figure
from repro.faults.model import stem_fault
from repro.faults.status import FaultSet
from repro.symbolic.hybrid import hybrid_fault_simulate

EXPECTED = {
    # (SOT, rMOT, MOT)
    "fig1": (False, False, True),
    "fig2": (False, True, True),
    "fig3": (False, False, True),
}


@pytest.mark.parametrize("factory", [
    figure1_circuit, figure2_circuit, figure3_circuit,
])
def test_figures_symbolic_verdicts(factory):
    circuit, net, value, sequence = factory()
    compiled = compile_circuit(circuit)
    fault = stem_fault(compiled, net, value)
    expected = EXPECTED[circuit.name]
    for strategy, want in zip(("SOT", "rMOT", "MOT"), expected):
        fs = FaultSet([fault])
        hybrid_fault_simulate(compiled, sequence, fs, strategy=strategy,
                              node_limit=None)
        assert (fs.counts()["detected"] == 1) == want, strategy


@pytest.mark.parametrize("factory", [
    figure1_circuit, figure2_circuit, figure3_circuit,
])
def test_figures_oracle_verdicts(factory):
    circuit, net, value, sequence = factory()
    compiled = compile_circuit(circuit)
    fault = stem_fault(compiled, net, value)
    expected = EXPECTED[circuit.name]
    got = (
        sot_detectable(compiled, sequence, fault),
        rmot_detectable(compiled, sequence, fault),
        mot_detectable(compiled, sequence, fault),
    )
    assert got == expected


def test_figure3_output_functions_match_paper():
    """o(x,.) = (x, x) and o^f(y,.) = (~y, y) — the exact functions the
    paper derives before computing D = [x==~y]*[x==y] = 0."""
    text, verdicts, detection = run_figure(
        figure3_circuit, "Figure 3"
    )
    assert "o(x,1) = [x]" in text
    assert "o(x,2) = [x]" in text
    assert "o^f(y,1) = [~y]" in text
    assert "o^f(y,2) = [y]" in text
    assert detection == FALSE
    assert verdicts == {"SOT": False, "rMOT": False, "MOT": True}


def test_figure2_fault_free_circuit_initialises():
    """The defining feature of Fig. 2: the sequence drives the
    fault-free circuit into a defined state, but not the faulty one."""
    from repro.engines.true_value import simulate_sequence

    circuit, net, value, sequence = figure2_circuit()
    compiled = compile_circuit(circuit)
    trace = simulate_sequence(compiled, sequence)
    from repro.logic import threeval as tv

    assert all(v != tv.X for v in trace.states[-1])  # good: initialised
    # faulty machine holds its unknown state forever: check via oracle
    # responses — two distinct faulty responses exist (state-dependent)
    from repro.baselines.enumeration import response_set

    fault = stem_fault(compiled, net, value)
    assert len(response_set(compiled, sequence, fault)) > 1
