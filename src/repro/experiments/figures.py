"""Figures 1-3 — the paper's illustrating examples, re-enacted.

Each figure is reproduced by simulating the reconstructed circuit under
all three observation strategies and printing which strategy detects
the fault, together with the symbolic output values the paper's
waveforms show (for Fig. 3, the full detection-function computation
``D(x,y) = [x == ~y]*[x == y] = 0``).
"""

from repro.bdd import BddManager, StateVariables
from repro.bdd.manager import FALSE
from repro.circuit.compile import compile_circuit
from repro.circuits.figures import (
    figure1_circuit,
    figure2_circuit,
    figure3_circuit,
)
from repro.engines.algebra import BddAlgebra
from repro.engines.evaluate import next_state_of, outputs_of, simulate_frame
from repro.engines.propagate import propagate_fault
from repro.faults.model import stem_fault
from repro.faults.status import FaultSet
from repro.symbolic.detection import detection_function
from repro.symbolic.hybrid import hybrid_fault_simulate


def _strategy_verdicts(compiled, fault, sequence):
    verdicts = {}
    for strategy in ("SOT", "rMOT", "MOT"):
        fs = FaultSet([fault])
        hybrid_fault_simulate(
            compiled, sequence, fs, strategy=strategy, node_limit=None
        )
        verdicts[strategy] = fs.counts()["detected"] == 1
    return verdicts


def _symbolic_outputs(compiled, fault, sequence):
    """(good_outputs, faulty_outputs) per frame, as BDDs over x."""
    state_vars = StateVariables(compiled.num_dffs)
    manager = BddManager(num_vars=compiled.num_dffs)
    algebra = BddAlgebra(manager)
    good_state = [
        manager.mk_var(state_vars.x(i)) for i in range(compiled.num_dffs)
    ]
    diff = {}
    good_seq, faulty_seq = [], []
    for vector in sequence:
        pi_values = [algebra.const(b) for b in vector]
        values = simulate_frame(compiled, algebra, pi_values, good_state)
        result = propagate_fault(compiled, algebra, values, fault, diff)
        good_seq.append(outputs_of(compiled, values))
        faulty_seq.append(
            [result.faulty_value(values, sig) for sig in compiled.pos]
        )
        diff = result.next_state_diff
        good_state = next_state_of(compiled, values)
    return manager, state_vars, good_seq, faulty_seq


def _describe(manager, state_vars, bdd):
    """Tiny pretty-printer for the 1-variable functions of the figures."""
    value = manager.const_value(bdd)
    if value is not None:
        return str(value)
    names = {}
    for i in range(state_vars.num_dffs):
        names[state_vars.x(i)] = f"x{i}" if state_vars.num_dffs > 1 else "x"
        names[state_vars.y(i)] = f"y{i}" if state_vars.num_dffs > 1 else "y"
    if manager.var(bdd) in names and manager.is_terminal(manager.low(bdd)):
        name = names[manager.var(bdd)]
        if manager.high(bdd) == 1 and manager.low(bdd) == 0:
            return name
        if manager.high(bdd) == 0 and manager.low(bdd) == 1:
            return f"~{name}"
    return f"<bdd {manager.size(bdd)} nodes>"


def run_figure(factory, label):
    circuit, net, value, sequence = factory()
    compiled = compile_circuit(circuit)
    fault = stem_fault(compiled, net, value)
    verdicts = _strategy_verdicts(compiled, fault, sequence)
    manager, state_vars, good_seq, faulty_seq = _symbolic_outputs(
        compiled, fault, sequence
    )
    rename = state_vars.x_to_y()
    detection = detection_function(manager, good_seq, faulty_seq, rename)

    lines = [f"{label}: {circuit.name}, fault {net} s-a-{value}, "
             f"sequence {sequence}"]
    for t, (good, faulty) in enumerate(zip(good_seq, faulty_seq), start=1):
        g = ", ".join(_describe(manager, state_vars, b) for b in good)
        f = ", ".join(
            _describe(manager, state_vars, manager.rename(b, rename))
            for b in faulty
        )
        lines.append(f"  t={t}: o(x,{t}) = [{g}]   o^f(y,{t}) = [{f}]")
    lines.append(
        f"  detection function D(x,y) "
        f"{'== 0  =>  MOT-detectable' if detection == FALSE else '!= 0'}"
    )
    lines.append(
        "  verdicts: "
        + "  ".join(
            f"{s}={'detected' if v else 'not detected'}"
            for s, v in verdicts.items()
        )
    )
    return "\n".join(lines), verdicts, detection


def run_all_figures():
    outputs = []
    for factory, label in (
        (figure1_circuit, "Figure 1 (SOT misses the fault)"),
        (figure2_circuit, "Figure 2 (SOT misses it despite initialisation)"),
        (figure3_circuit, "Figure 3 (worked MOT example)"),
    ):
        text, _verdicts, _detection = run_figure(factory, label)
        outputs.append(text)
    return "\n\n".join(outputs)


def main(argv=None):
    print(run_all_figures())


if __name__ == "__main__":
    main()
