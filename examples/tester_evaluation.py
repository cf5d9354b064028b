"""Symbolic test evaluation on the tester (Section IV.B).

A MOT test sequence cannot be evaluated by comparing the CUT response
with *the* golden response — with an unknown initial state there is a
whole *set* of correct responses, one per initial state, and that set
can be exponential.  The paper's answer: keep the fault-free output
sequence symbolic (one OBDD per output per time step over the
initial-state variables) and evaluate

    prod_t prod_j [ o_j(x, t) == c_j(t) ]

against the observed response c.  Product == 0  <=>  no initial state
explains the response  <=>  the CUT is faulty.

This example plays tester: it builds the symbolic response of a Johnson
counter, then feeds it (a) fault-free responses from random initial
states — all accepted — and (b) responses of faulty machines — rejected
whenever the injected fault is MOT-detectable by the sequence.

Run with:  python examples/tester_evaluation.py
"""

import random

from repro import (
    FaultSet,
    collapse_faults,
    compile_circuit,
    hybrid_fault_simulate,
    random_sequence_for,
    symbolic_output_sequence,
)
from repro.circuits.generators import johnson
from repro.symbolic.evaluation import generate_response


def main():
    rng = random.Random(11)
    compiled = compile_circuit(johnson(8))
    sequence = random_sequence_for(compiled, 64, seed=11)

    symbolic = symbolic_output_sequence(compiled, sequence)
    print(
        f"symbolic output sequence built: {len(sequence)} frames x "
        f"{compiled.num_pos} outputs, shared OBDD size "
        f"{symbolic.bdd_size()} nodes"
    )

    # (a) fault-free CUTs from arbitrary initial states must pass
    for trial in range(5):
        state = [rng.randrange(2) for _ in range(compiled.num_dffs)]
        response = generate_response(compiled, sequence, state)
        accepted, _ = symbolic.evaluate(response)
        print(f"fault-free CUT, initial state {state}: "
              f"{'accepted' if accepted else 'REJECTED (bug!)'}")
        assert accepted

    # (b) faulty CUTs: rejected exactly when the fault is MOT-detected
    faults, _ = collapse_faults(compiled)
    shown = 0
    for fault in faults:
        fs = FaultSet([fault])
        hybrid_fault_simulate(compiled, sequence, fs, strategy="MOT",
                              node_limit=None)
        mot_detected = fs.counts()["detected"] == 1
        state = [rng.randrange(2) for _ in range(compiled.num_dffs)]
        response = generate_response(compiled, sequence, state, fault=fault)
        accepted, conflict = symbolic.evaluate(response)
        if mot_detected:
            assert not accepted, "MOT-detected fault slipped through"
        verdict = "rejected at t=%s" % conflict if not accepted else "passed"
        print(f"faulty CUT ({fault.describe(compiled)}): {verdict}"
              f"  [MOT says {'detectable' if mot_detected else 'maybe'}]")
        shown += 1
        if shown >= 8:
            break

    print("\nevery MOT-detectable fault was caught on the tester; "
          "responses that passed came from faults the sequence cannot "
          "distinguish from some fault-free initial state.")


if __name__ == "__main__":
    main()
