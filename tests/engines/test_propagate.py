"""Event-driven single-fault propagation vs full faulty re-evaluation.

The reference implementation in tests.util fully evaluates the faulty
machine frame (no events, no diffs); the engine must agree on every
signal, for every fault, in every algebra, on randomized circuits and
states.  This is the property that protects the entire fault simulator.
"""

import heapq
import random

import pytest

from repro.bdd import BddManager, StateVariables
from repro.circuit.bench import parse_bench
from repro.circuit.compile import compile_circuit
from repro.circuits.registry import get_circuit
from repro.engines.algebra import BOOL, THREE_VALUED, BddAlgebra
from repro.engines.evaluate import eval_gate, simulate_frame
from repro.engines.propagate import FrameResult, propagate_fault
from repro.faults.model import BRANCH, DBRANCH, STEM
from repro.faults.universe import enumerate_faults
from repro.logic import threeval as tv
from tests.util import (
    random_circuit,
    reference_faulty_next_state,
    reference_faulty_values,
)


def check_circuit(compiled, algebra, pi_values, good_state, faulty_state):
    good_values = simulate_frame(compiled, algebra, pi_values, good_state)
    state_diff = {
        i: fv
        for i, (gv, fv) in enumerate(zip(good_state, faulty_state))
        if gv != fv
    }
    for fault in enumerate_faults(compiled):
        result = propagate_fault(
            compiled, algebra, good_values, fault, state_diff
        )
        reference = reference_faulty_values(
            compiled, algebra, pi_values, faulty_state, fault
        )
        for sig in range(compiled.num_signals):
            assert result.faulty_value(good_values, sig) == reference[sig], (
                f"{fault!r} at signal {compiled.names[sig]}"
            )
        ref_next = reference_faulty_next_state(
            compiled, algebra, reference, fault
        )
        good_next = [good_values[s] for s in compiled.dff_d]
        for i, (g, r) in enumerate(zip(good_next, ref_next)):
            assert result.next_state_diff.get(i, g) == r


@pytest.mark.parametrize("seed", range(10))
def test_bool_propagation_matches_reference(seed):
    rng = random.Random(seed)
    compiled = compile_circuit(random_circuit(seed, num_gates=15))
    pi_values = [rng.randrange(2) for _ in compiled.pis]
    good_state = [rng.randrange(2) for _ in compiled.ppis]
    faulty_state = [
        b if rng.random() < 0.7 else 1 - b for b in good_state
    ]
    check_circuit(compiled, BOOL, pi_values, good_state, faulty_state)


@pytest.mark.parametrize("seed", range(10))
def test_threeval_propagation_matches_reference(seed):
    rng = random.Random(seed + 100)
    compiled = compile_circuit(random_circuit(seed, num_gates=15))
    pi_values = [rng.choice((0, 1)) for _ in compiled.pis]
    values3 = (tv.ZERO, tv.ONE, tv.X)
    good_state = [rng.choice(values3) for _ in compiled.ppis]
    faulty_state = [
        v if rng.random() < 0.6 else rng.choice(values3)
        for v in good_state
    ]
    check_circuit(compiled, THREE_VALUED, pi_values, good_state,
                  faulty_state)


@pytest.mark.parametrize("seed", range(6))
def test_symbolic_propagation_matches_reference(seed):
    rng = random.Random(seed + 200)
    compiled = compile_circuit(
        random_circuit(seed, num_gates=12, num_dffs=3)
    )
    manager = BddManager(num_vars=compiled.num_dffs)
    algebra = BddAlgebra(manager)
    sv = StateVariables(compiled.num_dffs)
    pi_values = [algebra.const(rng.randrange(2)) for _ in compiled.pis]
    good_state = [
        manager.mk_var(sv.x(i)) for i in range(compiled.num_dffs)
    ]
    # faulty state: some bits constant, some shared with the good state
    faulty_state = []
    for i, g in enumerate(good_state):
        r = rng.random()
        if r < 0.4:
            faulty_state.append(g)
        elif r < 0.7:
            faulty_state.append(algebra.const(rng.randrange(2)))
        else:
            faulty_state.append(manager.not_(g))
    check_circuit(compiled, algebra, pi_values, good_state, faulty_state)


def test_silent_fault_produces_no_diff():
    compiled = compile_circuit(random_circuit(3, num_gates=10))
    pi_values = [0] * compiled.num_pis
    good_state = [0] * compiled.num_dffs
    good_values = simulate_frame(compiled, BOOL, pi_values, good_state)
    # a stuck-at matching the fault-free value at a primary input
    pi_sig = compiled.pis[0]
    from repro.faults.model import Fault, STEM

    fault = Fault((STEM, pi_sig), good_values[pi_sig])
    result = propagate_fault(compiled, BOOL, good_values, fault, {})
    assert result.diff == {}
    assert result.next_state_diff == {}


def test_stem_fault_forces_value_despite_state_diff():
    compiled = compile_circuit(random_circuit(5, num_gates=10))
    pi_values = [1] * compiled.num_pis
    good_state = [0] * compiled.num_dffs
    good_values = simulate_frame(compiled, BOOL, pi_values, good_state)
    from repro.faults.model import Fault, STEM

    ppi0 = compiled.ppis[0]
    fault = Fault((STEM, ppi0), 0)
    # the faulty machine thinks the bit is 1, but the stem fault pins it
    result = propagate_fault(compiled, BOOL, good_values, fault, {0: 1})
    assert result.faulty_value(good_values, ppi0) == 0


# ----------------------------------------------------------------------
# differential check against the event loop as it stood before gate ops
# and event sinks were precompiled (kept verbatim as the reference)
# ----------------------------------------------------------------------
def reference_propagate_fault(compiled, algebra, good_values, fault,
                              state_diff):
    diff = {}
    pending = []  # heap of (level, gate_pos)
    scheduled = set()

    def schedule_sinks(sig):
        for gate_pos, _pin in compiled.fanout_gates[sig]:
            if gate_pos not in scheduled:
                scheduled.add(gate_pos)
                gate = compiled.gates[gate_pos]
                heapq.heappush(pending, (gate.level, gate_pos))

    # 1. Seed: present-state differences.
    for dff_idx, value in state_diff.items():
        sig = compiled.ppis[dff_idx]
        if value != good_values[sig]:
            diff[sig] = value
            schedule_sinks(sig)

    # 2. Seed: the fault site itself.
    forced_sig = None
    branch_gate = None
    branch_pin = None
    kind = fault.lead[0]
    if kind == STEM:
        forced_sig = fault.lead[1]
        forced_value = algebra.const(fault.value)
        current = diff.get(forced_sig, good_values[forced_sig])
        if forced_value != good_values[forced_sig]:
            diff[forced_sig] = forced_value
        else:
            diff.pop(forced_sig, None)
        if current != forced_value:
            schedule_sinks(forced_sig)
        # A forced signal never changes again; its driving gate (if any)
        # must not be re-evaluated.
    elif kind == BRANCH:
        branch_gate = fault.lead[1]
        branch_pin = fault.lead[2]
        if branch_gate not in scheduled:
            scheduled.add(branch_gate)
            gate = compiled.gates[branch_gate]
            heapq.heappush(pending, (gate.level, branch_gate))
    # DBRANCH faults act only at the state update below.

    # 3. Level-ordered propagation.
    while pending:
        _level, gate_pos = heapq.heappop(pending)
        gate = compiled.gates[gate_pos]
        out = gate.out
        if out == forced_sig:
            continue  # output pinned by a stem fault
        operands = [
            diff.get(src, good_values[src]) for src in gate.fanins
        ]
        if gate_pos == branch_gate:
            operands[branch_pin] = algebra.const(fault.value)
        new_value = eval_gate(algebra, gate.kind, operands)
        old_value = diff.get(out, good_values[out])
        if new_value != old_value:
            if new_value == good_values[out]:
                diff.pop(out, None)
            else:
                diff[out] = new_value
            schedule_sinks(out)

    # 4. Next-state differences.
    next_state_diff = {}
    for dff_idx, d_sig in enumerate(compiled.dff_d):
        value = diff.get(d_sig, good_values[d_sig])
        if kind == DBRANCH and fault.lead[1] == dff_idx:
            value = algebra.const(fault.value)
        if value != good_values[d_sig]:
            next_state_diff[dff_idx] = value

    return FrameResult(diff, next_state_diff)


# flip-flop chains: q1 reads q0 (a flip-flop output), q0 reads a primary
# input, and g1 reads q1 on both of its pins
FLOP_CHAIN = """
INPUT(a)
INPUT(b)
OUTPUT(z)
OUTPUT(q1)
q0 = DFF(a)
q1 = DFF(q0)
q2 = DFF(g2)
q3 = DFF(q2)
g1 = AND(q1, q1)
g2 = NOR(g1, b, q3)
z = XNOR(q0, g2)
"""

DIFF_CIRCUITS = ["s27", "tlc", "johnson8", "rfsm13r", "ctr8", "flop-chain"]


def diff_circuit(name):
    if name == "flop-chain":
        return compile_circuit(parse_bench(FLOP_CHAIN, name="flop-chain"))
    return compile_circuit(get_circuit(name))


def assert_same_propagation(compiled, algebra, pi_values, good_state,
                            faulty_state):
    good_values = simulate_frame(compiled, algebra, pi_values, good_state)
    state_diff = {
        i: fv
        for i, (gv, fv) in enumerate(zip(good_state, faulty_state))
        if gv != fv
    }
    kinds = set()
    for fault in enumerate_faults(compiled):
        kinds.add(fault.lead[0])
        expected = reference_propagate_fault(
            compiled, algebra, good_values, fault, state_diff
        )
        result = propagate_fault(
            compiled, algebra, good_values, fault, state_diff
        )
        # item lists, not dicts: iteration order is part of the contract
        # (observe walks the PO differences in this order, and that
        # order fixes which BDD nodes get created first)
        assert list(result.diff.items()) == list(expected.diff.items()), (
            fault.describe(compiled)
        )
        assert list(result.next_state_diff.items()) == list(
            expected.next_state_diff.items()
        ), fault.describe(compiled)
    if compiled.circuit.name == "flop-chain":
        assert kinds == {STEM, BRANCH, DBRANCH}


@pytest.mark.parametrize("name", DIFF_CIRCUITS)
def test_precompiled_kernel_matches_reference_bool(name):
    compiled = diff_circuit(name)
    rng = random.Random(f"bool:{name}")
    for _ in range(3):
        good_state = [rng.randrange(2) for _ in compiled.ppis]
        faulty_state = [
            b if rng.random() < 0.6 else 1 - b for b in good_state
        ]
        assert_same_propagation(
            compiled, BOOL, [rng.randrange(2) for _ in compiled.pis],
            good_state, faulty_state,
        )


@pytest.mark.parametrize("name", DIFF_CIRCUITS)
def test_precompiled_kernel_matches_reference_three_valued(name):
    compiled = diff_circuit(name)
    rng = random.Random(f"3v:{name}")
    values3 = (tv.ZERO, tv.ONE, tv.X)
    for _ in range(3):
        good_state = [rng.choice(values3) for _ in compiled.ppis]
        faulty_state = [
            v if rng.random() < 0.5 else rng.choice(values3)
            for v in good_state
        ]
        assert_same_propagation(
            compiled, THREE_VALUED,
            [rng.randrange(2) for _ in compiled.pis],
            good_state, faulty_state,
        )


@pytest.mark.parametrize("name", DIFF_CIRCUITS)
def test_precompiled_kernel_matches_reference_bdd(name):
    compiled = diff_circuit(name)
    rng = random.Random(f"bdd:{name}")
    manager = BddManager(num_vars=2 * compiled.num_dffs)
    algebra = BddAlgebra(manager)
    sv = StateVariables(compiled.num_dffs)
    good_state = [
        manager.mk_var(sv.x(i)) for i in range(compiled.num_dffs)
    ]
    for _ in range(2):
        faulty_state = []
        for g in good_state:
            r = rng.random()
            if r < 0.4:
                faulty_state.append(g)
            elif r < 0.6:
                faulty_state.append(algebra.const(rng.randrange(2)))
            elif r < 0.8:
                faulty_state.append(manager.not_(g))
            else:
                other = rng.choice(good_state)
                faulty_state.append(manager.xor(g, other))
        assert_same_propagation(
            compiled, algebra,
            [algebra.const(rng.randrange(2)) for _ in compiled.pis],
            good_state, faulty_state,
        )
