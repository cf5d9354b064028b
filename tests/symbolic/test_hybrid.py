"""Hybrid simulator: fallback protocol and conservativeness."""

import pytest

from repro.baselines.enumeration import mot_detectable
from repro.circuit.compile import compile_circuit
from repro.circuits.generators import nlfsr
from repro.circuits.iscas import s27
from repro.faults.collapse import collapse_faults
from repro.faults.status import BY_3V, FaultSet
from repro.sequences.random_seq import random_sequence_for
from repro.symbolic.hybrid import hybrid_fault_simulate
from tests.util import random_circuit


def test_no_limit_hit_equals_pure_symbolic():
    compiled = compile_circuit(s27())
    faults, _ = collapse_faults(compiled)
    sequence = random_sequence_for(compiled, 25, seed=1)
    for strategy in ("SOT", "rMOT", "MOT"):
        fs_pure = FaultSet(faults)
        hybrid_fault_simulate(compiled, sequence, fs_pure,
                              strategy=strategy, node_limit=None)
        fs_hybrid = FaultSet(faults)
        result = hybrid_fault_simulate(
            compiled, sequence, fs_hybrid, strategy=strategy
        )
        assert result.exact
        assert result.frames_three_valued == 0
        d_pure = {(r.fault.key(), r.detected_at) for r in fs_pure.detected()}
        d_hyb = {(r.fault.key(), r.detected_at)
                 for r in fs_hybrid.detected()}
        assert d_pure == d_hyb


def test_fallback_triggers_under_tiny_limit():
    compiled = compile_circuit(nlfsr(10, seed=3))
    faults, _ = collapse_faults(compiled)
    fs = FaultSet(faults)
    sequence = random_sequence_for(compiled, 30, seed=2)
    result = hybrid_fault_simulate(
        compiled, sequence, fs, strategy="MOT", node_limit=400,
        fallback_frames=3,
    )
    assert not result.exact
    assert result.fallbacks >= 1
    assert result.frames_three_valued >= 3 * 1
    assert result.frames_total == len(sequence)
    assert (
        result.frames_symbolic + result.frames_three_valued
        == result.frames_total
    )


@pytest.mark.parametrize("seed", range(6))
def test_fallback_verdicts_remain_sound(seed):
    """Whatever the node limit does, every detection claimed by the
    hybrid run must be a real MOT detection (oracle-verified) — and
    already one on the prefix up to its claimed detection frame, so
    detection frames stay absolute across fallbacks."""
    compiled = compile_circuit(
        random_circuit(seed, num_dffs=4, num_gates=18)
    )
    faults, _ = collapse_faults(compiled)
    fs = FaultSet(faults)
    sequence = random_sequence_for(compiled, 10, seed=seed)
    hybrid_fault_simulate(
        compiled, sequence, fs, strategy="MOT", node_limit=250,
        fallback_frames=2,
    )
    for record in fs.detected():
        assert mot_detectable(compiled, sequence, record.fault), (
            record.fault.describe(compiled)
        )
        prefix = sequence[: record.detected_at]
        assert mot_detectable(compiled, prefix, record.fault), (
            f"{record.fault.describe(compiled)} claimed at frame "
            f"{record.detected_at}"
        )


@pytest.mark.parametrize("seed", range(4))
def test_hybrid_detects_at_most_pure(seed):
    """Fallbacks may lose detections, never invent them."""
    compiled = compile_circuit(
        random_circuit(seed + 30, num_dffs=4, num_gates=16)
    )
    faults, _ = collapse_faults(compiled)
    sequence = random_sequence_for(compiled, 10, seed=seed)
    fs_pure = FaultSet(faults)
    hybrid_fault_simulate(compiled, sequence, fs_pure, strategy="rMOT",
                          node_limit=None)
    fs_hyb = FaultSet(faults)
    hybrid_fault_simulate(
        compiled, sequence, fs_hyb, strategy="rMOT", node_limit=250,
        fallback_frames=2,
    )
    pure = {r.fault.key() for r in fs_pure.detected()}
    hyb = {r.fault.key() for r in fs_hyb.detected()}
    assert hyb <= pure


def test_gc_can_avoid_fallback():
    """With GC enabled, moderate limits are survivable without any
    three-valued interlude on a BDD-friendly circuit (the peak live
    set of a 6-bit counter stays far below its unbounded-table peak)."""
    from repro.circuits.generators import counter

    compiled = compile_circuit(counter(6))
    faults, _ = collapse_faults(compiled)
    sequence = random_sequence_for(compiled, 60, seed=7)
    fs_unbounded = FaultSet(faults)
    hybrid_fault_simulate(
        compiled, sequence, fs_unbounded, strategy="MOT",
        node_limit=10**9,
    )
    fs = FaultSet(faults)
    result = hybrid_fault_simulate(
        compiled, sequence, fs, strategy="MOT", node_limit=3000,
    )
    assert result.gc_runs >= 1
    assert result.exact  # GC alone was enough
    assert fs.counts() == fs_unbounded.counts()


def test_three_valued_detections_are_labelled():
    compiled = compile_circuit(nlfsr(8, seed=1))
    faults, _ = collapse_faults(compiled)
    fs = FaultSet(faults)
    sequence = random_sequence_for(compiled, 30, seed=4)
    result = hybrid_fault_simulate(
        compiled, sequence, fs, strategy="MOT", node_limit=300,
        fallback_frames=5,
    )
    if result.fallbacks:
        for record in fs.detected(BY_3V):
            assert record.detected_by == BY_3V


def test_fallback_frames_must_be_positive():
    compiled = compile_circuit(s27())
    faults, _ = collapse_faults(compiled)
    with pytest.raises(ValueError):
        hybrid_fault_simulate(
            compiled, [], FaultSet(faults), fallback_frames=0
        )


# q' = q OR NOT q: the symbolic good machine knows q = 1 after one
# frame, the three-valued one keeps q = X for ever (reconvergence)
RECONVERGENT = """
INPUT(a)
OUTPUT(z)
q = DFF(d)
nq = NOT(q)
d = OR(q, nq)
z = AND(q, a)
"""


def test_interlude_keeps_the_constants_of_the_symbolic_state(monkeypatch):
    """A fallback projects the session's good state onto 0/1/X, as the
    paper prescribes, instead of restarting from the (less defined)
    three-valued trajectory: a constant that only the symbolic state
    knows still detects faults during the interlude."""
    from repro.bdd.errors import SpaceLimitExceeded
    from repro.circuit.bench import parse_bench
    from repro.faults.model import stem_fault
    from repro.symbolic.fault_sim import SymbolicSession

    compiled = compile_circuit(parse_bench(RECONVERGENT, name="reconv"))
    fault = stem_fault(compiled, "z", 0)
    fs = FaultSet([fault])
    sequence = [(1,)] * 10

    step = SymbolicSession.step
    calls = []

    def overflow_on_second_frame(session, vector, **kwargs):
        calls.append(vector)
        if len(calls) == 2:
            raise SpaceLimitExceeded(limit=0, requested=1)
        return step(session, vector, **kwargs)

    monkeypatch.setattr(SymbolicSession, "step", overflow_on_second_frame)
    result = hybrid_fault_simulate(
        compiled, sequence, fs, strategy="MOT", node_limit=None,
    )
    assert result.fallbacks == 1
    (record,) = fs.detected()
    # the good output is 1 from frame 2 on, and frame 2 is the first
    # frame of the interlude
    assert (record.detected_by, record.detected_at) == (BY_3V, 2)
    assert mot_detectable(compiled, sequence[:2], fault)
