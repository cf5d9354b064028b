"""End-to-end flows across module boundaries."""

import pytest

from repro import (
    FaultSet,
    collapse_faults,
    compile_circuit,
    eliminate_x_redundant,
    fault_simulate_3v,
    fault_simulate_3v_parallel,
    hybrid_fault_simulate,
    parse_bench,
    random_sequence_for,
    write_bench,
)
from repro.circuits import get_circuit, s27
from repro.faults.status import BY_3V, UNDETECTED, X_REDUNDANT


def full_flow(circuit, length=60, seed=1, strategy="MOT", **hybrid_kw):
    compiled = compile_circuit(circuit)
    faults, _ = collapse_faults(compiled)
    fault_set = FaultSet(faults)
    sequence = random_sequence_for(compiled, length, seed=seed)
    eliminate_x_redundant(compiled, sequence, fault_set)
    fault_simulate_3v_parallel(compiled, sequence, fault_set)
    result = hybrid_fault_simulate(
        compiled, sequence, fault_set, strategy=strategy, **hybrid_kw
    )
    return compiled, fault_set, result


def test_full_flow_accounting_s27():
    _compiled, fs, result = full_flow(s27())
    counts = fs.counts()
    assert counts["total"] == 32
    assert (
        counts["detected"] + counts["undetected"] + counts["x_redundant"]
        == counts["total"]
    )
    # the symbolic pass can only add detections
    assert counts["detected"] >= len(fs.detected(BY_3V))


@pytest.mark.parametrize("name", ["ctr8", "syncc6", "tlc", "lfsr8"])
def test_full_flow_runs_on_suite(name):
    _compiled, fs, result = full_flow(get_circuit(name), length=40)
    counts = fs.counts()
    assert counts["total"] > 0
    assert result.frames_total == 40


def test_three_valued_subset_of_symbolic_sot():
    """Detection hierarchy across engines: anything the three-valued
    simulator detects, the symbolic SOT simulator detects too."""
    compiled = compile_circuit(s27())
    faults, _ = collapse_faults(compiled)
    sequence = random_sequence_for(compiled, 30, seed=5)
    fs_3v = FaultSet(faults)
    fault_simulate_3v(compiled, sequence, fs_3v)
    fs_sym = FaultSet(faults)
    hybrid_fault_simulate(compiled, sequence, fs_sym, strategy="SOT",
                          node_limit=None)
    d3 = {r.fault.key() for r in fs_3v.detected()}
    ds = {r.fault.key() for r in fs_sym.detected()}
    assert d3 <= ds


def test_bench_roundtrip_preserves_fault_behaviour():
    circuit = get_circuit("tlc")
    reparsed = parse_bench(write_bench(circuit), name="tlc")
    _c1, fs1, _r1 = full_flow(circuit, length=30)
    _c2, fs2, _r2 = full_flow(reparsed, length=30)
    assert fs1.counts() == fs2.counts()


def test_x_redundant_faults_can_be_detected_symbolically():
    """The headline of the paper: faults hopeless for the conventional
    flow are detected by the MOT strategies."""
    _compiled, fs, _result = full_flow(get_circuit("syncc6"), length=60)
    recovered = [
        r for r in fs.detected()
        if r.detected_by in ("SOT", "rMOT", "MOT")
    ]
    assert recovered, "symbolic pass recovered nothing on syncc6"


def test_sequential_runs_are_idempotent():
    compiled = compile_circuit(s27())
    faults, _ = collapse_faults(compiled)
    fault_set = FaultSet(faults)
    sequence = random_sequence_for(compiled, 30, seed=2)
    eliminate_x_redundant(compiled, sequence, fault_set)
    fault_simulate_3v(compiled, sequence, fault_set)
    before = fault_set.counts()
    # running the 3-valued pass again must not change anything
    fault_simulate_3v(compiled, sequence, fault_set)
    assert fault_set.counts() == before


def test_statuses_partition():
    _compiled, fs, _result = full_flow(get_circuit("ctr8"), length=40)
    for record in fs:
        assert record.status in (UNDETECTED, X_REDUNDANT, "detected")
        if record.status == "detected":
            assert record.detected_by is not None
