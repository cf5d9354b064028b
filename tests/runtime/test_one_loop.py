"""One frame loop: campaign, hybrid and ``simulate`` agree at the paper
configuration (30k nodes, all-X initial state, seed-1 random sequence)
on circuits that overflow the node limit.

A node-limit overflow is evidence about the group of faults sharing a
manager, so the campaign answers it like the paper's hybrid simulator
(GC, then a three-valued interlude) instead of blaming whichever fault
allocated last.  Its verdicts therefore cover the table pipeline's and
do not depend on the order of the fault list.
"""

import json
import random

import pytest

from repro.circuit.compile import compile_circuit
from repro.circuits.registry import get_circuit
from repro.cli import main
from repro.engines.parallel_fault_sim import fault_simulate_3v_parallel
from repro.faults.collapse import collapse_faults
from repro.faults.status import FaultSet
from repro.runtime import run_campaign
from repro.sequences.random_seq import random_sequence_for
from repro.symbolic.hybrid import DEFAULT_NODE_LIMIT, hybrid_fault_simulate
from repro.xred.idxred import eliminate_x_redundant

ROWS = [("mac10", 60), ("ctr16", 50)]

# detected by the table pipeline (ID_X-red, 3v pass, MOT hybrid) with
# the paper's hybrid as it stood before it ran through the campaign loop
PIPELINE_DETECTED = {"mac10": 17, "ctr16": 5}


# (peak_nodes, fallbacks, detections) of the campaign at the paper
# configuration, recorded before the kernel folded its terminal cases:
# folding must not change which BDD operations run or in which order,
# so node creation, overflow points and verdicts stay where they were
PINNED_CAMPAIGN = {
    "mac10": (30000, 7, {
        ((("branch", 20, 1), 0), "MOT", 47),
        ((("branch", 20, 1), 1), "MOT", 47),
        ((("branch", 31, 1), 0), "MOT", 28),
        ((("branch", 31, 1), 1), "MOT", 23),
        ((("branch", 49, 1), 1), "MOT", 23),
        ((("stem", 0), 0), "MOT", 26),
        ((("stem", 11), 0), "MOT", 26),
        ((("stem", 11), 1), "MOT", 16),
        ((("stem", 31), 1), "MOT", 23),
        ((("stem", 33), 0), "MOT", 26),
        ((("stem", 33), 1), "MOT", 16),
        ((("stem", 36), 0), "MOT", 47),
        ((("stem", 62), 1), "MOT", 25),
        ((("stem", 66), 1), "MOT", 23),
        ((("stem", 67), 1), "MOT", 23),
        ((("stem", 71), 0), "MOT", 26),
        ((("stem", 71), 1), "MOT", 26),
    }),
    "ctr16": (30000, 4, {
        ((("branch", 31, 1), 1), "MOT", 2),
        ((("stem", 42), 1), "MOT", 32),
        ((("stem", 44), 1), "MOT", 3),
        ((("stem", 46), 1), "MOT", 2),
        ((("stem", 48), 1), "3-valued", 1),
    }),
}


def detected_keys(fault_set):
    return {r.fault.key() for r in fault_set.detected()}


@pytest.fixture(scope="module", params=ROWS, ids=[n for n, _ in ROWS])
def paper_row(request):
    name, length = request.param
    compiled = compile_circuit(get_circuit(name))
    faults, _ = collapse_faults(compiled)
    sequence = random_sequence_for(compiled, length, seed=1)
    fault_set = FaultSet(faults)
    result = run_campaign(
        compiled, sequence, fault_set, node_limit=DEFAULT_NODE_LIMIT
    )
    assert result.stopped == "completed"
    return name, compiled, faults, sequence, fault_set, result


def table_pipeline(compiled, faults, sequence, strategy):
    reference = FaultSet(faults)
    eliminate_x_redundant(compiled, sequence, reference)
    fault_simulate_3v_parallel(compiled, sequence, reference)
    result = hybrid_fault_simulate(
        compiled, sequence, reference, strategy=strategy,
        node_limit=DEFAULT_NODE_LIMIT,
    )
    return reference, result


def test_campaign_covers_the_table_pipeline(paper_row):
    name, compiled, faults, sequence, campaign_set, result = paper_row
    reference, _hybrid = table_pipeline(compiled, faults, sequence, "MOT")
    # pinned, so a loss in the loop both of them share is caught too
    assert len(reference.detected()) == PIPELINE_DETECTED[name]
    assert detected_keys(reference) <= detected_keys(campaign_set)
    # the overflow is met with interludes, not with demotions
    assert result.fallbacks > 0
    assert result.demotions == 0


def test_campaign_node_order_is_pinned(paper_row):
    name, _compiled, _faults, _sequence, campaign_set, result = paper_row
    detections = {
        (r.fault.key(), r.detected_by, r.detected_at)
        for r in campaign_set.detected()
    }
    assert (result.peak_nodes, result.fallbacks, detections) == (
        PINNED_CAMPAIGN[name]
    )


def test_campaign_verdicts_ignore_fault_order(paper_row):
    _name, compiled, faults, sequence, campaign_set, _result = paper_row
    shuffled = list(faults)
    random.Random(1).shuffle(shuffled)
    fault_set = FaultSet(shuffled)
    run_campaign(
        compiled, sequence, fault_set, node_limit=DEFAULT_NODE_LIMIT
    )
    assert detected_keys(fault_set) == detected_keys(campaign_set)


def test_simulate_trace_does_not_change_the_answer(tmp_path, capsys):
    counts = []
    for extra in ([], ["--trace", str(tmp_path / "sim.jsonl")]):
        code = main(["simulate", "mac10", "--length", "60", "--json"]
                    + extra)
        assert code == 0
        payload = json.loads(capsys.readouterr().out)
        counts.append((payload["detected"], payload["detected_by"]))
    assert counts[0] == counts[1]


def test_simulate_runs_the_requested_strategy_at_the_full_limit(capsys):
    """``simulate --strategy rMOT`` is the table pipeline's rMOT pass:
    the requested rung runs at ``--node-limit``, not at a scaled-down
    share of it, so an overflowing row falls back exactly as often."""
    compiled = compile_circuit(get_circuit("mac10"))
    faults, _ = collapse_faults(compiled)
    sequence = random_sequence_for(compiled, 60, seed=1)
    reference, hybrid = table_pipeline(compiled, faults, sequence, "rMOT")
    assert hybrid.fallbacks > 0

    code = main(["simulate", "mac10", "--length", "60",
                 "--strategy", "rMOT", "--json"])
    assert code == 0
    payload = json.loads(capsys.readouterr().out)
    assert payload["detected"] == len(reference.detected())
    runtime = payload["runtime"]
    assert (
        runtime["fallbacks"], runtime["frames_symbolic"],
        runtime["peak_nodes"],
    ) == (hybrid.fallbacks, hybrid.frames_symbolic, hybrid.peak_nodes)
