"""Degradation ladder policy and per-campaign ladder state."""

import pytest

from repro.runtime import (
    DegradationExhausted,
    DegradationLadder,
    LadderState,
    Rung,
)
from repro.runtime.ladder import MIN_NODE_LIMIT


def test_default_ladder_order():
    ladder = DegradationLadder()
    assert ladder.names() == ["MOT", "rMOT", "SOT", "3v"]
    assert ladder.describe() == "MOT -> rMOT -> SOT -> 3v"


def test_from_strategy_cuts_the_order():
    assert DegradationLadder.from_strategy("rMOT").names() == [
        "rMOT", "SOT", "3v"
    ]
    assert DegradationLadder.from_strategy("3v").names() == ["3v"]
    with pytest.raises(ValueError):
        DegradationLadder.from_strategy("MOTT")


def test_from_strategy_runs_the_requested_strategy_at_the_full_limit():
    ladder = DegradationLadder.from_strategy("SOT")
    assert [r.node_limit(10_000) for r in ladder.rungs] == [10_000, None]
    ladder = DegradationLadder.from_strategy("rMOT")
    assert [r.scale for r in ladder.rungs] == [1.0, 0.25, None]


def test_rung_node_limit_scales_and_floors():
    assert Rung("MOT").node_limit(10_000) == 10_000
    assert Rung("rMOT").node_limit(10_000) == 5_000
    assert Rung("SOT", 0.25).node_limit(10_000) == 2_500
    # tiny bases floor at MIN_NODE_LIMIT instead of handing a session
    # a limit too small to even hold its variables
    assert Rung("SOT", 0.25).node_limit(100) == MIN_NODE_LIMIT
    assert Rung("3v").node_limit(10_000) is None
    assert Rung("MOT").node_limit(None) is None


def test_three_valued_rung_must_be_last():
    with pytest.raises(ValueError):
        DegradationLadder(["MOT", "3v", "SOT"])
    with pytest.raises(ValueError):
        DegradationLadder([])


def test_symbolic_only_ladder_is_allowed():
    ladder = DegradationLadder([("MOT", 1.0), ("SOT", 0.5)])
    assert ladder.names() == ["MOT", "SOT"]
    assert all(r.symbolic for r in ladder.rungs)


def test_json_round_trip():
    ladder = DegradationLadder([("MOT", 0.75), "SOT", "3v"])
    restored = DegradationLadder.from_json(ladder.to_json())
    assert restored.names() == ladder.names()
    assert [r.scale for r in restored.rungs] == [0.75, 0.25, None]


def test_ladder_state_demotion_chain():
    state = LadderState(DegradationLadder(["MOT", "SOT", "3v"]))
    state.assign("f1")
    state.assign("f2")
    assert state.rung("f1").strategy == "MOT"
    assert state.demote("f1", frame=3, reason="space") == 1
    assert state.demote("f1", frame=7) == 2
    assert state.rung("f1").strategy == "3v"
    with pytest.raises(DegradationExhausted) as exc:
        state.demote("f1", frame=9)
    assert exc.value.fault_key == "f1"
    assert exc.value.rungs_tried == ["MOT", "SOT", "3v"]
    # bookkeeping only counts performed demotions
    assert state.demotions == 2
    assert state.demotion_log == [
        ("f1", "MOT", "SOT", 3, "space"),
        ("f1", "SOT", "3v", 7, None),
    ]
    assert state.population() == {"MOT": 1, "SOT": 0, "3v": 1}


def test_forget_drops_fault():
    state = LadderState(DegradationLadder())
    state.assign("f1")
    state.forget("f1")
    assert state.population()["MOT"] == 0
    state.forget("f1")  # idempotent
