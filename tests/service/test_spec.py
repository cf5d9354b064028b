"""Job spec validation: strict parsing of ``POST /jobs`` bodies."""

import pytest

from repro.service.jobs import JobSpec, JobSpecError


def test_minimal_spec_gets_defaults():
    spec = JobSpec.from_json({"circuit": "ctr8"})
    assert spec.strategy == "MOT"
    assert spec.length == 100
    assert spec.workers == 0  # inline-sharded: exact crash recovery
    assert spec.shard_size is None  # one group: `repro campaign` verdicts
    assert spec.xred is True
    assert spec.deadline is None


def test_round_trip_through_json():
    spec = JobSpec.from_json(
        {"circuit": "ctr8", "strategy": "SOT", "length": 42,
         "deadline": 1.5, "workers": 2}
    )
    again = JobSpec.from_json(spec.to_json())
    assert again.to_json() == spec.to_json()


@pytest.mark.parametrize("body, match", [
    ("not-a-dict", "must be a JSON object"),
    ({}, "'circuit' is required"),
    ({"circuit": "ctr8", "typo_knob": 1}, "unknown job spec fields"),
    ({"circuit": "ctr8", "strategy": "MOTT"}, "strategy must be"),
    ({"circuit": "no-such-circuit-xyz"}, "unknown circuit"),
    ({"circuit": "ctr8", "length": 0}, "must be >= 1"),
    ({"circuit": "ctr8", "length": "100"}, "must be int"),
    ({"circuit": "ctr8", "deadline": -1}, "must be positive"),
    ({"circuit": "ctr8", "workers": -1}, "'workers' must be >= 0"),
    ({"circuit": "ctr8", "sequence": ["01", "0x"]}, "'01' string"),
    ({"circuit": "ctr8", "sequence": [3]}, "'01' string"),
])
def test_invalid_specs_rejected(body, match):
    with pytest.raises(JobSpecError, match=match):
        JobSpec.from_json(body)


def test_bool_is_not_an_int():
    """``"length": true`` must not sneak through bool's int subclassing."""
    with pytest.raises(JobSpecError, match="'length' must be"):
        JobSpec.from_json({"circuit": "ctr8", "length": True})
    with pytest.raises(JobSpecError, match="'deadline' must be"):
        JobSpec.from_json({"circuit": "ctr8", "deadline": True})
    # and the one genuinely boolean field still accepts booleans
    spec = JobSpec.from_json({"circuit": "ctr8", "xred": False})
    assert spec.xred is False


def test_explicit_sequence_accepted():
    spec = JobSpec.from_json({"circuit": "ctr8", "sequence": ["1", "0"]})
    assert spec.sequence == ["1", "0"]
