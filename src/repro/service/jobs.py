"""Job specs, the in-memory job table entry and cooperative stopping.

A job is one campaign: circuit + test sequence + strategy plus the
runtime knobs the CLI would accept (budgets, sharding, checkpoint
cadence).  Specs arrive as the JSON body of ``POST /jobs``, are
validated *strictly* (unknown keys are rejected — a typo'd budget knob
silently ignored would be a robustness hole, not a convenience) and
are journaled verbatim, so a restarted service re-executes exactly
what was admitted.
"""

import os

from repro.symbolic.hybrid import DEFAULT_NODE_LIMIT

_STRATEGIES = ("3v", "SOT", "rMOT", "MOT")


class JobSpecError(ValueError):
    """An invalid job submission (maps to HTTP 400)."""


#: field name -> (type(s), default).  ``workers=0`` — sharded but
#: in-process — is the default execution mode: shard-level checkpoints
#: make restart recovery *exact* (re-running a shard reproduces its
#: verdicts), which is what lets the service promise byte-identical
#: results across a crash.  ``shard_size=None`` is one shard, the
#: paper's single group, so a default job gives ``repro campaign``'s
#: verdicts and restarts from the beginning; a job that wants
#: shard-grain restart or parallel speed sets ``shard_size``.
_FIELDS = {
    "circuit": (str, None),
    "strategy": (str, "MOT"),
    "length": (int, 100),
    "seed": (int, 1),
    "sequence": (list, None),
    "node_limit": (int, DEFAULT_NODE_LIMIT),
    "deadline": ((int, float), None),
    "node_budget": (int, None),
    "workers": (int, 0),
    "shard_size": (int, None),
    "max_retries": (int, None),
    "checkpoint_every": (int, 10),
    "fallback_frames": (int, 5),
    "xred": (bool, True),
}


class JobSpec:
    """A validated campaign job description."""

    def __init__(self, **fields):
        for name, (_types, default) in _FIELDS.items():
            setattr(self, name, fields.get(name, default))

    @classmethod
    def from_json(cls, data):
        if not isinstance(data, dict):
            raise JobSpecError("job spec must be a JSON object")
        unknown = sorted(set(data) - set(_FIELDS))
        if unknown:
            raise JobSpecError(f"unknown job spec fields: {unknown}")
        fields = {}
        for name, (types, default) in _FIELDS.items():
            value = data.get(name, default)
            if value is None:
                continue
            # bool is an int subclass; don't let `true` pass as a count
            if (isinstance(value, bool) and types is not bool) or (
                not isinstance(value, types)
            ):
                raise JobSpecError(
                    f"field {name!r} must be "
                    f"{getattr(types, '__name__', types)}, "
                    f"got {type(value).__name__}"
                )
            fields[name] = value
        spec = cls(**fields)
        spec.validate()
        return spec

    def validate(self):
        if not self.circuit:
            raise JobSpecError("field 'circuit' is required")
        if self.strategy not in _STRATEGIES:
            raise JobSpecError(
                f"strategy must be one of {_STRATEGIES}, "
                f"got {self.strategy!r}"
            )
        from repro.circuits.registry import available

        if self.circuit not in available() and not os.path.exists(
            self.circuit
        ):
            raise JobSpecError(
                f"unknown circuit {self.circuit!r}: not a registry name "
                "and no such file on the service host"
            )
        for name in ("length", "seed", "node_limit", "checkpoint_every",
                     "fallback_frames", "shard_size"):
            value = getattr(self, name)
            if value is not None and value < 1 and name != "seed":
                raise JobSpecError(f"field {name!r} must be >= 1")
        if self.workers is not None and self.workers < 0:
            raise JobSpecError("field 'workers' must be >= 0 (0 = inline)")
        if self.deadline is not None and self.deadline <= 0:
            raise JobSpecError("field 'deadline' must be positive seconds")
        if self.sequence is not None:
            for index, line in enumerate(self.sequence):
                if not isinstance(line, str) or not line or any(
                    c not in "01" for c in line
                ):
                    raise JobSpecError(
                        f"sequence[{index}] must be a non-empty '01' string"
                    )

    def to_json(self):
        payload = {}
        for name in _FIELDS:
            value = getattr(self, name)
            if value is not None:
                payload[name] = value
        return payload


class JobGuard:
    """A :class:`~repro.runtime.checkpoint.SignalGuard` stand-in.

    The campaign/fabric loops only ever *read* ``stop_requested`` at
    frame/shard boundaries, so cancellation and drain need no real
    signals — the service sets the flag from the HTTP or drain thread
    and the in-flight campaign checkpoints and returns ``stopped ==
    "signal"`` at its next safe point.
    """

    def __init__(self):
        self.stop_requested = None

    def request_stop(self, reason):
        self.stop_requested = reason


class Job:
    """One journaled job: spec, lifecycle state and live handles."""

    __slots__ = ("id", "spec", "state", "attempts", "error",
                 "stop_reason", "result_file", "guard",
                 "cancel_requested", "submitted_at", "events")

    def __init__(self, job_id, spec, state, submitted_at=None):
        from repro.service.events import JobEventBuffer

        self.id = job_id
        self.spec = spec
        self.state = state
        self.attempts = 0
        self.error = None
        self.stop_reason = None
        self.result_file = None
        self.guard = JobGuard()
        self.cancel_requested = False
        self.submitted_at = submitted_at
        self.events = JobEventBuffer()

    def summary(self):
        payload = {
            "id": self.id,
            "state": self.state,
            "attempts": self.attempts,
            "spec": self.spec.to_json(),
        }
        if self.submitted_at is not None:
            payload["submitted_at"] = self.submitted_at
        if self.error is not None:
            payload["error"] = self.error
        if self.stop_reason is not None:
            payload["stopped"] = self.stop_reason
        return payload
