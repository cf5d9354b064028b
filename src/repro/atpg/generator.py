"""MOT-guided test generation.

The paper's introduction argues that "MOT-based test generation should
be supported by a MOT-based fault simulation to obtain the full power
of the MOT strategy" — this module closes that loop: a simulation-based
test generator that grows a sequence vector by vector, scoring each
candidate vector with the *symbolic* fault simulator.

Scoring per candidate (lexicographic):

1. faults detected right now under the chosen strategy,
2. detection-function progress — the number of live faults whose
   accumulated detection function shrank (fewer satisfying (x, y)
   pairs means closer to ``D == 0``),
3. total remaining satisfying-assignment mass of the detection
   functions (lower is better).

Candidate trials run on a cloned :class:`SymbolicSession`, so a
discarded candidate costs only the BDD nodes it created.  Once a vector
is committed no clone is alive any more, and the session is
garbage-collected down to its live roots.  A candidate round that still
overflows the node limit ends generation: the result keeps the vectors
committed so far and says ``stopped == "node-limit"``.
"""

import random

from repro.bdd.errors import SpaceLimitExceeded
from repro.faults.status import FaultSet
from repro.symbolic.fault_sim import SymbolicSession
from repro.symbolic.strategies import get_strategy


class AtpgResult:
    """Outcome of a MOT-guided generation run."""

    def __init__(self, sequence, fault_set, strategy_name, stopped=None):
        self.sequence = sequence
        self.fault_set = fault_set
        self.strategy = strategy_name
        #: None when generation ended normally, ``"node-limit"`` when a
        #: candidate round overflowed the OBDD node limit
        self.stopped = stopped

    @property
    def detected(self):
        return self.fault_set.detected()

    def coverage(self):
        return self.fault_set.coverage()

    def __repr__(self):
        counts = self.fault_set.counts()
        return (
            f"AtpgResult({self.strategy}, |T|={len(self.sequence)}, "
            f"{counts['detected']}/{counts['total']} detected)"
        )


def _acc_mass(session, entry):
    """Satisfying-assignment count of a fault's detection function."""
    acc = entry[2]
    if acc is None:
        return 0
    manager = session.manager
    support = manager.support(acc)
    return manager.sat_count(acc, support) / (1 << len(support)) \
        if support else manager.const_value(acc) or 0


def _score_candidate(session, vector):
    """Run *vector* on a clone; return (score_tuple, trial_session)."""
    trial = session.clone()
    before = {
        key: entry[2] for key, entry in trial._store.items()
    }
    detected = trial.step(vector, mark_detected=False)
    changed = 0
    mass = 0.0
    for key, entry in trial._store.items():
        if entry[2] != before.get(key):
            changed += 1
        mass += _acc_mass(trial, entry)
    score = (len(detected), changed, -mass)
    return score, trial, detected


def generate_mot_tests(
    compiled,
    faults,
    strategy="MOT",
    max_length=64,
    candidates=4,
    patience=12,
    seed=0,
    node_limit=None,
    initial_state=None,
):
    """Generate a test sequence targeting *faults* under *strategy*.

    *faults* may be a list or a :class:`FaultSet`; statuses are updated
    in place (pass ``fault_set.symbolic_candidates()`` leftovers from a
    conventional pass to target exactly the hard faults).  Returns an
    :class:`AtpgResult`.
    """
    rng = random.Random(seed)
    if not isinstance(faults, FaultSet):
        faults = FaultSet(faults)
    strategy_obj = get_strategy(strategy) if isinstance(strategy, str) \
        else strategy

    session = SymbolicSession(
        compiled,
        strategy_obj,
        good_state_3v=initial_state,
        node_limit=node_limit,
    )
    session.attach_faults(faults.symbolic_candidates())

    sequence = []
    stale = 0
    stopped = None
    while (
        len(sequence) < max_length
        and session.live_records()
        and stale < patience
    ):
        tried = set()
        best = None
        for _ in range(candidates):
            vector = tuple(
                rng.randrange(2) for _ in range(compiled.num_pis)
            )
            if vector in tried:
                continue
            tried.add(vector)
            try:
                score, trial, detected = _score_candidate(session, vector)
            except SpaceLimitExceeded:
                stopped = "node-limit"
                break
            if best is None or score > best[0]:
                best = (score, vector, trial, detected)
        if stopped is not None:
            break
        _score, vector, trial, detected = best
        # commit: the trial session becomes the session; now mark
        for record in detected:
            record.mark_detected(strategy_obj.detected_by, trial.time)
        session = trial
        # the discarded trials were the only clones: reclaim their nodes
        session.compact()
        sequence.append(vector)
        stale = 0 if detected else stale + 1
    return AtpgResult(sequence, faults, strategy_obj.name, stopped)
