"""Static test-sequence compaction under the MOT strategies.

Ref [14] of the paper ("Increasing fault coverage ... by the multiple
observation time test strategy") motivates MOT partly as a way to get
more out of *existing* sequences; the complementary operation is to
shrink a sequence without losing coverage.  Two classic static steps:

1. **truncation** — cut everything after the last detection (for
   sequential circuits a suffix that detects nothing contributes
   nothing),
2. **reverse greedy vector removal** — try dropping one vector at a
   time (last to first); keep the removal when re-simulation confirms
   the detected-fault set did not shrink.  Removal trials re-simulate
   from scratch because dropping a vector changes the entire state
   trajectory after it.

Both steps are exact with respect to the chosen strategy: the
compacted sequence detects a superset-or-equal set of the original's
detected faults (equality enforced, supersets accepted).
"""

from repro.faults.status import FaultSet
from repro.symbolic.hybrid import hybrid_fault_simulate


class CompactionResult:
    def __init__(self, original, compacted, detected, removals, strategy):
        self.original = original
        self.compacted = compacted
        self.detected = detected  # set of fault keys
        self.removals = removals  # vectors dropped by greedy removal
        self.strategy = strategy

    @property
    def original_length(self):
        return len(self.original)

    @property
    def compacted_length(self):
        return len(self.compacted)

    def __repr__(self):
        return (
            f"CompactionResult({self.strategy}: "
            f"{self.original_length} -> {self.compacted_length} vectors, "
            f"{len(self.detected)} faults kept)"
        )


def detected_set(compiled, sequence, faults, strategy="MOT",
                 initial_state=None):
    """Fault keys detected by *sequence* under *strategy*, with times."""
    fault_set = FaultSet(list(faults))
    hybrid_fault_simulate(
        compiled, sequence, fault_set, strategy=strategy,
        node_limit=None, initial_state=initial_state,
    )
    return {
        record.fault.key(): record.detected_at
        for record in fault_set.detected()
    }


def truncate_to_last_detection(compiled, sequence, faults,
                               strategy="MOT", initial_state=None):
    """Step 1: drop the undetecting suffix."""
    detections = detected_set(
        compiled, sequence, faults, strategy, initial_state
    )
    return _truncate(sequence, detections), detections


def _truncate(sequence, detections):
    """*sequence* up to its last detection frame (empty without any)."""
    if not detections:
        return []
    return list(sequence[:max(detections.values())])


def compact_sequence(
    compiled,
    sequence,
    faults,
    strategy="MOT",
    initial_state=None,
    greedy=True,
    max_trials=None,
):
    """Full compaction: truncation, then reverse greedy removal."""
    faults = list(faults)
    sequence = list(sequence)
    baseline = detected_set(
        compiled, sequence, faults, strategy, initial_state
    )
    target = set(baseline)

    compacted = _truncate(sequence, baseline)
    removals = []
    if greedy and compacted:
        trials = 0
        position = len(compacted) - 1
        while position >= 0:
            if max_trials is not None and trials >= max_trials:
                break
            trial = compacted[:position] + compacted[position + 1:]
            trials += 1
            kept = set(
                detected_set(compiled, trial, faults, strategy,
                             initial_state)
            )
            if target <= kept:
                removals.append(compacted[position])
                compacted = trial
            position -= 1

    final = set(
        detected_set(compiled, compacted, faults, strategy, initial_state)
    )
    if not target <= final:
        raise AssertionError("compaction lost coverage — bug")
    return CompactionResult(sequence, compacted, final, removals,
                            strategy)
