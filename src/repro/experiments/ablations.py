"""Ablations of the design choices listed in DESIGN.md §5.

Beyond the paper: each ablation runs one design choice against its
alternative on one registry circuit and a random sequence, and reports
per-variant wall time and the detected (or identified) count.

1. event-driven single-fault propagation vs full per-fault
   re-evaluation of every frame (three-valued, tlc),
2. fault dropping on vs off (three-valued, shift16),
3. ``ID_X-red`` vs SCOAP as the X-redundancy identifier (ctr16),
4. interleaved vs blocked x/y variable order for MOT (ctr8),
5. node-limit sensitivity of the hybrid simulator (nlfsr12).
"""

from repro.baselines.scoap import scoap_x_redundant
from repro.engines.algebra import THREE_VALUED
from repro.engines.evaluate import eval_gate, next_state_of, simulate_frame
from repro.engines.serial_fault_sim import fault_simulate_3v
from repro.experiments.common import Timer, format_table, prepare
from repro.faults.model import BRANCH, DBRANCH, STEM
from repro.faults.status import BY_3V
from repro.logic import threeval
from repro.sequences.random_seq import random_sequence_for
from repro.symbolic.hybrid import hybrid_fault_simulate
from repro.xred.idxred import id_x_red

NODE_LIMITS = (1000, 5000, 30000)


class Variant:
    """One side of an ablation: its wall time and what it found."""

    def __init__(self, name, seconds, measure, found, note=""):
        self.name = name
        self.seconds = seconds
        self.measure = measure  # "detected" or "identified"
        self.found = frozenset(found)  # fault keys
        self.note = note

    @property
    def count(self):
        return len(self.found)


def _detected_keys(fault_set):
    return (r.fault.key() for r in fault_set.detected())


def _full_frame(compiled, vector, state, fault):
    """Three-valued evaluation of every gate with *fault* injected."""
    values = [None] * compiled.num_signals
    for sig, bit in zip(compiled.pis, vector):
        values[sig] = THREE_VALUED.const(bit)
    for sig, value in zip(compiled.ppis, state):
        values[sig] = value
    kind, forced = fault.lead[0], THREE_VALUED.const(fault.value)
    if kind == STEM and values[fault.lead[1]] is not None:
        values[fault.lead[1]] = forced
    for cg in compiled.gates:
        if kind == STEM and cg.out == fault.lead[1]:
            values[cg.out] = forced
            continue
        operands = [values[src] for src in cg.fanins]
        if kind == BRANCH and cg.pos == fault.lead[1]:
            operands[fault.lead[2]] = forced
        values[cg.out] = eval_gate(THREE_VALUED, cg.kind, operands)
    return values


def full_reevaluation_3v(compiled, sequence, fault_set):
    """Three-valued SOT fault simulation without events: every live
    fault re-evaluates the whole frame.  Same verdicts as
    :func:`~repro.engines.serial_fault_sim.fault_simulate_3v`."""
    known = THREE_VALUED.is_known
    live = fault_set.undetected()
    states = {id(r): [threeval.X] * compiled.num_dffs for r in live}
    good_state = [threeval.X] * compiled.num_dffs
    for time, vector in enumerate(sequence, start=1):
        good = simulate_frame(compiled, THREE_VALUED, vector, good_state)
        survivors = []
        for record in live:
            values = _full_frame(
                compiled, vector, states[id(record)], record.fault
            )
            if any(
                known(good[sig]) and known(values[sig])
                and good[sig] != values[sig]
                for sig in compiled.pos
            ):
                record.mark_detected(BY_3V, time)
                continue
            state = next_state_of(compiled, values)
            if record.fault.lead[0] == DBRANCH:
                state[record.fault.lead[1]] = THREE_VALUED.const(
                    record.fault.value
                )
            states[id(record)] = state
            survivors.append(record)
        live = survivors
        good_state = next_state_of(compiled, good)


def _timed_3v(name, fault_set, run):
    fs = fault_set.clone()
    with Timer() as t:
        run(fs)
    return Variant(name, t.seconds, "detected", _detected_keys(fs))


def event_driven(compiled, fault_set, sequence):
    return [
        _timed_3v("event-driven", fault_set,
                  lambda fs: fault_simulate_3v(compiled, sequence, fs)),
        _timed_3v("full re-evaluation", fault_set,
                  lambda fs: full_reevaluation_3v(compiled, sequence, fs)),
    ]


def fault_dropping(compiled, fault_set, sequence):
    return [
        _timed_3v(name, fault_set,
                  lambda fs, drop=drop: fault_simulate_3v(
                      compiled, sequence, fs, drop_detected=drop))
        for name, drop in (("dropping", True), ("no dropping", False))
    ]


def xred_identifier(compiled, fault_set, sequence):
    faults = [r.fault for r in fault_set]
    with Timer() as t_idx:
        result = id_x_red(compiled, sequence, faults)
    with Timer() as t_scoap:
        scoap = scoap_x_redundant(compiled, faults)
    return [
        Variant("ID_X-red", t_idx.seconds, "identified",
                (f.key() for f in faults if result.is_x_redundant(f))),
        Variant("SCOAP", t_scoap.seconds, "identified", scoap),
    ]


def variable_order(compiled, fault_set, sequence):
    variants = []
    for scheme in ("interleaved", "blocked"):
        fs = fault_set.clone()
        with Timer() as t:
            result = hybrid_fault_simulate(
                compiled, sequence, fs, strategy="MOT", node_limit=None,
                variable_scheme=scheme,
            )
        variants.append(Variant(
            scheme, t.seconds, "detected", _detected_keys(fs),
            note=f"peak nodes {result.peak_nodes}",
        ))
    return variants


def node_limit(compiled, fault_set, sequence):
    variants = []
    for limit in NODE_LIMITS:
        fs = fault_set.clone()
        with Timer() as t:
            result = hybrid_fault_simulate(
                compiled, sequence, fs, strategy="MOT", node_limit=limit
            )
        variants.append(Variant(
            f"limit {limit}", t.seconds, "detected", _detected_keys(fs),
            note=f"fallbacks {result.fallbacks}",
        ))
    return variants


#: (title, function, circuit, sequence length)
ABLATIONS = [
    ("event-driven vs full re-evaluation (3v)", event_driven, "tlc", 40),
    ("fault dropping on vs off (3v)", fault_dropping, "shift16", 60),
    ("ID_X-red vs SCOAP", xred_identifier, "ctr16", 60),
    ("variable order for MOT", variable_order, "ctr8", 40),
    ("hybrid node limit (MOT)", node_limit, "nlfsr12", 30),
]


def run_ablations(length=None):
    """``[(title, circuit, length, [Variant, ...]), ...]`` in
    :data:`ABLATIONS` order; *length* overrides every sequence length."""
    results = []
    for title, run, circuit, default_length in ABLATIONS:
        compiled, fault_set = prepare(circuit)
        n = length or default_length
        sequence = random_sequence_for(compiled, n, seed=1)
        results.append(
            (title, circuit, n, run(compiled, fault_set, sequence))
        )
    return results


def render(results):
    body = [
        (f"{title} [{circuit}/{length}]", v.name, f"{v.seconds:.3f}",
         f"{v.measure} {v.count}", v.note)
        for title, circuit, length, variants in results
        for v in variants
    ]
    return format_table(
        ["ablation", "variant", "time (s)", "count", "note"], body,
        title="Ablations of DESIGN.md §5 (random sequences, seed 1)",
    )


def main(argv=None):
    print(render(run_ablations()))


if __name__ == "__main__":
    main()
