"""repro — Symbolic Fault Simulation for Sequential Circuits and the
Multiple Observation Time Test Strategy (DAC 1995 reproduction).

Quickstart::

    from repro import (
        compile_circuit, collapse_faults, FaultSet,
        random_sequence_for, eliminate_x_redundant, fault_simulate_3v,
        hybrid_fault_simulate,
    )
    from repro.circuits import s27

    circuit = s27()
    compiled = compile_circuit(circuit)
    faults, _ = collapse_faults(compiled)
    fault_set = FaultSet(faults)
    sequence = random_sequence_for(compiled, 100, seed=1)

    eliminate_x_redundant(compiled, sequence, fault_set)   # ID_X-red
    fault_simulate_3v(compiled, sequence, fault_set)       # 3-valued pass
    hybrid_fault_simulate(compiled, sequence, fault_set,   # symbolic MOT
                          strategy="MOT")
    print(fault_set.counts())
"""

from repro.circuit import (
    Circuit,
    CompiledCircuit,
    compile_circuit,
    load_bench,
    parse_bench,
    save_bench,
    write_bench,
)
from repro.faults import (
    Fault,
    FaultSet,
    collapse_faults,
    enumerate_faults,
)
from repro.faults.model import stem_fault
from repro.engines import (
    fault_simulate_3v,
    fault_simulate_3v_parallel,
    simulate_sequence,
)
from repro.xred import eliminate_x_redundant, id_x_red
from repro.symbolic import (
    hybrid_fault_simulate,
    symbolic_output_sequence,
)
from repro.sequences import (
    deterministic_sequence,
    load_sequence,
    random_sequence,
    random_sequence_for,
    save_sequence,
)
from repro.analysis import (
    TransitionSystem,
    find_synchronizing_sequence,
    is_synchronizable,
)
from repro.atpg import generate_mot_tests
from repro.diagnosis import diagnose
from repro.obs import (
    MetricsRegistry,
    NullTracer,
    Tracer,
    TraceSchemaError,
)
from repro.reporting import CoverageReport, coverage_report
from repro.sequences.compaction import compact_sequence
from repro.runtime import (
    BudgetExceeded,
    CampaignResult,
    CheckpointError,
    CircuitFormatError,
    DegradationExhausted,
    DegradationLadder,
    ReproError,
    ResourceGovernor,
    SignalGuard,
    resume_campaign,
    run_campaign,
)

__version__ = "1.0.0"

__all__ = [
    "Circuit",
    "CompiledCircuit",
    "compile_circuit",
    "parse_bench",
    "load_bench",
    "write_bench",
    "save_bench",
    "Fault",
    "FaultSet",
    "stem_fault",
    "enumerate_faults",
    "collapse_faults",
    "simulate_sequence",
    "fault_simulate_3v",
    "fault_simulate_3v_parallel",
    "id_x_red",
    "eliminate_x_redundant",
    "hybrid_fault_simulate",
    "symbolic_output_sequence",
    "random_sequence",
    "random_sequence_for",
    "deterministic_sequence",
    "save_sequence",
    "load_sequence",
    "TransitionSystem",
    "find_synchronizing_sequence",
    "is_synchronizable",
    "generate_mot_tests",
    "diagnose",
    "compact_sequence",
    "CoverageReport",
    "coverage_report",
    "Tracer",
    "NullTracer",
    "MetricsRegistry",
    "TraceSchemaError",
    "ReproError",
    "BudgetExceeded",
    "CheckpointError",
    "CircuitFormatError",
    "DegradationExhausted",
    "ResourceGovernor",
    "DegradationLadder",
    "SignalGuard",
    "CampaignResult",
    "run_campaign",
    "resume_campaign",
    "__version__",
]
