"""OBDD-based symbolic fault simulation — the paper's core contribution.

* :class:`~repro.symbolic.fault_sim.SymbolicSession` — one symbolic
  stretch, stepped a frame at a time,
* :func:`~repro.symbolic.hybrid.hybrid_fault_simulate` — SOT/rMOT/MOT
  fault simulation with the three-valued fallback under a node limit
  (the paper's production configuration); ``node_limit=None`` is the
  pure symbolic run, exact by construction,
* :mod:`~repro.symbolic.strategies` — the three observation strategies,
* :mod:`~repro.symbolic.detection` — detection functions (Lemma 1),
* :mod:`~repro.symbolic.evaluation` — symbolic test evaluation.
"""

from repro.symbolic.detection import detection_function, is_mot_detectable
from repro.symbolic.strategies import (
    FrameContext,
    MotStrategy,
    RmotStrategy,
    SotStrategy,
    get_strategy,
)
from repro.symbolic.fault_sim import SymbolicSession
from repro.symbolic.hybrid import (
    DEFAULT_FALLBACK_FRAMES,
    DEFAULT_NODE_LIMIT,
    hybrid_fault_simulate,
)
from repro.symbolic.evaluation import (
    SymbolicOutputSequence,
    generate_response,
    symbolic_output_sequence,
)

__all__ = [
    "detection_function",
    "is_mot_detectable",
    "get_strategy",
    "SotStrategy",
    "RmotStrategy",
    "MotStrategy",
    "FrameContext",
    "SymbolicSession",
    "hybrid_fault_simulate",
    "DEFAULT_NODE_LIMIT",
    "DEFAULT_FALLBACK_FRAMES",
    "SymbolicOutputSequence",
    "symbolic_output_sequence",
    "generate_response",
]
