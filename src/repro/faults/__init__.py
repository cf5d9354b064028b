"""Single stuck-at fault model, universe enumeration and collapsing."""

from repro.faults.model import BRANCH, DBRANCH, STEM, Fault, stem_signal
from repro.faults.universe import enumerate_faults, enumerate_leads
from repro.faults.collapse import collapse_faults, equivalence_classes
from repro.faults.status import (
    BY_3V,
    BY_MOT,
    BY_RMOT,
    BY_SOT,
    DETECTED,
    UNDETECTED,
    X_REDUNDANT,
    FaultRecord,
    FaultSet,
)

__all__ = [
    "Fault",
    "STEM",
    "BRANCH",
    "DBRANCH",
    "stem_signal",
    "enumerate_faults",
    "enumerate_leads",
    "collapse_faults",
    "equivalence_classes",
    "FaultRecord",
    "FaultSet",
    "UNDETECTED",
    "DETECTED",
    "X_REDUNDANT",
    "BY_3V",
    "BY_SOT",
    "BY_RMOT",
    "BY_MOT",
]
