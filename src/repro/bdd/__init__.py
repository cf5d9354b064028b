"""Reduced ordered binary decision diagrams (the paper's symbolic core).

Public surface:

* :class:`~repro.bdd.manager.BddManager` with constants ``FALSE``/``TRUE``,
* :class:`~repro.bdd.ordering.StateVariables` — x/y variable numbering,
* :class:`~repro.bdd.errors.SpaceLimitExceeded` — node-limit signal the
  hybrid fault simulator reacts to, and its subclass
  :class:`~repro.bdd.errors.MemoryPressureExceeded` raised when a
  session allocates past the governor's RSS surrender threshold,
* :func:`~repro.bdd.dot.to_dot` — Graphviz export.
"""

from repro.bdd.errors import (
    BddError,
    MemoryPressureExceeded,
    SpaceLimitExceeded,
    VariableOrderError,
)
from repro.bdd.manager import FALSE, TRUE, BddManager
from repro.bdd.ordering import StateVariables
from repro.bdd.dot import to_dot

__all__ = [
    "BddManager",
    "FALSE",
    "TRUE",
    "BddError",
    "SpaceLimitExceeded",
    "MemoryPressureExceeded",
    "VariableOrderError",
    "StateVariables",
    "to_dot",
]
