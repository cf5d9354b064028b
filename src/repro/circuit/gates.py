"""Gate types of the gate-level netlist model.

The netlist model follows the ISCAS-89 ``.bench`` conventions: a circuit
is built from primary inputs, D flip-flops and the combinational gate
types below.  Every gate type is described by a *base operation*
(AND / OR / XOR / identity) plus an output inversion flag, which is the
form all simulation engines consume.
"""

AND = "AND"
NAND = "NAND"
OR = "OR"
NOR = "NOR"
XOR = "XOR"
XNOR = "XNOR"
NOT = "NOT"
BUF = "BUF"
CONST0 = "CONST0"
CONST1 = "CONST1"

COMBINATIONAL_KINDS = frozenset(
    (AND, NAND, OR, NOR, XOR, XNOR, NOT, BUF, CONST0, CONST1)
)

# Base operation ("AND" | "OR" | "XOR" | "ID" | "CONST") and inversion flag.
_BASE = {
    AND: ("AND", False),
    NAND: ("AND", True),
    OR: ("OR", False),
    NOR: ("OR", True),
    XOR: ("XOR", False),
    XNOR: ("XOR", True),
    BUF: ("ID", False),
    NOT: ("ID", True),
    CONST0: ("CONST", False),
    CONST1: ("CONST", True),
}


def base_op(kind):
    """Return ``(base, inverted)`` for a combinational gate kind."""
    return _BASE[kind]


def min_arity(kind):
    """Smallest legal fanin count for *kind*."""
    if kind in (CONST0, CONST1):
        return 0
    if kind in (NOT, BUF):
        return 1
    return 2


def max_arity(kind):
    """Largest legal fanin count for *kind* (None = unbounded)."""
    if kind in (CONST0, CONST1):
        return 0
    if kind in (NOT, BUF):
        return 1
    return None


def check_arity(kind, nfanins):
    """Raise ValueError when *nfanins* is illegal for *kind*."""
    if kind not in COMBINATIONAL_KINDS:
        raise ValueError(f"unknown gate kind: {kind!r}")
    lo = min_arity(kind)
    hi = max_arity(kind)
    if nfanins < lo or (hi is not None and nfanins > hi):
        raise ValueError(
            f"{kind} gate with {nfanins} fanins (expected "
            f"{lo}{'' if hi == lo else '+' if hi is None else f'..{hi}'})"
        )
