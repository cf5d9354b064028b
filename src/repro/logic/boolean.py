"""Plain Boolean gate semantics.

Used by the explicit-enumeration baselines (which simulate from fully
specified initial states) and as the reference semantics every other
algebra must agree with on known values.
"""


def and2(a, b):
    return a & b


def or2(a, b):
    return a | b


def xor2(a, b):
    return a ^ b


def not2(a):
    return 1 - a

