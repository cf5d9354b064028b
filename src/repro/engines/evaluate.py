"""Algebra-generic gate evaluation and full-frame simulation."""

from repro.circuit import gates as gatelib


def eval_gate(algebra, kind, operands):
    """Evaluate one gate of *kind* on already-fetched operand values."""
    base, inverted = gatelib.base_op(kind)
    if base == "CONST":
        return algebra.const(inverted)  # CONST1 carries inverted=True
    if base == "ID":
        result = operands[0]
    elif base == "AND":
        result = operands[0]
        for value in operands[1:]:
            result = algebra.and_(result, value)
    elif base == "OR":
        result = operands[0]
        for value in operands[1:]:
            result = algebra.or_(result, value)
    else:  # XOR
        result = operands[0]
        for value in operands[1:]:
            result = algebra.xor(result, value)
    return algebra.not_(result) if inverted else result


def connectives(algebra):
    """*algebra*'s binary connective per base operation, bound once.

    The engines fetch these (and ``algebra.not_``) at the start of a
    call, so evaluating a gate from ``compiled.gate_ops`` costs no
    attribute or ``base_op`` lookup.
    """
    return {"AND": algebra.and_, "OR": algebra.or_, "XOR": algebra.xor}


def simulate_frame(compiled, algebra, pi_values, state_values):
    """Fault-free evaluation of one time frame.

    *pi_values* is aligned with ``compiled.pis`` and *state_values* with
    ``compiled.ppis``.  Returns the value of every signal, indexed by
    signal number.
    """
    if len(pi_values) != len(compiled.pis):
        raise ValueError(
            f"vector has {len(pi_values)} bits, circuit has "
            f"{len(compiled.pis)} inputs"
        )
    if len(state_values) != len(compiled.ppis):
        raise ValueError(
            f"state has {len(state_values)} bits, circuit has "
            f"{len(compiled.ppis)} flip-flops"
        )
    values = [None] * compiled.num_signals
    for sig, value in zip(compiled.pis, pi_values):
        values[sig] = value
    for sig, value in zip(compiled.ppis, state_values):
        values[sig] = value
    binary = connectives(algebra)
    not_ = algebra.not_
    # the same operations, in the same order, as eval_gate
    for out, fanins, base, inverted in compiled.gate_ops:
        if base == "CONST":
            values[out] = algebra.const(inverted)
            continue
        value = values[fanins[0]]
        if base != "ID":
            combine = binary[base]
            for src in fanins[1:]:
                value = combine(value, values[src])
        values[out] = not_(value) if inverted else value
    return values


def outputs_of(compiled, values):
    """Primary-output vector extracted from a frame's *values*."""
    return [values[sig] for sig in compiled.pos]


def next_state_of(compiled, values):
    """Next-state vector (flip-flop D values) from a frame's *values*."""
    return [values[sig] for sig in compiled.dff_d]
