"""Event-driven single-fault propagation (one fault, one time frame).

This is the engine behind both the serial three-valued fault simulator
and the symbolic fault simulator of Section IV.A: "the faults are
injected one by one [and] the effects are propagated towards the
primary outputs and the memory elements".

Given the fault-free frame values, a fault, and the fault's current
state difference (faulty present-state values that differ from the
fault-free ones), :func:`propagate_fault` computes

* ``diff`` — faulty value per signal, only for signals whose faulty
  value differs from the fault-free one,
* ``next_state_diff`` — the faulty next-state entries that differ.

Only gates in the affected cone are re-evaluated, in level order, so a
fault that stays silent costs almost nothing.
"""

from heapq import heappop, heappush

from repro.engines.evaluate import connectives
from repro.faults.model import BRANCH, DBRANCH, STEM


class FrameResult:
    """Faulty/fault-free differences produced by one frame of one fault."""

    __slots__ = ("diff", "next_state_diff")

    def __init__(self, diff, next_state_diff):
        self.diff = diff
        self.next_state_diff = next_state_diff

    def faulty_value(self, good_values, sig):
        """Faulty value of *sig* (falls back to the fault-free value)."""
        return self.diff.get(sig, good_values[sig])


def propagate_fault(compiled, algebra, good_values, fault, state_diff):
    """Propagate *fault* through one time frame.

    Parameters
    ----------
    good_values:
        per-signal fault-free values of this frame
        (from :func:`repro.engines.evaluate.simulate_frame`).
    fault:
        the :class:`~repro.faults.model.Fault` to inject.
    state_diff:
        dict ``dff_index -> faulty present-state value`` holding only
        entries that differ from the fault-free present state.

    Gates are evaluated from the precompiled ``compiled.gate_ops`` and
    scheduled from ``compiled.event_sinks``; the same connectives run
    in the same order as :func:`~repro.engines.evaluate.eval_gate`.
    """
    event_sinks = compiled.event_sinks
    gate_ops = compiled.gate_ops
    binary = connectives(algebra)
    not_ = algebra.not_
    diff = {}
    pending = []  # heap of (level, gate_pos)
    scheduled = set()

    def schedule_sinks(sig):
        for event in event_sinks[sig]:
            if event[1] not in scheduled:
                scheduled.add(event[1])
                heappush(pending, event)

    # 1. Seed: present-state differences.
    for dff_idx, value in state_diff.items():
        sig = compiled.ppis[dff_idx]
        if value != good_values[sig]:
            diff[sig] = value
            schedule_sinks(sig)

    # 2. Seed: the fault site itself.
    forced_sig = None
    branch_gate = None
    branch_pin = None
    kind = fault.lead[0]
    if kind == STEM:
        forced_sig = fault.lead[1]
        forced_value = algebra.const(fault.value)
        current = diff.get(forced_sig, good_values[forced_sig])
        if forced_value != good_values[forced_sig]:
            diff[forced_sig] = forced_value
        else:
            diff.pop(forced_sig, None)
        if current != forced_value:
            schedule_sinks(forced_sig)
        # A forced signal never changes again; its driving gate (if any)
        # must not be re-evaluated.
    elif kind == BRANCH:
        branch_gate = fault.lead[1]
        branch_pin = fault.lead[2]
        branch_value = algebra.const(fault.value)
        if branch_gate not in scheduled:
            scheduled.add(branch_gate)
            heappush(
                pending, (compiled.gates[branch_gate].level, branch_gate)
            )
    # DBRANCH faults act only at the state update below.

    # 3. Level-ordered propagation.
    while pending:
        gate_pos = heappop(pending)[1]
        out, fanins, base, inverted = gate_ops[gate_pos]
        if out == forced_sig:
            continue  # output pinned by a stem fault
        operands = [diff.get(src, good_values[src]) for src in fanins]
        if gate_pos == branch_gate:
            operands[branch_pin] = branch_value
        value = operands[0]
        if base != "ID":
            combine = binary[base]
            for operand in operands[1:]:
                value = combine(value, operand)
        if inverted:
            value = not_(value)
        if value != diff.get(out, good_values[out]):
            if value == good_values[out]:
                diff.pop(out, None)
            else:
                diff[out] = value
            schedule_sinks(out)

    # 4. Next-state differences, in ascending flip-flop order.  Only a
    # flip-flop whose D input is in ``diff`` (or a DBRANCH site) can
    # differ, and every ``diff`` entry differs from the good value.
    dff_d = compiled.dff_d
    flops = [dff_idx for sig in diff for dff_idx in compiled.dff_sinks[sig]]
    site = fault.lead[1] if kind == DBRANCH else None
    if site is not None and site not in flops:
        flops.append(site)
    flops.sort()
    next_state_diff = {}
    for dff_idx in flops:
        d_sig = dff_d[dff_idx]
        if dff_idx != site:
            next_state_diff[dff_idx] = diff[d_sig]
        elif algebra.const(fault.value) != good_values[d_sig]:
            next_state_diff[dff_idx] = algebra.const(fault.value)

    return FrameResult(diff, next_state_diff)
