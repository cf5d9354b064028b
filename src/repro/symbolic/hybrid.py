"""The hybrid fault simulator (Sections I and IV.A).

Runs the symbolic simulation of :mod:`repro.symbolic.fault_sim` until
the OBDD node limit is exceeded.  An overflow is evidence about the
whole symbolic state, never about one fault, so it gets the paper's
protocol:

1. garbage-collect the session and retry the frame when that brought
   the table comfortably below the limit again (cheap, and often
   enough early in a stretch),
2. otherwise *fall back*: the symbolic state is projected onto the
   three-valued logic, a few frames are simulated three-valued with SOT
   detection (which shrinks the symbolic state: known bits become
   constants), and a fresh symbolic session is opened — X-valued state
   bits get fresh variables and every detection function restarts at
   the constant 1, exactly as the paper prescribes.

There is one frame loop with this protocol: the campaign runtime's
(:class:`repro.runtime.campaign.Campaign`).  :func:`hybrid_fault_simulate`
runs it with a one-rung ladder — the requested strategy at the full
node limit, no per-fault budgets, no ID_X-red and no three-valued
pre-pass — so the paper's algorithm and a campaign agree verdict for
verdict, and detection frames stay absolute across fallbacks.

Any fallback makes the final classification conservative: faults still
undetected might have been caught by an uninterrupted symbolic run.
Results produced this way are flagged ``exact=False`` (the asterisks in
Tables II and III).  A pure symbolic run is the same algorithm with a
limit it never reaches: ``node_limit=None``.
"""

from repro.runtime.ladder import DEFAULT_FALLBACK_FRAMES, DEFAULT_NODE_LIMIT


def hybrid_fault_simulate(
    compiled,
    sequence,
    fault_set,
    strategy="MOT",
    node_limit=DEFAULT_NODE_LIMIT,
    fallback_frames=DEFAULT_FALLBACK_FRAMES,
    initial_state=None,
    variable_scheme="interleaved",
):
    """Hybrid symbolic / three-valued fault simulation.

    Simulates every record of *fault_set* the three-valued pass left
    undetected or X-redundant and never dies on the node limit; see
    the module docstring for the fallback protocol.  With
    ``node_limit=None`` no fallback can happen and the result is the
    exact symbolic classification.  Returns a
    :class:`~repro.runtime.campaign.CampaignResult`.
    """
    # imported here: the campaign runtime imports repro.symbolic, whose
    # package init imports this module
    from repro.runtime.campaign import run_campaign

    return run_campaign(
        compiled,
        sequence,
        fault_set,
        ladder=[(strategy, 1.0)],
        node_limit=node_limit,
        fallback_frames=fallback_frames,
        initial_state=initial_state,
        variable_scheme=variable_scheme,
        xred=False,
        pre_pass_3v=False,
    )
