"""Command-line interface.

::

    python -m repro list
    python -m repro stats ctr8
    python -m repro faults s27
    python -m repro generate ctr8 --kind random --length 100 -o t.seq
    python -m repro simulate ctr8 --strategy MOT --length 100
    python -m repro campaign ctr8 --length 200 --checkpoint run.ckpt
    python -m repro campaign --resume run.ckpt
    python -m repro campaign ctr8 --trace run.trace.jsonl --metrics m.json
    python -m repro profile run.trace.jsonl
    python -m repro fsck run.ckpt serve/journal.jsonl
    python -m repro fsck --repair run.ckpt
    python -m repro compact run.ckpt
    python -m repro xred ctr8 --length 200
    python -m repro evaluate s27 --sequence t.seq --response r.seq
    python -m repro sync syncc6

A circuit argument is either a name from the built-in registry
(``python -m repro list``) or a path to an ISCAS-89 ``.bench`` file.
"""

import argparse
import os
import sys

from repro.analysis.synchronizing import find_synchronizing_sequence
from repro.circuit.bench import load_bench
from repro.circuit.compile import compile_circuit
from repro.circuit.stats import circuit_stats
from repro.circuits.registry import PAPER_ROWS, available, get_circuit
from repro.faults.collapse import collapse_faults
from repro.faults.status import FaultSet
from repro.reporting import coverage_report
from repro.runtime.errors import ReproError
from repro.sequences.deterministic import deterministic_sequence
from repro.sequences.io import (
    load_response,
    load_sequence,
    save_sequence,
)
from repro.sequences.random_seq import random_sequence_for
from repro.symbolic.evaluation import symbolic_output_sequence
from repro.symbolic.hybrid import DEFAULT_NODE_LIMIT
from repro.xred.idxred import eliminate_x_redundant


def _resolve_circuit(spec):
    if os.path.exists(spec):
        return load_bench(spec)
    if spec.endswith(".bench") or os.sep in spec:
        raise FileNotFoundError(f"no such circuit file: {spec}")
    return get_circuit(spec)


def _prepare(spec):
    circuit = _resolve_circuit(spec)
    compiled = compile_circuit(circuit)
    faults, _ = collapse_faults(compiled)
    return compiled, FaultSet(faults)


def _get_sequence(compiled, args):
    if getattr(args, "sequence", None):
        return load_sequence(args.sequence)
    return random_sequence_for(compiled, args.length, seed=args.seed)


# ----------------------------------------------------------------------
# subcommands
# ----------------------------------------------------------------------
def cmd_list(args):
    mapping = {ours: paper for paper, ours, _ in PAPER_ROWS}
    for name in available():
        row = mapping.get(name, "")
        suffix = f"  (stands in for {row})" if row else ""
        print(f"{name}{suffix}")
    return 0


def cmd_stats(args):
    stats = circuit_stats(_resolve_circuit(args.circuit))
    for key, value in stats.items():
        print(f"{key}: {value}")
    return 0


def cmd_faults(args):
    compiled, fault_set = _prepare(args.circuit)
    print(f"# {len(fault_set)} collapsed stuck-at faults")
    for record in fault_set:
        print(record.fault.describe(compiled))
    return 0


def cmd_generate(args):
    compiled, fault_set = _prepare(args.circuit)
    if args.kind == "random":
        sequence = random_sequence_for(compiled, args.length,
                                       seed=args.seed)
    elif args.kind == "deterministic":
        sequence = deterministic_sequence(
            compiled, fault_set, max_length=args.length, seed=args.seed
        )
    else:  # mot-atpg
        from repro.atpg.generator import generate_mot_tests

        result = generate_mot_tests(
            compiled, fault_set, strategy="MOT",
            max_length=args.length, seed=args.seed,
            node_limit=args.node_limit,
        )
        sequence = result.sequence
        if result.stopped is not None:
            print(
                f"warning: mot-atpg stopped at the node limit "
                f"({args.node_limit}) after {len(sequence)} vectors",
                file=sys.stderr,
            )
    text_comment = (
        f"{args.kind} sequence for {args.circuit}, seed {args.seed}"
    )
    if args.output:
        save_sequence(sequence, args.output, comment=text_comment)
        print(f"wrote {len(sequence)} vectors to {args.output}")
    else:
        from repro.sequences.io import dumps_sequence

        sys.stdout.write(dumps_sequence(sequence, comment=text_comment))
    return 0


def cmd_xred(args):
    compiled, fault_set = _prepare(args.circuit)
    sequence = _get_sequence(compiled, args)
    eliminate_x_redundant(compiled, sequence, fault_set)
    counts = fault_set.counts()
    print(
        f"{counts['x_redundant']} of {counts['total']} faults are "
        f"X-redundant for this {len(sequence)}-vector sequence"
    )
    if args.verbose:
        for record in fault_set.x_redundant():
            print(f"  {record.fault.describe(compiled)}")
    return 0


def _size(text):
    """argparse type for byte sizes with binary suffixes (512M, 2G)."""
    from repro.runtime.memory import parse_size

    return parse_size(text)


def _build_governor(args):
    from repro.runtime import ResourceGovernor

    return ResourceGovernor(
        deadline=getattr(args, "deadline", None),
        node_budget=getattr(args, "node_budget", None),
        fault_frame_nodes=getattr(args, "fault_frame_nodes", None),
        rss_budget=getattr(args, "rss_budget", None),
        cache_budget=getattr(args, "cache_budget", None),
    )


def _disk_kwargs(args):
    """Disk-governor keywords for run_campaign (empty = ungoverned)."""
    budget = getattr(args, "disk_budget", None)
    free_floor = getattr(args, "disk_free_floor", None)
    if budget is None and free_floor is None:
        return {}
    return {"disk": {"budget": budget, "free_floor": free_floor}}


def _fabric_kwargs(args):
    """Shard-fabric keywords for run_campaign (empty = single-process).

    ``--shard-size`` alone runs its shards in-process (``workers=0``).
    """
    shard_size = getattr(args, "shard_size", None)
    workers = getattr(args, "workers", None)
    if workers is None and shard_size is None:
        return {}
    return {
        "workers": workers or 0,
        "shard_size": shard_size,
        "shard_timeout": getattr(args, "shard_timeout", None),
        "max_retries": getattr(args, "max_retries", None),
        "worker_rss_cap": getattr(args, "worker_rss_cap", None),
    }


def _audit_kwargs(args):
    """Audit keywords for run_campaign (empty = no audit).

    A post-campaign audit persists its findings next to the campaign
    checkpoint (``<checkpoint>.audit``) so an interrupted audit resumes
    alongside the campaign it is checking.
    """
    if getattr(args, "audit", "off") in (None, "off"):
        return {}
    checkpoint = getattr(args, "checkpoint", None)
    return {
        "audit": args.audit,
        "audit_seed": getattr(args, "audit_seed", 0),
        "audit_checkpoint_path": (
            checkpoint + ".audit" if checkpoint else None
        ),
    }


class _CliObservability:
    """CLI ownership of ``--trace`` / ``--metrics`` / ``--progress``.

    The engine layers accept a tracer/registry/progress hook but never
    create one and never write the trace-header record — the CLI does,
    because only it knows the run's provenance (circuit spec, seed,
    worker count).  Single-process campaigns trace with wall-clock
    fields; sharded runs use canonical mode (``wall=False``) so two
    runs with the same seeds produce byte-identical merged traces.
    """

    def __init__(self, args):
        self.trace_path = getattr(args, "trace", None)
        self.metrics_path = getattr(args, "metrics", None)
        self.progress = getattr(args, "progress", False)
        self.tracer = None
        self.registry = None
        self.line = None

    @property
    def active(self):
        return bool(self.trace_path or self.metrics_path or self.progress)

    def start(self, sharded, **header):
        """Build the run keywords; write the trace-header record."""
        kwargs = {}
        if self.trace_path:
            from repro.obs import JsonlSink, Tracer

            self.tracer = Tracer(JsonlSink(self.trace_path),
                                 wall=not sharded)
            self.tracer.write_header(
                "fabric" if sharded else "campaign",
                **{k: v for k, v in header.items() if v is not None},
            )
            kwargs["tracer"] = self.tracer
        if self.metrics_path:
            from repro.obs import MetricsRegistry

            self.registry = MetricsRegistry()
            kwargs["metrics"] = self.registry
        if self.progress:
            from repro.obs.progress import ProgressLine

            self.line = ProgressLine()
            kwargs["progress_hook"] = self.line
        return kwargs

    def finish(self):
        """Flush everything the run produced (safe on failed runs)."""
        if self.line is not None:
            self.line.finish()
        if self.tracer is not None:
            self.tracer.close()
        if self.registry is not None and self.metrics_path:
            from repro.runtime.checkpoint import write_json_atomic

            write_json_atomic(self.metrics_path, self.registry.snapshot())
            print(f"wrote metrics to {self.metrics_path}",
                  file=sys.stderr)


def _render_campaign(args, compiled, fault_set, sequence, result):
    report = coverage_report(
        compiled, fault_set, sequence,
        exact_mot=result.exact and result.strategy == "MOT",
        runtime_info=result.runtime_summary(),
    )
    if args.json:
        print(report.to_json())
    else:
        print(report.render())
    # a signal-interrupted (but checkpointed) campaign is incomplete
    if result.stopped == "signal":
        return 3
    # a refuted audit claim means the campaign's verdicts are unsound
    if result.audit is not None and not result.audit.ok:
        return 4
    return 0


def _resume_any(args, guard, obs):
    """Resume either checkpoint flavor: campaign (frame snapshots) or
    fabric (completed shards) — sniffed from the file itself."""
    from repro.runtime import (
        load_checkpoint,
        resume_campaign,
        sniff_checkpoint_kind,
    )

    if sniff_checkpoint_kind(args.resume) == "fabric":
        from repro.runtime.fabric import (
            FabricConfig,
            load_fabric_checkpoint,
            resume_sharded_campaign,
        )

        checkpoint = load_fabric_checkpoint(args.resume)
        compiled, fault_set = _prepare(
            args.circuit or checkpoint.circuit_spec
        )
        # no fabric option: the checkpoint's recorded configuration
        fabric = _fabric_kwargs(args)
        config = None
        if fabric:
            fabric["max_retries"] = fabric["max_retries"] or 2
            config = FabricConfig(**fabric)
        obs_kwargs = obs.start(
            sharded=True,
            circuit=args.circuit or checkpoint.circuit_spec,
            frames=len(checkpoint.sequence),
            workers=getattr(args, "workers", None),
            resumed_from=args.resume,
        )
        result = resume_sharded_campaign(
            args.resume,
            compiled=compiled,
            fault_set=fault_set,
            governor=_build_governor(args),
            signal_guard=guard,
            config=config,
            **obs_kwargs,
        )
        return compiled, fault_set, checkpoint.sequence, result
    checkpoint = load_checkpoint(args.resume)
    compiled, fault_set = _prepare(
        args.circuit or checkpoint.circuit_spec
    )
    obs_kwargs = obs.start(
        sharded=False,
        circuit=args.circuit or checkpoint.circuit_spec,
        frames=len(checkpoint.sequence),
        resumed_from=args.resume,
    )
    result = resume_campaign(
        args.resume,
        compiled=compiled,
        fault_set=fault_set,
        governor=_build_governor(args),
        checkpoint_every=args.checkpoint_every,
        signal_guard=guard,
        **_disk_kwargs(args),
        **obs_kwargs,
    )
    return compiled, fault_set, checkpoint.sequence, result


def cmd_campaign(args):
    from repro.runtime import SignalGuard, run_campaign

    if args.resume is None and args.circuit is None:
        raise ValueError("campaign needs a circuit (or --resume)")
    obs = _CliObservability(args)
    try:
        with SignalGuard() as guard:
            if args.resume is not None:
                compiled, fault_set, sequence, result = _resume_any(
                    args, guard, obs
                )
            else:
                compiled, fault_set = _prepare(args.circuit)
                sequence = _get_sequence(compiled, args)
                fabric_kwargs = _fabric_kwargs(args)
                obs_kwargs = obs.start(
                    sharded=bool(fabric_kwargs),
                    circuit=args.circuit,
                    strategy=args.strategy,
                    frames=len(sequence),
                    seed=None if args.sequence else args.seed,
                    workers=fabric_kwargs.get("workers"),
                )
                result = run_campaign(
                    compiled, sequence, fault_set,
                    strategy=args.strategy,
                    node_limit=args.node_limit,
                    governor=_build_governor(args),
                    checkpoint_path=args.checkpoint,
                    checkpoint_every=args.checkpoint_every,
                    fallback_frames=args.fallback_frames,
                    signal_guard=guard,
                    circuit_spec=args.circuit,
                    **_disk_kwargs(args),
                    **obs_kwargs,
                    **fabric_kwargs,
                    **_audit_kwargs(args),
                )
    finally:
        obs.finish()
    return _render_campaign(args, compiled, fault_set, sequence, result)


def cmd_simulate(args):
    """The fault-simulation flow: one campaign per strategy.

    ``--strategy all`` runs SOT, then rMOT, then MOT over one fault set
    (each pass sees only what the earlier ones left undetected).  The
    options that shape a single campaign's run — deadline, checkpoint,
    workers, audit, pressure, disk, trace/metrics/progress — need a
    single strategy; none of them changes the algorithm.
    """
    from repro.runtime import SignalGuard, run_campaign

    obs = _CliObservability(args)
    strategies = (
        ("SOT", "rMOT", "MOT") if args.strategy == "all"
        else (args.strategy,)
    )
    fabric_kwargs = _fabric_kwargs(args)
    if len(strategies) > 1 and (
        args.deadline is not None
        or args.checkpoint
        or fabric_kwargs
        or args.audit != "off"
        or args.rss_budget is not None
        or args.cache_budget is not None
        or _disk_kwargs(args)
        or obs.active
    ):
        raise ValueError(
            "--deadline/--checkpoint/--workers and the other run options "
            "shape a single campaign; pick one strategy, not 'all'"
        )
    compiled, fault_set = _prepare(args.circuit)
    sequence = _get_sequence(compiled, args)
    obs_kwargs = obs.start(
        sharded=bool(fabric_kwargs),
        circuit=args.circuit,
        strategy=args.strategy,
        frames=len(sequence),
        seed=None if args.sequence else args.seed,
        workers=fabric_kwargs.get("workers"),
    )
    try:
        with SignalGuard() as guard:
            for index, strategy in enumerate(strategies):
                result = run_campaign(
                    compiled, sequence, fault_set,
                    strategy=strategy,
                    node_limit=args.node_limit,
                    governor=_build_governor(args),
                    checkpoint_path=args.checkpoint,
                    signal_guard=guard,
                    circuit_spec=args.circuit,
                    # the pre-passes classify once, before the first pass
                    xred=index == 0 and not args.no_xred,
                    pre_pass_3v=index == 0,
                    **_disk_kwargs(args),
                    **obs_kwargs,
                    **fabric_kwargs,
                    **_audit_kwargs(args),
                )
                if result.stopped != "completed":
                    break
    finally:
        obs.finish()
    # an exact MOT pass proves every fault it leaves undetected
    # undetectable, whatever the earlier passes of 'all' did
    return _render_campaign(args, compiled, fault_set, sequence, result)


def cmd_evaluate(args):
    compiled, _fault_set = _prepare(args.circuit)
    sequence = load_sequence(args.sequence)
    response = load_response(args.response)
    symbolic = symbolic_output_sequence(
        compiled, sequence, node_limit=args.node_limit
    )
    accepted, conflict = symbolic.evaluate(response)
    if accepted:
        print("PASS: some initial state of the fault-free circuit "
              "explains this response")
        return 0
    print(f"FAIL: circuit-under-test is faulty "
          f"(first conflict at frame {conflict})")
    return 1


def cmd_diagnose(args):
    compiled, fault_set = _prepare(args.circuit)
    sequence = load_sequence(args.sequence)
    response = load_response(args.response)
    from repro.diagnosis import diagnose

    result = diagnose(
        compiled, sequence, response,
        [r.fault for r in fault_set],
        node_limit=args.node_limit or None,
    )
    if result.fault_free_consistent:
        print("response is consistent with a fault-free machine")
    else:
        print("response proves the circuit-under-test faulty")
    print(f"{len(result.candidates)} candidate faults, "
          f"{len(result.exonerated)} exonerated:")
    for candidate in result.candidates[: args.top]:
        print(
            f"  {candidate.fault.describe(compiled):30s}  "
            f"({candidate.num_states} explaining initial states)"
        )
    return 0


def cmd_profile(args):
    from repro.obs.profile import profile_trace, render_profile

    profile = profile_trace(args.trace, top=args.top)
    if args.json:
        import json

        print(json.dumps(profile, indent=2, sort_keys=True))
    else:
        print(render_profile(profile))
    # a trace that contradicts the campaign's own accounting is a bug
    return 0 if profile["reconciliation"]["ok"] else 1


def _audited_fault_set(args):
    """(compiled, fault_set, sequence, strategy) from a checkpoint.

    Accepts both checkpoint flavors: a campaign file restores the last
    frame snapshot's per-fault states, a fabric file folds every
    completed shard's states in.  The fingerprint ties the rebuilt
    circuit + fault universe to the one the checkpoint recorded.
    """
    from repro.runtime import sniff_checkpoint_kind
    from repro.runtime.checkpoint import (
        load_checkpoint,
        verify_fingerprint,
    )
    from repro.runtime.errors import CheckpointError
    from repro.runtime.ladder import DegradationLadder

    kind = sniff_checkpoint_kind(args.checkpoint)
    if kind == "fabric":
        from repro.runtime.fabric import load_fabric_checkpoint

        checkpoint = load_fabric_checkpoint(args.checkpoint)
    else:
        checkpoint = load_checkpoint(args.checkpoint)
    compiled, fault_set = _prepare(args.circuit or checkpoint.circuit_spec)
    keys = [r.fault.key() for r in fault_set]
    verify_fingerprint(
        checkpoint.path, checkpoint.fingerprint, compiled, keys
    )
    if keys != checkpoint.fault_keys:
        raise CheckpointError(
            checkpoint.path,
            "fault universe does not match the checkpointed campaign "
            f"({len(keys)} vs {len(checkpoint.fault_keys)} faults)",
        )
    if kind == "fabric":
        for shard in checkpoint.shards.values():
            for index, state in zip(shard["indices"], shard["states"]):
                fault_set.records[index].state_from_json(state)
    else:
        for record, (state, _rung, _diff) in zip(
            fault_set, checkpoint.fault_states()
        ):
            record.state_from_json(state)
    ladder = DegradationLadder.from_json(checkpoint.ladder_json())
    return compiled, fault_set, checkpoint.sequence, ladder.rungs[0].strategy


def cmd_audit(args):
    from repro.audit import AuditOptions, run_audit
    from repro.runtime.checkpoint import write_json_atomic

    compiled, fault_set, sequence, strategy = _audited_fault_set(args)
    options = AuditOptions(
        mode=args.mode,
        seed=args.seed,
        node_limit=args.node_limit or None,
        sample_detected=args.sample_detected,
        sample_undetected=args.sample_undetected,
        checkpoint_path=args.audit_checkpoint,
    )
    # a checkpoint is a snapshot of a possibly unfinished, possibly
    # degraded run: a missed detection is inconclusive, never refuting
    report = run_audit(
        compiled,
        sequence,
        fault_set,
        options=options,
        strategy=strategy,
        complete=False,
        exact=False,
        workers=args.workers,
    )
    if args.output:
        write_json_atomic(args.output, report.to_json())
        print(f"wrote audit report to {args.output}", file=sys.stderr)
    if args.json:
        import json

        print(json.dumps(report.to_json(), indent=2, sort_keys=True))
    else:
        print(report.render())
    return 0 if report.ok else 4


def _compact_artifact(args):
    """``repro compact <file>``: checkpoint/journal compaction.

    Dispatches on the file's first record: service journals collapse
    to one snapshot record, campaign checkpoints to header + last
    frame snapshot, fabric checkpoints to header + latest record per
    shard.  Every rewrite is atomic (temp file + rename) and byte-
    exact: resume/replay from the compacted file reproduces the
    verdicts of the original.
    """
    import json as _json

    path = args.circuit
    if not os.path.exists(path):
        raise FileNotFoundError(f"no such checkpoint or journal: {path}")
    kind = None
    with open(path, encoding="utf-8") as handle:
        first = handle.readline()
    try:
        kind = _json.loads(first).get("type")
    except ValueError:
        pass
    if kind in ("service", "job", "job-deleted", "snapshot"):
        from repro.service.journal import compact_journal

        stats = compact_journal(path)
        what = "journal"
    else:
        from repro.runtime.disk import compact_checkpoint

        stats = compact_checkpoint(path)
        what = f"{stats['kind']} checkpoint"
    print(
        f"compacted {what} {path}: "
        f"{stats['records_before']} -> {stats['records_after']} records, "
        f"{stats['bytes_before']} -> {stats['bytes_after']} bytes"
    )
    return 0


def cmd_compact(args):
    if args.sequence is None:
        return _compact_artifact(args)
    compiled, fault_set = _prepare(args.circuit)
    sequence = load_sequence(args.sequence)
    from repro.sequences.compaction import compact_sequence

    result = compact_sequence(
        compiled, sequence, [r.fault for r in fault_set],
        strategy=args.strategy,
    )
    print(
        f"compacted {result.original_length} -> "
        f"{result.compacted_length} vectors "
        f"({len(result.detected)} {args.strategy}-detected faults kept)"
    )
    if args.output:
        save_sequence(result.compacted, args.output,
                      comment=f"compacted under {args.strategy}")
        print(f"wrote {args.output}")
    return 0


def cmd_equiv(args):
    from repro.analysis.equivalence import check_equivalence

    c1 = _resolve_circuit(args.circuit)
    c2 = _resolve_circuit(args.other)
    result = check_equivalence(c1, c2)
    if result.equivalent:
        print(f"EQUIVALENT (explored {result.steps} image steps)")
        return 0
    print(f"DIFFERENT at output {result.output_index}; "
          f"distinguishing sequence:")
    for vector in result.counterexample:
        print("".join(str(b) for b in vector))
    return 1


def cmd_sync(args):
    compiled, _ = _prepare(args.circuit)
    result = find_synchronizing_sequence(
        compiled, max_length=args.length, beam_width=args.beam
    )
    if result.found:
        print(f"synchronizing sequence of length "
              f"{len(result.sequence)} found; final state "
              f"{result.final_state}")
        for vector in result.sequence:
            print("".join(str(b) for b in vector))
        return 0
    print(f"no synchronizing sequence within {args.length} steps "
          f"(uncertainty trace: {result.uncertainty_sizes})")
    return 1


# ----------------------------------------------------------------------
def build_parser():
    parser = argparse.ArgumentParser(
        prog="repro",
        description="Symbolic fault simulation for sequential circuits "
                    "(DAC 1995 reproduction)",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    def _add_fabric_options(p):
        p.add_argument("--workers", type=int, default=None, metavar="N",
                       help="run the shards on a pool of N worker "
                            "processes (0 = in-process); never changes "
                            "the shard plan or the verdicts")
        p.add_argument("--shard-size", type=int, default=None,
                       metavar="FAULTS",
                       help="faults per shard (default: one shard, the "
                            "paper's single group); smaller shards can "
                            "run in parallel and, on circuits that "
                            "overflow the node limit, trade time for "
                            "coverage")
        p.add_argument("--shard-timeout", type=float, default=None,
                       metavar="SECONDS",
                       help="kill and retry a shard running longer "
                            "than this")
        p.add_argument("--max-retries", type=int, default=None,
                       metavar="N",
                       help="crashes before a shard is bisected "
                            "(default 2)")
        p.add_argument("--worker-rss-cap", type=_size, default=None,
                       metavar="SIZE",
                       help="recycle a worker whose resident set "
                            "exceeds SIZE (accepts 512M, 2G, ...)")

    def _add_pressure_options(p):
        p.add_argument("--rss-budget", type=_size, default=None,
                       metavar="SIZE",
                       help="process RSS budget (512M, 2G, ...): at 0.9 "
                            "of it a growing BDD session falls back to "
                            "3-valued simulation, above it the run "
                            "stops, checkpointed")
        p.add_argument("--cache-budget", type=int, default=None,
                       metavar="ENTRIES",
                       help="computed-table entries before eviction")

    def _add_disk_options(p):
        p.add_argument("--disk-budget", type=_size, default=None,
                       metavar="SIZE",
                       help="checkpoint byte budget (accepts 512M, "
                            "2G, ...): soft watermark compacts the "
                            "checkpoint and stretches the interval, "
                            "hard watermark surrenders cleanly with a "
                            "resumable compacted checkpoint")
        p.add_argument("--disk-free-floor", type=_size, default=None,
                       metavar="SIZE",
                       help="minimum free space on the checkpoint "
                            "filesystem; the same relief ladder runs "
                            "when statvfs free space falls below it")

    def _add_audit_options(p):
        p.add_argument("--audit", choices=("off", "sample", "full"),
                       default="off",
                       help="witness-replay audit of the verdicts after "
                            "the run: 'full' audits every detected "
                            "fault, 'sample' a seeded sample; refuted "
                            "claims quarantine the fault and fail the "
                            "run (exit 4)")
        p.add_argument("--audit-seed", type=int, default=0,
                       metavar="SEED",
                       help="seed of the audit's sampling and constant-"
                            "witness draws (default 0)")

    def _add_failpoint_option(p):
        p.add_argument("--failpoints", default=None, metavar="SPEC",
                       help="arm deterministic failure injection sites "
                            "for this run, e.g. 'checkpoint.write."
                            "enospc=once,bdd.alloc=after:5000' "
                            "(see docs/failpoints.md); equivalent to "
                            "the REPRO_FAILPOINTS environment variable")

    def _add_observability_options(p):
        p.add_argument("--trace", default=None, metavar="FILE",
                       help="stream a JSONL trace (spans, events, "
                            "metrics samples) to FILE; analyze it "
                            "later with 'repro profile'")
        p.add_argument("--metrics", default=None, metavar="FILE",
                       help="write the run's final counters/gauges/"
                            "histograms to FILE as JSON")
        p.add_argument("--progress", action="store_true",
                       help="live single-line progress display on "
                            "stderr")

    def add_common(p, sequence_opts=True):
        p.add_argument("circuit",
                       help="registry name or .bench file path")
        if sequence_opts:
            p.add_argument("--sequence", help="sequence file (.seq)")
            p.add_argument("--length", type=int, default=100)
            p.add_argument("--seed", type=int, default=1)
        p.add_argument("--node-limit", type=int,
                       default=DEFAULT_NODE_LIMIT)

    sub.add_parser("list", help="list built-in circuits")

    p = sub.add_parser("stats", help="circuit statistics")
    p.add_argument("circuit")

    p = sub.add_parser("faults", help="print the collapsed fault list")
    p.add_argument("circuit")

    p = sub.add_parser("generate", help="generate a test sequence")
    add_common(p, sequence_opts=False)
    p.add_argument("--kind", choices=("random", "deterministic",
                                      "mot-atpg"), default="random")
    p.add_argument("--length", type=int, default=100)
    p.add_argument("--seed", type=int, default=1)
    p.add_argument("-o", "--output")

    p = sub.add_parser("xred", help="identify X-redundant faults")
    add_common(p)
    p.add_argument("--verbose", action="store_true")

    p = sub.add_parser("simulate", help="run the fault-simulation flow")
    add_common(p)
    p.add_argument("--strategy",
                   choices=("3v", "SOT", "rMOT", "MOT", "all"),
                   default="MOT")
    p.add_argument("--no-xred", action="store_true",
                   help="skip the ID_X-red pre-pass")
    p.add_argument("--json", action="store_true")
    p.add_argument("--deadline", type=float, default=None,
                   help="wall-clock budget in seconds (runs the "
                        "campaign runtime)")
    p.add_argument("--checkpoint", default=None, metavar="PATH",
                   help="write resumable checkpoints to PATH (runs "
                        "the campaign runtime)")
    _add_pressure_options(p)
    _add_disk_options(p)
    _add_fabric_options(p)
    _add_observability_options(p)
    _add_audit_options(p)
    _add_failpoint_option(p)

    p = sub.add_parser(
        "campaign",
        help="resilient fault-simulation campaign "
             "(budgets, checkpoints, degradation ladder)",
    )
    p.add_argument("circuit", nargs="?",
                   help="registry name or .bench file path "
                        "(optional with --resume)")
    p.add_argument("--sequence", help="sequence file (.seq)")
    p.add_argument("--length", type=int, default=100)
    p.add_argument("--seed", type=int, default=1)
    p.add_argument("--node-limit", type=int, default=DEFAULT_NODE_LIMIT)
    p.add_argument("--strategy",
                   choices=("3v", "SOT", "rMOT", "MOT"), default="MOT",
                   help="top rung of the degradation ladder")
    p.add_argument("--deadline", type=float, default=None,
                   help="wall-clock budget in seconds")
    p.add_argument("--node-budget", type=int, default=None,
                   help="total live-BDD-node budget")
    p.add_argument("--fault-frame-nodes", type=int, default=None,
                   help="per-fault per-frame BDD allocation budget")
    p.add_argument("--checkpoint", default=None, metavar="PATH",
                   help="write resumable checkpoints to PATH")
    p.add_argument("--checkpoint-every", type=int, default=25,
                   metavar="N", help="checkpoint every N frames")
    p.add_argument("--fallback-frames", type=int, default=5,
                   help="three-valued interlude length after an "
                        "overflow")
    p.add_argument("--resume", default=None, metavar="PATH",
                   help="resume from a checkpoint file (campaign or "
                        "fabric flavor, auto-detected)")
    p.add_argument("--json", action="store_true")
    _add_pressure_options(p)
    _add_disk_options(p)
    _add_fabric_options(p)
    _add_observability_options(p)
    _add_audit_options(p)
    _add_failpoint_option(p)

    p = sub.add_parser(
        "audit",
        help="witness-replay audit of a checkpointed campaign's "
             "verdicts (campaign or fabric checkpoint)",
    )
    p.add_argument("checkpoint",
                   help="checkpoint file written by a campaign run")
    p.add_argument("--circuit", default=None,
                   help="override the checkpoint's circuit spec")
    p.add_argument("--mode", choices=("sample", "full"), default="full")
    p.add_argument("--seed", type=int, default=0,
                   help="audit sampling/witness seed (default 0)")
    p.add_argument("--node-limit", type=int, default=0,
                   help="per-fault witness rebuild node limit "
                        "(0 = unbounded)")
    p.add_argument("--sample-detected", type=int, default=32,
                   metavar="N",
                   help="detected-side sample size in sample mode")
    p.add_argument("--sample-undetected", type=int, default=8,
                   metavar="N", help="undetected-side sample size")
    p.add_argument("--audit-checkpoint", default=None, metavar="PATH",
                   help="persist findings to PATH; a partial audit "
                        "resumes from it")
    p.add_argument("--workers", type=int, default=None, metavar="N",
                   help="shard the detected-side audits over N worker "
                        "processes (0 = sharded in-process)")
    p.add_argument("--json", action="store_true")
    p.add_argument("-o", "--output", default=None, metavar="FILE",
                   help="also write the report JSON to FILE "
                        "(atomic replace)")

    p = sub.add_parser("profile",
                       help="analyze a JSONL trace written by --trace")
    p.add_argument("trace", help="trace file (.jsonl)")
    p.add_argument("--top", type=int, default=10,
                   help="hot faults to show (default 10)")
    p.add_argument("--json", action="store_true")

    p = sub.add_parser("evaluate",
                       help="symbolic test evaluation of a response")
    p.add_argument("circuit")
    p.add_argument("--sequence", required=True)
    p.add_argument("--response", required=True)
    p.add_argument("--node-limit", type=int, default=DEFAULT_NODE_LIMIT)

    p = sub.add_parser("sync", help="search a synchronizing sequence")
    p.add_argument("circuit")
    p.add_argument("--length", type=int, default=32)
    p.add_argument("--beam", type=int, default=64)

    p = sub.add_parser("diagnose",
                       help="identify candidate faults from a response")
    p.add_argument("circuit")
    p.add_argument("--sequence", required=True)
    p.add_argument("--response", required=True)
    p.add_argument("--top", type=int, default=10,
                   help="print at most this many candidates")
    p.add_argument("--node-limit", type=int, default=0,
                   help="0 = unlimited")

    p = sub.add_parser(
        "compact",
        help="shrink a sequence preserving coverage, or (without "
             "--sequence) compact a checkpoint/journal file in place",
    )
    p.add_argument("circuit",
                   help="circuit (with --sequence), or a campaign/"
                        "fabric checkpoint or service journal file to "
                        "compact atomically in place")
    p.add_argument("--sequence",
                   help="sequence file (.seq); omit to compact a "
                        "checkpoint/journal instead")
    p.add_argument("--strategy", choices=("SOT", "rMOT", "MOT"),
                   default="MOT")
    p.add_argument("-o", "--output")

    p = sub.add_parser("equiv",
                       help="sequential equivalence of two circuits")
    p.add_argument("circuit")
    p.add_argument("other")

    p = sub.add_parser("serve",
                       help="run the crash-safe campaign job daemon")
    p.add_argument("--host", default="127.0.0.1",
                   help="bind address (default 127.0.0.1)")
    p.add_argument("--port", type=int, default=8357,
                   help="bind port; 0 picks an ephemeral port, written "
                        "to endpoint.json in the state dir "
                        "(default 8357)")
    p.add_argument("--state-dir", default="repro-serve", metavar="DIR",
                   help="journal, per-job checkpoints and results live "
                        "here; restart with the same DIR to recover "
                        "(default ./repro-serve)")
    p.add_argument("--queue-limit", type=int, default=8, metavar="N",
                   help="admission queue bound; a full queue sheds "
                        "submissions with HTTP 429 (default 8)")
    p.add_argument("--executors", type=int, default=1, metavar="N",
                   help="concurrent job executor threads (default 1)")
    p.add_argument("--retry-after", type=int, default=5, metavar="SECS",
                   help="Retry-After hint on shed submissions "
                        "(default 5)")
    p.add_argument("--drain-timeout", type=float, default=None,
                   metavar="SECS",
                   help="max seconds to wait for in-flight jobs to "
                        "reach a stop point on SIGTERM (default: wait "
                        "indefinitely)")
    p.add_argument("--trace", default=None, metavar="FILE",
                   help="write per-job JSONL trace spans to FILE")
    p.add_argument("--disk-budget", type=_size, default=None,
                   metavar="SIZE",
                   help="state-directory byte budget (512M, 2G, ...); "
                        "at the hard watermark the service GCs old "
                        "artifacts, snapshots its journal, then sheds "
                        "submissions with HTTP 507 + Retry-After")
    p.add_argument("--artifact-quota", type=_size, default=None,
                   metavar="SIZE",
                   help="byte quota for per-job artifacts (results, "
                        "checkpoints, traces); oldest terminal jobs' "
                        "files are aged out first, their journal "
                        "metadata survives")
    p.add_argument("--journal-snapshot-every", type=int, default=512,
                   metavar="N",
                   help="compact the journal to one snapshot record "
                        "after N appended records (default 512)")
    _add_failpoint_option(p)

    p = sub.add_parser(
        "fsck",
        help="offline integrity check of checkpoints and journals "
             "(CRC, torn tail, record structure, state machine)",
    )
    p.add_argument("paths", nargs="+", metavar="PATH",
                   help="campaign/fabric/audit checkpoint or service "
                        "journal files (kind auto-detected)")
    p.add_argument("--json", action="store_true",
                   help="machine-readable report, one JSON object per "
                        "file")
    p.add_argument("--repair", action="store_true",
                   help="repair tail damage in place: truncate a torn "
                        "final line and move CRC-failing records to a "
                        "<file>.quarantine sidecar (atomic rewrite); "
                        "structural damage earlier in the file still "
                        "refuses")

    p = sub.add_parser(
        "metrics-export",
        help="render a --metrics JSON snapshot as Prometheus text "
             "exposition",
    )
    p.add_argument("metrics", help="metrics JSON written by --metrics "
                                   "(or a flat name->number mapping)")
    p.add_argument("--prefix", default="repro",
                   help="metric name prefix (default repro)")
    p.add_argument("-o", "--output", help="write here instead of stdout")

    p = sub.add_parser(
        "export-trace",
        help="convert a JSONL trace to Chrome/Perfetto trace_event "
             "JSON or collapsed flamegraph stacks",
    )
    p.add_argument("trace", help="trace file (.jsonl) written by --trace")
    p.add_argument("--format", choices=("chrome", "flame"),
                   default="chrome",
                   help="chrome: load in ui.perfetto.dev; flame: "
                        "collapsed stacks for flamegraph.pl/speedscope")
    p.add_argument("-o", "--output", help="write here instead of stdout")

    p = sub.add_parser(
        "top",
        help="live terminal view of a running campaign (service job "
             "event stream or local checkpoint)",
    )
    p.add_argument("job", nargs="?", default=None,
                   help="service job id (with --url)")
    p.add_argument("--url", default="http://127.0.0.1:8357",
                   help="service base URL (default "
                        "http://127.0.0.1:8357)")
    p.add_argument("--checkpoint", metavar="FILE",
                   help="tail a local campaign checkpoint instead of a "
                        "service job")
    p.add_argument("--once", action="store_true",
                   help="render the current state once and exit")
    p.add_argument("--poll-timeout", type=float, default=5.0,
                   metavar="SECS",
                   help="long-poll timeout per request (default 5)")
    p.add_argument("--interval", type=float, default=0.5, metavar="SECS",
                   help="checkpoint re-read interval (default 0.5)")

    return parser


def cmd_fsck(args):
    from repro.runtime.fsck import fsck_paths

    reports, code = fsck_paths(args.paths, repair=args.repair)
    if args.json:
        import json

        for report in reports:
            print(json.dumps(report.to_json(), sort_keys=True))
    else:
        for report in reports:
            for line in report.lines():
                print(line)
    return code


def cmd_metrics_export(args):
    import json as _json

    from repro.obs.export import render_prometheus

    with open(args.metrics, encoding="utf-8") as handle:
        snapshot = _json.load(handle)
    if not isinstance(snapshot, dict):
        raise ValueError(
            f"{args.metrics}: expected a metrics snapshot object"
        )
    text = render_prometheus(snapshot, prefix=args.prefix)
    if args.output:
        with open(args.output, "w", encoding="utf-8") as handle:
            handle.write(text)
        print(f"wrote {args.output}", file=sys.stderr)
    else:
        sys.stdout.write(text)
    return 0


def cmd_export_trace(args):
    import json as _json

    from repro.obs.export import trace_to_chrome, trace_to_collapsed
    from repro.obs.profile import read_trace

    records = read_trace(args.trace)
    if args.format == "chrome":
        text = _json.dumps(trace_to_chrome(records), sort_keys=True)
    else:
        text = trace_to_collapsed(records)
    if args.output:
        with open(args.output, "w", encoding="utf-8") as handle:
            handle.write(text)
        print(f"wrote {args.output}", file=sys.stderr)
    else:
        sys.stdout.write(text)
    return 0


def cmd_top(args):
    from repro.obs.top import run_top

    if bool(args.checkpoint) == bool(args.job):
        raise ValueError(
            "pass exactly one source: --checkpoint FILE, or "
            "--url URL with a job id"
        )
    return run_top(
        job=args.job,
        url=args.url,
        checkpoint=args.checkpoint,
        once=args.once,
        poll_timeout=args.poll_timeout,
        interval=args.interval,
    )


def cmd_serve(args):
    from repro.service import ServiceConfig, serve

    config = ServiceConfig(
        host=args.host,
        port=args.port,
        state_dir=args.state_dir,
        queue_limit=args.queue_limit,
        executors=args.executors,
        retry_after=args.retry_after,
        trace=args.trace,
        drain_timeout=args.drain_timeout,
        disk_budget=args.disk_budget,
        artifact_quota=args.artifact_quota,
        journal_snapshot_every=args.journal_snapshot_every,
    )
    return serve(config)


_COMMANDS = {
    "list": cmd_list,
    "stats": cmd_stats,
    "faults": cmd_faults,
    "generate": cmd_generate,
    "xred": cmd_xred,
    "simulate": cmd_simulate,
    "campaign": cmd_campaign,
    "audit": cmd_audit,
    "profile": cmd_profile,
    "evaluate": cmd_evaluate,
    "sync": cmd_sync,
    "diagnose": cmd_diagnose,
    "compact": cmd_compact,
    "equiv": cmd_equiv,
    "serve": cmd_serve,
    "fsck": cmd_fsck,
    "metrics-export": cmd_metrics_export,
    "export-trace": cmd_export_trace,
    "top": cmd_top,
}


def main(argv=None):
    args = build_parser().parse_args(argv)
    try:
        if getattr(args, "failpoints", None):
            from repro import failpoints

            # merges over (and overrides) any REPRO_FAILPOINTS sites
            failpoints.configure(args.failpoints)
        return _COMMANDS[args.command](args)
    except BrokenPipeError:
        # e.g. `python -m repro list | head`
        try:
            sys.stdout.close()
        except OSError:
            pass
        return 0
    except (ReproError, FileNotFoundError, OSError, ValueError) as exc:
        # bad inputs (missing files, malformed .bench, unknown circuit,
        # mismatched checkpoint, ...) fail with one line, not a traceback
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    raise SystemExit(main())
