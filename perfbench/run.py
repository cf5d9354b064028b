"""Paper-workload benchmark of the symbolic fault simulator.

Run from the root of a checkout::

    python3 perfbench/run.py --workload table2-exact --seed 1 \\
        --seconds 10 --trace 0

The inputs are made from ``--seed`` (see ``workloads.py``).  With
``--trace 0`` the benchmark sets the workload up several times, then
runs whole passes over the workload's rows until ``--seconds`` have
gone by (at least one pass), and reports the end-to-end metrics.  With
``--trace 1`` it runs one untraced pass and one traced pass and reports
the per-layer metrics of the traced pass; the spans are written to
``perfbench/out/``.

Times are in reference seconds: wall time scaled to the speed of a
fixed calibration loop sampled while the work runs (``hostspeed.py``).
The raw wall times are printed next to them.

Human-readable lines come first; the last line of standard output is
one JSON object with the keys ``correct``, ``attempted``, ``failed``
and ``metrics``.  ``attempted`` and ``failed`` count rows over all
passes, so ``failed / attempted`` is the run's error rate.
"""

import argparse
import json
import os
import resource
import statistics
import subprocess
import sys

from hostspeed import SpeedSampler, bracketed

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SRC = os.path.join(ROOT, "src")
OUT = os.path.join(HERE, "out")

#: set-ups per run; setup_s is their median
SETUP_REPEATS = 9
#: address-space cap of the benchmark process: a row that needs more
#: fails with MemoryError instead of exhausting a shared host
MEMORY_CAP = 3 << 30

#: the modules a run imports; setup_s times importing them in a fresh
#: interpreter
_IMPORTS = (
    "repro.audit",
    "repro.engines.parallel_fault_sim",
    "repro.experiments.common",
    "repro.runtime.campaign",
    "repro.sequences.deterministic",
    "repro.sequences.random_seq",
    "repro.symbolic.hybrid",
    "repro.xred.idxred",
)

#: counts that must repeat exactly between runs at one seed
EXACT_COUNTS = (
    "detected",
    "inexact_rows",
    "bdd.ite_calls",
    "symbolic.step_aborted",
    "runtime.demotions",
)


def parse_args(argv):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return parser.parse_args(argv)


def measure_setup(workloads, workload, seed, circuits=None):
    """Set the workload up SETUP_REPEATS times: start an interpreter
    that imports the benchmarked modules, then compile, collapse and
    build sequences in this process.  Returns (median seconds, the last
    set-up)."""
    def set_up():
        subprocess.run(
            [sys.executable, "-c", "import " + ", ".join(_IMPORTS)],
            env=dict(os.environ, PYTHONPATH=SRC), timeout=120, check=True,
        )
        return workloads.set_up(workload, seed, circuits)

    samples = []
    prepared = None
    for _ in range(SETUP_REPEATS):
        prepared, seconds = bracketed(set_up)
        samples.append(seconds)
    return statistics.median(samples), prepared


def top_percentile(samples):
    """Highest percentile with at least ten samples beyond it, or None."""
    n = len(samples)
    if n <= 10:
        return None
    rank = n - 10  # samples at or below the percentile
    return 100.0 * rank / n, sorted(samples)[rank - 1]


def summarize_rows(rows):
    failed = [r for r in rows if r.error is not None]
    return {
        "rows": len(rows),
        "failed": len(failed),
        "detected": sum(r.detected for r in rows if r.error is None),
        "exact_rows": sum(1 for r in rows if r.error is None and r.exact),
        "inexact_rows": sum(1 for r in rows if r.error is None
                            and not r.exact),
    }


def print_rows(rows):
    for row in rows:
        verdict = "ok" if row.error is None else f"FAILED ({row.error})"
        exact = "exact" if row.exact else "inexact*"
        print(f"  row {row.label:<20} detected={row.detected:<5} "
              f"{exact:<9} {verdict}")


def print_metric(name, value, unit, note=""):
    text = f"{value:.6g}" if isinstance(value, float) else str(value)
    print(f"{name} = {text} {unit}{'  (' + note + ')' if note else ''}")


def run_untraced(workloads, workload, seed, seconds, circuits=None,
                 workdir=OUT):
    """The end-to-end run; returns the result object."""
    setup_s, prepared = measure_setup(workloads, workload, seed, circuits)
    passes = []
    elapsed = 0.0
    while True:
        with SpeedSampler() as timing:
            rows = workloads.run_pass(workload, prepared, workdir)
        passes.append((timing, rows))
        elapsed += timing.wall
        if elapsed >= seconds:
            break
    peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024

    walls = [timing.seconds for timing, _rows in passes]
    first = passes[0][1]
    deterministic = all(
        [r.fingerprint() for r in rows] == [r.fingerprint() for r in first]
        for _timing, rows in passes
    )
    all_rows = [row for _timing, rows in passes for row in rows]
    summary = summarize_rows(first)

    print(f"workload {workload.name}: seed {seed}, "
          f"{len(passes)} passes of {len(first)} rows")
    print_rows(first)
    wall_s = statistics.median(walls)
    percentile = top_percentile(walls)
    print_metric(
        "wall_s", wall_s, "s",
        f"median of n={len(walls)} passes: "
        + ", ".join(f"{w:.3f}" for w in walls)
        + "; raw wall "
        + ", ".join(f"{timing.wall:.3f}" for timing, _rows in passes)
        + ("; no percentile has 10 samples beyond it at this n"
           if percentile is None
           else f"; p{percentile[0]:.0f} = {percentile[1]:.3f} s"),
    )
    print_metric("setup_s", setup_s, "s",
                 f"median of {SETUP_REPEATS} set-ups")
    print_metric("peak_rss_mb", peak_rss_mb, "MiB")
    print_metric("detected", summary["detected"], "count",
                 "summed over rows")
    print_metric("exact_rows", summary["exact_rows"], "count",
                 f"inexact_rows = {summary['inexact_rows']} count")
    failed = sum(1 for r in all_rows if r.error is not None)
    print_metric("error_rate", failed / len(all_rows), "ratio",
                 f"{failed} failed of {len(all_rows)} rows attempted")
    if not deterministic:
        print("FAILED: row outcomes differ between passes at one seed")
    return {
        "correct": deterministic and failed == 0,
        "attempted": len(all_rows),
        "failed": failed,
        "metrics": {
            "wall_s": {"value": wall_s, "unit": "s"},
            "setup_s": {"value": setup_s, "unit": "s"},
            "peak_rss_mb": {"value": peak_rss_mb, "unit": "MiB"},
            "detected": {"value": summary["detected"], "unit": "count"},
            "exact_rows": {"value": summary["exact_rows"], "unit": "count"},
        },
    }


def layer_metrics(table, kernel, rows, traced, plain):
    """Per-layer metrics of one traced pass.

    ``*_s`` metrics are kept self time: a span's time minus its
    wrapped children, counting only spans outside aborted steps.
    ``symbolic.aborted_s`` is the inclusive time of the aborted steps
    (an aborted step throws away all it ran), so the ``*_s`` metrics
    and ``symbolic.aborted_s`` split the pass without overlap.
    ``symbolic.step_s`` is the inclusive time of all steps, the base of
    ``symbolic.aborted_share``.  Span times are scaled to reference
    seconds by the pass's own factor.
    """
    scale = traced.seconds / traced.wall

    def span(name, key):
        value = table.get(name, {}).get(key, 0)
        return value * scale if key.endswith("_s") else value

    def count(key):
        return sum(r.counts.get(key, 0) for r in rows)

    lookups = kernel["cache_hits"] + kernel["cache_misses"]
    step_s = span("symbolic.step", "total_s")
    aborted_s = span("symbolic.step", "failed_s")
    frames = ("engines.simulate_frame_bdd", "engines.simulate_frame_3v",
              "engines.simulate_frame_bool")
    values = {
        "bdd.ite_calls": (kernel["ite_calls"], "count"),
        "bdd.cache_lookups": (lookups, "count"),
        "bdd.cache_hit_ratio": (
            kernel["cache_hits"] / lookups if lookups else 0.0, "ratio"),
        "bdd.nodes_created": (kernel["nodes_created"], "count"),
        "bdd.rename_s": (span("bdd.rename", "kept_s"), "s"),
        "bdd.collect_calls": (span("bdd.collect", "calls"), "count"),
        "bdd.collect_s": (span("bdd.collect", "kept_s"), "s"),
        "engines.propagate_bdd_calls": (
            span("engines.propagate_bdd", "calls"), "count"),
        "engines.propagate_bdd_s": (
            span("engines.propagate_bdd", "kept_s"), "s"),
        "engines.propagate_3v_calls": (
            span("engines.propagate_3v", "calls"), "count"),
        "engines.propagate_3v_s": (
            span("engines.propagate_3v", "kept_s"), "s"),
        "engines.fault3v_parallel_s": (
            span("engines.fault3v_parallel", "kept_s"), "s"),
        "engines.simulate_frame_s": (
            sum(span(name, "kept_s") for name in frames), "s"),
        "symbolic.step_calls": (span("symbolic.step", "calls"), "count"),
        "symbolic.step_aborted": (span("symbolic.step", "failed"), "count"),
        "symbolic.step_s": (step_s, "s"),
        "symbolic.aborted_s": (aborted_s, "s"),
        "symbolic.aborted_share": (
            aborted_s / step_s if step_s else 0.0, "ratio"),
        "symbolic.observe_calls": (
            span("symbolic.observe", "calls"), "count"),
        "symbolic.observe_s": (span("symbolic.observe", "kept_s"), "s"),
        "symbolic.frame_loop_s": (
            span("symbolic.hybrid", "kept_s")
            + span("runtime.campaign", "kept_s")
            + span("symbolic.step", "kept_s"), "s"),
        "sequences.deterministic_s": (
            span("sequences.deterministic", "kept_s"), "s"),
        "xred.idxred_s": (span("xred.idxred", "kept_s"), "s"),
        "xred.x_redundant": (count("x_redundant"), "count"),
        "runtime.demotions": (count("demotions"), "count"),
        "runtime.fallbacks": (count("fallbacks"), "count"),
        "runtime.frames_three_valued": (count("frames_three_valued"),
                                        "count"),
        "runtime.checkpoint_writes": (count("checkpoint_writes"), "count"),
        "runtime.checkpoint_s": (span("runtime.checkpoint", "kept_s"), "s"),
        "audit.run_s": (span("audit.run", "kept_s"), "s"),
        "audit.confirmed": (count("audit_confirmed"), "count"),
        "audit.inconclusive": (count("audit_inconclusive"), "count"),
        "trace.wall_s": (traced.seconds, "s"),
        "trace.overhead_s": (traced.seconds - plain.seconds, "s"),
    }
    return {name: {"value": v, "unit": u} for name, (v, u) in values.items()}


#: time metrics compared to name the dominant layer of a traced pass
DOMINANCE_CANDIDATES = (
    "engines.propagate_bdd_s",
    "engines.propagate_3v_s",
    "engines.simulate_frame_s",
    "engines.fault3v_parallel_s",
    "symbolic.observe_s",
    "symbolic.aborted_s",
    "symbolic.frame_loop_s",
    "bdd.rename_s",
    "bdd.collect_s",
    "sequences.deterministic_s",
    "xred.idxred_s",
    "runtime.checkpoint_s",
    "audit.run_s",
)


def run_traced(workloads, workload, seed, circuits=None, workdir=OUT):
    """One untraced and one traced pass; returns the result object."""
    from tracing import SpanRecorder, Tracing

    prepared = workloads.set_up(workload, seed, circuits)
    with SpeedSampler() as plain:
        plain_rows = workloads.run_pass(workload, prepared, workdir)

    recorder = SpanRecorder()
    tracing = Tracing(recorder)
    try:
        with SpeedSampler() as traced:
            rows = workloads.run_pass(workload, prepared, workdir, recorder)
    finally:
        tracing.remove()

    table = recorder.summary()
    metrics = layer_metrics(table, recorder.kernel, rows, traced, plain)
    traced_wall = metrics["trace.wall_s"]["value"]
    same = [r.fingerprint() for r in rows] == [
        r.fingerprint() for r in plain_rows
    ]
    summary = summarize_rows(rows)
    failed = summary["failed"] + summarize_rows(plain_rows)["failed"]

    print(f"workload {workload.name}: seed {seed}, traced pass of "
          f"{len(rows)} rows, {len(recorder)} spans; raw wall "
          f"{plain.wall:.3f} s untraced, {traced.wall:.3f} s traced")
    print_rows(rows)
    print(f"  {'span (raw s)':<28}{'calls':>9}{'failed':>8}{'total_s':>10}"
          f"{'self_s':>10}{'kept_s':>10}{'kept%':>7}")
    for name, entry in sorted(table.items(), key=lambda kv: -kv[1]["kept_s"]):
        share = 100.0 * entry["kept_s"] / traced.wall
        print(f"  {name:<28}{entry['calls']:>9}{entry['failed']:>8}"
              f"{entry['total_s']:>10.3f}{entry['self_s']:>10.3f}"
              f"{entry['kept_s']:>10.3f}{share:>7.1f}")
    attributed = (
        sum(entry["kept_s"] for entry in table.values())
        + table["symbolic.step"]["failed_s"]
    )
    print(f"  kept_s of all spans plus aborted steps: "
          f"{100.0 * attributed / traced.wall:.1f}% of the traced pass")
    for name, entry in metrics.items():
        print_metric(name, entry["value"], entry["unit"])
    ranked = sorted(DOMINANCE_CANDIDATES,
                    key=lambda name: -metrics[name]["value"])
    print("dominant: " + ", ".join(
        f"{name} {100.0 * metrics[name]['value'] / traced_wall:.1f}%"
        for name in ranked[:4]
    ) + " of traced wall")
    counts = dict(summary)
    counts.update((name, entry["value"]) for name, entry in metrics.items())
    print("exact counts: " + json.dumps(
        {name: counts[name] for name in EXACT_COUNTS}, sort_keys=True))
    if not same:
        print("FAILED: the traced pass changed row outcomes")

    os.makedirs(workdir, exist_ok=True)
    recorder.write(
        os.path.join(workdir, f"spans-{workload.name}.json"),
        {"workload": workload.name, "seed": seed, "wall_s": traced.wall},
    )
    return {
        "correct": same and failed == 0,
        "attempted": len(rows) + len(plain_rows),
        "failed": failed,
        "metrics": metrics,
    }


def main(argv=None):
    args = parse_args(argv)
    if not os.path.isfile(os.path.join(SRC, "repro", "__init__.py")):
        print(f"error: no repro sources under {SRC}", file=sys.stderr)
        return 2
    sys.path.insert(0, SRC)
    import workloads

    workload = workloads.WORKLOADS.get(args.workload)
    if workload is None:
        print(f"error: unknown workload {args.workload!r}; choose from "
              f"{', '.join(workloads.WORKLOADS)}", file=sys.stderr)
        return 2
    resource.setrlimit(resource.RLIMIT_AS, (MEMORY_CAP, MEMORY_CAP))
    os.makedirs(OUT, exist_ok=True)
    if args.trace:
        result = run_traced(workloads, workload, args.seed)
    else:
        result = run_untraced(workloads, workload, args.seed, args.seconds)
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
