"""Post-hoc trace analysis behind ``repro profile``.

Reads a JSONL trace produced by ``--trace`` (single-process campaign
or merged fabric trace), validates it, and reports:

* **hot faults** — the faults that consumed the most BDD allocation
  effort (``fault`` spans, emitted once per fault with its strategy,
  frame counts and node effort),
* **time per strategy** — wall seconds (wall traces) and frame-step
  counts per ladder rung and execution mode (``step`` spans),
* **cache-hit-rate trajectory** — the computed-table hit rate over
  campaign progress (``metrics`` samples),
* **pressure/demotion timeline** — every pressure action, demotion,
  quarantine and budget stop, in order,
* **failpoints** — on chaos runs (``--failpoints`` /
  ``REPRO_FAILPOINTS``), every injected-failure fire counted by site
  and reconciled against the summary's ``failpoints_fired``,
* **reconciliation** — event counts checked *exactly* against the
  campaign's own summary record; any mismatch means the trace is
  lying about the run and is reported loudly.
"""

import json

from repro.obs.schema import TraceSchemaError, validate_record

#: summary keys reconciled against trace-derived totals (when present
#: in both; the merged fabric summary omits coordinator-side counters
#: such as checkpoint writes, which have no trace events).
RECONCILE_KEYS = (
    "demotions",
    "quarantined",
    "fallbacks",
    "gc_runs",
    "detected",
    "checkpoints_written",
    "pressure_events",
    "failpoints_fired",
)

_TIMELINE_EVENTS = (
    "pressure", "demote", "quarantine", "budget", "audit-refuted",
    "disk",
)


def read_trace(path):
    """Load and validate a trace file; return the record list."""
    records = []
    with open(path, "r", encoding="utf-8") as handle:
        for line_no, line in enumerate(handle, 1):
            line = line.strip()
            if not line:
                continue
            try:
                record = json.loads(line)
            except ValueError as exc:
                raise TraceSchemaError(line_no, f"invalid JSON: {exc}")
            records.append(validate_record(record, line_no))
    if not records:
        raise TraceSchemaError(0, "empty trace file")
    return records


def profile_trace(path, top=10):
    """Analyze the trace at *path*; return a JSON-ready profile dict."""
    records = read_trace(path)
    header = records[0] if records[0].get("kind") == "trace-header" else None

    faults = []
    strategy = {}
    trajectory = []
    timeline = []
    truncated = 0
    summary = None
    fabric = None
    failpoint_sites = {}  # site -> fired count (chaos runs only)
    audit_counts = {}  # classification -> audit-fault span count
    audit_summary = None  # the runner's audit-summary event
    totals = {
        "demotions": 0,
        "quarantined": 0,
        "fallbacks": 0,
        "gc_runs": 0,
        "detected": 0,
        "checkpoints_written": 0,
        "pressure_events": 0,
        "failpoints_fired": 0,
        "disk_events": 0,
    }

    for record in records:
        kind = record.get("kind")
        name = record.get("name")
        if kind == "span":
            if name == "fault":
                faults.append(record)
            elif name == "step":
                key = f"{record.get('rung', '?')}/{record.get('mode', '?')}"
                bucket = strategy.setdefault(
                    key, {"steps": 0, "seconds": 0.0, "timed": False}
                )
                bucket["steps"] += 1
                if "dur" in record:
                    bucket["seconds"] += record["dur"]
                    bucket["timed"] = True
            elif name == "prepass-3v":
                totals["detected"] += record.get("detected", 0)
            elif name == "shard":
                truncated += record.get("trace_dropped", 0) or 0
            elif name == "audit-fault":
                cls = record.get("classification", "?")
                audit_counts[cls] = audit_counts.get(cls, 0) + 1
        elif kind == "event":
            if name == "detect":
                totals["detected"] += 1
            elif name == "demote":
                totals["demotions"] += 1
            elif name == "quarantine":
                totals["quarantined"] += 1
            elif name == "fallback":
                totals["fallbacks"] += 1
            elif name == "gc":
                totals["gc_runs"] += 1
            elif name == "checkpoint":
                totals["checkpoints_written"] += 1
            elif name == "pressure":
                totals["pressure_events"] += 1
            elif name == "disk":
                totals["disk_events"] += 1
            elif name == "failpoint":
                totals["failpoints_fired"] += 1
                site = record["site"]
                failpoint_sites[site] = failpoint_sites.get(site, 0) + 1
            elif name == "fabric":
                fabric = {
                    k: v for k, v in record.items()
                    if k not in ("kind", "name", "seq", "parent", "ts")
                }
            elif name == "audit-summary":
                audit_summary = {
                    k: v for k, v in record.items()
                    if k not in ("kind", "name", "seq", "parent", "ts")
                }
            if name in _TIMELINE_EVENTS:
                timeline.append(_timeline_entry(record))
        elif kind == "metrics":
            if name in ("sample", "final"):
                trajectory.append(_trajectory_point(record))
        elif kind == "summary":
            if record.get("parent") is None:
                summary = {
                    k: v for k, v in record.items()
                    if k not in ("kind", "seq", "parent")
                }

    for bucket in strategy.values():
        bucket["seconds"] = (
            round(bucket["seconds"], 6) if bucket.pop("timed") else None
        )
    faults.sort(
        key=lambda r: (-(r.get("nodes") or 0),
                       -(r.get("frames_symbolic") or 0),
                       str(r.get("fault")))
    )
    hot = [
        {
            key: record.get(key)
            for key in ("fault", "nodes", "frames_symbolic", "frames_3v",
                        "rung", "state", "shard")
            if record.get(key) is not None
        }
        for record in faults[:top]
    ]

    audit = None
    if audit_summary is not None or audit_counts:
        audit = {
            "summary": audit_summary,
            "spans": dict(sorted(audit_counts.items())),
        }

    reconciliation = _reconcile(
        totals, summary, truncated, audit_counts, audit_summary
    )
    return {
        "source": (header or {}).get("source", "campaign"),
        "records": len(records),
        "truncated_records": truncated,
        "hot_faults": hot,
        "strategy": dict(sorted(strategy.items())),
        "cache_trajectory": [p for p in trajectory if p is not None],
        "timeline": timeline,
        "totals": totals,
        "summary": summary,
        "fabric": fabric,
        "failpoints": dict(sorted(failpoint_sites.items())),
        "audit": audit,
        "reconciliation": reconciliation,
    }


def _timeline_entry(record):
    entry = {"event": record["name"]}
    for key in ("frame", "fault", "from", "to", "reason", "action",
                "rung", "budget_kind", "shard", "freed", "observed",
                "limit", "records_before", "records_after",
                "checkpoint_every"):
        if key in record:
            entry[key] = record[key]
    if "ts" in record:
        entry["ts"] = record["ts"]
    return entry


def _trajectory_point(record):
    values = record.get("values", {})
    hits = values.get("bdd.cache_hits")
    misses = values.get("bdd.cache_misses")
    if hits is None and misses is None:
        return None
    hits = hits or 0
    misses = misses or 0
    lookups = hits + misses
    point = {
        "frame": values.get("campaign.frame"),
        "hits": hits,
        "misses": misses,
        "rate": round(hits / lookups, 4) if lookups else None,
    }
    if "shard" in record:
        point["shard"] = record["shard"]
    return point


def _reconcile(totals, summary, truncated, audit_counts=None,
               audit_summary=None):
    """Exact cross-check of trace-derived totals vs the summary record."""
    if summary is None:
        return {"ok": False, "reason": "no summary record", "mismatches": {}}
    if truncated:
        return {
            "ok": False,
            "reason": f"{truncated} shard trace records truncated; "
                      "totals are a lower bound",
            "mismatches": {},
        }
    mismatches = {}
    for key in RECONCILE_KEYS:
        if key not in summary or key not in totals:
            continue
        expected = summary[key]
        if expected is None:
            continue
        if totals[key] != expected:
            mismatches[key] = {"trace": totals[key], "summary": expected}
    _reconcile_audit(mismatches, audit_counts, audit_summary)
    return {"ok": not mismatches, "mismatches": mismatches}


def _reconcile_audit(mismatches, audit_counts, audit_summary):
    """Audit-fault spans must add up to the audit-summary event.

    A no-op when the trace carries no audit records at all; a summary
    without spans (or vice versa) is a mismatch like any other.
    """
    if not audit_counts and audit_summary is None:
        return
    if audit_summary is None:
        mismatches["audit"] = {
            "trace": sum(audit_counts.values()), "summary": None,
        }
        return
    derived = {
        "confirmed": audit_counts.get("confirmed", 0),
        "refuted": audit_counts.get("refuted", 0),
        "extraction_failed": audit_counts.get(
            "witness-extraction-failed", 0
        ),
        "inconclusive": sum(
            count
            for cls, count in audit_counts.items()
            if cls.startswith("inconclusive-")
        ),
    }
    for key, traced in derived.items():
        expected = audit_summary.get(key)
        if expected is None:
            continue
        if traced != expected:
            mismatches[f"audit.{key}"] = {
                "trace": traced, "summary": expected,
            }


def render_profile(profile, width=72):
    """Human-readable report for a :func:`profile_trace` result."""
    lines = []
    push = lines.append
    push("=" * width)
    push(f"trace profile · source={profile['source']} · "
         f"{profile['records']} records")
    push("=" * width)

    if profile["truncated_records"]:
        push(f"!! {profile['truncated_records']} records truncated in "
             "worker traces — totals are lower bounds")

    summary = profile.get("summary")
    if summary:
        bits = []
        for key in ("stopped", "frames_total", "detected", "total_faults",
                    "peak_nodes"):
            if key in summary:
                bits.append(f"{key}={summary[key]}")
        push("summary: " + ", ".join(bits))

    push("")
    push("time per strategy (rung/mode):")
    for key, bucket in profile["strategy"].items():
        seconds = bucket["seconds"]
        timing = f"{seconds:10.3f}s" if seconds is not None else "   (no wall)"
        push(f"  {key:<16} {bucket['steps']:6d} steps {timing}")
    if not profile["strategy"]:
        push("  (no step spans)")

    push("")
    push("hot faults (by node effort):")
    for entry in profile["hot_faults"]:
        where = f" shard={entry['shard']}" if "shard" in entry else ""
        push(f"  {str(entry.get('fault')):<28} nodes={entry.get('nodes', 0):>8}"
             f" frames={entry.get('frames_symbolic', 0)}"
             f"+{entry.get('frames_3v', 0)}x3v"
             f" state={entry.get('state', '?')}{where}")
    if not profile["hot_faults"]:
        push("  (no fault spans)")

    trajectory = profile["cache_trajectory"]
    push("")
    push("cache-hit-rate trajectory:")
    if trajectory:
        shown = trajectory if len(trajectory) <= 8 else (
            trajectory[:4] + trajectory[-4:]
        )
        for point in shown:
            rate = point["rate"]
            rate_text = f"{rate * 100:6.2f}%" if rate is not None else "     —"
            frame = point.get("frame")
            where = f" shard={point['shard']}" if "shard" in point else ""
            push(f"  frame={frame!s:<6} hits={point['hits']:>10} "
                 f"misses={point['misses']:>10} rate={rate_text}{where}")
        if len(trajectory) > 8:
            push(f"  ... ({len(trajectory) - 8} samples elided)")
    else:
        push("  (no metrics samples)")

    push("")
    push("pressure / demotion timeline:")
    for entry in profile["timeline"][:40]:
        bits = [f"{k}={v}" for k, v in entry.items() if k != "event"]
        push(f"  {entry['event']:<11} " + " ".join(bits))
    if len(profile["timeline"]) > 40:
        push(f"  ... ({len(profile['timeline']) - 40} entries elided)")
    if not profile["timeline"]:
        push("  (quiet run: no pressure, demotions or budget stops)")

    audit = profile.get("audit")
    if audit:
        push("")
        push("audit:")
        s = audit.get("summary")
        if s:
            push(f"  {s.get('mode', '?')} mode, seed {s.get('seed', '?')}"
                 f": {s.get('confirmed', 0)} confirmed, "
                 f"{s.get('refuted', 0)} refuted, "
                 f"{s.get('inconclusive', 0)} inconclusive, "
                 f"{s.get('extraction_failed', 0)} extraction-failed")
            for name in s.get("refuted_faults") or ():
                push(f"  REFUTED {name}")
        for cls, count in audit["spans"].items():
            push(f"  spans {cls:<32} {count}")

    if profile.get("failpoints"):
        push("")
        push("failpoints fired (chaos run):")
        for site, count in profile["failpoints"].items():
            push(f"  {site:<36} {count}")

    push("")
    rec = profile["reconciliation"]
    if rec["ok"]:
        push("reconciliation: OK — trace events match campaign accounting")
    elif rec.get("reason"):
        push(f"reconciliation: SKIPPED — {rec['reason']}")
    else:
        push("reconciliation: MISMATCH")
        for key, pair in rec["mismatches"].items():
            push(f"  {key}: trace={pair['trace']} summary={pair['summary']}")
    push("=" * width)
    return "\n".join(lines)
