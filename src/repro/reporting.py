"""Fault-simulation result reporting: text summaries and JSON export.

The paper reports three nested coverage figures; a report makes the
nesting explicit:

* **proved coverage** — faults the conventional three-valued SOT flow
  detects (the guaranteed lower bound everybody computes),
* **symbolic coverage** — plus the faults the symbolic SOT/rMOT/MOT
  passes detect,
* **undetectability** — with an exact MOT run, the remaining faults are
  *proved* undetectable by this sequence (not merely unclassified).
"""

import json

from repro.faults.status import (
    BY_3V,
    BY_MOT,
    BY_RMOT,
    BY_SOT,
    DETECTED,
    UNDETECTED,
    X_REDUNDANT,
)


def _format_bytes(n):
    """Human-readable binary size: 1536 → '1.5K', 512 → '512'."""
    value = float(n)
    for unit in ("", "K", "M", "G", "T"):
        if abs(value) < 1024 or unit == "T":
            text = f"{value:.1f}".rstrip("0").rstrip(".")
            return f"{text}{unit}"
        value /= 1024


class CoverageReport:
    """Summary of a (possibly multi-stage) fault-simulation run."""

    def __init__(self, compiled, fault_set, sequence_length=None,
                 exact_mot=False, runtime_info=None):
        self.compiled = compiled
        self.fault_set = fault_set
        self.sequence_length = sequence_length
        self.exact_mot = exact_mot
        # optional CampaignResult.runtime_summary() dict: stop reason,
        # budgets, degradation and checkpoint accounting
        self.runtime_info = runtime_info

    # ------------------------------------------------------------------
    def by_strategy(self):
        """Detected-fault count per detecting strategy."""
        counts = {BY_3V: 0, BY_SOT: 0, BY_RMOT: 0, BY_MOT: 0}
        for record in self.fault_set.detected():
            counts[record.detected_by] = counts.get(
                record.detected_by, 0
            ) + 1
        return counts

    def summary(self):
        counts = self.fault_set.counts()
        strategies = self.by_strategy()
        total = counts["total"]
        conventional = strategies.get(BY_3V, 0)
        symbolic_extra = counts["detected"] - conventional
        payload = {
            "total_faults": total,
            "detected": counts["detected"],
            "undetected": counts["undetected"],
            "x_redundant_remaining": counts["x_redundant"],
            "quarantined": counts["quarantined"],
            "coverage": counts["detected"] / total if total else 0.0,
            "conventional_detected": conventional,
            "symbolic_extra_detected": symbolic_extra,
            "detected_by": strategies,
            "sequence_length": self.sequence_length,
            "exact_mot": self.exact_mot,
        }
        if self.runtime_info is not None:
            payload["runtime"] = self.runtime_info
        return payload

    # ------------------------------------------------------------------
    def render(self):
        s = self.summary()
        lines = [
            f"fault coverage report"
            + (f" (|T| = {s['sequence_length']})"
               if s["sequence_length"] else ""),
            f"  faults total:             {s['total_faults']}",
            f"  detected:                 {s['detected']}"
            f"  ({100 * s['coverage']:.1f}%)",
            f"    by 3-valued SOT:        {s['conventional_detected']}",
        ]
        for name in (BY_SOT, BY_RMOT, BY_MOT):
            if s["detected_by"].get(name):
                lines.append(
                    f"    by symbolic {name}:".ljust(28)
                    + f"{s['detected_by'][name]}"
                )
        lines.append(
            f"  unclassified:             "
            f"{s['undetected'] + s['x_redundant_remaining']}"
        )
        if s["quarantined"]:
            lines.append(
                f"  quarantined:              {s['quarantined']}"
            )
        if self.exact_mot:
            lines.append(
                "  (exact MOT run: every unclassified fault is PROVED "
                "undetectable by this sequence)"
            )
        if self.runtime_info is not None:
            r = self.runtime_info
            lines.append(
                f"  campaign: {r['stopped']} after {r['frames_total']} "
                f"frames ({r['frames_symbolic']} symbolic, "
                f"{r['frames_three_valued']} three-valued)"
            )
            demotions_text = str(r["demotions"])
            reasons = r.get("demotion_reasons")
            if r["demotions"] and reasons:
                demotions_text += " (" + ", ".join(
                    f"{name} {count}" for name, count in reasons.items()
                ) + ")"
            lines.append(
                f"    fallbacks {r['fallbacks']}, demotions "
                f"{demotions_text}, gc runs {r['gc_runs']}, "
                f"checkpoints {r['checkpoints_written']}"
            )
            if r.get("resumed_from") is not None:
                lines.append(
                    f"    resumed from frame {r['resumed_from']}"
                )
            pressure = r.get("pressure")
            if pressure is not None:
                detail = []
                for key in ("cache_evictions", "rss_surrenders"):
                    if pressure.get(key):
                        detail.append(f"{key.replace('_', ' ')} "
                                      f"{pressure[key]}")
                if pressure.get("peak_rss"):
                    detail.append(
                        f"peak rss {_format_bytes(pressure['peak_rss'])}"
                    )
                lines.append(
                    f"  pressure: {pressure.get('events', 0)} events"
                    + (" (" + ", ".join(detail) + ")" if detail else "")
                )
            audit = r.get("audit")
            if audit is not None:
                lines.append(
                    f"  audit ({audit['mode']}): "
                    f"{audit['confirmed']} confirmed, "
                    f"{audit['refuted']} refuted, "
                    f"{audit['inconclusive']} inconclusive, "
                    f"{audit['extraction_failed']} extraction-failed "
                    f"({100 * audit['sampled_fraction']:.1f}% of "
                    f"detections audited)"
                )
                for name in audit.get("refuted_faults") or ():
                    lines.append(f"    REFUTED {name}")
                if not audit["ok"]:
                    lines.append(
                        "    AUDIT FAILED: campaign verdicts are "
                        "unsound (refuted faults quarantined)"
                    )
            fabric = r.get("fabric")
            if fabric is not None:
                lines.append(
                    f"  fabric: {fabric['workers']} workers, "
                    f"{fabric['shards_completed']}/"
                    f"{fabric['shards_planned']} shards"
                )
                detail = []
                for key in ("retries", "respawns", "bisections",
                            "timeouts", "quarantined_by_crash",
                            "rss_recycles"):
                    if fabric.get(key):
                        detail.append(f"{key.replace('_', ' ')} "
                                      f"{fabric[key]}")
                if fabric.get("peak_worker_rss"):
                    detail.append(
                        "peak worker rss "
                        f"{_format_bytes(fabric['peak_worker_rss'])}"
                    )
                if fabric.get("resumed_shards"):
                    detail.append(
                        f"resumed shards {fabric['resumed_shards']}"
                    )
                if detail:
                    lines.append("    " + ", ".join(detail))
        return "\n".join(lines)

    def to_json(self):
        payload = self.summary()
        payload["faults"] = [
            {
                "fault": record.fault.describe(self.compiled),
                "status": record.status,
                "detected_by": record.detected_by,
                "detected_at": record.detected_at,
            }
            for record in self.fault_set
        ]
        return json.dumps(payload, indent=2)


def coverage_report(compiled, fault_set, sequence=None, exact_mot=False,
                    runtime_info=None):
    """Build a :class:`CoverageReport`."""
    length = len(sequence) if sequence is not None else None
    return CoverageReport(compiled, fault_set, length, exact_mot,
                          runtime_info=runtime_info)
