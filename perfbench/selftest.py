"""Reduced-size self-test of the benchmark on ``s27``.

Runs every workload's pipeline on s27 (3 flip-flops, 12 vectors),
untraced and traced, and checks that

* every metric named in ``BENCHMARK.json`` is reported, and printed,
  with the unit declared there;
* the SOT/rMOT/MOT rows of the Table II pipeline detect exactly the
  faults the explicit-enumeration oracle (``repro.baselines.enumeration``)
  says each strategy detects;
* two traced runs at one seed give identical exact counts.

The oracle enumerates every pair of initial states, which is cheap at
three flip-flops but takes seconds per fault at eight, so it stays out
of the timed workloads.  Run from the root of a checkout::

    python3 perfbench/selftest.py
"""

import contextlib
import io
import json
import os
import sys

import run

CIRCUITS = [("s27", 12)]
SEED = 1


def captured(function, *args, **kwargs):
    """Call *function*; return (its result, what it printed)."""
    buffer = io.StringIO()
    with contextlib.redirect_stdout(buffer):
        result = function(*args, **kwargs)
    return result, buffer.getvalue()


def check_metrics(declared, result, printed, label, problems):
    for entry in declared:
        name, unit = entry["name"], entry["unit"]
        reported = result["metrics"].get(name)
        if reported is None:
            problems.append(f"{label}: metric {name} not reported")
        elif reported["unit"] != unit:
            problems.append(f"{label}: {name} reported in "
                            f"{reported['unit']}, declared {unit}")
        if not any(
            line.startswith(f"{name} = ") and f" {unit}" in line
            for line in printed.splitlines()
        ):
            problems.append(f"{label}: {name} not printed with unit {unit}")
    extra = set(result["metrics"]) - {entry["name"] for entry in declared}
    if extra:
        problems.append(f"{label}: undeclared metrics {sorted(extra)}")


def check_oracle(workloads, problems):
    from repro.baselines.enumeration import (
        mot_detectable,
        rmot_detectable,
        sot_detectable,
    )

    oracles = {
        "SOT": sot_detectable,
        "rMOT": rmot_detectable,
        "MOT": mot_detectable,
    }
    workload = workloads.WORKLOADS["table2-exact"]
    (item,) = workloads.set_up(workload, SEED, CIRCUITS)
    rows = workloads.run_table_circuit(workload, item)
    for strategy, row in zip(workload.strategies, rows):
        expected = {
            record.fault.key()
            for record in item.fault_set
            if oracles[strategy](item.compiled, item.sequence, record.fault)
        }
        if row.error is not None or row.detected_keys != expected:
            problems.append(
                f"oracle: {row.label} detected {row.detected} faults, "
                f"enumeration says {len(expected)} ({row.error or 'no error'})"
            )
        else:
            print(f"ok  {row.label}: {row.detected} detected, "
                  "matches enumeration")


def main():
    if not os.path.isfile(os.path.join(run.SRC, "repro", "__init__.py")):
        print(f"error: no repro sources under {run.SRC}", file=sys.stderr)
        return 2
    sys.path.insert(0, run.SRC)
    import workloads

    with open(os.path.join(run.ROOT, "BENCHMARK.json")) as handle:
        spec = json.load(handle)
    workdir = os.path.join(run.OUT, "selftest")
    os.makedirs(workdir, exist_ok=True)
    problems = []
    for entry in spec["workloads"]:
        workload = workloads.WORKLOADS[entry["name"]]
        result, printed = captured(
            run.run_untraced, workloads, workload, SEED, 0,
            circuits=CIRCUITS, workdir=workdir,
        )
        check_metrics(spec["end_to_end"], result, printed,
                      f"{workload.name} untraced", problems)
        counts = []
        for _ in range(2):
            result, printed = captured(
                run.run_traced, workloads, workload, SEED,
                circuits=CIRCUITS, workdir=workdir,
            )
            check_metrics(spec["per_layer"], result, printed,
                          f"{workload.name} traced", problems)
            counts.extend(
                line for line in printed.splitlines()
                if line.startswith("exact counts: ")
            )
        if len(counts) != 2 or counts[0] != counts[1]:
            problems.append(f"{workload.name}: exact counts differ between "
                            f"traced runs: {counts}")
        if not result["correct"]:
            problems.append(f"{workload.name}: traced run not correct")
        print(f"ok  {workload.name}: metrics and units as declared")
    check_oracle(workloads, problems)
    for problem in problems:
        print(f"FAIL {problem}")
    print("self-test " + ("failed" if problems else "passed"))
    return 1 if problems else 0


if __name__ == "__main__":
    sys.exit(main())
