"""Determinism check: exact counts must repeat between runs at one seed.

Runs the traced benchmark twice per workload at ``DETERMINISM_SEED``,
each time in a fresh interpreter with a different hash seed, and
compares the exact counts the runs print (detected, inexact_rows,
bdd.ite_calls, symbolic.step_aborted, runtime.demotions).  Any
mismatch is a benchmark failure (exit code 1).

``HELD_OUT_SEED`` was not used while the benchmark was tuned; a later
claim of a gain should also hold at that seed.  Run from the root of a
checkout::

    python3 perfbench/determinism.py [workload ...]
"""

import json
import os
import subprocess
import sys

from run import HERE, ROOT

DETERMINISM_SEED = 1
HELD_OUT_SEED = 20251017
WORKLOADS = ("table2-exact", "campaign-overflow", "table3-3v")


def exact_counts(workload, hash_seed):
    env = dict(os.environ, PYTHONHASHSEED=str(hash_seed))
    done = subprocess.run(
        [sys.executable, os.path.join(HERE, "run.py"),
         "--workload", workload, "--seed", str(DETERMINISM_SEED),
         "--seconds", "1", "--trace", "1"],
        cwd=ROOT, env=env, capture_output=True, text=True, timeout=600,
        check=True,
    )
    prefix = "exact counts: "
    for line in done.stdout.splitlines():
        if line.startswith(prefix):
            return json.loads(line[len(prefix):])
    raise RuntimeError(f"{workload}: the run printed no exact counts")


def main(argv):
    mismatches = 0
    for workload in argv or WORKLOADS:
        first = exact_counts(workload, 0)
        second = exact_counts(workload, 1)
        same = first == second
        mismatches += not same
        print(f"{'ok  ' if same else 'FAIL'} {workload} seed "
              f"{DETERMINISM_SEED}: {json.dumps(first, sort_keys=True)}"
              + ("" if same else f" vs {json.dumps(second, sort_keys=True)}"))
    return 1 if mismatches else 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
