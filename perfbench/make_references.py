"""Regenerate references.json: the outputs of every operation of every
workload for each CLI seed the benchmark uses.

    python3 perfbench/make_references.py

Run it only when a change to pneurc is meant to change these outputs, and
say so in that change; the benchmark's output check compares against this
file.
"""
from __future__ import annotations

import json
import os
import shutil
import sys
import tempfile

import run


def main() -> int:
    run._import_pneurc()
    from workloads import REL_TOL, WORKLOAD_TYPES

    seeds = {}
    os.makedirs(run.TMP_ROOT, exist_ok=True)
    for seed in range(run.REFERENCE_SEEDS):
        seeds[str(seed)] = {}
        for workload_type in WORKLOAD_TYPES:
            workload = workload_type()
            work = tempfile.mkdtemp(prefix=f"ref-{workload.name}-", dir=run.TMP_ROOT)
            try:
                state, ops = workload.setup(seed, work)
                ops += workload.run_pass(seed, state, os.path.join(work, "pass"))
            finally:
                shutil.rmtree(work, ignore_errors=True)
            errors = [f"{op.name}: {op.error}" for op in ops if op.error]
            if errors:
                print(f"seed {seed} {workload.name}: " + "; ".join(errors), file=sys.stderr)
                return 1
            seeds[str(seed)][workload.name] = {op.name: op.outputs for op in ops}
            print(f"seed {seed} {workload.name}: {len(ops)} ops", flush=True)
    os.rmdir(run.TMP_ROOT)
    doc = {"rel_tol": REL_TOL, "seeds": seeds}
    with open(os.path.join(run.HERE, "references.json"), "w", encoding="ascii",
              newline="\n") as fh:
        json.dump(doc, fh, indent=1, sort_keys=True)
        fh.write("\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
