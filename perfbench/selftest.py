"""Self-test of the benchmark on shortened inputs.

    python3 perfbench/selftest.py

Checks that every metric BENCHMARK.json names is emitted with its unit;
that the wrappers are removed after a traced run, so that untraced runs
see the original function objects; that a missing wrapper target is
reported absent and does not fail the run; that spans are written out;
that the output check accepts a BLAS-sized difference and refuses a wrong
answer; that temporary output directories are removed; and that the
benchmark refuses to run without the pneurc sources. Exits non-zero on the
first failed check.
"""
from __future__ import annotations

import contextlib
import importlib
import json
import os
import shutil
import subprocess
import sys
import tempfile

import run

REPORT_METRICS = {
    "identify": {"train_s", "test_rmse_kpa", "error_rate"},
    "track": {"ticks_per_s", "tracking_rmse_deg", "error_rate"},
    "esn": {"train_s", "replay_steps_per_s", "ticks_per_s", "test_rmse_kpa",
            "tracking_rmse_deg", "error_rate"},
}


def shorten(doc: dict) -> None:
    """A few seconds of signal per record and a 40-unit ESN."""
    signals = doc["signals"]
    signals["train_excitation"]["duration"] = 4.0
    signals["test_excitation"]["duration"] = 3.0
    for spec in signals["scenarios"].values():
        spec["duration"] = 1.0
    signals["scenarios"]["disturbance"]["duration"] = 3.0
    doc["disturbance"].update(t_start=2.2, t_end=2.8)
    doc["model"]["esn"].update(reservoir_size=40, washout=20)


def _expect(ok: bool, what: str) -> None:
    if not ok:
        sys.exit(f"selftest FAILED: {what}")
    print(f"ok  {what}")


def _targets(probes) -> dict:
    out = {}
    for probe in probes:
        owner = importlib.import_module(probe.module)
        if probe.cls:
            out[probe.target] = vars(getattr(owner, probe.cls))[probe.attr]
        else:
            out[probe.target] = getattr(owner, probe.attr)
    return out


def _tmp_entries() -> set:
    return set(os.listdir(run.TMP_ROOT)) if os.path.isdir(run.TMP_ROOT) else set()


def _units(result) -> dict:
    return {name: unit for name, (_, unit) in result["metrics"].items()}


def main() -> int:
    with open(os.path.join(run.ROOT, "BENCHMARK.json"), encoding="ascii") as fh:
        bench = json.load(fh)
    end_to_end = {m["name"]: m["unit"] for m in bench["end_to_end"]}
    per_layer = {m["name"]: m["unit"] for m in bench["per_layer"]}
    root_before, tmp_before = set(os.listdir(run.ROOT)), _tmp_entries()

    run._import_pneurc()
    from tracing import PROBES, Probe
    from workloads import WORKLOAD_TYPES, Esn, Identify

    originals = _targets(PROBES)
    runs = {}
    for workload_type in WORKLOAD_TYPES:
        workload = workload_type(edit=shorten)
        name = workload.name
        plain = runs[name] = run.run_workload(workload, 0, 0.0, False, None)
        _expect(plain["correct"] and plain["failed"] == 0, f"{name}: untraced run succeeds")
        _expect(_units(plain) == end_to_end, f"{name}: every end-to-end metric, with its unit")
        reported = {metric for metric, _, _ in plain["report"]}
        _expect(REPORT_METRICS[name] <= reported,
                f"{name}: report lines {sorted(REPORT_METRICS[name])}")

        reference = {op.name: op.outputs for op in plain["ops"]}
        again = run.run_workload(workload, 0, 0.0, False, reference)
        _expect(again["correct"], f"{name}: outputs repeat and pass the reference check")
        traced = run.run_workload(workload, 0, 0.0, True, reference)
        _expect(traced["correct"], f"{name}: traced run passes the same check")
        _expect(_units(traced) == per_layer, f"{name}: every per-layer metric, with its unit")
        _expect(traced["metrics"]["trace.absent"][0] == 0, f"{name}: no absent target")
        _expect(all(_targets(PROBES)[t] is obj for t, obj in originals.items()),
                f"{name}: wrappers removed after the traced run")

    esn = Esn(edit=shorten)
    nudged = {op.name: dict(op.outputs) for op in runs["esn"]["ops"]}
    nudged["evaluate.esn"]["test_rmse_kpa"] *= 1.0 + 1e-9
    _expect(run.run_workload(esn, 0, 0.0, False, nudged)["correct"],
            "a 1e-9 relative difference passes the check")
    nudged["evaluate.esn"]["test_rmse_kpa"] *= 1.0 + 1e-4
    wrong = run.run_workload(esn, 0, 0.0, False, nudged)
    _expect(not wrong["correct"] and wrong["failed"] >= 1,
            "a 1e-4 relative difference fails the check and counts as a failed op")

    missing = PROBES + (Probe("pneurc.fuzzy", "no_such_function", "fuzzy.missing"),
                        Probe("pneurc.no_such_module", "f", "missing.module"),
                        Probe("pneurc.fprc", "step", "missing.cls", cls="NoSuchClass"))
    os.makedirs(run.TMP_ROOT, exist_ok=True)
    spans = os.path.join(tempfile.mkdtemp(prefix="spans-", dir=run.TMP_ROOT), "spans.csv")
    absent = run.run_workload(Identify(edit=shorten), 0, 0.0, True, None,
                              probes=missing, spans_path=spans)
    _expect(absent["correct"] and absent["metrics"]["trace.absent"][0] == 3,
            "missing wrapper targets are reported absent and do not fail the run")
    with open(spans, encoding="ascii") as fh:
        header, first = fh.readline(), fh.readline()
    shutil.rmtree(os.path.dirname(spans))
    _expect(header.startswith("id,parent,name,start_s,end_s") and first.startswith("0,-1,cli."),
            "spans written out at the end, root span first")
    _expect(all(_targets(PROBES)[t] is obj for t, obj in originals.items()),
            "wrappers removed after a run with absent targets")

    os.makedirs(run.TMP_ROOT, exist_ok=True)
    bare = tempfile.mkdtemp(prefix="bare-", dir=run.TMP_ROOT)
    try:
        shutil.copy(os.path.join(run.ROOT, "BENCHMARK.json"), bare)
        shutil.copytree(run.HERE, os.path.join(bare, "perfbench"),
                        ignore=shutil.ignore_patterns("__pycache__"))
        proc = subprocess.run([sys.executable, "perfbench/run.py", "--workload", "identify",
                               "--seed", "0", "--seconds", "1", "--trace", "0"],
                              cwd=bare, capture_output=True, text=True, timeout=180,
                              check=False)
    finally:
        shutil.rmtree(bare)
        with contextlib.suppress(OSError):
            os.rmdir(run.TMP_ROOT)
    _expect(proc.returncode != 0 and "correct" not in proc.stdout,
            "without the pneurc sources the benchmark exits non-zero and prints no result")

    _expect(_tmp_entries() <= tmp_before, "temporary output directories removed")
    held = {os.path.basename(run.TMP_ROOT)} if _tmp_entries() else set()  # by another run
    _expect(set(os.listdir(run.ROOT)) - root_before <= held,
            "no new files at the checkout root")
    print("selftest passed")
    return 0


if __name__ == "__main__":
    sys.exit(main())
