"""The benchmark's calls into pneurc, on shortened inputs.

``perfbench/workloads.py`` drives pneurc through its CLI and its library
API. Each workload here sets up and runs one untraced pass on a few
seconds of signal, so a change that breaks a call the benchmark makes
fails this suite, and ``perfbench/tracing.py``'s probes are looked up as
a traced pass installs them, so that removing a probed function does too.
Both modules are loaded from their files and not changed.
"""
import importlib.util
import math
import pathlib
import sys

import pytest

PERFBENCH = pathlib.Path(__file__).resolve().parents[1] / "perfbench"


def _load(name):
    spec = importlib.util.spec_from_file_location(f"perfbench_{name}", PERFBENCH / f"{name}.py")
    module = importlib.util.module_from_spec(spec)
    sys.modules[spec.name] = module  # its dataclasses look their module up
    spec.loader.exec_module(module)
    return module


workloads = _load("workloads")
tracing = _load("tracing")

# probes of functions that no longer exist, which a traced pass reports as
# absent; the benchmark's own revision re-points them
ABSENT_PROBES = {"pneurc.datasets.actuator_step", "pneurc.control.actuator_step",
                 "pneurc.datasets.reservoir_step", "pneurc.fprc.reservoir_step",
                 "pneurc.fprc.FprcFeedforward.step", "pneurc.esn.EsnFeedforward.step"}


def shorten(doc: dict) -> None:
    """A few seconds of signal per record and a 40-unit ESN (the edit
    ``perfbench/selftest.py`` makes)."""
    signals = doc["signals"]
    signals["train_excitation"]["duration"] = 4.0
    signals["test_excitation"]["duration"] = 3.0
    for spec in signals["scenarios"].values():
        spec["duration"] = 1.0
    signals["scenarios"]["disturbance"]["duration"] = 3.0
    doc["disturbance"].update(t_start=2.2, t_end=2.8)
    doc["model"]["esn"].update(reservoir_size=40, washout=20)


@pytest.mark.parametrize("workload_type", workloads.WORKLOAD_TYPES, ids=lambda w: w.name)
def test_workload_runs_without_failed_ops(tmp_path, workload_type):
    workload = workload_type(edit=shorten)
    work_dir = tmp_path / "setup"
    work_dir.mkdir()
    state, setup_ops = workload.setup(0, str(work_dir))
    pass_ops = workload.run_pass(0, state, str(tmp_path / "pass"))
    assert pass_ops
    assert workloads.check_ops(setup_ops + pass_ops, None) == []
    for name, value, _ in workload.report([pass_ops]):
        assert math.isfinite(value), name


def test_every_probe_target_resolves_but_the_known_absent():
    with tracing.Instrumentation(tracing.Tracer(), tracing.PROBES) as installed:
        absent = set(installed.absent)
        resolved = set(installed.originals)
    assert absent == ABSENT_PROBES
    assert len(resolved) == len(tracing.PROBES) - len(ABSENT_PROBES)
