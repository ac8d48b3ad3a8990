"""The benchmark's three workloads and the output check.

Each workload drives pneurc the way a user does, through
``pneurc.cli.main([...])`` in this process, writing into a temporary
output directory. All are closed-loop batch jobs: each command starts
when the previous one ends. An operation is one CLI command or one
closed-loop run; it fails if it raises, exits non-zero, or its outputs
differ from the committed reference values.

Why these workloads:

- ``identify``: generate, then train and evaluate fprc and fuzzy-linear.
  FCM, the per-rule weighted ridge, feature assembly and CSV reads do the
  work. No control loop and no ESN.
- ``track``: simulate, 5 scenarios x 3 methods, from an fprc artifact
  made in set-up. Per-tick plant steps, one-row fuzzy inference and
  run-log CSV writes do the work. No FCM or ridge in the timed part.
- ``esn``: train and evaluate the 800-unit ESN on a 30 s excitation, then
  one ESN+PD closed loop. The 800x800 mat-vec dominates, and the ridge
  solves are few and wide (dim 806) where identify's are many and narrow.

FCM stops when the largest centre shift falls below ``fcm_tol``. With the
default tolerance the iteration count swings from 62 to 300 per fit
with the seed, and the train time with it, so a timing would measure the
seed more than the code. identify and track therefore pin every FCM fit
to exactly ``FCM_ITERATIONS`` iterations (a tolerance no fit reaches in
that many). track trains its set-up artifact with ``TRACK_SETUP_FOLDS``
folds, which keeps the repeated set-up short; its timed part does not
depend on how the artifact was fitted. Every other config value is the
default.
"""
from __future__ import annotations

import contextlib
import io
import json
import os
import statistics
import time
from dataclasses import dataclass, field

FCM_ITERATIONS = 150
FCM_UNREACHABLE_TOL = 1e-12
TRACK_SETUP_FOLDS = 2
ESN_TRAIN_SECONDS = 30.0
ESN_LOOP_SCENARIO = "sine05"
REL_TOL = 1e-6


@dataclass
class Op:
    """One operation: its name, seconds, outputs, and the error if any."""

    name: str
    seconds: float
    outputs: dict = field(default_factory=dict)
    error: str | None = None


def _count_rows(path) -> int:
    with open(path, "rb") as fh:
        return sum(1 for _ in fh) - 1


def _read_json(path) -> dict:
    with open(path, "r", encoding="ascii") as fh:
        return json.load(fh)


def run_cli(name: str, argv: list, outputs) -> Op:
    """Run one CLI command in-process and read its outputs afterwards.

    The command's own prints are captured so that the benchmark's last
    stdout line stays its result. Only the command is timed.
    """
    import pneurc.cli  # looked up per call so that trace wrappers apply

    out, err = io.StringIO(), io.StringIO()
    t0 = time.perf_counter()
    try:
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            rc = pneurc.cli.main(argv)
    except Exception as exc:  # noqa: BLE001 - an op that raises is counted, not fatal
        return Op(name, time.perf_counter() - t0, error=f"raised {type(exc).__name__}: {exc}")
    seconds = time.perf_counter() - t0
    if rc != 0:
        return Op(name, seconds, error=f"exit code {rc}: {err.getvalue().strip()}")
    try:
        return Op(name, seconds, outputs=outputs())
    except (OSError, ValueError, KeyError, TypeError) as exc:
        return Op(name, seconds, error=f"outputs unreadable: {exc}")


def _write_config(path, edit) -> str:
    from pneurc.config import ExperimentConfig

    doc = ExperimentConfig().to_dict()
    edit(doc)
    with open(path, "w", encoding="ascii", newline="\n") as fh:
        json.dump(doc, fh, indent=2, sort_keys=True)
    ExperimentConfig.from_json(path)  # config load, part of set-up
    return os.path.abspath(path)


def _pin_fcm(doc: dict) -> None:
    doc["model"]["fprc"]["fcm_tol"] = FCM_UNREACHABLE_TOL
    doc["model"]["fprc"]["fcm_max_iter"] = FCM_ITERATIONS


def _args(config: str, seed: int, out: str, *command) -> list:
    return ["--config", config, "--seed", str(seed), "--out", out, *command]


def _generate(config, seed, out) -> Op:
    def outputs():
        return {"train_rows": _count_rows(os.path.join(out, "data", "train.csv")),
                "test_rows": _count_rows(os.path.join(out, "data", "test.csv"))}
    return run_cli("generate", _args(config, seed, out, "generate"), outputs)


def _train(config, seed, out, kind) -> Op:
    def outputs():
        report = _read_json(os.path.join(out, "models", f"{kind}_cv.json"))
        return {"folds": len(report["folds"]), "best_index": report["best_index"]}
    return run_cli(f"train.{kind}", _args(config, seed, out, "train", "--model", kind), outputs)


def _evaluate(config, seed, out, kind) -> Op:
    def outputs():
        report = _read_json(os.path.join(out, "reports", f"evaluate_{kind}.json"))
        return {"rows": report["n_rows"], "test_rmse_kpa": report["rmse_kpa"]}
    return run_cli(f"evaluate.{kind}", _args(config, seed, out, "evaluate", "--model", kind),
                   outputs)


def _seconds(passes, prefix) -> float:
    """Mean seconds per pass of the ops whose name starts with ``prefix``."""
    return statistics.fmean(sum(op.seconds for op in p if op.name.startswith(prefix))
                            for p in passes)


def _output(passes, name, key):
    return next(op.outputs[key] for op in passes[0] if op.name == name)


class Workload:
    """Base of the three workloads.

    ``edit`` changes the config document after the workload's own edits;
    the self-test uses it to shorten the inputs.
    """

    name = ""

    def __init__(self, edit=None):
        self.edit = edit

    def _config(self, work_dir: str, own_edit) -> str:
        def edit(doc):
            own_edit(doc)
            if self.edit is not None:
                self.edit(doc)
        return _write_config(os.path.join(work_dir, "config.json"), edit)


class Identify(Workload):
    name = "identify"

    def setup(self, seed: int, work_dir: str) -> tuple[dict, list]:
        return {"config": self._config(work_dir, _pin_fcm)}, []

    def run_pass(self, seed: int, state: dict, out: str) -> list:
        config = state["config"]
        ops = [_generate(config, seed, out)]
        for kind in ("fprc", "fuzzy-linear"):
            ops.append(_train(config, seed, out, kind))
        for kind in ("fprc", "fuzzy-linear"):
            ops.append(_evaluate(config, seed, out, kind))
        return ops

    def report(self, passes) -> list:
        return [("train_s", _seconds(passes, "train."), "s"),
                ("test_rmse_kpa", _output(passes, "evaluate.fprc", "test_rmse_kpa"), "kPa")]


class Track(Workload):
    name = "track"

    def setup(self, seed: int, work_dir: str) -> tuple[dict, list]:
        def edit(doc):
            _pin_fcm(doc)
            doc["cv_folds"] = TRACK_SETUP_FOLDS
        config = self._config(work_dir, edit)
        ops = [_generate(config, seed, work_dir), _train(config, seed, work_dir, "fprc")]
        return {"config": config,
                "artifact": os.path.join(work_dir, "models", "fprc.json")}, ops

    def run_pass(self, seed: int, state: dict, out: str) -> list:
        def outputs():
            report = _read_json(os.path.join(out, "reports", "tracking.json"))
            log_dir = os.path.join(out, "reports", "runlogs")
            rows = {f[:-4]: _count_rows(os.path.join(log_dir, f))
                    for f in sorted(os.listdir(log_dir))}
            return {"tracking_rmse_deg": report["tracking_rmse_deg"], "runlog_rows": rows}
        argv = _args(state["config"], seed, out, "simulate",
                     "--model-artifact", state["artifact"])
        return [run_cli("simulate", argv, outputs)]

    def report(self, passes) -> list:
        from pneurc.control import REPORT_SCENARIOS

        ticks = sum(_output(passes, "simulate", "runlog_rows").values())
        table = _output(passes, "simulate", "tracking_rmse_deg")
        rmse = statistics.fmean(table["fprc+pd"][s] for s in REPORT_SCENARIOS)
        return [("ticks_per_s", ticks / _seconds(passes, "simulate"), "1/s"),
                ("tracking_rmse_deg", rmse, "deg")]


class Esn(Workload):
    name = "esn"

    def setup(self, seed: int, work_dir: str) -> tuple[dict, list]:
        def edit(doc):
            doc["signals"]["train_excitation"]["duration"] = ESN_TRAIN_SECONDS
            doc["train_data"] = os.path.abspath(os.path.join(work_dir, "data", "train.csv"))
            doc["test_data"] = os.path.abspath(os.path.join(work_dir, "data", "test.csv"))
        config = self._config(work_dir, edit)
        return {"config": config}, [_generate(config, seed, work_dir)]

    def run_pass(self, seed: int, state: dict, out: str) -> list:
        config = state["config"]
        ops = [_train(config, seed, out, "esn"), _evaluate(config, seed, out, "esn")]
        ops.append(self._closed_loop(config, os.path.join(out, "models", "esn.npz")))
        return ops

    @staticmethod
    def _closed_loop(config: str, artifact: str) -> Op:
        from pneurc import control
        from pneurc.config import ExperimentConfig
        from pneurc.esn import TrainedEsn

        t0 = time.perf_counter()
        try:
            cfg = ExperimentConfig.from_json(config)
            ff = TrainedEsn.load(artifact).feedforward()
            ref = cfg.signals.scenarios[ESN_LOOP_SCENARIO].render(cfg.dt)
            log = control.run_closed_loop(ref, ff, cfg.build_actuator(), cfg.controller_gains(),
                                          scenario=ESN_LOOP_SCENARIO, method="esn+pd")
        except Exception as exc:  # noqa: BLE001 - an op that raises is counted, not fatal
            return Op("run.esn_pd", time.perf_counter() - t0,
                      error=f"raised {type(exc).__name__}: {exc}")
        return Op("run.esn_pd", time.perf_counter() - t0,
                  outputs={"ticks": len(log), "tracking_rmse_deg": log.tracking_rmse()})

    def report(self, passes) -> list:
        rows = _output(passes, "evaluate.esn", "rows")
        ticks = _output(passes, "run.esn_pd", "ticks")
        return [("train_s", _seconds(passes, "train."), "s"),
                ("replay_steps_per_s", rows / _seconds(passes, "evaluate.esn"), "1/s"),
                ("ticks_per_s", ticks / _seconds(passes, "run.esn_pd"), "1/s"),
                ("test_rmse_kpa", _output(passes, "evaluate.esn", "test_rmse_kpa"), "kPa"),
                ("tracking_rmse_deg", _output(passes, "run.esn_pd", "tracking_rmse_deg"),
                 "deg")]


WORKLOAD_TYPES = (Identify, Track, Esn)


def _mismatches(got, want, path="") -> list:
    """Differences between an op's outputs and its reference values.

    Integers and strings must match exactly; floats within REL_TOL of the
    reference, which survives BLAS blocking but not a wrong answer.
    """
    if isinstance(want, dict):
        if not isinstance(got, dict) or set(got) != set(want):
            return [f"{path or 'outputs'}: keys {sorted(got) if isinstance(got, dict) else got}"
                    f" != {sorted(want)}"]
        return [m for k in sorted(want) for m in _mismatches(got[k], want[k], f"{path}.{k}")]
    if isinstance(want, float):
        ok = isinstance(got, (int, float)) and abs(got - want) <= REL_TOL * max(abs(want), 1e-12)
    else:
        ok = type(got) is type(want) and got == want
    return [] if ok else [f"{path}: {got!r} != reference {want!r}"]


def check_ops(ops: list, reference: dict | None) -> list:
    """Mark ops that fail the output check; returns messages for every failure.

    With no reference (a configuration that has none committed), only
    errors count.
    """
    messages = []
    for op in ops:
        if op.error is None and reference is not None:
            want = reference.get(op.name)
            diffs = ["no reference value"] if want is None else _mismatches(op.outputs, want)
            if diffs:
                op.error = "output check: " + "; ".join(diffs)
        if op.error is not None:
            messages.append(f"{op.name}: {op.error}")
    return messages
