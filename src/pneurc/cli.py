"""Command-line interface.

Subcommands: generate, train, evaluate, simulate, sweep, bench. Every
command is driven by one ExperimentConfig (JSON via --config, defaults
otherwise); --seed and --out override the corresponding config fields.

Exit codes: 0 success, 1 usage error, 2 data, spec or I/O error, 3 numeric,
state or resource failure; a ``PneurcError`` carries its own as ``exit_code``.

Wall-clock measurements (bench and sweep timings) land in separate
``*_timing`` files; every other CSV/JSON output is a pure function of the
config and seed and reproduces byte for byte.
"""
from __future__ import annotations

import argparse
import dataclasses
import functools
import math
import os
import sys

from . import control, training
from .config import ExperimentConfig, MODEL_KINDS
from .datasets import Dataset, generate_dataset
from .errors import InvalidDataError, InvalidSpecError, NumericError, PneurcError
from .parallel import fork_map
from .signals import write_json


class _UsageError(Exception):
    pass


class _Parser(argparse.ArgumentParser):
    def error(self, message):
        raise _UsageError(message)


def _build_parser() -> _Parser:
    p = _Parser(prog="pneurc", description="Hysteresis-compensation simulation testbed")
    p.add_argument("--config", metavar="PATH", help="experiment config JSON")
    p.add_argument("--seed", type=int, metavar="N", help="override the config seed")
    p.add_argument("--out", metavar="DIR", help="override the config output directory")
    p.add_argument("--reverse", action="store_true",
                   help="swap the roles of the training and test datasets")
    sub = p.add_subparsers(dest="command", required=True)

    sub.add_parser("generate", help="run the identification experiments and write datasets")

    tr = sub.add_parser("train", help="cross-validated training of one model")
    tr.add_argument("--model", choices=MODEL_KINDS, help="override the configured model kind")

    ev = sub.add_parser("evaluate", help="evaluate a trained model on the test dataset")
    ev.add_argument("--model", choices=MODEL_KINDS, help="override the configured model kind")
    ev.add_argument("--model-artifact", metavar="PATH", help="explicit artifact path")

    sim = sub.add_parser("simulate", help="run the tracking scenario suite")
    sim.add_argument("--model-artifact", metavar="PATH", help="trained fprc artifact path")
    sim.add_argument("--scenario", action="append", choices=control.SCENARIO_NAMES,
                     help="restrict to specific scenarios (repeatable)")

    sw = sub.add_parser("sweep", help="hyperparameter sweep along one axis")
    sw.add_argument("--axis", required=True, choices=("epsilon", "clusters", "taps"))
    sw.add_argument("--values", metavar="V", nargs="+", type=float,
                    help="override the default grid values")

    sub.add_parser("bench", help="execution-time benchmark of all model kinds")
    return p


def _load_config(args) -> ExperimentConfig:
    cfg = ExperimentConfig.from_json(args.config) if args.config else ExperimentConfig.default()
    updates = {}
    if args.seed is not None:
        updates["seed"] = args.seed
    if args.out is not None:
        updates["out_dir"] = args.out
    if updates:
        cfg = dataclasses.replace(cfg, **updates)
    return cfg


def _dataset_paths(cfg: ExperimentConfig, reverse: bool) -> tuple[str, str]:
    """(training path, evaluation path); --reverse swaps their roles."""
    train_path, test_path = cfg.train_data_path(), cfg.test_data_path()
    return (test_path, train_path) if reverse else (train_path, test_path)


def _load_dataset(path: str) -> Dataset:
    if not os.path.exists(path):
        raise InvalidDataError(f"dataset {path} not found; run 'pneurc generate' first")
    return Dataset.load_csv(path)


def _write_dataset(cfg: ExperimentConfig, job) -> int:
    """Write the dataset of one (excitation, path) job; returns its row count."""
    excitation, path = job
    ds = generate_dataset(excitation.render(cfg.dt), cfg.build_actuator(),
                          cfg.build_reservoir(), cfg.fprc_params().k_in,
                          cfg.plant.reservoir.input_range)
    ds.save_csv(path)
    return len(ds)


def cmd_generate(args, cfg: ExperimentConfig) -> int:
    jobs = ((cfg.signals.train_excitation, cfg.train_data_path()),
            (cfg.signals.test_excitation, cfg.test_data_path()))
    # the two datasets are written at once, so they need two files
    if os.path.realpath(jobs[0][1]) == os.path.realpath(jobs[1][1]):
        raise InvalidSpecError(f"config train_data and test_data name one file, {jobs[0][1]}")
    for (_, path), rows in zip(jobs, fork_map(functools.partial(_write_dataset, cfg), jobs)):
        print(f"wrote {path} ({rows} rows)")
    return 0


def cmd_train(args, cfg: ExperimentConfig) -> int:
    kind = args.model or cfg.model.kind
    train_ds = _load_dataset(_dataset_paths(cfg, args.reverse)[0])
    trainer = cfg.trainer(kind)
    model, report = training.kfold_cv(train_ds, trainer, k=cfg.cv_folds)
    # the report makes models/, which the artifact shares and np.savez does not make
    report_path = os.path.join(cfg.out_dir, "models", f"{kind}_cv")
    write_json(report_path + ".json", report.to_dict())
    report.to_csv(report_path + ".csv")
    artifact = cfg.model_artifact_path(kind)
    model.save(artifact)
    print(f"trained {kind}: best fold {report.best_index} "
          f"(e_train={report.folds[report.best_index].e_train:.4f} kPa, "
          f"e_val={report.folds[report.best_index].e_val:.4f} kPa)")
    print(f"wrote {artifact}")
    return 0


def cmd_evaluate(args, cfg: ExperimentConfig) -> int:
    kind = args.model or cfg.model.kind
    eval_ds = _load_dataset(_dataset_paths(cfg, args.reverse)[1])
    model = cfg.load_model(kind, args.model_artifact)
    yhat, y = model.evaluate(eval_ds)
    e = training.rmse(yhat, y)
    if not math.isfinite(e):
        raise NumericError(f"RMSE of the {kind} model on the evaluation dataset is {e}")
    payload = {"model": kind, "rmse_kpa": e, "n_rows": int(len(y)),
               "dataset": ("train" if args.reverse else "test"),
               "reverse": bool(args.reverse)}
    path = os.path.join(cfg.out_dir, "reports",
                        f"evaluate_{kind}{'_reverse' if args.reverse else ''}.json")
    write_json(path, payload)
    print(f"{kind} RMSE on {payload['dataset']} dataset: {e:.4f} kPa")
    print(f"wrote {path}")
    return 0


def _simulate_scenario(cfg: ExperimentConfig, model, log_dir: str, scenario: str):
    """Run one scenario with every method and write its three run logs.

    Returns the (tracking RMSE, clamp steps) per (method, scenario) and, for the
    disturbance scenario alone, each method's ``disturbance_window_rmse``.
    """
    ref = cfg.signals.scenarios[scenario].render(cfg.dt)
    spec = cfg.disturbance_spec() if scenario == "disturbance" else None
    # the feedforward never reads the plant, so fprc and fprc+pd share one drive
    columns = model.feedforward(cfg.build_reservoir())(ref.values, ref.dt, spec)
    logs = []
    for method in control.METHOD_NAMES:
        ff = (lambda *_: columns) if method != "pd" else None
        run = control.run_open_loop if method == "fprc" else control.run_closed_loop
        logs.append(run(ref, ff, cfg.build_actuator(), cfg.controller_gains(),
                        disturbance=spec, scenario=scenario, method=method))
    control.write_run_logs(
        [os.path.join(log_dir, f"{scenario}_{method.replace('+', '_')}.csv")
         for method in control.METHOD_NAMES], logs)
    runs = {(log.method, scenario): (log.tracking_rmse(), log.clamp_steps) for log in logs}
    window = None if spec is None else {
        log.method: control.disturbance_window_rmse(log, spec.window) for log in logs}
    return runs, window


def cmd_simulate(args, cfg: ExperimentConfig) -> int:
    model = cfg.load_model("fprc", args.model_artifact)
    # a scenario named twice runs once: two workers must not write one file
    scenarios = tuple(dict.fromkeys(args.scenario or control.SCENARIO_NAMES))
    if "disturbance" in scenarios:
        # a window the run cannot cover fails here, before any scenario runs
        ref = cfg.signals.scenarios["disturbance"].render(cfg.dt)
        control.disturbance_windows(ref.times, cfg.disturbance_spec().window)
    log_dir = os.path.join(cfg.out_dir, "reports", "runlogs")
    results = dict(zip(scenarios, fork_map(
        functools.partial(_simulate_scenario, cfg, model, log_dir), scenarios)))
    runs = {key: run for scenario_runs, _ in results.values()
            for key, run in scenario_runs.items()}
    table = control.tracking_report({key: rmse for key, (rmse, _) in runs.items()})
    payload = {"tracking_rmse_deg": table}
    if "disturbance" in results:
        payload["disturbance"] = results["disturbance"][1]
    payload["clamp_steps"] = {f"{m}/{s}": clamps for (m, s), (_, clamps) in runs.items()}
    report_path = os.path.join(cfg.out_dir, "reports", "tracking")
    write_json(report_path + ".json", payload)
    control.report_to_csv(table, report_path + ".csv")
    for method in control.METHOD_NAMES:
        row = " ".join(f"{s}={table[method][s]:.3f}" for s in control.REPORT_SCENARIOS)
        print(f"{method:8s} tracking RMSE [deg]: {row}")
    print(f"wrote {report_path}.json")
    return 0


def cmd_sweep(args, cfg: ExperimentConfig) -> int:
    train_ds, test_ds = map(_load_dataset, _dataset_paths(cfg, args.reverse))
    result = training.run_sweep(args.axis, args.values, cfg, train_ds, test_ds, k=cfg.cv_folds)
    base = os.path.join(cfg.out_dir, "reports", f"sweep_{args.axis}")
    result.to_csv(base + ".csv", include_timings=False)
    write_json(base + ".json", result.to_dict())
    result.to_csv(base + "_timing.csv", include_timings=True)
    n_failed = sum(1 for c in result.cells if c.status != "ok")
    print(f"sweep {args.axis}: {len(result.cells)} cells, {n_failed} failed")
    print(f"wrote {base}.csv")
    return 0


def cmd_bench(args, cfg: ExperimentConfig) -> int:
    train_ds, test_ds = map(_load_dataset, _dataset_paths(cfg, args.reverse))
    metrics, timing = {}, {}
    for kind in ("esn", "fprc", "fuzzy-linear"):
        result = training.benchmark_execution(cfg.trainer(kind), train_ds, test_ds,
                                              repetitions=cfg.bench_repetitions)
        metrics[kind] = result.metrics_dict()
        timing[kind] = result.timing_dict()
        print(f"{kind:12s} e_test={result.e_test:7.3f} kPa  "
              f"train {result.train_time_mean * 1e3:8.1f} ms  "
              f"test {result.test_time_mean * 1e3:8.1f} ms")
    report_dir = os.path.join(cfg.out_dir, "reports")
    write_json(os.path.join(report_dir, "bench_metrics.json"), metrics)
    write_json(os.path.join(report_dir, "bench_timing.json"), timing)
    print(f"wrote {os.path.join(report_dir, 'bench_metrics.json')}")
    return 0


_COMMANDS = {"generate": cmd_generate, "train": cmd_train, "evaluate": cmd_evaluate,
             "simulate": cmd_simulate, "sweep": cmd_sweep, "bench": cmd_bench}


def main(argv=None) -> int:
    parser = _build_parser()
    try:
        args = parser.parse_args(argv)
    except _UsageError as exc:
        print(f"usage error: {exc}", file=sys.stderr)
        return 1
    try:
        cfg = _load_config(args)
        return _COMMANDS[args.command](args, cfg)
    except PneurcError as exc:
        prefix = "numeric failure" if exc.exit_code == 3 else "error"
        print(f"{prefix}: {exc}", file=sys.stderr)
        return exc.exit_code
    except OSError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
