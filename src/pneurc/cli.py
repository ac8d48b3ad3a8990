"""Command-line interface.

Subcommands: generate, train, evaluate, simulate, sweep, bench. Every
command is driven by one ExperimentConfig (JSON via --config, defaults
otherwise); --seed and --out override the corresponding config fields.

Exit codes: 0 success, 1 usage error, 2 data or spec error, 3 numeric or
state failure.

Wall-clock measurements (bench and sweep timings) land in separate
``*_timing`` files; every other CSV/JSON output is a pure function of the
config and seed and reproduces byte for byte.
"""
from __future__ import annotations

import argparse
import dataclasses
import json
import os
import sys

from . import control, training
from .config import ExperimentConfig, MODEL_KINDS
from .datasets import Dataset, generate_dataset
from .errors import (InvalidDataError, InvalidSpecError, NumericError,
                     PneurcError, ResourceError, StateError)
from .esn import EsnTrainer, TrainedEsn
from .fprc import FprcModel, FprcTrainer


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


def _ensure_parent(path: str) -> None:
    parent = os.path.dirname(path)
    if parent:
        os.makedirs(parent, exist_ok=True)


def _write_json(path: str, payload: dict) -> None:
    _ensure_parent(path)
    with open(path, "w", encoding="ascii", newline="\n") as fh:
        json.dump(payload, fh, indent=2, sort_keys=True)
        fh.write("\n")


def _dataset_paths(cfg: ExperimentConfig, reverse: bool) -> tuple[str, str]:
    """(training path, evaluation path); --reverse swaps their roles."""
    train_path, test_path = cfg.train_data_path(), cfg.test_data_path()
    return (test_path, train_path) if reverse else (train_path, test_path)


def _load_dataset(path: str) -> Dataset:
    if not os.path.exists(path):
        raise InvalidDataError(f"dataset {path} not found; run 'pneurc generate' first")
    return Dataset.load_csv(path)


def _trainer(cfg: ExperimentConfig, kind: str):
    if kind == "esn":
        return EsnTrainer(cfg.esn_params(), alpha=cfg.model.alpha)
    if kind == "fprc":
        return FprcTrainer(cfg.fprc_params(), seed=cfg.seed, reservoir_features=True)
    if kind == "fuzzy-linear":
        return FprcTrainer(cfg.fprc_params(), seed=cfg.seed, reservoir_features=False)
    raise InvalidSpecError(f"unknown model kind {kind!r}")


def _load_model(cfg: ExperimentConfig, kind: str, artifact: str | None):
    path = artifact or cfg.model_artifact_path(kind)
    if not os.path.exists(path):
        raise InvalidDataError(f"model artifact {path} not found; run 'pneurc train' first")
    return TrainedEsn.load(path) if kind == "esn" else FprcModel.load(path)


def cmd_generate(args, cfg: ExperimentConfig) -> int:
    train_ex = cfg.signals.train_excitation.render(cfg.dt)
    test_ex = cfg.signals.test_excitation.render(cfg.dt)
    k_in = cfg.fprc_params().k_in
    limit = cfg.plant.reservoir.input_range
    train_ds = generate_dataset(train_ex, cfg.build_actuator(), cfg.build_reservoir(),
                                k_in, limit)
    test_ds = generate_dataset(test_ex, cfg.build_actuator(), cfg.build_reservoir(),
                               k_in, limit)
    for ds, path in ((train_ds, cfg.train_data_path()), (test_ds, cfg.test_data_path())):
        _ensure_parent(path)
        ds.save_csv(path)
        print(f"wrote {path} ({len(ds)} rows)")
    return 0


def cmd_train(args, cfg: ExperimentConfig) -> int:
    kind = args.model or cfg.model.kind
    train_ds = _load_dataset(_dataset_paths(cfg, args.reverse)[0])
    trainer = _trainer(cfg, kind)
    model, report = training.kfold_cv(train_ds, trainer, k=cfg.cv_folds)
    artifact = cfg.model_artifact_path(kind)
    _ensure_parent(artifact)
    model.save(artifact)
    report_path = os.path.join(cfg.out_dir, "models", f"{kind}_cv")
    _write_json(report_path + ".json", report.to_dict())
    report.to_csv(report_path + ".csv")
    print(f"trained {kind}: best fold {report.best_index} "
          f"(e_train={report.folds[report.best_index].e_train:.4f} kPa, "
          f"e_val={report.folds[report.best_index].e_val:.4f} kPa)")
    print(f"wrote {artifact}")
    return 0


def cmd_evaluate(args, cfg: ExperimentConfig) -> int:
    kind = args.model or cfg.model.kind
    eval_ds = _load_dataset(_dataset_paths(cfg, args.reverse)[1])
    model = _load_model(cfg, kind, args.model_artifact)
    yhat, y = model.evaluate(eval_ds)
    e = training.rmse(yhat, y)
    payload = {"model": kind, "rmse_kpa": e, "n_rows": int(len(y)),
               "dataset": ("train" if args.reverse else "test"),
               "reverse": bool(args.reverse)}
    path = os.path.join(cfg.out_dir, "reports",
                        f"evaluate_{kind}{'_reverse' if args.reverse else ''}.json")
    _write_json(path, payload)
    print(f"{kind} RMSE on {payload['dataset']} dataset: {e:.4f} kPa")
    print(f"wrote {path}")
    return 0


def cmd_simulate(args, cfg: ExperimentConfig) -> int:
    model = _load_model(cfg, "fprc", args.model_artifact)
    if model.kind != "fprc":
        raise InvalidSpecError("the scenario suite drives the reservoir-backed model")
    gains = cfg.controller_gains()
    scenarios = tuple(args.scenario) if args.scenario else control.SCENARIO_NAMES
    log_dir = os.path.join(cfg.out_dir, "reports", "runlogs")
    os.makedirs(log_dir, exist_ok=True)
    logs = {}
    for scenario in scenarios:
        ref = cfg.signals.scenarios[scenario].render(cfg.dt)
        spec = cfg.disturbance_spec() if scenario == "disturbance" else None
        for method in control.METHOD_NAMES:
            actuator = cfg.build_actuator()
            ff = model.feedforward(cfg.build_reservoir()) if method != "pd" else None
            if method == "fprc":
                log = control.run_open_loop(ref, ff, actuator, gains, disturbance=spec,
                                            scenario=scenario, method=method)
            else:
                log = control.run_closed_loop(ref, ff, actuator, gains, disturbance=spec,
                                              scenario=scenario, method=method)
            logs[(method, scenario)] = log
            log.to_csv(os.path.join(log_dir, f"{scenario}_{method.replace('+', '_')}.csv"))
    table = control.tracking_report(logs)
    payload = {"tracking_rmse_deg": table}
    if "disturbance" in scenarios:
        payload["disturbance"] = {
            method: control.disturbance_window_rmse(
                logs[(method, "disturbance")], cfg.disturbance_spec().window)
            for method in control.METHOD_NAMES if (method, "disturbance") in logs}
    payload["clamp_steps"] = {f"{m}/{s}": logs[(m, s)].clamp_steps for (m, s) in sorted(logs)}
    report_path = os.path.join(cfg.out_dir, "reports", "tracking")
    _write_json(report_path + ".json", payload)
    control.report_to_csv(table, report_path + ".csv")
    for method in control.METHOD_NAMES:
        row = " ".join(f"{s}={table[method][s]:.3f}" for s in control.REPORT_SCENARIOS)
        print(f"{method:8s} tracking RMSE [deg]: {row}")
    print(f"wrote {report_path}.json")
    return 0


def cmd_sweep(args, cfg: ExperimentConfig) -> int:
    train_ds, test_ds = map(_load_dataset, _dataset_paths(cfg, args.reverse))
    values = args.values
    if values is not None and args.axis in ("clusters", "taps"):
        values = [int(v) for v in values]
    result = training.run_sweep(args.axis, values, cfg, train_ds, test_ds, k=cfg.cv_folds)
    base = os.path.join(cfg.out_dir, "reports", f"sweep_{args.axis}")
    _ensure_parent(base + ".csv")
    result.to_csv(base + ".csv", include_timings=False)
    _write_json(base + ".json", result.to_dict(include_timings=False))
    result.to_csv(base + "_timing.csv", include_timings=True)
    n_failed = sum(1 for c in result.cells if c.status != "ok")
    print(f"sweep {args.axis}: {len(result.cells)} cells, {n_failed} failed")
    print(f"wrote {base}.csv")
    return 0


def cmd_bench(args, cfg: ExperimentConfig) -> int:
    train_ds, test_ds = map(_load_dataset, _dataset_paths(cfg, args.reverse))
    metrics, timing = {}, {}
    for kind in ("esn", "fprc", "fuzzy-linear"):
        result = training.benchmark_execution(_trainer(cfg, kind), train_ds, test_ds,
                                              repetitions=cfg.bench_repetitions)
        metrics[kind] = result.metrics_dict()
        timing[kind] = result.timing_dict()
        print(f"{kind:12s} e_test={result.e_test:7.3f} kPa  "
              f"train {result.train_time_mean * 1e3:8.1f} ms  "
              f"test {result.test_time_mean * 1e3:8.1f} ms")
    report_dir = os.path.join(cfg.out_dir, "reports")
    _write_json(os.path.join(report_dir, "bench_metrics.json"), metrics)
    _write_json(os.path.join(report_dir, "bench_timing.json"), timing)
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
    except (InvalidSpecError, InvalidDataError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except (NumericError, StateError, ResourceError) as exc:
        print(f"numeric failure: {exc}", file=sys.stderr)
        return 3
    except PneurcError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except FileNotFoundError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
