"""End-to-end CLI behaviour with a reduced configuration."""
import dataclasses
import json
import math
import multiprocessing
import os
import pathlib
import shutil
import subprocess
import sys
import tempfile

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from pneurc import cli, errors, esn
from pneurc.cli import main
from pneurc.config import EsnConfig, ExperimentConfig, SignalsConfig
from pneurc.datasets import Dataset
from pneurc.signals import SIGNAL_KINDS


def small_config(out_dir: str) -> ExperimentConfig:
    """Default pipeline shrunk until every command runs in seconds."""
    base = ExperimentConfig.default()
    signals = SignalsConfig(
        train_excitation=dataclasses.replace(base.signals.train_excitation,
                                             duration=24.0),
        test_excitation=dataclasses.replace(base.signals.test_excitation,
                                            duration=12.0),
        scenarios={name: dataclasses.replace(spec, duration=d)
                   for (name, spec), d in zip(base.signals.scenarios.items(),
                                              (10.0, 4.0, 8.0, 10.0, 12.0))},
    )
    return dataclasses.replace(
        base,
        out_dir=out_dir,
        cv_folds=2,
        bench_repetitions=2,
        signals=signals,
        model=dataclasses.replace(base.model,
                                  esn=EsnConfig(reservoir_size=40, washout=20),
                                  fprc=dataclasses.replace(base.model.fprc, n_c=4)),
        disturbance=dataclasses.replace(base.disturbance, t_start=4.0, t_end=8.0),
    )


@pytest.fixture(scope="module")
def workspace(tmp_path_factory):
    """Config file plus generated datasets and a trained fprc artifact."""
    root = tmp_path_factory.mktemp("cli")
    out = root / "out"
    cfg = small_config(str(out))
    cfg_path = root / "config.json"
    cfg.to_json(cfg_path)
    assert main(["--config", str(cfg_path), "generate"]) == 0
    assert main(["--config", str(cfg_path), "train"]) == 0
    return {"cfg": cfg, "cfg_path": str(cfg_path), "out": out}


def test_generate_outputs(workspace):
    cfg = workspace["cfg"]
    train = Dataset.load_csv(cfg.train_data_path())
    test = Dataset.load_csv(cfg.test_data_path())
    assert len(train) == round(24.0 / cfg.dt)
    assert len(test) == round(12.0 / cfg.dt)
    assert np.all(train.theta >= 0.0) and np.all(train.theta <= 60.0)


def test_train_outputs(workspace):
    out = workspace["out"]
    assert (out / "models" / "fprc.json").exists()
    cv = json.loads((out / "models" / "fprc_cv.json").read_text())
    assert len(cv["folds"]) == 2
    assert 0 <= cv["best_index"] < 2
    lines = (out / "models" / "fprc_cv.csv").read_text().splitlines()
    assert lines[0].startswith("fold,")
    assert len(lines) == 3


def test_train_other_kinds(workspace):
    cfg_path, out = workspace["cfg_path"], workspace["out"]
    assert main(["--config", cfg_path, "train", "--model", "fuzzy-linear"]) == 0
    assert (out / "models" / "fuzzy-linear.json").exists()
    assert main(["--config", cfg_path, "train", "--model", "esn"]) == 0
    assert (out / "models" / "esn.npz").exists()


def test_evaluate(workspace):
    cfg_path, out = workspace["cfg_path"], workspace["out"]
    assert main(["--config", cfg_path, "evaluate"]) == 0
    report = json.loads((out / "reports" / "evaluate_fprc.json").read_text())
    assert report["model"] == "fprc"
    assert report["dataset"] == "test"
    assert np.isfinite(report["rmse_kpa"])
    assert main(["--config", cfg_path, "--reverse", "evaluate"]) == 0
    rev = json.loads((out / "reports" / "evaluate_fprc_reverse.json").read_text())
    assert rev["dataset"] == "train"
    assert rev["rmse_kpa"] != report["rmse_kpa"]


def _out_with(workspace, out, *files):
    """A fresh output directory holding copies of some of the workspace's files."""
    for name in files:
        (out / name).parent.mkdir(parents=True, exist_ok=True)
        shutil.copy(workspace["out"] / name, out / name)
    return ["--config", workspace["cfg_path"], "--out", str(out)]


def test_train_and_evaluate_default_to_fprc(workspace, tmp_path, capsys):
    args = _out_with(workspace, tmp_path / "out", "data/train.csv", "data/test.csv")
    assert main([*args, "train"]) == 0
    models = tmp_path / "out" / "models"
    assert sorted(p.name for p in models.iterdir()) == ["fprc.json", "fprc_cv.csv",
                                                         "fprc_cv.json"]
    explicit = _out_with(workspace, tmp_path / "explicit", "data/train.csv")
    assert main([*explicit, "train", "--model", "fprc"]) == 0
    assert (models / "fprc.json").read_bytes() == (
        tmp_path / "explicit" / "models" / "fprc.json").read_bytes()
    assert main([*args, "evaluate"]) == 0
    assert "fprc RMSE on test dataset" in capsys.readouterr().out
    report = json.loads((tmp_path / "out" / "reports" / "evaluate_fprc.json").read_text())
    assert report["model"] == "fprc"
    # evaluate reads models/fprc.json: without it, it names that file
    (models / "fprc.json").unlink()
    assert main([*args, "evaluate"]) == 2
    assert f"{models / 'fprc.json'} not found" in capsys.readouterr().err


@pytest.mark.parametrize("section, key, value, command", [
    (("model",), "kind", "fprc", "train"),
    (("model",), "kind", "esn", "evaluate"),
    (("signals", "scenarios", "sine05"), "unit", "deg", "simulate"),
    (("signals", "train_excitation"), "unit", "kPa", "generate"),
])
def test_config_holding_a_removed_key_exits_2_naming_it(workspace, tmp_path, capsys,
                                                       section, key, value, command):
    doc = json.loads(pathlib.Path(workspace["cfg_path"]).read_text())
    parent, name = _leaf_parent(doc, section)
    parent[name][key] = value
    cfg_path = tmp_path / "config.json"
    cfg_path.write_text(json.dumps(doc))
    out = tmp_path / "out"
    assert main(["--config", str(cfg_path), "--out", str(out), command]) == 2
    err = capsys.readouterr().err
    assert "Traceback" not in err
    assert f"config.{'.'.join(section)}: unknown fields ['{key}']" in err
    assert not out.exists()


def test_train_reads_only_the_training_dataset(workspace, tmp_path, capsys):
    args = _out_with(workspace, tmp_path / "out", "data/train.csv")
    assert main([*args, "train"]) == 0
    assert (tmp_path / "out" / "models" / "fprc.json").exists()
    # --reverse trains on the test record, which is the one missing here
    assert main([*args, "--reverse", "train"]) == 2
    assert "test.csv not found; run 'pneurc generate' first" in capsys.readouterr().err


def test_evaluate_reads_only_the_evaluation_dataset(workspace, tmp_path, capsys):
    args = _out_with(workspace, tmp_path / "out", "data/test.csv", "models/fprc.json")
    assert main([*args, "evaluate"]) == 0
    report = json.loads((tmp_path / "out" / "reports" / "evaluate_fprc.json").read_text())
    assert report["dataset"] == "test"
    assert main([*args, "--reverse", "evaluate"]) == 2
    assert "train.csv not found; run 'pneurc generate' first" in capsys.readouterr().err


def test_simulate_single_scenario(workspace):
    cfg_path, out = workspace["cfg_path"], workspace["out"]
    assert main(["--config", cfg_path, "simulate", "--scenario", "sine05"]) == 0
    logs = out / "reports" / "runlogs"
    for method_file in ("sine05_fprc.csv", "sine05_fprc_pd.csv", "sine05_pd.csv"):
        assert (logs / method_file).exists(), method_file
    tracking = json.loads((out / "reports" / "tracking.json").read_text())
    table = tracking["tracking_rmse_deg"]
    assert np.isfinite(table["fprc+pd"]["sine05"])
    assert table["fprc+pd"]["chirp"] is None  # not simulated this run
    assert "disturbance" not in tracking
    assert set(tracking["clamp_steps"]) == {"fprc/sine05", "fprc+pd/sine05",
                                            "pd/sine05"}
    csv_lines = (out / "reports" / "tracking.csv").read_text().splitlines()
    assert csv_lines[0] == "method,sine02,sine05,chirp,complex"
    assert len(csv_lines) == 4


def test_simulate_disturbance_block(workspace):
    cfg_path, out = workspace["cfg_path"], workspace["out"]
    assert main(["--config", cfg_path, "simulate", "--scenario", "disturbance"]) == 0
    tracking = json.loads((out / "reports" / "tracking.json").read_text())
    dist = tracking["disturbance"]
    for method in ("fprc", "fprc+pd", "pd"):
        assert {"clean_rmse", "disturbed_rmse", "n_perturbed_steps"} <= set(dist[method])
    # the disturbance targets the model's reservoir, so the pure-PD run
    # never sees a perturbed step
    assert dist["pd"]["n_perturbed_steps"] == 0
    assert dist["fprc+pd"]["n_perturbed_steps"] > 0


def test_sweep(workspace):
    cfg_path, out = workspace["cfg_path"], workspace["out"]
    assert main(["--config", cfg_path, "sweep", "--axis", "epsilon",
                 "--values", "0.01", "0.1"]) == 0
    base = out / "reports" / "sweep_epsilon"
    plain = (base.parent / "sweep_epsilon.csv").read_text().splitlines()
    assert len(plain) == 3
    assert "train_time_s" not in plain[0]
    timing = (base.parent / "sweep_epsilon_timing.csv").read_text().splitlines()
    assert "train_time_s" in timing[0]
    doc = json.loads((base.parent / "sweep_epsilon.json").read_text())
    assert [c["settings"]["epsilon"] for c in doc["cells"]] == [0.01, 0.1]
    assert all(c["status"] == "ok" for c in doc["cells"])


def _reject_constant(name):
    raise ValueError(f"{name} is not valid JSON")


def test_sweep_json_of_a_failed_cell_is_strict(workspace, tmp_path):
    args = _out_with(workspace, tmp_path / "out", "data/train.csv", "data/test.csv")
    assert main([*args, "sweep", "--axis", "epsilon", "--values", "0.01", "2.0"]) == 0
    text = (tmp_path / "out" / "reports" / "sweep_epsilon.json").read_text()
    doc = json.loads(text, parse_constant=_reject_constant)
    assert [c["status"] for c in doc["cells"]] == ["ok", "failed"]
    assert doc["cells"][1]["e_test"] is None


def test_evaluate_non_finite_rmse_exits_3(workspace, tmp_path, capsys):
    # finite weights, so the loader takes them, that overflow in the readout
    args = _out_with(workspace, tmp_path / "out", "data/test.csv")
    doc = json.loads((workspace["out"] / "models" / "fprc.json").read_text())
    doc["w_out"] = np.full(np.shape(doc["w_out"]), 1e308).tolist()
    path = tmp_path / "fprc.json"
    path.write_text(json.dumps(doc))
    with np.errstate(all="ignore"):
        assert main([*args, "evaluate", "--model-artifact", str(path)]) == 3
    err = capsys.readouterr().err
    assert "Traceback" not in err
    assert err.startswith("numeric failure: RMSE of the fprc model")
    assert not (tmp_path / "out" / "reports" / "evaluate_fprc.json").exists()


def test_simulate_runs_a_repeated_scenario_once(workspace, tmp_path, monkeypatch):
    # one scenario runs in this process and the whole suite in workers; a
    # scenario named twice must run once and write what it writes when named once
    calls = []
    run_scenario = cli._simulate_scenario

    def counted(*args):
        calls.append(args[-1])
        return run_scenario(*args)

    runs = {}
    for name, scenarios in (("twice", ["sine02", "sine02"]), ("once", ["sine02"]),
                            ("suite", [])):
        args = _out_with(workspace, tmp_path / name, "models/fprc.json")
        argv = [a for s in scenarios for a in ("--scenario", s)]
        with monkeypatch.context() as mp:
            if name == "twice":
                mp.setattr(cli, "_simulate_scenario", counted)
            assert main([*args, "simulate", *argv]) == 0
        reports = tmp_path / name / "reports"
        runs[name] = {str(p.relative_to(reports)): p.read_bytes()
                      for p in sorted(reports.rglob("*")) if p.is_file()}
    assert calls == ["sine02"]
    assert runs["twice"] == runs["once"]
    assert len(runs["once"]) == 5  # three run logs, tracking.json and tracking.csv
    for name in ("runlogs/sine02_fprc.csv", "runlogs/sine02_fprc_pd.csv",
                 "runlogs/sine02_pd.csv"):
        assert runs["suite"][name] == runs["once"][name], name


def test_simulate_numeric_failure_in_a_worker_exits_3(workspace, tmp_path, capsys):
    # with kp = kd = 1e308 the PD output kp*e + kd*(e - e_prev)/dt is inf - inf,
    # a NaN that the pressure clamp passes on to the actuator's step
    cfg = dataclasses.replace(workspace["cfg"], out_dir=str(tmp_path / "out"),
                              gains=dataclasses.replace(workspace["cfg"].gains,
                                                        pd_kp=1e308, pd_kd=1e308))
    cfg_path = tmp_path / "config.json"
    cfg.to_json(cfg_path)
    _out_with(workspace, tmp_path / "out", "models/fprc.json")
    assert main(["--config", str(cfg_path), "simulate"]) == 3
    err = capsys.readouterr().err
    assert "Traceback" not in err
    assert err.strip() == "numeric failure: plant input pressure must be finite, got nan"


def _unusable_disturbance_window(workspace, tmp_path):
    """CLI args of a config whose 3 s scenarios end before a 2 s settle time
    can leave a clean window ahead of the 0.5-1.5 s disturbance."""
    cfg = workspace["cfg"]
    cfg = dataclasses.replace(
        cfg, out_dir=str(tmp_path / "out"),
        signals=dataclasses.replace(cfg.signals, scenarios={
            name: dataclasses.replace(spec, duration=3.0)
            for name, spec in cfg.signals.scenarios.items()}),
        disturbance=dataclasses.replace(cfg.disturbance, t_start=0.5, t_end=1.5))
    cfg.to_json(tmp_path / "config.json")
    _out_with(workspace, tmp_path / "out", "models/fprc.json")
    return ["--config", str(tmp_path / "config.json")]


def test_simulate_rejects_an_unusable_disturbance_window_before_any_run(
        workspace, tmp_path, capsys):
    args = _unusable_disturbance_window(workspace, tmp_path)
    assert main([*args, "simulate"]) == 2
    err = capsys.readouterr().err
    assert err.strip() == "error: run does not cover both the clean and disturbed windows"
    assert not (tmp_path / "out" / "reports").exists()


def test_simulate_without_the_disturbance_scenario_ignores_its_window(workspace, tmp_path):
    args = _unusable_disturbance_window(workspace, tmp_path)
    assert main([*args, "simulate", "--scenario", "sine02"]) == 0
    assert (tmp_path / "out" / "reports" / "runlogs" / "sine02_pd.csv").is_file()


# every error class of the package, with the exit code the CLI returns for it
ERROR_EXIT_CODES = {
    errors.PneurcError: 2, errors.InvalidSpecError: 2, errors.InvalidDataError: 2,
    errors.DimensionError: 2, errors.DegenerateRangeError: 2, errors.NumericError: 3,
    errors.DegenerateClusteringError: 3, errors.StateError: 3, errors.ResourceError: 3,
}


def test_error_exit_codes_cover_every_error_class():
    classes = {c for c in vars(errors).values()
               if isinstance(c, type) and issubclass(c, errors.PneurcError)}
    assert classes == set(ERROR_EXIT_CODES)


@pytest.mark.parametrize("error, code", ERROR_EXIT_CODES.items(),
                         ids=[c.__name__ for c in ERROR_EXIT_CODES])
def test_every_error_class_exits_with_its_code(monkeypatch, capsys, error, code):
    def command(args, cfg):
        raise error("boom")

    monkeypatch.setitem(cli._COMMANDS, "generate", command)
    assert main(["generate"]) == code
    prefix = "numeric failure" if code == 3 else "error"
    assert capsys.readouterr().err == f"{prefix}: boom\n"


def test_train_of_an_oversized_reservoir_exits_3(workspace, tmp_path, capsys):
    cfg = workspace["cfg"]
    cfg = dataclasses.replace(cfg, out_dir=str(tmp_path / "out"), model=dataclasses.replace(
        cfg.model, esn=dataclasses.replace(cfg.model.esn, reservoir_size=30000)))
    cfg.to_json(tmp_path / "config.json")
    _out_with(workspace, tmp_path / "out", "data/train.csv")
    assert main(["--config", str(tmp_path / "config.json"), "train", "--model", "esn"]) == 3
    assert capsys.readouterr().err == ("numeric failure: reservoir_size 30000 needs more "
                                       "than 4 GiB for its recurrent matrix\n")


@pytest.mark.parametrize("kind, model, message", [
    ("fprc", {"n_y": 10 ** 9}, "4800 rows of 1000000000 taps need more than 4 GiB"),
    ("fprc", {"fprc": {"n_u": 10 ** 9}}, "4800 rows of 1000000000 taps need more than 4 GiB"),
    ("fuzzy-linear", {"n_y": 10 ** 9}, "4800 rows of 1000000000 taps need more than 4 GiB"),
    ("esn", {"n_y": 10 ** 9}, "4800 rows of 1000000041 extended-state values need more "
                              "than 4 GiB"),
], ids=["fprc-n_y", "fprc-n_u", "fuzzy-linear-n_y", "esn-n_y"])
def test_train_of_taps_over_the_memory_budget_exits_3(workspace, tmp_path, capsys, kind,
                                                      model, message):
    # refused from the sizes alone, before the tap rows are allocated
    doc = workspace["cfg"].to_dict()
    for key, value in model.items():
        if isinstance(value, dict):
            doc["model"][key].update(value)
        else:
            doc["model"][key] = value
    (tmp_path / "config.json").write_text(json.dumps(doc))
    _out_with(workspace, tmp_path / "out", "data/train.csv")
    assert main(["--config", str(tmp_path / "config.json"), "--out", str(tmp_path / "out"),
                 "train", "--model", kind]) == 3
    assert capsys.readouterr().err == f"numeric failure: {message}\n"
    assert not (tmp_path / "out" / "models").exists()


def test_artifact_of_rules_over_the_memory_budget_exits_3(workspace, tmp_path, capsys):
    # 6,000 rules over 8 taps: the collapse check of their centers is refused
    # from its size (4.9 GB) when the artifact loads
    doc = json.loads((workspace["out"] / "models" / "fprc.json").read_text())
    doc["centers"] = np.arange(48_000.0).reshape(6000, 8).tolist()
    doc["w_out"] = np.zeros((6000, 9)).tolist()
    bad = tmp_path / "fprc.json"
    bad.write_text(json.dumps(doc))
    args = _out_with(workspace, tmp_path / "out", "data/test.csv")
    for command in (["evaluate"], ["simulate", "--scenario", "sine05"]):
        assert main([*args, *command, "--model-artifact", str(bad)]) == 3, command
    err = capsys.readouterr().err
    assert err.count("numeric failure: the collapse check of 6000 centers of dimension 8 "
                     "needs more than 4 GiB") == 2
    assert not (tmp_path / "out" / "reports").exists()


def test_commands_leave_no_worker_running(workspace, tmp_path):
    args = _out_with(workspace, tmp_path / "out", "models/fprc.json")
    for command in (["generate"], ["simulate"], ["sweep", "--axis", "epsilon",
                                                  "--values", "0.01", "0.1"]):
        assert main([*args, *command]) == 0
        assert multiprocessing.active_children() == [], command


def test_generate_refuses_one_file_for_both_datasets(tmp_path, capsys):
    out = tmp_path / "out"
    cfg = dataclasses.replace(small_config(str(out)), test_data=str(out / "data" / "train.csv"))
    cfg_path = tmp_path / "config.json"
    cfg.to_json(cfg_path)
    assert main(["--config", str(cfg_path), "generate"]) == 2
    err = capsys.readouterr().err
    assert "Traceback" not in err
    assert "config train_data and test_data name one file" in err
    assert not out.exists()


@pytest.mark.parametrize("axis, value", [("taps", "1.5"), ("taps", "inf"),
                                         ("clusters", "nan"), ("clusters", "2.5"),
                                         ("clusters", "1e400")])
def test_sweep_non_integral_value_exits_2(workspace, tmp_path, capsys, axis, value):
    args = _out_with(workspace, tmp_path / "out", "data/train.csv", "data/test.csv")
    assert main([*args, "sweep", "--axis", axis, "--values", "2", value]) == 2
    err = capsys.readouterr().err
    assert "Traceback" not in err
    assert f"sweep axis '{axis}' takes integer values" in err
    assert not (tmp_path / "out" / "reports").exists()


def test_bench(workspace):
    cfg_path, out = workspace["cfg_path"], workspace["out"]
    assert main(["--config", cfg_path, "bench"]) == 0
    metrics = json.loads((out / "reports" / "bench_metrics.json").read_text())
    timing = json.loads((out / "reports" / "bench_timing.json").read_text())
    assert set(metrics) == set(timing) == {"esn", "fprc", "fuzzy-linear"}
    for kind in metrics:
        assert np.isfinite(metrics[kind]["e_test"])
        assert timing[kind]["per_step_us"] > 0.0
        assert timing[kind]["cpu_per_step_us"] > 0.0
        assert timing[kind]["repetitions"] == 2
    assert "per_step_us" not in json.dumps(metrics)
    assert "cpu_per_step_us" not in json.dumps(metrics)
    # the ESN replays in one process per chunk, FPRC and fuzzy-linear in one
    n_test = metrics["esn"]["n_test_steps"]
    assert timing["esn"]["replay_processes"] == len(esn._replay_spans(n_test))
    assert timing["fprc"]["replay_processes"] == timing["fuzzy-linear"]["replay_processes"] == 1


def test_seed_override_changes_artifact(tmp_path):
    cfg = small_config(str(tmp_path / "out"))
    cfg_path = tmp_path / "config.json"
    cfg.to_json(cfg_path)
    args = ["--config", str(cfg_path)]
    assert main([*args, "generate"]) == 0
    assert main([*args, "--seed", "1", "train"]) == 0
    first = (tmp_path / "out" / "models" / "fprc.json").read_bytes()
    assert main([*args, "--seed", "1", "train"]) == 0
    assert (tmp_path / "out" / "models" / "fprc.json").read_bytes() == first
    assert main([*args, "--seed", "2", "train"]) == 0
    assert (tmp_path / "out" / "models" / "fprc.json").read_bytes() != first


def test_usage_errors():
    assert main([]) == 1
    assert main(["frobnicate"]) == 1
    assert main(["--bogus-flag", "generate"]) == 1
    assert main(["sweep"]) == 1  # --axis is required


def test_missing_inputs(tmp_path, capsys):
    out = str(tmp_path / "fresh")
    assert main(["--out", out, "train"]) == 2
    assert "generate" in capsys.readouterr().err
    assert main(["--out", out, "simulate"]) == 2
    assert main(["--config", str(tmp_path / "nope.json"), "generate"]) == 2
    bad = tmp_path / "bad.json"
    bad.write_text("{oops\n")
    assert main(["--config", str(bad), "generate"]) == 2
    extra = tmp_path / "extra.json"
    extra.write_text('{"no_such_field": 1}\n')
    assert main(["--config", str(extra), "generate"]) == 2


def test_non_ascii_config_exits_2(tmp_path, capsys):
    bad = tmp_path / "latin1.json"
    bad.write_bytes(b'{"seed": "\xe9"}\n')
    assert main(["--config", str(bad), "--out", str(tmp_path / "out"), "generate"]) == 2
    err = capsys.readouterr().err
    assert "Traceback" not in err
    assert str(bad) in err and "ASCII" in err


def test_non_ascii_dataset_row_exits_2(workspace, tmp_path, capsys):
    args = _out_with(workspace, tmp_path / "out", "data/train.csv")
    path = tmp_path / "out" / "data" / "train.csv"
    with open(path, "ab") as fh:
        fh.write(b"0.01,\xe9,1,1,1\n")
    assert main([*args, "train"]) == 2
    err = capsys.readouterr().err
    assert "Traceback" not in err
    assert f"{path}: not ASCII" in err


def test_negative_seed_exits_2(tmp_path, capsys):
    # numpy cannot seed the FCM draw or the ESN weights with it
    assert main(["--seed", "-1", "--out", str(tmp_path / "out"), "generate"]) == 2
    err = capsys.readouterr().err
    assert "Traceback" not in err
    assert "seed must be non-negative" in err
    assert not (tmp_path / "out").exists()


def test_directory_as_config_exits_2(tmp_path, capsys):
    assert main(["--config", str(tmp_path), "--out", str(tmp_path / "out"), "generate"]) == 2
    err = capsys.readouterr().err
    assert "Traceback" not in err
    assert f"{tmp_path}: cannot be read" in err


def test_missing_config_exits_2(tmp_path, capsys):
    # a missing file is one more unreadable config, not a bare OSError
    path = tmp_path / "absent.json"
    assert main(["--config", str(path), "--out", str(tmp_path / "out"), "generate"]) == 2
    err = capsys.readouterr().err
    assert "Traceback" not in err
    assert f"{path}: cannot be read (No such file or directory)" in err
    assert not (tmp_path / "out").exists()


def test_cli_import_leaves_scipy_unloaded():
    # importing scipy.signal once took most of every CLI process's start-up
    code = "import sys, pneurc.cli; print(sorted(m for m in sys.modules if m.split('.')[0] == 'scipy'))"
    proc = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True)
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.strip() == "[]"


def _leaf_parent(doc, path):
    """The dict or list that holds the value at a key path of a config
    document, and the value's key in it."""
    *parents, name = path
    for part in parents:
        doc = doc[part]
    return doc, name


def _generate_with_config_value(tmp_path, key, value):
    """Exit code of ``generate`` on the default config with one leaf replaced."""
    doc = ExperimentConfig().to_dict()
    section, name = _leaf_parent(doc, key.split("."))
    section[name] = value
    cfg_path = tmp_path / "config.json"
    cfg_path.write_text(json.dumps(doc))
    return main(["--config", str(cfg_path), "--out", str(tmp_path / "out"), "generate"])


@pytest.mark.parametrize("key, value", [("model.fprc.n_c", "8"), ("gains.pd_kp", "20"),
                                        ("disturbance.t_start", None), ("seed", True),
                                        ("cv_folds", 2.5)])
def test_wrongly_typed_config_value_exits_2(tmp_path, capsys, key, value):
    assert _generate_with_config_value(tmp_path, key, value) == 2
    err = capsys.readouterr().err
    assert "Traceback" not in err
    assert f"config.{key}:" in err
    assert not (tmp_path / "out").exists()


@pytest.mark.parametrize("key, value", [
    ("signals.train_excitation.duration", math.inf),
    ("signals.scenarios.chirp.duration", math.inf),
    ("disturbance.magnitude", math.nan),
    ("disturbance.magnitude", math.inf),
    ("disturbance.t_end", math.inf),
    ("model.fprc.fcm_tol", math.nan),
    ("model.fprc.fcm_tol", math.inf),
    ("model.fprc.sigma", math.inf),
    ("gains.pd_kp", math.inf),
    ("gains.pd_kp", -math.inf),
    ("gains.pd_kd", -math.inf),
    ("plant.reservoir.lag_time_constant", math.inf),
    pytest.param("plant.actuator.bend_range", 10 ** 400, id="plant.actuator.bend_range-10**400"),
])
def test_non_finite_config_value_exits_2(tmp_path, capsys, key, value):
    assert _generate_with_config_value(tmp_path, key, value) == 2
    err = capsys.readouterr().err
    assert "Traceback" not in err
    assert f"config.{key}: expected a finite number" in err
    assert not (tmp_path / "out").exists()


def test_negative_disturbance_seed_exits_2(tmp_path, capsys):
    assert _generate_with_config_value(tmp_path, "disturbance.seed", -1) == 2
    err = capsys.readouterr().err
    assert "Traceback" not in err
    assert "disturbance seed must be non-negative" in err


def test_over_long_config_int_exits_2(tmp_path, capsys):
    # json.load refuses integers of more than 4,300 digits with a ValueError
    cfg_path = tmp_path / "config.json"
    cfg_path.write_text('{"seed": ' + "9" * 5000 + "}")
    assert main(["--config", str(cfg_path), "--out", str(tmp_path / "out"), "generate"]) == 2
    err = capsys.readouterr().err
    assert "Traceback" not in err
    assert "not valid JSON" in err


def _truncated_json(good: str) -> str:
    return good[: len(good) // 2]


def _without_params(good: str) -> str:
    doc = json.loads(good)
    del doc["params"]
    return json.dumps(doc)


def _unknown_param(good: str) -> str:
    doc = json.loads(good)
    doc["params"]["no_such_param"] = 1.0
    return json.dumps(doc)


def _nan_weight(good: str) -> str:
    doc = json.loads(good)
    doc["w_out"][0][0] = math.nan
    return json.dumps(doc)


def _nan_sigma(good: str) -> str:
    doc = json.loads(good)
    doc["params"]["sigma"] = math.nan
    return json.dumps(doc)


def _float_n_y(good: str) -> str:
    doc = json.loads(good)
    doc["params"]["n_y"] = 5.0
    return json.dumps(doc)


def _float_n_u(good: str) -> str:
    doc = json.loads(good)
    doc["params"]["n_u"] = 3.0
    return json.dumps(doc)


def _input_limit(good: str) -> str:
    # the reservoir's input limit, which artifacts held before the reservoir alone did
    doc = json.loads(good)
    doc["params"]["input_limit"] = 450.0
    return json.dumps(doc)


@pytest.mark.parametrize("corrupt", [_truncated_json, _without_params, _unknown_param,
                                     _nan_weight, _nan_sigma, _float_n_y, _float_n_u,
                                     _input_limit])
def test_corrupt_fprc_artifact_exits_2(workspace, tmp_path, capsys, corrupt):
    good = (workspace["out"] / "models" / "fprc.json").read_text()
    bad = tmp_path / "fprc.json"
    bad.write_text(corrupt(good))
    assert main(["--config", workspace["cfg_path"], "evaluate",
                 "--model-artifact", str(bad)]) == 2
    err = capsys.readouterr().err
    assert "Traceback" not in err
    assert str(bad) in err


@pytest.mark.parametrize("corrupt, message", [
    (_float_n_y, "params.n_y: expected int, got float 5.0"),
    (_float_n_u, "params.n_u: expected int, got float 3.0")])
def test_simulate_type_checks_artifact_params(workspace, tmp_path, capsys, corrupt, message):
    good = (workspace["out"] / "models" / "fprc.json").read_text()
    bad = tmp_path / "fprc.json"
    bad.write_text(corrupt(good))
    assert main(["--config", workspace["cfg_path"], "simulate", "--scenario", "sine05",
                 "--model-artifact", str(bad)]) == 2
    err = capsys.readouterr().err
    assert "Traceback" not in err
    assert f"{bad}: {message}" in err


@pytest.mark.parametrize("command", [["evaluate"], ["simulate", "--scenario", "sine05"]])
def test_artifact_holding_an_input_limit_exits_2_naming_it(workspace, tmp_path, capsys,
                                                          command):
    good = (workspace["out"] / "models" / "fprc.json").read_text()
    bad = tmp_path / "fprc.json"
    bad.write_text(_input_limit(good))
    args = _out_with(workspace, tmp_path / "out", "data/test.csv")
    assert main([*args, *command, "--model-artifact", str(bad)]) == 2
    err = capsys.readouterr().err
    assert "Traceback" not in err
    assert f"{bad}: params: unknown fields ['input_limit']" in err


def test_artifact_holding_a_filter_init_exits_2_naming_it(workspace, tmp_path, capsys):
    # the low pass starts at the first sample; artifacts held that as a mode
    doc = json.loads((workspace["out"] / "models" / "fprc.json").read_text())
    doc["params"]["filter_init"] = "first-sample"
    bad = tmp_path / "fprc.json"
    bad.write_text(json.dumps(doc))
    args = _out_with(workspace, tmp_path / "out", "data/test.csv")
    assert main([*args, "evaluate", "--model-artifact", str(bad)]) == 2
    err = capsys.readouterr().err
    assert "Traceback" not in err
    assert f"{bad}: params: unknown fields ['filter_init']" in err


@pytest.mark.parametrize("sigma", [1e308, 1.35e154, 1.5e-162, 1e-200])
def test_sigma_without_a_positive_finite_square_exits_2(workspace, tmp_path, capsys, sigma):
    # from the config through train, and from an artifact through evaluate and simulate
    cfg = workspace["cfg"]
    cfg = dataclasses.replace(cfg, out_dir=str(tmp_path / "out"), model=dataclasses.replace(
        cfg.model, fprc=dataclasses.replace(cfg.model.fprc, sigma=sigma)))
    cfg.to_json(tmp_path / "config.json")
    _out_with(workspace, tmp_path / "out", "data/train.csv", "data/test.csv")
    args = ["--config", str(tmp_path / "config.json")]
    assert main([*args, "train"]) == 2
    doc = json.loads((workspace["out"] / "models" / "fprc.json").read_text())
    doc["params"]["sigma"] = sigma
    bad = tmp_path / "fprc.json"
    bad.write_text(json.dumps(doc))
    for command in (["evaluate"], ["simulate", "--scenario", "sine05"]):
        assert main([*args, *command, "--model-artifact", str(bad)]) == 2, command
    err = capsys.readouterr().err
    assert "Traceback" not in err
    assert err.count(f"sigma must be positive with 2 sigma^2 finite, got {sigma!r}") == 3
    assert not (tmp_path / "out" / "models").exists()
    assert not (tmp_path / "out" / "reports").exists()


def test_evaluate_of_a_tiny_accepted_sigma_prints_no_warning(workspace, tmp_path):
    # 2 sigma^2 = 2e-322 is finite and positive, and far states' exponents
    # overflow to -inf, a membership of 0, without a RuntimeWarning
    doc = json.loads((workspace["out"] / "models" / "fprc.json").read_text())
    doc["params"]["sigma"] = 1e-161
    artifact = tmp_path / "fprc.json"
    artifact.write_text(json.dumps(doc))
    args = _out_with(workspace, tmp_path / "out", "data/test.csv")
    proc = subprocess.run([sys.executable, "-m", "pneurc.cli", *args, "evaluate",
                           "--model-artifact", str(artifact)], capture_output=True, text=True)
    assert proc.returncode == 0
    assert proc.stderr == ""


def test_generate_checks_only_the_model_value_it_uses(tmp_path, capsys):
    # a sigma whose square overflows is train's to refuse; generate reads k_in alone
    for name in ("sigma", "k_in"):
        (tmp_path / name).mkdir()
    assert _generate_with_config_value(tmp_path / "sigma", "model.fprc.sigma", 1e308) == 0
    assert _generate_with_config_value(tmp_path / "k_in", "model.fprc.k_in", 0.0) == 2
    assert capsys.readouterr().err.endswith("error: k_in must be positive\n")


_ESN_AT_CPUS = r"""
import sys
from pneurc import cli, esn, parallel

cpus = int(sys.argv[1])
# a worker still counts one usable CPU
parallel.usable_cpus = esn.usable_cpus = lambda: 1 if parallel._IN_WORKER else cpus
for command in ("train", "evaluate"):
    assert cli.main([*sys.argv[2:], command, "--model", "esn"]) == 0
"""


def test_esn_outputs_do_not_depend_on_usable_cpus_at_default_threading(workspace, tmp_path):
    # at one usable CPU the spine, folds and replay run in the CLI process,
    # at two in workers; the CLI process holds BLAS to one thread like them
    cfg = workspace["cfg"]
    cfg = dataclasses.replace(cfg, model=dataclasses.replace(
        cfg.model, esn=dataclasses.replace(cfg.model.esn, reservoir_size=200)))
    cfg.to_json(tmp_path / "config.json")
    env = {k: v for k, v in os.environ.items()
           if k not in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")}
    outputs = {}
    for cpus in (1, 2):
        out = tmp_path / f"cpus{cpus}"
        _out_with(workspace, out, "data/train.csv", "data/test.csv")
        proc = subprocess.run([sys.executable, "-c", _ESN_AT_CPUS, str(cpus), "--config",
                               str(tmp_path / "config.json"), "--out", str(out)],
                              env=env, capture_output=True, text=True, timeout=300)
        assert proc.returncode == 0, proc.stderr
        outputs[cpus] = {name: (out / name).read_bytes() for name in (
            "models/esn.npz", "models/esn_cv.json", "models/esn_cv.csv",
            "reports/evaluate_esn.json")}
    assert outputs[1] == outputs[2]


@pytest.mark.parametrize("key, value", [("signals.train_excitation.duration", 1e308),
                                        ("signals.train_excitation.duration", 1e12),
                                        ("dt", 5e-324)])
def test_signal_over_the_sample_budget_exits_3(tmp_path, capsys, key, value):
    # refused from the sample count alone, before any array is allocated
    assert _generate_with_config_value(tmp_path, key, value) == 3
    err = capsys.readouterr().err
    assert "Traceback" not in err
    assert "samples, over the budget of 10000000" in err


@pytest.mark.parametrize("device", ["actuator", "reservoir"])
def test_plant_lag_of_half_a_sample_exits_2(tmp_path, capsys, device):
    # forward Euler on the lag stops contracting at dt = 2 tau
    key = f"plant.{device}.lag_time_constant"
    assert _generate_with_config_value(tmp_path, key, ExperimentConfig().dt / 2) == 2
    err = capsys.readouterr().err
    assert "Traceback" not in err
    assert f"{key} must exceed dt / 2 = 0.0025, got 0.0025" in err
    assert not (tmp_path / "out").exists()


@pytest.mark.parametrize("device", ["actuator", "reservoir"])
def test_plant_lag_over_half_a_sample_generates(tmp_path, device):
    # between dt / 2 and dt the lag overshoots its target but still decays
    key = f"plant.{device}.lag_time_constant"
    assert _generate_with_config_value(tmp_path, key, 0.6 * ExperimentConfig().dt) == 0


@pytest.mark.parametrize("device", ["actuator", "reservoir"])
def test_play_stack_over_the_memory_budget_exits_3(tmp_path, capsys, monkeypatch, device):
    linspace = np.linspace

    def guarded(start, stop, num, **kwargs):
        # the other device keeps its default stack of 8 operators
        assert num <= 8, "allocated before the budget check"
        return linspace(start, stop, num, **kwargs)

    monkeypatch.setattr(np, "linspace", guarded)
    assert _generate_with_config_value(tmp_path, f"plant.{device}.n_ops", 10 ** 12) == 3
    err = capsys.readouterr().err
    assert "Traceback" not in err
    assert "1000000000000 play operators need more than 4 GiB" in err


def test_disturbance_magnitude_without_a_finite_double_exits_2(tmp_path, capsys):
    assert _generate_with_config_value(tmp_path, "disturbance.magnitude", 1e308) == 2
    err = capsys.readouterr().err
    assert "Traceback" not in err
    assert "disturbance magnitude must be non-negative, and twice it" in err


@pytest.mark.parametrize("command, held, asked", [
    (["evaluate", "--model", "fprc"], "fuzzy-linear", "fprc"),
    (["evaluate", "--model", "fuzzy-linear"], "fprc", "fuzzy-linear"),
    (["simulate", "--scenario", "sine05"], "fuzzy-linear", "fprc")])
def test_artifact_of_another_kind_exits_2(workspace, tmp_path, capsys, command, held, asked):
    args = _out_with(workspace, tmp_path / "out", "data/train.csv", "data/test.csv",
                     "models/fprc.json")
    assert main([*args, "train", "--model", "fuzzy-linear"]) == 0
    path = tmp_path / "out" / "models" / f"{held}.json"
    capsys.readouterr()
    assert main([*args, *command, "--model-artifact", str(path)]) == 2
    err = capsys.readouterr().err
    assert "Traceback" not in err
    assert f"{path} holds a {held} model, not {asked}" in err
    assert not (tmp_path / "out" / "reports").exists()


@pytest.mark.parametrize("content", [b"garbage, not an archive",
                                     b"PK\x03\x04 truncated zip archive"])
def test_corrupt_esn_artifact_exits_2(workspace, tmp_path, capsys, content):
    bad = tmp_path / "esn.npz"
    bad.write_bytes(content)
    assert main(["--config", workspace["cfg_path"], "evaluate", "--model", "esn",
                 "--model-artifact", str(bad)]) == 2
    assert str(bad) in capsys.readouterr().err


def test_esn_artifact_params_are_type_checked(workspace, tmp_path, capsys):
    bad = tmp_path / "esn.npz"
    params = dataclasses.asdict(esn.EsnParams(reservoir_size=40, washout=20)) | {"n_y": 5.0}
    np.savez(bad, format_version=np.array([2]), params=np.array(json.dumps(params)),
             w_input=np.zeros(40), w_reservoir=np.zeros((40, 40)), w_out=np.zeros(46))
    assert main(["--config", workspace["cfg_path"], "evaluate", "--model", "esn",
                 "--model-artifact", str(bad)]) == 2
    err = capsys.readouterr().err
    assert "Traceback" not in err
    assert f"{bad}: params.n_y: expected int, got float 5.0" in err


def test_bad_chirp_quadratic_scenario_exits_2(tmp_path, capsys):
    # a scenario is rendered only by simulate, but its spec is checked on load
    doc = ExperimentConfig().to_dict()
    doc["signals"]["scenarios"]["chirp"]["frequencies"] = [0.0, 0.0]
    cfg_path = tmp_path / "config.json"
    cfg_path.write_text(json.dumps(doc))
    assert main(["--config", str(cfg_path), "--out", str(tmp_path / "out"), "generate"]) == 2
    err = capsys.readouterr().err
    assert "Traceback" not in err
    assert "c1 and c2 cannot both be zero" in err
    assert not (tmp_path / "out").exists()


def test_v1_esn_artifact_exits_2(workspace, tmp_path, capsys):
    # the format-1 layout: hyperparameters as one positional float array
    bad = tmp_path / "esn.npz"
    np.savez(bad, format_version=np.array([1]),
             meta=np.array([40, 0.02, 0.8, 0.4, 20, 5, 0, 0], dtype=float),
             w_input=np.zeros(40), w_reservoir=np.zeros((40, 40)), w_out=np.zeros(46))
    assert main(["--config", workspace["cfg_path"], "evaluate", "--model", "esn",
                 "--model-artifact", str(bad)]) == 2
    err = capsys.readouterr().err
    assert "Traceback" not in err
    assert f"{bad}: unsupported ESN artifact format" in err


def test_unknown_artifact_kind_exits_2(workspace, tmp_path, capsys):
    args = _out_with(workspace, tmp_path / "out", "data/train.csv", "data/test.csv")
    assert main([*args, "train", "--model", "fuzzy-linear"]) == 0
    path = tmp_path / "out" / "models" / "fuzzy-linear.json"
    doc = json.loads(path.read_text())
    doc["kind"] = "esn"
    path.write_text(json.dumps(doc))
    capsys.readouterr()
    assert main([*args, "evaluate", "--model", "fuzzy-linear"]) == 2
    err = capsys.readouterr().err
    assert "Traceback" not in err
    assert f"{path}: unknown model kind 'esn'" in err
    assert not (tmp_path / "out" / "reports").exists()


def _save_esn_artifact(cfg: ExperimentConfig, path, **weights) -> None:
    """An ESN artifact of ``cfg``'s shape with zero weights, some replaced."""
    params = cfg.esn_params()
    r = params.reservoir_size
    arrays = {"w_input": np.zeros(r), "w_reservoir": np.zeros((r, r)),
              "w_out": np.zeros(1 + params.n_y + r)}
    arrays.update(weights)
    np.savez(path, format_version=np.array([2]),
             params=np.array(json.dumps(dataclasses.asdict(params), sort_keys=True)), **arrays)


@pytest.mark.parametrize("name, weights, message", [
    ("w_input", np.zeros(39), "w_input has shape (39,), expected (40,)"),
    ("w_reservoir", np.zeros((40, 39)), "w_reservoir has shape (40, 39), expected (40, 40)"),
    ("w_out", np.zeros(45), "w_out has shape (45,), expected (46,)"),
    ("w_out", np.full(46, math.nan), "w_out weights must all be finite"),
    ("w_reservoir", np.full((40, 40), math.inf), "w_reservoir weights must all be finite"),
])
def test_damaged_esn_weights_exit_2(workspace, tmp_path, capsys, name, weights, message):
    args = _out_with(workspace, tmp_path / "out", "data/test.csv")
    path = tmp_path / "esn.npz"
    _save_esn_artifact(workspace["cfg"], path, **{name: weights})
    assert main([*args, "evaluate", "--model", "esn", "--model-artifact", str(path)]) == 2
    err = capsys.readouterr().err
    assert "Traceback" not in err
    assert f"{path}: {message}" in err
    assert not (tmp_path / "out" / "reports").exists()


@pytest.mark.parametrize("case", ["out is a file", "fprc artifact is a directory",
                                  "esn artifact is a directory",
                                  "simulate artifact is a directory",
                                  "train_data is a directory"])
def test_os_error_exits_2(workspace, tmp_path, capsys, case):
    args = ["--config", workspace["cfg_path"], "--out", str(tmp_path / "out")]
    if case == "out is a file":
        (tmp_path / "out").write_text("")
        command = ["generate"]
    elif case == "train_data is a directory":
        cfg = dataclasses.replace(workspace["cfg"], train_data=str(tmp_path / "data"))
        (tmp_path / "data").mkdir()
        cfg.to_json(tmp_path / "config.json")
        args[1] = str(tmp_path / "config.json")
        command = ["train"]
    else:
        args = _out_with(workspace, tmp_path / "out", "data/test.csv")
        command = {"fprc": ["evaluate", "--model", "fprc"],
                   "esn": ["evaluate", "--model", "esn"],
                   "simulate": ["simulate"]}[case.split()[0]]
        command += ["--model-artifact", str(tmp_path)]
    assert main([*args, *command]) == 2
    err = capsys.readouterr().err
    assert "Traceback" not in err
    assert err.startswith("error: ")


def test_commands_make_their_output_directories(workspace, tmp_path):
    # the datasets and the artifact read live outside each fresh --out
    cfg = dataclasses.replace(workspace["cfg"], train_data=workspace["cfg"].train_data_path(),
                              test_data=workspace["cfg"].test_data_path())
    cfg.to_json(tmp_path / "config.json")
    fprc = str(workspace["out"] / "models" / "fprc.json")
    runs = [(["train", "--model", "esn"], ["models/esn.npz", "models/esn_cv.json",
                                           "models/esn_cv.csv"]),
            (["train", "--model", "fprc"], ["models/fprc.json", "models/fprc_cv.json",
                                            "models/fprc_cv.csv"]),
            (["evaluate", "--model-artifact", fprc], ["reports/evaluate_fprc.json"]),
            (["simulate", "--scenario", "sine02", "--scenario", "sine05",
              "--model-artifact", fprc], ["reports/runlogs/sine02_pd.csv",
                                          "reports/runlogs/sine05_pd.csv",
                                          "reports/tracking.json", "reports/tracking.csv"]),
            (["sweep", "--axis", "epsilon", "--values", "0.1"],
             ["reports/sweep_epsilon.csv", "reports/sweep_epsilon.json",
              "reports/sweep_epsilon_timing.csv"]),
            (["bench"], ["reports/bench_metrics.json", "reports/bench_timing.json"])]
    for i, (command, outputs) in enumerate(runs):
        out = tmp_path / f"out{i}"
        assert main(["--config", str(tmp_path / "config.json"), "--out", str(out),
                     *command]) == 0, command
        for name in outputs:
            assert (out / name).is_file(), name


def fuzz_config(out_dir: str) -> dict:
    """The config document of a pipeline whose commands take a fraction of
    a second: signals of a few seconds, a 10-unit ESN and two folds."""
    base = small_config(out_dir)
    signals = SignalsConfig(
        train_excitation=dataclasses.replace(base.signals.train_excitation, duration=4.0),
        test_excitation=dataclasses.replace(base.signals.test_excitation, duration=2.0),
        scenarios={name: dataclasses.replace(spec, duration=4.0 if name == "disturbance" else 2.0)
                   for name, spec in base.signals.scenarios.items()},
    )
    return dataclasses.replace(
        base, signals=signals,
        model=dataclasses.replace(base.model, esn=EsnConfig(reservoir_size=10, washout=20),
                                  fprc=dataclasses.replace(base.model.fprc, fcm_max_iter=50)),
        # the report's clean window starts 2 s into the disturbance scenario
        disturbance=dataclasses.replace(base.disturbance, t_start=2.5, t_end=3.5),
    ).to_dict()


def _config_leaves(doc, path=()):
    """Key paths of every value in a config document, lists and their items
    included; the three file paths are left out, so that outputs stay in
    ``out_dir``."""
    if isinstance(doc, dict):
        for key, value in doc.items():
            if key not in ("out_dir", "train_data", "test_data"):
                yield from _config_leaves(value, path + (key,))
        return
    yield path
    if isinstance(doc, list):
        for i, item in enumerate(doc):
            yield from _config_leaves(item, path + (i,))


_FUZZ_STRINGS = sorted({"", "x", *SIGNAL_KINDS, *esn.WEIGHT_DISTRIBUTIONS})
_FUZZ_SPECIALS = [None, True, "x", math.nan, math.inf, -math.inf, [], {}, [1.0, 2.0, 3.0]]
_FUZZ_EXTREMES = [1e308, -1e308, 1e-308, 5e-324]


def _fuzz_value(old):
    """A value to put in place of ``old``: a wrong type, a non-finite number,
    a multiple of a number, which keeps signals a few seconds long and
    reservoirs at 40 units or fewer, or, in place of a float, a finite
    extreme. No int is drawn large: as a size it would be allocated."""
    specials = st.sampled_from(_FUZZ_SPECIALS)
    if isinstance(old, str):
        return st.sampled_from(_FUZZ_STRINGS) | specials
    if isinstance(old, (int, float)) and not isinstance(old, bool):
        scaled = st.sampled_from([-1, 0, 0.5, 2, 4]).map(lambda f: type(old)(old * f))
        drawn = scaled | st.integers(-1, 3) | specials
        return drawn | st.sampled_from(_FUZZ_EXTREMES) if isinstance(old, float) else drawn
    return st.sampled_from([0, 1, 2.5]) | specials


FUZZ_LEAVES = list(_config_leaves(fuzz_config("out")))


@settings(max_examples=40)
@given(data=st.data())
def test_cli_survives_any_one_config_leaf(data):
    # every command exits with a documented code, whatever one leaf holds
    leaf = data.draw(st.sampled_from(FUZZ_LEAVES), label="leaf")
    with tempfile.TemporaryDirectory() as tmp:
        doc = fuzz_config(os.path.join(tmp, "out"))
        section, name = _leaf_parent(doc, leaf)
        section[name] = data.draw(_fuzz_value(section[name]), label="value")
        cfg_path = os.path.join(tmp, "config.json")
        with open(cfg_path, "w") as fh:
            json.dump(doc, fh)
        for command in ("generate", "train", "simulate"):
            assert main(["--config", cfg_path, command]) in (0, 2, 3), command


@settings(max_examples=40)
@given(data=st.data())
def test_cli_survives_any_one_fprc_artifact_param(workspace, data):
    # evaluate and simulate exit with a documented code, whatever one param holds
    doc = json.loads((workspace["out"] / "models" / "fprc.json").read_text())
    name = data.draw(st.sampled_from(sorted(doc["params"])), label="param")
    doc["params"][name] = data.draw(_fuzz_value(doc["params"][name]), label="value")
    with tempfile.TemporaryDirectory() as tmp:
        artifact = os.path.join(tmp, "fprc.json")
        with open(artifact, "w") as fh:
            json.dump(doc, fh)
        args = _out_with(workspace, pathlib.Path(tmp) / "out", "data/test.csv")
        for command in (["evaluate"], ["simulate", "--scenario", "sine05"]):
            assert main([*args, *command, "--model-artifact", artifact]) in (0, 2, 3), command


@pytest.fixture(scope="module")
def esn_artifact(workspace, tmp_path_factory):
    """An ESN trained on the workspace's training record."""
    out = tmp_path_factory.mktemp("esn") / "out"
    assert main([*_out_with(workspace, out, "data/train.csv"), "train", "--model", "esn"]) == 0
    return out / "models" / "esn.npz"


@settings(max_examples=40)
@given(data=st.data())
def test_cli_survives_any_one_esn_artifact_param(workspace, esn_artifact, data):
    # evaluate exits with a documented code, whatever one param holds
    with np.load(esn_artifact) as archive:
        arrays = dict(archive)
    params = json.loads(arrays["params"].item())
    name = data.draw(st.sampled_from(sorted(params)), label="param")
    params[name] = data.draw(_fuzz_value(params[name]), label="value")
    arrays["params"] = np.array(json.dumps(params, sort_keys=True))
    with tempfile.TemporaryDirectory() as tmp:
        artifact = os.path.join(tmp, "esn.npz")
        np.savez(artifact, **arrays)
        args = _out_with(workspace, pathlib.Path(tmp) / "out", "data/test.csv")
        assert main([*args, "evaluate", "--model", "esn",
                     "--model-artifact", artifact]) in (0, 2, 3)
