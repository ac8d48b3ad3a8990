"""End-to-end CLI behaviour with a reduced configuration."""
import dataclasses
import json
import shutil

import numpy as np
import pytest

from pneurc.cli import main
from pneurc.config import (EsnConfig, ExperimentConfig, SignalsConfig)
from pneurc.datasets import Dataset


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
    assert np.isnan(table["fprc+pd"]["chirp"])  # not simulated this run
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


def test_bench(workspace):
    cfg_path, out = workspace["cfg_path"], workspace["out"]
    assert main(["--config", cfg_path, "bench"]) == 0
    metrics = json.loads((out / "reports" / "bench_metrics.json").read_text())
    timing = json.loads((out / "reports" / "bench_timing.json").read_text())
    assert set(metrics) == set(timing) == {"esn", "fprc", "fuzzy-linear"}
    for kind in metrics:
        assert np.isfinite(metrics[kind]["e_test"])
        assert timing[kind]["per_step_us"] > 0.0
        assert timing[kind]["repetitions"] == 2
    assert "per_step_us" not in json.dumps(metrics)


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


@pytest.mark.parametrize("corrupt", [_truncated_json, _without_params, _unknown_param])
def test_corrupt_fprc_artifact_exits_2(workspace, tmp_path, capsys, corrupt):
    good = (workspace["out"] / "models" / "fprc.json").read_text()
    bad = tmp_path / "fprc.json"
    bad.write_text(corrupt(good))
    assert main(["--config", workspace["cfg_path"], "evaluate",
                 "--model-artifact", str(bad)]) == 2
    assert str(bad) in capsys.readouterr().err


@pytest.mark.parametrize("content", [b"garbage, not an archive",
                                     b"PK\x03\x04 truncated zip archive"])
def test_corrupt_esn_artifact_exits_2(workspace, tmp_path, capsys, content):
    bad = tmp_path / "esn.npz"
    bad.write_bytes(content)
    assert main(["--config", workspace["cfg_path"], "evaluate", "--model", "esn",
                 "--model-artifact", str(bad)]) == 2
    assert str(bad) in capsys.readouterr().err
