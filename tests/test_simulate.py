"""The scenario suite of ``pneurc simulate`` on the default config.

The feedforward never reads the plant, so ``simulate`` drives one fresh
reservoir per scenario and hands the same feedforward columns to the
open-loop ``fprc`` run and the closed-loop ``fprc+pd`` run. Each run must
still equal a run that drives a reservoir of its own.
"""
import json
import os

import numpy as np
import pytest

from pneurc import cli, plant
from pneurc.control import METHOD_NAMES, RUN_LOG_COLUMNS, SCENARIO_NAMES, RunLog, run_closed_loop

FF_COLUMNS = ("p_ff_kpa", "p_i_kpa", "p_o_kpa", "p_o_filt_kpa", "disturbed")


def log_name(method: str, scenario: str) -> str:
    return f"{scenario}_{method.replace('+', '_')}.csv"


@pytest.fixture(scope="module")
def simulated(tmp_path_factory, default_config, fprc_cv_model):
    """Run logs and clamp counts of one ``simulate`` run, the count of
    reservoir steps of its per-scenario runs, and its run-log directory."""
    out = tmp_path_factory.mktemp("simulate")
    artifact = str(out / "fprc.json")
    fprc_cv_model.save(artifact)
    assert cli.main(["--out", str(out), "simulate", "--model-artifact", artifact]) == 0
    # simulate runs its scenarios in worker processes, where a patch of this
    # process counts nothing; so the steps are counted on the per-scenario
    # function, called here for every scenario. control binds plant_step
    # under its own name, so this counts only the steps of plant.drive,
    # which simulate runs on the reservoir alone
    steps = 0
    step = plant.plant_step

    def counting_step(res, p_in, dt):
        nonlocal steps
        steps += 1
        return step(res, p_in, dt)

    counted_dir = tmp_path_factory.mktemp("simulate_counted")
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(plant, "plant_step", counting_step)
        for scenario in SCENARIO_NAMES:
            cli._simulate_scenario(default_config, fprc_cv_model, str(counted_dir), scenario)
    log_dir = out / "reports" / "runlogs"
    logs = {(method, scenario): RunLog.from_csv(log_dir / log_name(method, scenario))
            for scenario in SCENARIO_NAMES for method in METHOD_NAMES}
    with open(os.path.join(out, "reports", "tracking.json"), encoding="ascii") as fh:
        clamp_steps = json.load(fh)["clamp_steps"]
    return logs, clamp_steps, steps, log_dir


@pytest.mark.parametrize("scenario", SCENARIO_NAMES)
def test_fprc_runs_share_the_feedforward(simulated, scenario):
    logs, _, _, _ = simulated
    open_loop, closed_loop = logs[("fprc", scenario)], logs[("fprc+pd", scenario)]
    for name in FF_COLUMNS:
        np.testing.assert_array_equal(open_loop.column(name), closed_loop.column(name))
    if scenario == "disturbance":
        assert np.any(open_loop.disturbed > 0)


@pytest.mark.parametrize("scenario", SCENARIO_NAMES)
def test_fprc_runs_match_runs_with_their_own_reservoir(simulated, default_config,
                                                       fprc_cv_model, scenario):
    cfg = default_config
    logs, clamp_steps, _, _ = simulated
    ref = cfg.signals.scenarios[scenario].render(cfg.dt)
    spec = cfg.disturbance_spec() if scenario == "disturbance" else None
    for method in ("fprc", "fprc+pd"):
        own = run_closed_loop(ref, fprc_cv_model.feedforward(cfg.build_reservoir()),
                              cfg.build_actuator(), cfg.controller_gains(),
                              feedback=(method == "fprc+pd"), disturbance=spec)
        log = logs[(method, scenario)]
        assert clamp_steps[f"{method}/{scenario}"] == own.clamp_steps
        for name in RUN_LOG_COLUMNS:
            expected = own.column(name)
            scale = max(float(np.max(np.abs(expected))), 1.0)
            np.testing.assert_allclose(log.column(name), expected, rtol=0.0,
                                       atol=1e-12 * scale, err_msg=f"{method} {name}")


def test_simulate_steps_the_reservoir_once_per_scenario_sample(simulated, default_config):
    cfg = default_config
    _, _, steps, _ = simulated
    samples = sum(len(cfg.signals.scenarios[s].render(cfg.dt)) for s in SCENARIO_NAMES)
    assert steps == samples


def test_run_logs_written_together_equal_each_log_written_alone(simulated, tmp_path):
    # simulate writes a scenario's three logs in one pass, sharing the strings
    # of equal columns; each file must still be what RunLog.to_csv writes
    logs, _, _, log_dir = simulated
    for (method, scenario), log in logs.items():
        alone = tmp_path / log_name(method, scenario)
        log.to_csv(alone)
        assert (log_dir / alone.name).read_bytes() == alone.read_bytes(), alone.name
