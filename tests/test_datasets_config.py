"""Dataset container, the identification experiment, and the config schema."""
import dataclasses

import numpy as np
import pytest

from pneurc.config import (ActuatorConfig, DisturbanceConfig, ExperimentConfig,
                           ModelConfig, ReservoirConfig, SignalsConfig)
from pneurc.datasets import CSV_HEADER, Dataset, generate_dataset
from pneurc.errors import InvalidDataError, InvalidSpecError
from pneurc.fprc import convert_angle
from pneurc.plant import actuator_step, reservoir_step
from pneurc.signals import SignalSpec, gen_sine


def small_ds(n=6, dt=0.01):
    v = np.linspace(0.0, 5.0, n)
    return Dataset(theta=v, p_exp=2 * v, p_i=3 * v, p_o=4 * v, dt=dt)


# ---------------------------------------------------------------------------
# dataset container


def test_dataset_validation():
    v = np.zeros(4)
    with pytest.raises(InvalidDataError):
        Dataset(theta=v, p_exp=v, p_i=v, p_o=np.zeros(3), dt=0.01)
    with pytest.raises(InvalidDataError):
        Dataset(theta=np.empty(0), p_exp=np.empty(0), p_i=np.empty(0),
                p_o=np.empty(0), dt=0.01)
    with pytest.raises(InvalidSpecError):
        Dataset(theta=v, p_exp=v, p_i=v, p_o=v, dt=0.0)
    with pytest.raises(InvalidDataError):
        Dataset(theta=v * np.nan, p_exp=v, p_i=v, p_o=v, dt=0.01)


def test_dataset_times_and_len():
    ds = small_ds(n=4, dt=0.5)
    assert len(ds) == 4
    np.testing.assert_array_equal(ds.times, [0.0, 0.5, 1.0, 1.5])


def test_dataset_slice():
    ds = small_ds(n=6)
    part = ds.slice(2, 5)
    assert len(part) == 3
    np.testing.assert_array_equal(part.theta, ds.theta[2:5])
    assert part.dt == ds.dt
    with pytest.raises(InvalidDataError):
        ds.slice(3, 3)
    with pytest.raises(InvalidDataError):
        ds.slice(0, 7)


def test_dataset_csv_round_trip(tmp_path):
    ds = small_ds()
    path = tmp_path / "data.csv"
    ds.save_csv(path)
    assert path.read_text().splitlines()[0] == CSV_HEADER
    back = Dataset.load_csv(path)
    np.testing.assert_array_equal(back.theta, ds.theta)
    np.testing.assert_array_equal(back.p_exp, ds.p_exp)
    np.testing.assert_array_equal(back.p_i, ds.p_i)
    np.testing.assert_array_equal(back.p_o, ds.p_o)
    assert back.dt == ds.dt


def test_dataset_csv_errors(tmp_path):
    path = tmp_path / "bad.csv"
    path.write_text("wrong header\n")
    with pytest.raises(InvalidDataError, match="header"):
        Dataset.load_csv(path)
    path.write_text(CSV_HEADER + "\n0.0,1,1,1,1\n")
    with pytest.raises(InvalidDataError, match="2 data rows"):
        Dataset.load_csv(path)
    path.write_text(CSV_HEADER + "\n0.0,1,1,1,1\n0.01,1,1\n")
    with pytest.raises(InvalidDataError, match=":3"):
        Dataset.load_csv(path)
    path.write_text(CSV_HEADER + "\n0.0,1,1,1,1\n0.01,x,1,1,1\n")
    with pytest.raises(InvalidDataError, match=":3"):
        Dataset.load_csv(path)


def test_dataset_csv_rejects_non_uniform_clock(tmp_path):
    ds = small_ds()
    path = tmp_path / "data.csv"
    ds.save_csv(path)
    lines = path.read_text().splitlines()
    parts = lines[4].split(",")
    parts[0] = repr(float(parts[0]) + 0.001)
    lines[4] = ",".join(parts)
    path.write_text("\n".join(lines) + "\n")
    with pytest.raises(InvalidDataError, match=":5"):
        Dataset.load_csv(path)
    lines[4] = ",".join(["nan"] + parts[1:])
    path.write_text("\n".join(lines) + "\n")
    with pytest.raises(InvalidDataError, match=":5"):
        Dataset.load_csv(path)


# ---------------------------------------------------------------------------
# identification experiment


def test_generate_dataset_matches_manual_simulation(default_config):
    excitation = gen_sine(0.5, 100.0, 150.0, duration=2.0, unit="kPa")
    params = default_config.fprc_params()
    ds = generate_dataset(excitation, default_config.build_actuator(),
                          default_config.build_reservoir(), k_in=params.k_in,
                          input_limit=params.input_limit)
    act = default_config.build_actuator()
    res = default_config.build_reservoir()
    for k in range(len(ds)):
        theta = actuator_step(act, excitation.values[k], excitation.dt)
        assert ds.theta[k] == theta
        p_i = convert_angle(theta, params.k_in, params.input_limit)
        assert ds.p_i[k] == p_i
        assert ds.p_o[k] == reservoir_step(res, p_i, excitation.dt)
    np.testing.assert_array_equal(ds.p_exp, excitation.values)
    assert ds.dt == excitation.dt


def test_generate_dataset_requires_pressure_excitation(default_config):
    angle_series = gen_sine(0.5, 10.0, 20.0, duration=1.0, unit="deg")
    with pytest.raises(InvalidSpecError, match="kPa"):
        generate_dataset(angle_series, default_config.build_actuator(),
                         default_config.build_reservoir(), k_in=7.0,
                         input_limit=450.0)


# ---------------------------------------------------------------------------
# config schema


def test_default_config_equals_constructor():
    assert ExperimentConfig.default() == ExperimentConfig()


def test_config_dict_round_trip(default_config):
    d = default_config.to_dict()
    assert ExperimentConfig.from_dict(d) == default_config
    # nested dataclasses serialize as plain dicts
    assert isinstance(d["signals"]["train_excitation"], dict)
    assert d["gains"]["pd_kp"] == 20.0


def test_config_json_round_trip(tmp_path, default_config):
    path = tmp_path / "config.json"
    default_config.to_json(path)
    assert ExperimentConfig.from_json(path) == default_config
    bad = tmp_path / "broken.json"
    bad.write_text("{not json\n")
    with pytest.raises(InvalidSpecError, match="JSON"):
        ExperimentConfig.from_json(bad)


def test_config_rejects_unknown_fields(default_config):
    d = default_config.to_dict()
    d["typo_field"] = 1
    with pytest.raises(InvalidSpecError, match="config.*typo_field"):
        ExperimentConfig.from_dict(d)
    d = default_config.to_dict()
    d["gains"]["pd_kpp"] = 1.0
    with pytest.raises(InvalidSpecError, match="config.gains.*pd_kpp"):
        ExperimentConfig.from_dict(d)
    d = default_config.to_dict()
    d["plant"]["actuator"]["bogus"] = 1.0
    with pytest.raises(InvalidSpecError, match="config.plant.actuator"):
        ExperimentConfig.from_dict(d)


def test_config_validation():
    with pytest.raises(InvalidSpecError):
        ExperimentConfig(dt=0.0)
    with pytest.raises(InvalidSpecError):
        ExperimentConfig(cv_folds=1)
    with pytest.raises(InvalidSpecError):
        ExperimentConfig(bench_repetitions=0)
    with pytest.raises(InvalidSpecError, match="kind"):
        ModelConfig(kind="transformer")
    with pytest.raises(InvalidSpecError, match="scenarios"):
        SignalsConfig(scenarios={"sine02": SignalSpec(kind="sine", amplitude=1.0,
                                                      offset=2.0, frequencies=(0.2,),
                                                      duration=1.0, unit="deg")})


def test_config_paths(default_config):
    assert default_config.train_data_path().endswith("pneurc_out/data/train.csv")
    assert default_config.test_data_path().endswith("pneurc_out/data/test.csv")
    custom = dataclasses.replace(default_config, train_data="/tmp/mine.csv")
    assert custom.train_data_path() == "/tmp/mine.csv"
    assert default_config.model_artifact_path("esn").endswith("models/esn.npz")
    assert default_config.model_artifact_path("fprc").endswith("models/fprc.json")
    assert default_config.model_artifact_path("fuzzy-linear").endswith(
        "models/fuzzy-linear.json")


def test_config_wires_params(default_config):
    esn = default_config.esn_params()
    assert esn.reservoir_size == 800
    assert esn.seed == default_config.seed
    assert esn.leak_rate == 0.8
    assert esn.spectral_radius == 0.4
    fprc = default_config.fprc_params()
    assert fprc.k_in == 7.0
    assert fprc.epsilon == 0.01
    assert (fprc.n_y, fprc.n_u, fprc.n_c) == (5, 3, 8)
    assert fprc.input_limit == default_config.plant.reservoir.input_range
    seeded = dataclasses.replace(default_config, seed=9)
    assert seeded.esn_params().seed == 9


def test_config_builders(default_config):
    act = default_config.build_actuator()
    res = default_config.build_reservoir()
    assert act.lag_time_constant == 0.05
    assert res.baseline_pressure == 100.0
    assert res.input_limit == 450.0
    gains = default_config.controller_gains()
    assert gains.pd.kp == 20.0 and gains.pd.kd == 0.2
    assert gains.pi_ideal is True
    spec = default_config.disturbance_spec()
    assert spec.window == (10.0, 25.0)
    assert spec.mode == "additive-pressure"
    assert spec.magnitude == 8.0


def test_default_signal_shapes(default_config):
    train = default_config.signals.train_excitation.render(default_config.dt)
    test = default_config.signals.test_excitation.render(default_config.dt)
    assert train.unit == "kPa" and test.unit == "kPa"
    assert len(train) == round(120.0 / default_config.dt)
    assert len(test) == round(80.0 / default_config.dt)
    # excitations stay inside the supply range with margin for the actuator
    assert train.values.min() >= 0.0 and train.values.max() <= 350.0
    assert test.values.min() >= 0.0 and test.values.max() <= 450.0
    for name, spec in default_config.signals.scenarios.items():
        ref = spec.render(default_config.dt)
        assert ref.unit == "deg", name
        # the complex reference peaks a fraction of a degree past the bend
        # limit; the actuator saturates there, mirroring the physical rig
        assert ref.values.min() >= 0.0 and ref.values.max() <= 61.0


def test_sub_config_validation_happens_at_build():
    with pytest.raises(InvalidSpecError):
        ActuatorConfig(n_ops=0).build()
    with pytest.raises(InvalidSpecError):
        ReservoirConfig(radius_span=500.0).build()
    with pytest.raises(InvalidSpecError):
        DisturbanceConfig(t_start=5.0, t_end=5.0).build()
    with pytest.raises(InvalidSpecError):
        DisturbanceConfig(mode="zap").build()
