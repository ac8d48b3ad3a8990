"""Dataset container, the identification experiment, and the config schema."""
import dataclasses
import json
import pathlib
import re

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra.numpy import arrays

from pneurc.config import (MODEL_KINDS, ActuatorConfig, ExperimentConfig, ModelConfig,
                           ReservoirConfig, SignalsConfig)
from pneurc.control import SCENARIO_NAMES, run_closed_loop
from pneurc.datasets import CSV_HEADER, Dataset, generate_dataset
from pneurc.errors import InvalidDataError, InvalidSpecError
from pneurc.esn import WEIGHT_DISTRIBUTIONS
from pneurc.fprc import convert_angle
from pneurc.plant import DisturbanceSpec, plant_step
from pneurc.signals import CSV_BLOCK_ROWS, SignalSpec, format_float


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


@settings(max_examples=40)
@given(data=st.data())
def test_dataset_csv_round_trip_property(tmp_path_factory, data):
    n = data.draw(st.integers(2, 40))
    finite = st.floats(allow_nan=False, allow_infinity=False)
    columns = [data.draw(arrays(float, n, elements=finite)) for _ in range(4)]
    ds = Dataset(*columns, dt=data.draw(st.floats(1e-6, 1e3)))
    path = tmp_path_factory.mktemp("dataset") / "data.csv"
    ds.save_csv(path)
    back = Dataset.load_csv(path)
    assert back.dt == ds.dt
    for name in ("theta", "p_exp", "p_i", "p_o"):
        assert getattr(back, name).tobytes() == getattr(ds, name).tobytes(), name


def test_dataset_csv_bytes_match_per_element_writer(tmp_path, small_dataset):
    awkward = np.array([0.0, -0.0, 5e-324, 1e300, -1.7976931348623157e308, 3.0, -12.0,
                        0.1, 1.0 / 3.0, 123456.789, 1e-7, 2.5e16])
    weird = Dataset(theta=awkward, p_exp=awkward[::-1], p_i=np.roll(awkward, 3),
                    p_o=np.roll(awkward, 7), dt=1.0 / 3.0)
    assert len(small_dataset) > CSV_BLOCK_ROWS  # rows are written in blocks
    for i, ds in enumerate((small_dataset, weird)):
        # the dataset writer that indexed the arrays one element at a time
        t = ds.times
        lines = [CSV_HEADER] + [",".join(format_float(v) for v in (
            t[k], ds.theta[k], ds.p_exp[k], ds.p_i[k], ds.p_o[k])) for k in range(len(ds))]
        path = tmp_path / f"data{i}.csv"
        ds.save_csv(path)
        assert path.read_bytes() == ("\n".join(lines) + "\n").encode("ascii")


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
    path.write_bytes((CSV_HEADER + "\n0.0,1,1,1,1\n").encode("ascii") + b"0.01,\xe9,1,1,1\n")
    with pytest.raises(InvalidDataError, match="not ASCII"):
        Dataset.load_csv(path)


def test_dataset_csv_errors_name_the_line_in_the_file(tmp_path):
    # line 4 is blank, so the bad row is the file's fifth line but the fourth
    # non-blank one
    path = tmp_path / "b.csv"
    path.write_text(CSV_HEADER + "\n0.0,1,1,1,1\n0.01,1,1,1,1\n\n0.5,1,1\n")
    with pytest.raises(InvalidDataError, match=r"b\.csv:5: expected 5 columns, got 3$"):
        Dataset.load_csv(path)
    path.write_text(CSV_HEADER + "\n0.0,1,1,1,1\n0.01,1,1,1,1\n\n0.5,1,1,1,1\n")
    with pytest.raises(InvalidDataError, match=r"b\.csv:5: t_s=0\.5 is off the uniform clock "
                                               r"t_0 \+ k\*dt = 0\.02$"):
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
    excitation = SignalSpec(kind="sine", amplitude=100.0, offset=150.0, frequencies=(0.5,),
                            duration=2.0).render()
    params = default_config.fprc_params()
    ds = generate_dataset(excitation, default_config.build_actuator(),
                          default_config.build_reservoir(), k_in=params.k_in)
    act = default_config.build_actuator()
    res = default_config.build_reservoir()
    for k in range(len(ds)):
        theta = plant_step(act, excitation.values[k], excitation.dt)
        assert ds.theta[k] == theta
        p_i = convert_angle(theta, params.k_in, res.input_limit)
        assert ds.p_i[k] == p_i
        assert ds.p_o[k] == plant_step(res, p_i, excitation.dt)
    np.testing.assert_array_equal(ds.p_exp, excitation.values)
    assert ds.dt == excitation.dt


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
    with pytest.raises(InvalidSpecError, match="seed"):
        ExperimentConfig(seed=-1)
    with pytest.raises(InvalidSpecError):
        ExperimentConfig(dt=0.0)
    with pytest.raises(InvalidSpecError):
        ExperimentConfig(cv_folds=1)
    with pytest.raises(InvalidSpecError):
        ExperimentConfig(bench_repetitions=0)
    with pytest.raises(InvalidSpecError, match="scenarios"):
        SignalsConfig(scenarios={"sine02": SignalSpec(kind="sine", amplitude=1.0,
                                                      offset=2.0, frequencies=(0.2,),
                                                      duration=1.0)})


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
    # the reservoir input limit is the reservoir's own, not a model parameter
    assert not hasattr(fprc, "input_limit")
    res = default_config.build_reservoir()
    assert res.input_limit == default_config.plant.reservoir.input_range
    seeded = dataclasses.replace(default_config, seed=9)
    assert seeded.esn_params().seed == 9


def test_config_builders(default_config):
    act = default_config.build_actuator()
    res = default_config.build_reservoir()
    assert act.lag_time_constant == 0.05
    assert res.baseline == 100.0
    assert res.input_limit == 450.0
    gains = default_config.controller_gains()
    assert gains.pd_kp == 20.0 and gains.pd_kd == 0.2
    spec = default_config.disturbance_spec()
    assert spec.window == (10.0, 25.0)
    assert spec.magnitude == 8.0


@pytest.mark.parametrize("kind", MODEL_KINDS)
def test_config_builds_the_trainer_of_every_kind(default_config, kind):
    assert default_config.trainer(kind).kind == kind


def test_config_trainer_takes_fprc_overrides(default_config):
    trainer = default_config.trainer("fprc", n_c=2)
    assert trainer.params.n_c == 2
    assert trainer.params == default_config.fprc_params().replace(n_c=2)


def test_config_rejects_an_unknown_model_kind(tmp_path):
    cfg = ExperimentConfig(out_dir=str(tmp_path))
    with pytest.raises(InvalidSpecError, match="unknown model kind 'bogus'"):
        cfg.trainer("bogus")
    with pytest.raises(InvalidSpecError, match="unknown model kind 'bogus'"):
        cfg.load_model("bogus")


@pytest.mark.parametrize("kind", ["fprc", "esn"])
def test_config_load_model_round_trips_an_artifact(tmp_path, small_dataset, kind):
    cfg = ExperimentConfig(out_dir=str(tmp_path), model=ModelConfig(
        esn=dataclasses.replace(ModelConfig().esn, reservoir_size=30, washout=20)))
    model = cfg.trainer(kind).fit([small_dataset])
    path = pathlib.Path(cfg.model_artifact_path(kind))
    path.parent.mkdir(parents=True)
    model.save(path)
    for loaded in (cfg.load_model(kind), cfg.load_model(kind, str(path))):
        assert loaded.kind == kind
        for got, want in zip(loaded.evaluate(small_dataset), model.evaluate(small_dataset)):
            np.testing.assert_array_equal(got, want)


def test_default_signal_shapes(default_config):
    train = default_config.signals.train_excitation.render(default_config.dt)
    test = default_config.signals.test_excitation.render(default_config.dt)
    assert len(train) == round(120.0 / default_config.dt)
    assert len(test) == round(80.0 / default_config.dt)
    # excitations stay inside the supply range with margin for the actuator
    assert train.values.min() >= 0.0 and train.values.max() <= 350.0
    assert test.values.min() >= 0.0 and test.values.max() <= 450.0
    for name, spec in default_config.signals.scenarios.items():
        ref = spec.render(default_config.dt)
        # the complex reference peaks a fraction of a degree past the bend
        # limit; the actuator saturates there, mirroring the physical rig
        assert ref.values.min() >= 0.0 and ref.values.max() <= 61.0


def test_sub_config_validation_happens_at_build():
    with pytest.raises(InvalidSpecError):
        ActuatorConfig(n_ops=0).build()
    with pytest.raises(InvalidSpecError):
        DisturbanceSpec(t_start=5.0, t_end=5.0)


# ---------------------------------------------------------------------------
# config layout: the default config as written before the PI gains went

DEFAULT_WITH_PI = pathlib.Path(__file__).parent / "data" / "default_config_with_pi_gains.json"
PI_KEYS = ["pi_fprc_ki", "pi_fprc_kp", "pi_ideal", "pi_main_ki", "pi_main_kp"]
# keys the fixture holds that the config no longer takes: switches no
# workload set, signal units that each signal's role fixes, and the model
# kind that --model picks: (section path, key, the value the fixture holds)
REMOVED_KEYS = [(("model", "fprc"), "filter_init", "first-sample"),
                (("disturbance",), "mode", "additive-pressure"),
                (("plant", "actuator"), "radius_span", None),
                (("plant", "reservoir"), "radius_span", None),
                (("signals", "train_excitation"), "unit", "kPa"),
                (("signals", "test_excitation"), "unit", "kPa"),
                *((("signals", "scenarios", name), "unit", "deg") for name in SCENARIO_NAMES),
                (("model",), "kind", "fprc")]


def canonical_json(doc: dict) -> str:
    """The bytes ``ExperimentConfig.to_json`` writes for a config mapping."""
    return json.dumps(doc, indent=2, sort_keys=True) + "\n"


def _section(doc: dict, path: tuple) -> dict:
    for part in path:
        doc = doc[part]
    return doc


def _without_removed_keys(doc: dict) -> dict:
    for path, key, default in REMOVED_KEYS:
        assert _section(doc, path).pop(key) == default
    return doc


def test_config_with_pi_gains_is_rejected():
    doc = _without_removed_keys(json.loads(DEFAULT_WITH_PI.read_text()))
    with pytest.raises(InvalidSpecError,
                       match=re.escape(f"config.gains: unknown fields {PI_KEYS}")):
        ExperimentConfig.from_dict(doc)


def test_config_layout_is_unchanged_but_for_the_pi_gains(tmp_path):
    text = DEFAULT_WITH_PI.read_text()
    doc = json.loads(text)
    assert canonical_json(doc) == text
    assert sorted(k for k in doc["gains"] if k.startswith("pi_")) == PI_KEYS
    _without_removed_keys(doc)
    for key in PI_KEYS:
        del doc["gains"][key]
    assert ExperimentConfig.from_dict(doc) == ExperimentConfig()
    path = tmp_path / "config.json"
    ExperimentConfig().to_json(path)
    assert path.read_text() == canonical_json(doc)


@pytest.mark.parametrize("path, key, default", REMOVED_KEYS,
                         ids=[".".join((*path, key)) for path, key, _ in REMOVED_KEYS])
def test_config_holding_a_removed_key_is_rejected_naming_it(path, key, default):
    doc = ExperimentConfig().to_dict()
    _section(doc, path)[key] = default
    with pytest.raises(InvalidSpecError,
                       match=re.escape(f"config.{'.'.join(path)}: unknown fields ['{key}']")):
        ExperimentConfig.from_dict(doc)


def test_config_takes_the_benchmark_edits(tmp_path):
    # the keys perfbench/workloads.py edits in ExperimentConfig().to_dict(),
    # and the calls it makes on the loaded config
    doc = ExperimentConfig().to_dict()
    doc["model"]["fprc"]["fcm_tol"] = 1e-12
    doc["model"]["fprc"]["fcm_max_iter"] = 150
    doc["cv_folds"] = 2
    doc["signals"]["train_excitation"]["duration"] = 30.0
    doc["train_data"] = str(tmp_path / "data" / "train.csv")
    doc["test_data"] = str(tmp_path / "data" / "test.csv")
    path = tmp_path / "config.json"
    path.write_text(json.dumps(doc, indent=2, sort_keys=True))
    cfg = ExperimentConfig.from_json(path)
    assert cfg.to_dict() == doc
    assert cfg.fprc_params().fcm_max_iter == 150 and cfg.train_data_path() == doc["train_data"]
    ref = cfg.signals.scenarios["sine05"].render(cfg.dt)
    log = run_closed_loop(ref, None, cfg.build_actuator(), cfg.controller_gains())
    assert len(log) == len(ref) and np.all(np.isfinite(log.theta))


# string keys that take one of a fixed set of values; the signal kind stays
# as it is, because it fixes how many frequencies the spec holds
STRING_CHOICES = {"weight_distribution": WEIGHT_DISTRIBUTIONS}


def draw_like(data, value, key=""):
    """A random valid value shaped like ``value``, the default config's mapping."""
    if isinstance(value, dict):
        return {k: draw_like(data, v, k) for k, v in value.items()}
    if isinstance(value, list):
        return [draw_like(data, v, key) for v in value]
    if key == "kind":
        return value
    if key in STRING_CHOICES:
        return data.draw(st.sampled_from(STRING_CHOICES[key]))
    if isinstance(value, str):
        return data.draw(st.text(st.characters(min_codepoint=32, max_codepoint=126)))
    if isinstance(value, int):
        return data.draw(st.integers(2, 2 ** 31))
    return data.draw(st.floats(1e-9, 1e9))


@settings(max_examples=40)
@given(data=st.data())
def test_config_json_round_trip_property(tmp_path_factory, data):
    doc = draw_like(data, ExperimentConfig().to_dict())
    window = sorted([doc["disturbance"]["t_start"], doc["disturbance"]["t_end"]])
    doc["disturbance"]["t_start"], doc["disturbance"]["t_end"] = window[0], window[1] + 1.0
    for device in doc["plant"].values():  # a lag of at least one sample
        device["lag_time_constant"] = max(device["lag_time_constant"], doc["dt"])
    cfg = ExperimentConfig.from_dict(doc)
    assert cfg.to_dict() == doc
    path = tmp_path_factory.mktemp("config") / "config.json"
    cfg.to_json(path)
    assert ExperimentConfig.from_json(path) == cfg
    assert path.read_text() == canonical_json(doc)
