"""Experiment configuration: one strict, serializable schema that fixes
the signals, the plants, every model's hyperparameters and the controller.
Which model a command trains or evaluates is the command's ``--model``.

The schema nests the domain's own frozen dataclasses (``SignalSpec``,
``ActuatorConfig``, ``FprcConfig``, ``ControllerGains``, ...), which hold
every default. One decoder, ``signals.decode``, reads any of them from
JSON: unknown fields, missing required fields and values of the wrong
type are rejected with the dotted path of the key, so a typo cannot
silently fall back to a default. ``ExperimentConfig.default()``
reproduces the benchmarked setup.
"""
from __future__ import annotations

import dataclasses
import json
import os
from dataclasses import asdict, dataclass, field

import numpy as np

from .control import SCENARIO_NAMES, ControllerGains
from .errors import InvalidDataError, InvalidSpecError
from .esn import EsnConfig, EsnParams, EsnTrainer, TrainedEsn
from .fprc import FprcConfig, FprcModel, FprcParams, FprcTrainer
from .plant import ActuatorConfig, DisturbanceSpec, Plant, ReservoirConfig
from .signals import DEFAULT_DT, DEFAULT_N_Y, SignalSpec, decode, write_json

MODEL_KINDS = ("fprc", "esn", "fuzzy-linear")

# multisine content of the complex excitation and reference
COMPLEX_FREQS = (0.12, 0.04, 0.31, 0.29, 0.25)


def _encode(obj):
    """JSON form of a config value: dataclasses as mappings, tuples as lists."""
    if dataclasses.is_dataclass(obj):
        return {f.name: _encode(getattr(obj, f.name)) for f in dataclasses.fields(obj)}
    if isinstance(obj, dict):
        return {k: _encode(v) for k, v in obj.items()}
    if isinstance(obj, tuple):
        return [_encode(v) for v in obj]
    return obj


@dataclass(frozen=True)
class PlantConfig:
    actuator: ActuatorConfig = field(default_factory=ActuatorConfig)
    reservoir: ReservoirConfig = field(default_factory=ReservoirConfig)


@dataclass(frozen=True)
class ModelConfig:
    n_y: int = DEFAULT_N_Y
    alpha: float = FprcParams.alpha
    esn: EsnConfig = field(default_factory=EsnConfig)
    fprc: FprcConfig = field(default_factory=FprcConfig)


def _default_train_excitation() -> SignalSpec:
    return SignalSpec(kind="chirp-linear", amplitude=175.0, offset=175.0,
                      frequencies=(0.1, 1.0), duration=120.0)


def _default_test_excitation() -> SignalSpec:
    return SignalSpec(kind="multisine", amplitude=35.0, offset=175.0,
                      frequencies=COMPLEX_FREQS, duration=80.0, phase=-0.5 * np.pi)


def _default_scenarios() -> dict:
    half_pi = 0.5 * np.pi
    return {
        "sine02": SignalSpec(kind="sine", amplitude=27.5, offset=32.5,
                             frequencies=(0.2,), duration=20.0, phase=-half_pi),
        "sine05": SignalSpec(kind="sine", amplitude=27.5, offset=32.5,
                             frequencies=(0.5,), duration=20.0, phase=-half_pi),
        "chirp": SignalSpec(kind="chirp-quadratic", amplitude=27.5, offset=32.5,
                            frequencies=(0.1, 0.01125), duration=80.0, phase=-half_pi),
        "complex": SignalSpec(kind="multisine", amplitude=6.5, offset=40.5,
                              frequencies=COMPLEX_FREQS, duration=100.0, phase=-half_pi),
        "disturbance": SignalSpec(kind="sine", amplitude=27.5, offset=32.5,
                                  frequencies=(0.3,), duration=30.0, phase=-half_pi),
    }


@dataclass(frozen=True)
class SignalsConfig:
    train_excitation: SignalSpec = field(default_factory=_default_train_excitation)
    test_excitation: SignalSpec = field(default_factory=_default_test_excitation)
    scenarios: dict[str, SignalSpec] = field(default_factory=_default_scenarios)

    def __post_init__(self):
        missing = set(SCENARIO_NAMES) - set(self.scenarios)
        extra = set(self.scenarios) - set(SCENARIO_NAMES)
        if missing or extra:
            raise InvalidSpecError(f"scenarios must be exactly {SCENARIO_NAMES}; "
                                   f"missing {sorted(missing)}, unknown {sorted(extra)}")


@dataclass(frozen=True)
class ExperimentConfig:
    seed: int = 0
    dt: float = DEFAULT_DT
    cv_folds: int = 5
    bench_repetitions: int = 10
    out_dir: str = "pneurc_out"
    train_data: str = ""
    test_data: str = ""
    signals: SignalsConfig = field(default_factory=SignalsConfig)
    plant: PlantConfig = field(default_factory=PlantConfig)
    model: ModelConfig = field(default_factory=ModelConfig)
    gains: ControllerGains = field(default_factory=ControllerGains)
    disturbance: DisturbanceSpec = field(default_factory=DisturbanceSpec)

    def __post_init__(self):
        if self.seed < 0:
            raise InvalidSpecError(f"seed must be non-negative, got {self.seed}")
        if self.dt <= 0.0:
            raise InvalidSpecError("dt must be positive")
        for device in ("actuator", "reservoir"):
            tau = getattr(self.plant, device).lag_time_constant
            if self.dt >= 2.0 * tau:  # the forward-Euler lag would not contract
                raise InvalidSpecError(f"plant.{device}.lag_time_constant must exceed "
                                       f"dt / 2 = {self.dt / 2}, got {tau}")
        if self.cv_folds < 2:
            raise InvalidSpecError("cv_folds must be >= 2")
        if self.bench_repetitions < 1:
            raise InvalidSpecError("bench_repetitions must be >= 1")

    @classmethod
    def default(cls) -> "ExperimentConfig":
        return cls()

    # -- dict / json round trip ------------------------------------------

    def to_dict(self) -> dict:
        return _encode(self)

    @classmethod
    def from_dict(cls, d: dict) -> "ExperimentConfig":
        return decode(cls, d, "config")

    def to_json(self, path) -> None:
        write_json(path, self.to_dict())

    @classmethod
    def from_json(cls, path) -> "ExperimentConfig":
        try:
            with open(path, "r", encoding="ascii") as fh:
                d = json.load(fh)
        except FileNotFoundError:
            raise
        except UnicodeDecodeError as exc:
            raise InvalidSpecError(f"{path}: not ASCII text ({exc})") from exc
        except ValueError as exc:  # JSONDecodeError, or an int of over 4,300 digits
            raise InvalidSpecError(f"{path}: not valid JSON ({exc})") from exc
        except OSError as exc:
            raise InvalidSpecError(f"{path}: cannot be read ({exc.strerror})") from exc
        return cls.from_dict(d)

    # -- paths ------------------------------------------------------------

    def train_data_path(self) -> str:
        return self.train_data or os.path.join(self.out_dir, "data", "train.csv")

    def test_data_path(self) -> str:
        return self.test_data or os.path.join(self.out_dir, "data", "test.csv")

    def model_artifact_path(self, kind: str) -> str:
        ext = "npz" if kind == "esn" else "json"
        return os.path.join(self.out_dir, "models", f"{kind}.{ext}")

    # -- builders ---------------------------------------------------------

    def build_actuator(self) -> Plant:
        return self.plant.actuator.build()

    def build_reservoir(self) -> Plant:
        return self.plant.reservoir.build()

    def esn_params(self) -> EsnParams:
        return EsnParams(**asdict(self.model.esn), n_y=self.model.n_y, seed=self.seed)

    def fprc_params(self) -> FprcParams:
        return FprcParams(**asdict(self.model.fprc), n_y=self.model.n_y,
                          alpha=self.model.alpha)

    def trainer(self, kind: str, **fprc_overrides):
        """The trainer of a model kind. ``fprc_overrides`` replace fields of
        ``fprc_params()`` for the fprc and fuzzy-linear kinds."""
        if kind == "esn":
            return EsnTrainer(self.esn_params(), alpha=self.model.alpha)
        if kind in ("fprc", "fuzzy-linear"):
            return FprcTrainer(self.fprc_params().replace(**fprc_overrides), seed=self.seed,
                               reservoir_features=(kind == "fprc"))
        raise InvalidSpecError(f"unknown model kind {kind!r}")

    def load_model(self, kind: str, artifact: str | None = None):
        """The trained model of a kind, read from ``artifact`` or by default
        from ``model_artifact_path(kind)``."""
        if kind not in MODEL_KINDS:
            raise InvalidSpecError(f"unknown model kind {kind!r}")
        path = artifact or self.model_artifact_path(kind)
        if not os.path.exists(path):
            raise InvalidDataError(f"model artifact {path} not found; run 'pneurc train' first")
        model = TrainedEsn.load(path) if kind == "esn" else FprcModel.load(path)
        if model.kind != kind:
            raise InvalidSpecError(f"{path} holds a {model.kind} model, not {kind}")
        return model

    def controller_gains(self) -> ControllerGains:
        return self.gains

    def disturbance_spec(self) -> DisturbanceSpec:
        return self.disturbance
