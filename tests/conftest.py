"""Shared fixtures: the default experiment and its trained models.

The expensive artifacts (full-length datasets, cross-validated FPRC model,
ESN trained on the whole record) are built once per session and shared by
the unit and acceptance tests.
"""
import numpy as np
import pytest
from hypothesis import settings

from pneurc.config import ExperimentConfig
from pneurc.datasets import Dataset, generate_dataset
from pneurc.esn import EsnTrainer
from pneurc.fprc import FprcTrainer
from pneurc.training import kfold_cv

# Hypothesis profile for every property test: the same examples on every
# run (derandomize) and no per-example time limit (deadline); tests set only
# max_examples themselves
settings.register_profile("pneurc", derandomize=True, deadline=None)
settings.load_profile("pneurc")


def _generate(cfg: ExperimentConfig, spec) -> Dataset:
    return generate_dataset(spec.render(cfg.dt), cfg.build_actuator(),
                            cfg.build_reservoir(), k_in=cfg.fprc_params().k_in)


@pytest.fixture(scope="session")
def default_config() -> ExperimentConfig:
    return ExperimentConfig()


@pytest.fixture(scope="session")
def train_dataset(default_config) -> Dataset:
    return _generate(default_config, default_config.signals.train_excitation)


@pytest.fixture(scope="session")
def test_dataset(default_config) -> Dataset:
    return _generate(default_config, default_config.signals.test_excitation)


@pytest.fixture(scope="session")
def fprc_cv_model(default_config, train_dataset):
    """FPRC trained with the default cross-validation protocol."""
    trainer = FprcTrainer(default_config.fprc_params(), seed=default_config.seed)
    model, report = kfold_cv(train_dataset, trainer, k=default_config.cv_folds)
    return model


@pytest.fixture(scope="session")
def esn_trained(default_config, train_dataset):
    """ESN fitted once on the full training record (no cross validation)."""
    trainer = EsnTrainer(default_config.esn_params(), alpha=default_config.model.alpha)
    return trainer.fit([train_dataset])


@pytest.fixture(scope="session")
def small_dataset(default_config) -> Dataset:
    """Short record for cheap unit tests: 6 s of a 0.4 Hz pressure sine."""
    from pneurc.signals import SignalSpec

    spec = SignalSpec(kind="sine", amplitude=150.0, offset=180.0,
                      frequencies=(0.4,), duration=6.0)
    return _generate(default_config, spec)


@pytest.fixture()
def rng() -> np.random.Generator:
    return np.random.default_rng(12345)
