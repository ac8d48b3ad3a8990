"""Feedforward hysteresis compensation for a simulated pneumatic bending
actuator, with a hysteretic sensing reservoir and a fuzzy readout."""

from .config import ExperimentConfig
from .control import (ControllerGains, RunLog, extract_hysteresis_loop, pd_step,
                      run_closed_loop, run_open_loop, tracking_report)
from .datasets import Dataset, generate_dataset
from .errors import (DegenerateClusteringError, DegenerateRangeError,
                     DimensionError, InvalidDataError, InvalidSpecError,
                     NumericError, PneurcError, ResourceError, StateError)
from .esn import (EsnConfig, EsnModel, EsnParams, EsnTrainer, TrainedEsn,
                  esn_collect_states, esn_init, esn_update)
from .fprc import (FprcConfig, FprcModel, FprcParams, FprcTrainer, convert_angle,
                   drive_reservoir, fprc_collect_training, fprc_weight_analysis)
from .fuzzy import (FuzzyRuleSet, fcm_cluster, fuzzy_infer_batch, train_fuzzy_readout)
from .plant import (ActuatorConfig, DisturbanceSpec, Plant, PlayOperatorStack,
                    ReservoirConfig, apply_disturbance, drive, plant_step)
from .signals import DEFAULT_DT, SignalSpec, TimeSeries
from .training import (BenchmarkResult, CvReport, SweepResult, benchmark_execution,
                       kfold_cv, normalize_minmax, ridge_solve, rmse, run_sweep,
                       weight_contributions)

__version__ = "0.1.0"
