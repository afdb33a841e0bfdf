"""Conditional recalibration of predictive distributions.

Diagnose where a conditional distribution estimate is miscalibrated, learn a
single probability-probability map from calibration data, and reshape the
estimate into a conditionally calibrated one, with prediction intervals,
highest-density sets, local coverage tests, conformal baselines, synthetic
oracles, and a Monte Carlo coverage benchmark harness.
"""

__version__ = "0.1.0"

from .errors import (
    ConfigError,
    DegenerateDensity,
    DegenerateRecalibration,
    HpdSearchFailed,
    InsufficientCalibration,
    InsufficientData,
    InvalidBandwidth,
    InvalidDensity,
    InvalidGrid,
    LengthMismatch,
    NonStationaryVar,
    PitcalError,
    TrainingDiverged,
)
from .grid import (
    GridCdf,
    GridDensity,
    YGrid,
    default_grid,
    invert_cdf,
    renormalize_density,
    widen_density,
)
from .models import GaussianInitialModel, MarginalHistogramModel, UniformInitialModel
from .calibrate import (
    AugmentedCalibrationSet,
    CalibrationSet,
    IdentityPitCdf,
    LocalEmpiricalConfig,
    LocalEmpiricalModel,
    PitCdfModel,
    PredictionSet,
    RecalibratedDistribution,
    RecalibratedInitialModel,
    augment,
    calpit_hpd,
    calpit_interval,
    compute_pit_values,
    fit_local_empirical,
    recalibrate,
)
from .monotone_net import MonotoneNetConfig, MonotoneNetModel, fit_monotone_net
from .diagnose import (AlpCurve, LocalTestResult, cde_loss, mc_local_test, mc_local_tests,
                       mc_p_value)
from .bench import CoverageReport, ExperimentRecipe, classify_coverage, run_experiment
from .baselines import ConformalCalibration, DcpModel, RegSplitModel, fit_knn_mean

__all__ = [
    "__version__",
    # errors
    "PitcalError", "InvalidGrid", "InvalidDensity", "DegenerateDensity",
    "InvalidBandwidth", "LengthMismatch", "InsufficientData",
    "InsufficientCalibration", "TrainingDiverged", "DegenerateRecalibration",
    "HpdSearchFailed", "NonStationaryVar", "ConfigError",
    # grid
    "YGrid", "GridDensity", "GridCdf", "invert_cdf",
    "renormalize_density", "widen_density", "default_grid",
    # initial models
    "GaussianInitialModel", "UniformInitialModel", "MarginalHistogramModel",
    # calibration
    "CalibrationSet", "AugmentedCalibrationSet", "PitCdfModel", "IdentityPitCdf",
    "LocalEmpiricalConfig", "LocalEmpiricalModel", "RecalibratedDistribution",
    "RecalibratedInitialModel", "PredictionSet", "compute_pit_values", "augment",
    "fit_local_empirical", "recalibrate", "calpit_interval", "calpit_hpd",
    "MonotoneNetConfig", "MonotoneNetModel", "fit_monotone_net",
    # diagnostics
    "AlpCurve", "LocalTestResult", "mc_local_test", "mc_local_tests", "mc_p_value",
    "cde_loss",
    # bench
    "ExperimentRecipe", "CoverageReport", "classify_coverage", "run_experiment",
    # baselines
    "ConformalCalibration", "RegSplitModel", "DcpModel", "fit_knn_mean",
]
