"""The recalibration loop assembled once: split, initial model, PIT values, map.

``pitcal calibrate``, ``pitcal diagnose`` and :func:`pitcal.bench.run_experiment`
all build the paper's loop from these steps. Seeds come from the caller, so
each front end keeps its own seed streams.
"""

from __future__ import annotations

import numpy as np

from . import rng as rngmod
from .baselines import fit_knn_mean
from .calibrate import CalibrationSet, LocalEmpiricalConfig, augment, fit_local_empirical
from .errors import ConfigError
from .models import GaussianInitialModel, MarginalHistogramModel, UniformInitialModel

__all__ = [
    "default_k", "check_train_fraction", "split_calibration", "build_initial", "fit_pit_model",
]


def default_k(n: int) -> int:
    """Neighbour count when none is given: a tenth of the rows, within [10, 1000]."""
    return max(10, min(n // 10, 1000))


def check_train_fraction(fraction) -> float:
    """``fraction`` as a float; one outside (0, 1), NaN included, is a configuration error."""
    if not 0.0 < float(fraction) < 1.0:
        raise ConfigError(f"train fraction must be in (0, 1), got {fraction}")
    return float(fraction)


def split_calibration(data: CalibrationSet, fraction: float):
    """(train, cal): the first ``int(n * fraction)`` rows train, the rest calibrate.

    A fraction outside (0, 1), NaN included, or an empty part is a configuration error.
    """
    n_train = int(len(data) * check_train_fraction(fraction))
    if n_train < 1 or n_train >= len(data):
        raise ConfigError(f"train fraction {fraction} leaves an empty split of {len(data)} rows")
    return (CalibrationSet(data.xs[:n_train], data.ys[:n_train]),
            CalibrationSet(data.xs[n_train:], data.ys[n_train:]))


def build_initial(kind: str, grid, train: CalibrationSet, *, mean_k=50, sd_scale=1.0,
                  generator_model=None):
    """The initial conditional model named by ``kind``, fitted on ``train`` where needed.

    ``gaussian-fit`` is a nearest-neighbour mean plus one global residual
    scale (1 when the residuals are all zero), times ``sd_scale``.
    ``generator`` returns ``generator_model``, the data source's own model.
    """
    if kind == "uniform":
        return UniformInitialModel(grid)
    if kind == "marginal":
        return MarginalHistogramModel(grid, train.ys)
    if kind == "generator":
        if generator_model is None:
            raise ConfigError("the data source provides no generator initial model")
        return generator_model
    if kind == "gaussian-fit":
        if int(mean_k) < 1:
            raise ConfigError(f"mean_k must be >= 1, got {mean_k}")
        if not 0.0 < float(sd_scale) < np.inf:
            raise ConfigError(f"sd_scale must be finite and > 0, got {sd_scale}")
        mu = fit_knn_mean(train, k=int(mean_k))
        resid = train.ys - mu.predict(train.xs)
        sd = float(np.std(resid)) or 1.0
        return GaussianInitialModel(grid, mean_fn=mu, sd_fn=sd * float(sd_scale))
    raise ConfigError(f"unknown initial model kind {kind!r}")


def fit_pit_model(cal: CalibrationSet, pits, backend: str, seed: int, *, k=None,
                  weighting="uniform", k_factor=50, net=None):
    """Fit the PIT-CDF map r(gamma; x) with the named backend.

    ``local`` uses the ``k`` nearest neighbours (:func:`default_k` when ``k``
    is None); a ``k`` above the calibration row count is a configuration
    error. ``net`` holds :class:`MonotoneNetConfig` fields; its ``seed``
    defaults to ``seed``, and the augmentation draws from
    ``derive_seed(seed, "augment")`` with ``k_factor`` levels per row.
    """
    if backend == "local":
        try:
            cfg = LocalEmpiricalConfig(k=default_k(len(cal)) if k is None else int(k),
                                       weighting=weighting)
        except ValueError as exc:
            raise ConfigError(str(exc)) from exc
        if cfg.k > len(cal):
            raise ConfigError(f"k={cfg.k} exceeds the {len(cal)} calibration rows")
        return fit_local_empirical(cal, pits, cfg)
    if backend == "net":
        from .monotone_net import MonotoneNetConfig, fit_monotone_net

        try:
            cfg = MonotoneNetConfig(**{"seed": seed, **(net or {})})
        except (TypeError, ValueError) as exc:
            raise ConfigError(f"network configuration: {exc}") from exc
        k_factor = int(k_factor)
        if k_factor < 1:
            raise ConfigError(f"k_factor must be >= 1, got {k_factor}")
        aug = augment(cal, pits, k_factor, rngmod.derive_seed(seed, "augment"))
        try:
            return fit_monotone_net(aug, cfg)
        except ValueError as exc:  # a validation split that leaves no training row
            raise ConfigError(f"network configuration: {exc}") from exc
    raise ConfigError(f"unknown backend {backend!r}")
