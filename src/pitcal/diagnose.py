"""Calibration diagnostics: local P-P curves, Monte Carlo coverage tests,
null confidence bands, and the estimable density-estimation loss.

The local test statistic measures the mean squared deviation of the fitted
PIT-CDF curve from the diagonal over a gamma grid. Its null distribution is
simulated by refitting the regression on resampled uniform PIT values, which
is valid for local estimators whose fit at x only uses calibration points
near x: the k-nearest-neighbor backend qualifies, network fits do not.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np
from scipy.interpolate import PchipInterpolator

from . import rng as rngmod
from .calibrate import CalibrationSet, PitCdfModel
from .errors import LengthMismatch
from .grid import GridDensity

__all__ = [
    "AlpCurve",
    "LocalTestResult",
    "DEFAULT_TEST_GAMMAS",
    "alp_curve",
    "local_test_statistic",
    "mc_p_value",
    "mc_confidence_band",
    "cde_loss",
]

# default gamma grid for the local test statistic
DEFAULT_TEST_GAMMAS = np.linspace(0.05, 0.95, 21)


@dataclass(frozen=True)
class AlpCurve:
    """Local P-P curve r(gamma; x) versus gamma, with an optional null band."""

    x: np.ndarray
    gammas: np.ndarray
    r_values: np.ndarray
    band_lo: np.ndarray | None = None
    band_hi: np.ndarray | None = None


@dataclass(frozen=True)
class LocalTestResult:
    """Observed statistic and Monte Carlo p-value of the local coverage test."""

    x: np.ndarray
    statistic: float
    p_value: float
    n_mc: int


def alp_curve(r: PitCdfModel, x, gammas, band=None) -> AlpCurve:
    """Evaluate the fitted PIT-CDF at one feature point over a gamma grid."""
    gammas = np.asarray(gammas, dtype=float)
    if gammas.ndim != 1 or np.any(np.diff(gammas) <= 0):
        raise ValueError("gammas must be a strictly increasing 1-D grid")
    values = np.asarray(r.predict_curve(gammas, x), dtype=float)
    lo = hi = None
    if band is not None:
        lo, hi = band
    return AlpCurve(np.asarray(x, dtype=float), gammas, values, lo, hi)


def local_test_statistic(r: PitCdfModel, x, gammas=None) -> float:
    """Mean squared deviation of r(gamma; x) from the diagonal over the grid."""
    g = DEFAULT_TEST_GAMMAS if gammas is None else np.asarray(gammas, dtype=float)
    values = np.asarray(r.predict_curve(g, x), dtype=float)
    return float(np.mean((values - g) ** 2))


def _null_models(fit_fn, cal: CalibrationSet, observed_model, n_mc: int, seed: int):
    """Yield PIT-CDF fits on resampled uniform PIT values, one per replicate.

    When the observed model supports structural reuse (``with_pit_values``),
    refits share its neighborhoods instead of rebuilding from scratch.
    """
    n = len(cal)
    reuse = getattr(observed_model, "with_pit_values", None)
    for b in range(n_mc):
        null_pits = rngmod.derived_rng(seed, "null-pits", b).uniform(size=n)
        if reuse is not None:
            yield reuse(null_pits)
        else:
            yield fit_fn(cal, null_pits)


def mc_p_value(fit_fn, cal: CalibrationSet, pit_values, x, n_mc: int,
               gammas=None, seed: int = 0) -> LocalTestResult:
    """Monte Carlo p-value of the local null "the model is exact near x".

    ``fit_fn(cal, pit_values) -> PitCdfModel`` must be the same backend and
    configuration used for the observed statistic. The p-value is the fraction
    of null replicates whose statistic strictly exceeds the observed one, so
    it lives on the lattice {0, 1/B, ..., 1}.
    """
    if n_mc < 1:
        raise ValueError("n_mc must be >= 1")
    g = DEFAULT_TEST_GAMMAS if gammas is None else np.asarray(gammas, dtype=float)
    observed_model = fit_fn(cal, np.asarray(pit_values, dtype=float))
    t_obs = local_test_statistic(observed_model, x, g)
    exceed = 0
    for model_b in _null_models(fit_fn, cal, observed_model, n_mc, seed):
        if t_obs < local_test_statistic(model_b, x, g):
            exceed += 1
    return LocalTestResult(
        x=np.asarray(x, dtype=float),
        statistic=t_obs,
        p_value=exceed / n_mc,
        n_mc=int(n_mc),
    )


def mc_confidence_band(fit_fn, cal: CalibrationSet, pit_values, x, n_mc: int,
                       gammas, eta: float = 0.05, seed: int = 0):
    """Pointwise null band for the local P-P curve at level 1 - eta.

    For each gamma, returns the nearest-rank eta/2 and 1 - eta/2 quantiles of
    the null-replicate curve values: with k = floor(B * eta / 2), the
    (k+1)-th smallest and (B-k)-th smallest of the B values.
    """
    if n_mc < 20:
        raise ValueError("need at least 20 replicates for a useful band")
    g = np.asarray(gammas, dtype=float)
    observed_model = fit_fn(cal, np.asarray(pit_values, dtype=float))
    curves = np.empty((n_mc, g.size))
    for b, model_b in enumerate(_null_models(fit_fn, cal, observed_model, n_mc, seed)):
        curves[b] = model_b.predict_curve(g, x)
    curves.sort(axis=0)
    k = int(np.floor(n_mc * eta / 2.0))
    lo = curves[k]
    hi = curves[n_mc - 1 - k]
    return lo, hi


def cde_loss(pdfs, test_ys) -> float:
    """Squared-error-style loss of estimated densities, up to a constant.

    mean_i [ integral f_i(y)^2 dy ] - 2 * mean_i [ f_i(y_i) ], with the
    integral taken by the trapezoid rule on each density's grid and the point
    evaluation by shape-preserving spline interpolation (zero off the grid).
    Lower is better; the true conditional density minimizes the expectation.
    """
    test_ys = np.asarray(test_ys, dtype=float).ravel()
    if len(pdfs) != test_ys.shape[0]:
        raise LengthMismatch(f"{len(pdfs)} densities for {test_ys.shape[0]} responses")
    if len(pdfs) == 0:
        raise LengthMismatch("need at least one test point")
    sq = 0.0
    at_y = 0.0
    for dens, y in zip(pdfs, test_ys):
        if not isinstance(dens, GridDensity):
            raise TypeError("pdfs must be GridDensity instances")
        pts = dens.grid.points
        sq += float(np.trapezoid(dens.values**2, pts))
        if pts[0] <= y <= pts[-1]:
            at_y += max(float(PchipInterpolator(pts, dens.values)(y)), 0.0)
    n = len(pdfs)
    return sq / n - 2.0 * at_y / n
