"""Calibration diagnostics: the local coverage test with its P-P curve and
null band, and the estimable density-estimation loss.

The local coverage test (Zhao, Izbicki & Lee, UAI 2021) measures the mean
squared deviation of the fitted PIT-CDF curve from the diagonal over a gamma
grid. Its null distribution is simulated by refitting the regression on B
resampled uniform PIT vectors, which is valid for local estimators whose fit
at x only uses calibration points near x: the k-nearest-neighbour backend
(:class:`LocalEmpiricalModel`) qualifies, network fits do not, and the test
takes no other backend. :func:`mc_local_test` runs it in one pass per x: one
neighbourhood query, each null vector drawn once and read at the neighbours
only, and one (B, G) array of null curves giving the statistic, the p-value
and the band; a fitted map's P-P curve at one x alone is its
``predict_curve``. The p-value is #{T_b > T_obs}/B, not the
(1 + #{T_b >= T_obs})/(B + 1) of Phipson & Smyth (2010), because the
acceptance tests and benchmark references fix it exactly.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from . import rng as rngmod
from .calibrate import CalibrationSet, LocalEmpiricalModel, _gamma_rows
from .errors import LengthMismatch
from .grid import GridDensity

__all__ = [
    "AlpCurve",
    "LocalTestResult",
    "DEFAULT_TEST_GAMMAS",
    "mc_local_test",
    "mc_p_value",
    "cde_loss",
]

# default gamma grid for the local test statistic
DEFAULT_TEST_GAMMAS = np.linspace(0.05, 0.95, 21)


@dataclass(frozen=True)
class AlpCurve:
    """Local P-P curve r(gamma; x) versus gamma, with its null band."""

    x: np.ndarray
    gammas: np.ndarray
    r_values: np.ndarray
    band_lo: np.ndarray
    band_hi: np.ndarray


@dataclass(frozen=True)
class LocalTestResult:
    """Observed statistic and Monte Carlo p-value of the local coverage test."""

    x: np.ndarray
    statistic: float
    p_value: float
    n_mc: int


def _deviation(curves, g) -> np.ndarray:
    """Mean squared deviation of each curve (last axis) from the diagonal over ``g``."""
    return np.mean((curves - g) ** 2, axis=-1)


def mc_local_test(observed: LocalEmpiricalModel, x, n_mc: int, gammas, eta=0.05, seed=0):
    """Local coverage test at ``x`` in one pass; returns ``(LocalTestResult, AlpCurve)``.

    ``observed`` is the local-empirical fit on the observed PIT values. One
    neighbourhood query of ``x`` gives the k neighbours; row 0 of a (B+1, k)
    block holds their observed PIT values and row b+1 their entries of
    ``derived_rng(seed, "null-pits", b)``'s uniforms, one per calibration row,
    seeded in one :func:`~pitcal.rng.derived_rngs` pass, which refits the map on
    replicate b. ``observed._ecdf`` turns the block into the curves. The result
    holds the observed r(gamma; x) and the nearest-rank band: with k =
    floor(B * eta / 2), the (k+1)-th and (B-k)-th smallest null values. Any
    other backend raises :class:`TypeError`; an ``x`` without one component
    per feature raises :class:`LengthMismatch`; ``n_mc < 1``, ``eta`` outside
    (0, 1) or an empty gamma grid raises :class:`ValueError`.
    """
    if not isinstance(observed, LocalEmpiricalModel):
        raise TypeError("the local coverage test needs the local-empirical backend, "
                        f"got {type(observed).__name__}")
    if n_mc < 1:
        raise ValueError(f"n_mc must be >= 1, got {n_mc}")
    if not 0.0 < eta < 1.0:
        raise ValueError(f"eta must be in (0, 1), got {eta}")
    g = np.asarray(gammas, dtype=float)
    if g.size == 0:
        raise ValueError("the gamma grid is empty")
    x = np.asarray(x, dtype=float)
    if x.size != observed.xs.shape[1]:
        raise LengthMismatch(f"x has {x.size} components for {observed.xs.shape[1]} features")
    idx, w = observed._neighborhoods(x.reshape(1, -1))
    idx = idx[0]
    n = observed.pit_values.size
    pits = np.empty((n_mc + 1, idx.size))
    pits[0] = observed.pit_values[idx]
    for b, rng in enumerate(rngmod.derived_rngs(seed, "null-pits", count=n_mc)):
        # random(n) draws the same doubles as uniform(size=n), with less overhead
        pits[b + 1] = rng.random(n)[idx]
    curves = observed._ecdf(pits, w, _gamma_rows(g, n_mc + 1))
    stats = _deviation(curves, g)
    ranked = np.sort(curves[1:], axis=0)
    k = int(np.floor(n_mc * eta / 2.0))
    exceed = int(np.count_nonzero(stats[0] < stats[1:]))
    result = LocalTestResult(x, float(stats[0]), exceed / n_mc, int(n_mc))
    return result, AlpCurve(x, g, curves[0], ranked[k], ranked[n_mc - 1 - k])


def mc_p_value(fit_fn, cal: CalibrationSet, pit_values, x, n_mc: int,
               gammas=None, seed: int = 0) -> LocalTestResult:
    """Monte Carlo p-value of the local null "the model is exact near x".

    ``fit_fn(cal, pit_values)`` fits the observed model, which must be a
    :class:`LocalEmpiricalModel`; :func:`mc_local_test` runs once and refits
    it on each null replicate. The p-value is the fraction of null replicates
    whose statistic strictly exceeds the observed one, #{T_b > T_obs}/B, so it
    lives on the lattice {0, 1/B, ..., 1}; Phipson & Smyth's
    (1 + #{T_b >= T_obs})/(B + 1) is not used, because acceptance 7 and the
    benchmark references fix it.
    """
    g = DEFAULT_TEST_GAMMAS if gammas is None else gammas
    observed = fit_fn(cal, np.asarray(pit_values, dtype=float))
    return mc_local_test(observed, x, n_mc, g, seed=seed)[0]


def cde_loss(pdfs, test_ys) -> float:
    """Squared-error-style loss of estimated densities, up to a constant.

    mean_i [ integral f_i(y)^2 dy ] - 2 * mean_i [ f_i(y_i) ], with the
    integral taken by the trapezoid rule on each density's grid and the point
    evaluation by linear interpolation between grid points (zero off the
    grid), the same piecewise-linear density that the trapezoid rule and
    ``hpd_rows`` read.
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
        at_y += max(float(np.interp(y, pts, dens.values, left=0.0, right=0.0)), 0.0)
    n = len(pdfs)
    return sq / n - 2.0 * at_y / n
