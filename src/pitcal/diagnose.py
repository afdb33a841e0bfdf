"""Calibration diagnostics: the local coverage test with its P-P curve and
null band, and the estimable density-estimation loss.

The local coverage test (Zhao, Izbicki & Lee, UAI 2021) measures the mean
squared deviation of the fitted PIT-CDF curve from the diagonal over a gamma
grid. Its null distribution is simulated by refitting the regression on B
resampled uniform PIT vectors, which is valid for local estimators whose fit
at x only uses calibration points near x: the k-nearest-neighbour backend
(:class:`LocalEmpiricalModel`) qualifies, network fits do not, and the test
takes no other backend. :func:`mc_local_tests` runs it at P points in one
call: one neighbourhood query, each point's own null streams read at its
neighbours only, curves built a few points at a time in 2 MiB row blocks,
and one (P, B+1, G) curve array for the statistics, p-values and bands. The
p-value is #{T_b > T_obs}/B, not the (1 + #{T_b >= T_obs})/(B + 1) of
Phipson & Smyth (2010), as the acceptance tests and benchmark references
fix it exactly.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from . import rng as rngmod
from .calibrate import CalibrationSet, LocalEmpiricalModel, _gamma_rows
from .errors import LengthMismatch
from .grid import GridDensity, map_row_blocks
from .models import feature_rows

__all__ = [
    "AlpCurve",
    "LocalTestResult",
    "DEFAULT_TEST_GAMMAS",
    "mc_local_test",
    "mc_local_tests",
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


def mc_local_tests(observed: LocalEmpiricalModel, xs, n_mc: int, gammas, eta=0.05, *, seeds):
    """The local coverage test at each of the P feature rows ``xs``, row p with root
    seed ``seeds[p]``, an int in [-2**127, 2**127): P ``(LocalTestResult, AlpCurve)``.

    One neighbourhood query of ``xs`` on the local-empirical fit ``observed``
    gives each point k neighbours. Row 0 of point p's (B+1, k) block holds their
    observed PIT values, row b+1 their entries of ``derived_rng(seeds[p],
    "null-pits", b)``'s n uniforms (raw words at the neighbours only, made doubles
    as ``Generator.random`` does), which refit the map on replicate b.
    :func:`~pitcal.grid.map_row_blocks` runs the blocks over point positions,
    width (3B+2)k: a point's PITs, their ECDF's sorted copy and its kept words.
    The (P, B+1, G) curves give the statistics, the p-values and the nearest-rank
    bands: the (q+1)-th and (B-q)-th smallest null values, q = floor(B * eta / 2).
    Another backend raises :class:`TypeError`; rows without one component per
    feature, or not one seed per row, :class:`LengthMismatch`; ``n_mc < 1``,
    ``eta`` outside (0, 1) or an empty gamma grid :class:`ValueError`.
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
    xs, seeds = feature_rows(xs), list(seeds)
    if xs.shape[1] != observed.xs.shape[1]:
        raise LengthMismatch(f"x has {xs.shape[1]} components for {observed.xs.shape[1]} features")
    if len(seeds) != xs.shape[0]:
        raise LengthMismatch(f"{len(seeds)} seeds for {xs.shape[0]} feature rows")
    idx, w = observed._neighborhoods(xs)
    n, k = observed.pit_values.size, idx.shape[1]

    def block_curves(points):
        pits = np.empty((points.size, n_mc + 1, k))
        words = np.empty((n_mc, k), dtype=np.uint64)
        for j, p in enumerate(points):
            pits[j, 0] = observed.pit_values[idx[p]]
            for b, rng in enumerate(rngmod.derived_rngs(seeds[p], "null-pits", count=n_mc)):
                words[b] = rng.bit_generator.random_raw(n)[idx[p]]
            # the doubles Generator.random(n) makes of the kept words, and no others
            np.multiply(np.right_shift(words, np.uint64(11), out=words), 2.0**-53, out=pits[j, 1:])
        rw = None if w is None else np.repeat(w[points], n_mc + 1, axis=0)
        curves = observed._ecdf(pits.reshape(-1, k), rw, _gamma_rows(g, pits.size // k))
        return curves.reshape(pits.shape[:2] + g.shape)

    curves = map_row_blocks(block_curves, (3 * n_mc + 2) * k, np.arange(xs.shape[0]))
    stats = _deviation(curves, g)
    ranked = np.sort(curves[:, 1:], axis=1)
    q = int(np.floor(n_mc * eta / 2.0))
    exceed = np.count_nonzero(stats[:, :1] < stats[:, 1:], axis=1)
    return [(LocalTestResult(x, float(t[0]), int(e) / n_mc, int(n_mc)),
             AlpCurve(x, g, c[0], r[q], r[n_mc - 1 - q]))
            for x, t, e, c, r in zip(xs, stats, exceed, curves, ranked)]


def mc_local_test(observed: LocalEmpiricalModel, x, n_mc: int, gammas, eta=0.05, seed=0):
    """:func:`mc_local_tests` at the one point ``x``: ``(LocalTestResult, AlpCurve)``."""
    return mc_local_tests(observed, np.reshape(x, (1, -1)), n_mc, gammas, eta, seeds=[seed])[0]


def mc_p_value(fit_fn, cal: CalibrationSet, pit_values, x, n_mc: int,
               gammas=None, seed: int = 0) -> LocalTestResult:
    """Monte Carlo p-value of the local null "the model is exact near x".

    ``fit_fn(cal, pit_values)`` fits the observed model, which must be a
    :class:`LocalEmpiricalModel`; :func:`mc_local_test`, a batch of one of
    :func:`mc_local_tests`, tests it at ``x`` with the null streams of ``seed``.
    The p-value, #{T_b > T_obs}/B, lives on the lattice {0, 1/B, ..., 1}.
    """
    g = DEFAULT_TEST_GAMMAS if gammas is None else gammas
    return mc_local_test(fit_fn(cal, np.asarray(pit_values, dtype=float)), x, n_mc, g, seed=seed)[0]


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
