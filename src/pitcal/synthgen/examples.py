"""The two i.i.d. toy examples with analytic oracle distributions.

Example 1: two latent groups with different spreads. Group membership drives
the response but is not observed, so the conditional density given the two
measured features is a two-component mixture, bimodal where the branches
separate (first feature positive).

Example 2: a single feature, with the data drawn from a sinh-arcsinh family
that is either skewed or kurtotic in x while the initial model is the fixed
Gaussian N(x, 2). At x = 0 both settings reduce to the initial model.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .. import rng as rngmod
from ..calibrate import CalibrationSet
from ..grid import YGrid, default_grid
from ..models import GaussianInitialModel, feature_rows
from ..normal import _INV_SQRT_2PI, ndtr
from .sinharcsinh import (
    SinhArcsinhParams,
    _from_normal,
    sinh_arcsinh_cdf,
    sinh_arcsinh_pdf,
    sinh_arcsinh_quantile,
    sinh_arcsinh_sample,
)

__all__ = [
    "TwoGroupConfig",
    "GeneratedData",
    "Example1Oracle",
    "Example2Oracle",
    "sample_example1",
    "sample_example2",
]


@dataclass(frozen=True)
class GeneratedData:
    """A drawn calibration set plus the exact law it came from."""

    cal: CalibrationSet
    oracle: object
    grid: YGrid
    initial: object | None = None


# ----------------------------------------------------------------------
# Example 1: unobserved two-group mixture
# ----------------------------------------------------------------------

@dataclass(frozen=True)
class TwoGroupConfig:
    """Law of the two-group data; the defaults reproduce the documented DGP.

    Group means sit at +-(branch_gap / 2) * x1 once x1 > 0 and at zero
    otherwise; the minority group is rarer and noisier.
    """

    minority_fraction: float = 0.2
    majority_scale: float = 1.0
    minority_scale: float = 3.0
    branch_gap: float = 2.0
    x_range: tuple = (-5.0, 5.0)

    def __post_init__(self):
        if not 0.0 < self.minority_fraction < 1.0:
            raise ValueError("minority_fraction must be in (0, 1)")
        if not self.minority_scale > self.majority_scale:
            raise ValueError("minority group must have the larger spread")


class Example1Oracle:
    """Analytic two-component mixture conditional on the measured features."""

    def __init__(self, cfg: TwoGroupConfig):
        self.cfg = cfg
        self.scales = np.array([cfg.majority_scale, cfg.minority_scale])
        self.weights = np.array([1.0 - cfg.minority_fraction, cfg.minority_fraction])

    def _means(self, xs) -> np.ndarray:
        """The two group means at each feature row of ``xs``, shape (N, 2)."""
        x1 = feature_rows(xs)[:, 0]
        offset = np.where(x1 > 0, 0.5 * self.cfg.branch_gap * x1, 0.0)
        return np.stack([offset, -offset], axis=1)

    def _components(self, x):
        return self._means(np.ravel(x)[None])[0], self.scales, self.weights

    def cdf(self, y, x):
        means, scales, weights = self._components(x)
        y = np.asarray(y, dtype=float)
        z = (y[..., None] - means) / scales
        # one dot per y, so each value is the one a scalar y gets
        return np.vecdot(ndtr(z), weights)

    def pdf(self, y, x):
        means, scales, weights = self._components(x)
        y = np.asarray(y, dtype=float)
        z = (y[..., None] - means) / scales
        return (_INV_SQRT_2PI * np.exp(-0.5 * z * z) / scales) @ weights

    def quantile_rows(self, ps, xs) -> np.ndarray:
        """Quantiles at levels ``ps`` (P,) for each feature row of ``xs`` (N, d), shape (N, P).

        Every level of every row takes 100 halvings towards ``cdf >= p`` in one
        pass, from a bracket 12 scales beyond the row's outermost means.
        """
        means = self._means(xs)
        scales, weights = self.scales, self.weights
        p = np.broadcast_to(np.asarray(ps, dtype=float), (len(means), np.size(ps)))
        lo = np.full(p.shape, np.min(means - 12.0 * scales, axis=1)[:, None])
        hi = np.full(p.shape, np.max(means + 12.0 * scales, axis=1)[:, None])
        for _ in range(100):
            mid = 0.5 * (lo + hi)
            # one dot per value, as :meth:`cdf` takes it
            above = np.vecdot(ndtr((mid[..., None] - means[:, None]) / scales), weights) >= p
            lo, hi = np.where(above, lo, mid), np.where(above, mid, hi)
        return 0.5 * (lo + hi)

    def quantile(self, p, x):
        """Quantile at level ``p`` (a scalar or levels) for one feature row: a batch of one."""
        return self.quantile_rows(np.ravel(p), [x])[0].reshape(np.shape(p))[()]

    def sample_rows(self, xs, rngs, size: int) -> np.ndarray:
        """``size`` draws at each feature row of ``xs`` (P, d), shape (P, size).

        Row i is generator ``rngs[i]``'s: its group memberships, then its
        standard normals, each filled in place; one pass then scales and
        shifts all rows.
        """
        means = self._means(xs)
        comp, draws = np.empty((len(means), size)), np.empty((len(means), size))
        for rng, c, d in zip(rngs, comp, draws, strict=True):
            rng.random(out=c)
            rng.standard_normal(out=d)
        minority = comp < self.weights[1]
        draws *= np.where(minority, self.scales[1], self.scales[0])
        draws += np.where(minority, means[:, 1:], means[:, :1])
        return draws

    def sample(self, x, rng: np.random.Generator, size: int):
        """``size`` draws at one feature row: a batch of one."""
        return self.sample_rows(np.ravel(x)[None], [rng], size)[0]


def sample_example1(cfg: TwoGroupConfig, n: int, seed: int,
                    n_grid: int = 201) -> GeneratedData:
    """Draw the two-group data; group membership is used but not recorded."""
    if n < 1:
        raise ValueError("n must be >= 1")
    rng = rngmod.derived_rng(seed, "example1")
    lo, hi = cfg.x_range
    x12 = rng.uniform(lo, hi, size=(n, 2))
    minority = rng.random(n) < cfg.minority_fraction
    x1 = x12[:, 0]
    offset = np.where(x1 > 0, 0.5 * cfg.branch_gap * x1, 0.0)
    sign = np.where(minority, -1.0, 1.0)
    scale = np.where(minority, cfg.minority_scale, cfg.majority_scale)
    ys = sign * offset + scale * rng.standard_normal(n)
    grid = default_grid(ys, n_points=n_grid)
    cal = CalibrationSet(x12, ys)
    return GeneratedData(cal=cal, oracle=Example1Oracle(cfg), grid=grid)


# ----------------------------------------------------------------------
# Example 2: misspecified Gaussian against a sinh-arcsinh target
# ----------------------------------------------------------------------

class Example2Oracle:
    """Sinh-arcsinh law whose parameters drift with the single feature."""

    def __init__(self, setting: str):
        if setting not in ("skewed", "kurtotic"):
            raise ValueError(f"unknown setting {setting!r}")
        self.setting = setting

    def params_at(self, x) -> SinhArcsinhParams:
        return self._params(float(np.asarray(x, dtype=float).ravel()[0]))

    def _params(self, x1) -> SinhArcsinhParams:
        """The law at first-feature value ``x1``: a float, or an array of them."""
        if self.setting == "skewed":
            return SinhArcsinhParams(mu=x1, sigma=2.0 - abs(x1), skew=x1, tail=1.0)
        return SinhArcsinhParams(mu=x1, sigma=2.0, skew=0.0, tail=1.0 - x1 / 4.0)

    def cdf(self, y, x):
        return sinh_arcsinh_cdf(self.params_at(x), y)

    def pdf(self, y, x):
        return sinh_arcsinh_pdf(self.params_at(x), y)

    def quantile(self, p, x):
        return sinh_arcsinh_quantile(self.params_at(x), p)

    def quantile_rows(self, ps, xs) -> np.ndarray:
        """Quantiles at levels ``ps`` (P,) for each feature row of ``xs``, shape (N, P).

        One ``ndtri`` call over the levels; each row's parameters broadcast over it.
        """
        return sinh_arcsinh_quantile(self._params(feature_rows(xs)[:, :1]), np.ravel(ps))

    def sample_rows(self, xs, rngs, size: int) -> np.ndarray:
        """``size`` draws at each feature row of ``xs`` (P, d), shape (P, size).

        Row i is generator ``rngs[i]``'s standard normals, filled in place; one
        transform then runs over all rows with each row's parameters.
        """
        xs = feature_rows(xs)
        w = np.empty((len(xs), size))
        for rng, row in zip(rngs, w, strict=True):
            rng.standard_normal(out=row)
        return _from_normal(self._params(xs[:, :1]), w)

    def sample(self, x, rng: np.random.Generator, size: int):
        """``size`` draws at one feature row: a batch of one."""
        return self.sample_rows(np.ravel(x)[None], [rng], size)[0]


class _FirstFeature:
    """Example 2's initial mean, x itself, for a batch of feature rows."""

    def predict(self, xs) -> np.ndarray:
        return feature_rows(xs)[:, 0]


def sample_example2(setting: str, n: int, seed: int,
                    n_grid: int = 201) -> GeneratedData:
    """Draw (x, y) with x ~ U(-1, 1) and y from the chosen sinh-arcsinh law.

    The returned ``initial`` model is the misspecified Gaussian N(x, 2) on the
    response grid; it matches the oracle exactly at x = 0 in both settings.
    """
    if n < 1:
        raise ValueError("n must be >= 1")
    oracle = Example2Oracle(setting)
    rng = rngmod.derived_rng(seed, "example2", setting)
    xs = rng.uniform(-1.0, 1.0, size=(n, 1))
    ys = sinh_arcsinh_sample(oracle._params(xs[:, 0]), rng, n)
    grid = default_grid(ys, n_points=n_grid)
    initial = GaussianInitialModel(grid, mean_fn=_FirstFeature(), sd_fn=2.0)
    return GeneratedData(cal=CalibrationSet(xs, ys), oracle=oracle, grid=grid, initial=initial)
