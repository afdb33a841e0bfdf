"""Concrete initial conditional models backed by the response grid.

These are deliberately simple: a fixed-width Gaussian around a point
prediction, a flat density over the grid range, and a feature-independent
marginal histogram. Any of them can seed the recalibration pipeline, which
morphs the initial shape toward the calibration data. An initial model
answers for many feature points at once: :func:`cdf_rows` integrates its
``density_matrix(xs)``, or reads ``cdf_matrix(xs)``. The two feature-independent
models integrate once and return one cached CDF row as a read-only (n, G) view
with a first-axis stride of 0: callers must not write into :func:`cdf_rows`
results, and may work such rows as one row, as ``grid`` does.
"""

from __future__ import annotations

from typing import Callable

import numpy as np

from .grid import (
    GridCdf,
    GridDensity,
    YGrid,
    cdf_rows_from_density_rows,
    renormalize_density,
    widen_density,
)
from .normal import _INV_SQRT_2PI

__all__ = [
    "GaussianInitialModel",
    "UniformInitialModel",
    "MarginalHistogramModel",
    "cdf_rows",
    "model_cdf",
]

_SMOOTH_STEPS = 2.0  # Gaussian widening of grid histograms, in grid steps


def feature_rows(xs) -> np.ndarray:
    """Feature points as rows: (n, d) stays, (n,) is n one-feature points, a scalar is one."""
    xs = np.asarray(xs, dtype=float)
    return xs if xs.ndim == 2 else xs.reshape(xs.shape[0] if xs.ndim else 1, -1)


def standardization(xs) -> tuple:
    """Column means of the (n, d) rows ``xs`` and their standard deviations, 1 where constant."""
    xs = np.ascontiguousarray(xs)  # the sums run in one order whatever the memory layout
    scale = xs.std(axis=0)
    return xs.mean(axis=0), np.where(scale > 0, scale, 1.0)


def standardize(xs, mean, scale) -> np.ndarray:
    """Rows of ``xs``, (n, d) or (n,) for one feature, less ``mean`` and over ``scale``."""
    return (np.asarray(xs, dtype=float).reshape(-1, mean.size) - mean) / scale


def cdf_rows(model, xs) -> np.ndarray:
    """CDF of an initial model at each feature row of ``xs``, shape (n, G).

    A model with ``cdf_matrix(xs)`` returns its rows itself; any other model
    has ``density_matrix(xs)``, whose rows are integrated all at once. The
    rows may be one row broadcast, a read-only view with a first-axis stride
    of 0: callers must not write into them, and may treat them as one row.
    """
    xs = feature_rows(xs)
    if hasattr(model, "cdf_matrix"):
        return model.cdf_matrix(xs)
    return cdf_rows_from_density_rows(model.grid.points, model.density_matrix(xs))


def model_cdf(model, x) -> GridCdf:
    """CDF of an initial model at one feature point: a batch of one of :func:`cdf_rows`."""
    return GridCdf(model.grid, cdf_rows(model, np.asarray(x, dtype=float).reshape(1, -1))[0])


class GaussianInitialModel:
    """Gaussian density N(mean_fn(x), sd_fn^2) truncated to the grid.

    ``sd_fn`` is a float, one width for every x. ``mean_fn`` maps one feature
    row to its mean; one with ``predict(xs)`` is read for all rows at once.
    """

    def __init__(self, grid: YGrid, mean_fn: Callable, sd_fn: float):
        self.grid = grid
        self.mean_fn = mean_fn
        self.sd_fn = float(sd_fn)

    def density_at(self, x) -> GridDensity:
        """The renormalized density at one x: a batch of one of :meth:`density_matrix`."""
        row = self.density_matrix(np.asarray(x, dtype=float).reshape(1, -1))[0]
        return renormalize_density(GridDensity(self.grid, row))

    def density_matrix(self, xs) -> np.ndarray:
        """Unnormalized density rows for many feature points, built in two (n, G) buffers."""
        xs = feature_rows(xs)
        batch = getattr(self.mean_fn, "predict", None)  # e.g. KnnMeanRegressor
        mu = batch(xs) if batch is not None else np.array([float(self.mean_fn(x)) for x in xs])
        z = (self.grid.points - mu[:, None]) / self.sd_fn  # numpy divides the difference in place
        dens = -0.5 * z * z
        np.exp(dens, out=dens)
        dens *= _INV_SQRT_2PI
        dens /= self.sd_fn
        return dens


class _FeatureIndependentModel:
    """An initial model that ignores ``x``: one density, integrated once, one cached CDF row."""

    def __init__(self, density: GridDensity):
        self.grid = density.grid
        self._density = density
        self._cdf_row = cdf_rows_from_density_rows(self.grid.points, density.values[None, :])[0]

    def density_at(self, x) -> GridDensity:
        return self._density

    def cdf_matrix(self, xs) -> np.ndarray:
        return np.broadcast_to(self._cdf_row, (feature_rows(xs).shape[0], self._cdf_row.size))


class UniformInitialModel(_FeatureIndependentModel):
    """Flat density over the grid range; the maximally agnostic start."""

    def __init__(self, grid: YGrid):
        super().__init__(GridDensity(grid, np.full(len(grid), 1.0 / (grid.hi - grid.lo))))


class MarginalHistogramModel(_FeatureIndependentModel):
    """Feature-independent estimate of the marginal response distribution.

    A histogram on the grid cells, lightly widened so the density is smooth
    enough to invert. Ignores ``x`` entirely, which is exactly the kind of
    initial model whose local miscalibration the diagnostics should expose.
    """

    def __init__(self, grid: YGrid, ys):
        ys = np.asarray(ys, dtype=float).ravel()
        pts = grid.points
        edges = np.concatenate([[pts[0]], 0.5 * (pts[1:] + pts[:-1]), [pts[-1]]])
        counts, _ = np.histogram(np.clip(ys, pts[0], pts[-1]), bins=edges)
        raw = GridDensity(grid, counts / np.maximum(np.diff(edges), 1e-300) / max(ys.size, 1))
        step = (grid.hi - grid.lo) / (len(grid) - 1)
        super().__init__(widen_density(raw, _SMOOTH_STEPS * step))
