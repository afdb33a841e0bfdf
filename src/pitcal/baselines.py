"""Conformal baselines: split residual intervals and distributional scores.

Both wrap the standard split-conformal recipe: compute nonconformity scores on
held-out calibration data and invert the ceil((n + 1) (1 - alpha))-th smallest
score into an interval. The residual variant yields the same width everywhere;
the distributional variant converts a quantile of centered PIT scores back
through the initial model's CDF, so its width tracks the initial model.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .calibrate import (CalibrationSet, PredictionSet, StandardizedNeighbours, central_intervals,
                        compute_pit_values)
from .errors import InsufficientCalibration
from .grid import map_row_blocks
from .models import cdf_rows

__all__ = [
    "ConformalCalibration",
    "KnnMeanRegressor",
    "RegSplitModel",
    "DcpModel",
    "fit_knn_mean",
]


@dataclass(frozen=True)
class ConformalCalibration:
    """Sorted nonconformity scores and the conformal quantile index."""

    scores: np.ndarray
    alpha: float
    quantile_index: int

    @classmethod
    def from_scores(cls, scores, alpha: float) -> "ConformalCalibration":
        if not 0.0 < alpha < 1.0:
            raise ValueError(f"alpha must be in (0, 1), got {alpha}")
        scores = np.sort(np.asarray(scores, dtype=float))
        n = scores.shape[0]
        idx = math.ceil((n + 1) * (1.0 - alpha))
        if idx > n:
            raise InsufficientCalibration(
                f"need more than {n} scores for alpha={alpha} (index {idx})"
            )
        return cls(scores, alpha, idx)

    @property
    def threshold(self) -> float:
        return float(self.scores[self.quantile_index - 1])


class KnnMeanRegressor(StandardizedNeighbours):
    """Nearest-neighbor mean in standardized feature space."""

    def __init__(self, train: CalibrationSet, k: int = 50):
        self._build_neighbours(train.xs, min(k, len(train)))
        self._ys = train.ys
        # the responses in the search's order, which unmapped neighbour positions index
        self._ys_in_order = self._ys if self._order is None else self._ys[self._order]

    def predict(self, xs) -> np.ndarray:
        """Neighbour means, one per row of ``xs``: (n, d), or (n,) for one feature, each summed in
        distance order. Blocks have width 4k: a one-feature query holds four (rows, k) arrays
        live at once (distances, sorted distances, positions and the responses they read)."""
        xs = np.asarray(xs, dtype=float).reshape(-1, self.mean.size)
        ys, k = self._ys_in_order, self.k
        return map_row_blocks(lambda b: ys[self._query(b, rows=False)[1]].mean(axis=1), 4 * k, xs)

    def __call__(self, x) -> float:
        return float(self.predict(x)[0])


def fit_knn_mean(train: CalibrationSet, k: int = 50) -> KnnMeanRegressor:
    return KnnMeanRegressor(train, k=k)


class RegSplitModel:
    """Point fit plus one global residual quantile.

    ``fit_mean(train)`` returns a regressor with ``predict(xs)``, as
    :func:`fit_knn_mean`, which gives all residuals and all centres in one call each.
    """

    def __init__(self, fit_mean, train: CalibrationSet, cal: CalibrationSet, alpha: float):
        self.mu = fit_mean(train)
        residuals = np.abs(cal.ys - self.mu.predict(cal.xs))
        self.calibration = ConformalCalibration.from_scores(residuals, alpha)
        self.alpha = alpha

    def predict_sets(self, xs) -> list:
        """One interval per feature row of ``xs``, centred on one ``mu.predict`` call."""
        q = self.calibration.threshold
        return [PredictionSet(((c - q, c + q),), nominal_level=1.0 - self.alpha, kind="interval")
                for c in self.mu.predict(xs).tolist()]

    def predict_set(self, x) -> PredictionSet:
        """The interval at one feature point: a batch of one of :meth:`predict_sets`."""
        return self.predict_sets(np.asarray(x, dtype=float).reshape(1, -1))[0]


class DcpModel:
    """Distributional conformal intervals from centered PIT scores.

    Scores are |PIT(y; x) - 1/2| under the initial model; the conformal
    threshold q maps to the probability band [1/2 - q, 1/2 + q], clamped to
    [0, 1], which the initial CDF inverts at each x.
    """

    def __init__(self, initial, cal: CalibrationSet, alpha: float, pit_values=None):
        if pit_values is None:
            pit_values = compute_pit_values(initial, cal)
        scores = np.abs(np.asarray(pit_values, dtype=float) - 0.5)
        self.calibration = ConformalCalibration.from_scores(scores, alpha)
        self.initial = initial
        self.alpha = alpha

    def predict_sets(self, xs) -> list:
        """One interval per feature row of ``xs``, from the initial CDF rows."""
        q = self.calibration.threshold
        return central_intervals(self.initial.grid.points, cdf_rows(self.initial, xs),
                                 max(0.0, 0.5 - q), min(1.0, 0.5 + q), 1.0 - self.alpha)

    def predict_set(self, x) -> PredictionSet:
        """The interval at one feature point: a batch of one of :meth:`predict_sets`."""
        return self.predict_sets(np.asarray(x, dtype=float).reshape(1, -1))[0]
