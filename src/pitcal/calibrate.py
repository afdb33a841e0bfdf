"""Recalibration core: learn the PIT-CDF map and reshape distributions.

The pipeline: compute PIT values of calibration responses under an initial
model, regress the indicator I(PIT <= gamma) on (x, gamma) to estimate the
conditional PIT-CDF r(gamma; x), then push the initial CDF through that map
to obtain a recalibrated distribution, central intervals, and highest-density
sets. Two interchangeable regression backends satisfy the same interface:

* a local empirical estimator (k nearest neighbors, exact in gamma), and
* a partially monotone neural network (see :mod:`pitcal.monotone_net`).

Every step takes all feature points in one batch, and each per-x call is a
batch of one. :class:`RecalibratedInitialModel` answers ``cdf_matrix(xs)``
with :func:`recalibrate_rows`, so a recalibrated family is itself an initial
model.
"""

from __future__ import annotations

import hashlib
from dataclasses import asdict, dataclass

import numpy as np
from numpy.lib.stride_tricks import sliding_window_view

from . import rng as rngmod
from .errors import DegenerateRecalibration, HpdSearchFailed, InsufficientData, LengthMismatch
from .grid import (_BLOCK_FLOATS, GridCdf, GridDensity, _pit_rows, invert_rows, knot_slopes,
                   map_row_blocks, renormalize_rows)
from .models import cdf_rows, feature_rows, standardization, standardize

__all__ = [
    "CalibrationSet", "AugmentedCalibrationSet", "PitCdfModel", "IdentityPitCdf",
    "LocalEmpiricalConfig", "LocalEmpiricalModel", "RecalibratedDistribution",
    "RecalibratedInitialModel", "PredictionSet", "compute_pit_values", "augment",
    "fit_local_empirical", "recalibrate", "recalibrate_rows", "recalibrated_pdf_rows",
    "central_intervals", "calpit_interval", "calpit_hpd", "hpd_rows",
]

MODEL_FORMAT_VERSION = 2

# hpd_rows: largest accepted miss of the 1 - alpha mass in the final check
_HPD_MASS_TOL = 0.005


@dataclass(frozen=True)
class CalibrationSet:
    """Held-out (x, y) pairs used to learn the PIT-CDF regression."""

    xs: np.ndarray
    ys: np.ndarray

    def __post_init__(self):
        xs = feature_rows(self.xs)
        ys = np.asarray(self.ys, dtype=float).ravel()
        if xs.shape[0] != ys.shape[0]:
            raise LengthMismatch("xs and ys row counts differ")
        if not (np.all(np.isfinite(xs)) and np.all(np.isfinite(ys))):
            raise ValueError("calibration data must be finite")
        object.__setattr__(self, "xs", xs)
        object.__setattr__(self, "ys", ys)

    def __len__(self) -> int:
        return self.ys.shape[0]

    @property
    def dim(self) -> int:
        return self.xs.shape[1]


@dataclass(frozen=True)
class AugmentedCalibrationSet:
    """Oversampled regression rows (x_i, gamma_ij, w_ij), j = 1..K per point.

    Stored per point: ``base_xs`` holds the n feature rows, ``base_pit`` their
    PIT values and ``gamma`` the K levels of point i in row i, shape (n, K).
    The indicator ``w`` = I(pit_i <= gamma_ij) is derived from them, and the
    network trainer also reuses ``base_pit`` for its fixed-grid validation loss.
    """

    base_xs: np.ndarray
    base_pit: np.ndarray
    gamma: np.ndarray

    def __len__(self) -> int:
        return self.gamma.size

    @property
    def n_base(self) -> int:
        return self.gamma.shape[0]

    @property
    def k_factor(self) -> int:
        return self.gamma.shape[1]

    @property
    def w(self) -> np.ndarray:
        """The indicators I(pit_i <= gamma_ij), shape (n, K)."""
        return self.base_pit[:, None] <= self.gamma


def compute_pit_values(model, cal: CalibrationSet) -> np.ndarray:
    """PIT(y_i; x_i) under the initial model, one value per calibration row.

    Each block of rows of :func:`map_row_blocks` takes its CDFs from one
    :func:`cdf_rows` call and its PITs from one ``_pit_rows`` call. Its width
    counts G values a row for the CDF, and G more for a density model's density.
    """
    width = len(model.grid) * (1 if hasattr(model, "cdf_matrix") else 2)
    return map_row_blocks(lambda xs, ys: _pit_rows(model.grid.points, cdf_rows(model, xs), ys),
                          width, cal.xs, cal.ys)


def augment(cal: CalibrationSet, pit_values, k_factor: int, seed: int) -> AugmentedCalibrationSet:
    """Draw K uniform levels per calibration point, row i of ``gamma`` for point i.

    gamma_{i,j} comes from a counter-based stream keyed on (seed, i), so the
    augmentation of one row never depends on how many rows exist. All rows
    are drawn in one Philox4x64-10 pass (:func:`rng.row_uniforms`). Philox
    output is a pure function of key and counter, so row i holds exactly the
    first K doubles of a numpy ``Generator(Philox(key=k))`` with ``k`` the
    uint64 pair (seed mod 2**64, i), clipped to [1e-12, 1 - 1e-12].
    """
    pit_values = np.asarray(pit_values, dtype=float).ravel()
    if pit_values.shape[0] != len(cal):
        raise LengthMismatch(f"{pit_values.shape[0]} pit values for {len(cal)} rows")
    if k_factor < 1:
        raise ValueError("k_factor must be >= 1")
    gamma = np.clip(rngmod.row_uniforms(seed, len(cal), k_factor), 1e-12, 1.0 - 1e-12)
    return AugmentedCalibrationSet(base_xs=cal.xs, base_pit=pit_values, gamma=gamma)


# ----------------------------------------------------------------------
# PIT-CDF regression backends
# ----------------------------------------------------------------------

class PitCdfModel:
    """Fitted estimate of r(gamma; x) = P(PIT <= gamma | x).

    Implementations guarantee predictions in [0, 1] that are nondecreasing in
    gamma for every fixed x, exactly (by construction, not post-hoc repair).
    """

    backend: str = "abstract"

    def predict_matrix(self, gammas, xs) -> np.ndarray:
        """r(gamma; x) for each feature row of ``xs``, shape (n_x, G).

        ``gammas`` is (G,), the same levels at every x, or (n_x, G); ``xs`` is
        (n_x, d), or (n_x,) for a one-feature model. Every backend defines it.
        """
        raise NotImplementedError(f"backend {self.backend} defines no predict_matrix")

    def predict_curve(self, gammas, x) -> np.ndarray:
        """r(gamma; x) at one feature point: a batch of one of :meth:`predict_matrix`."""
        return self.predict_matrix(gammas, np.asarray(x, dtype=float).reshape(1, -1))[0]


class IdentityPitCdf(PitCdfModel):
    """The exact identity map r(gamma; x) = gamma (a perfectly calibrated model)."""

    backend = "identity"

    def predict_matrix(self, gammas, xs) -> np.ndarray:
        return _gamma_rows(gammas, feature_rows(xs).shape[0]).copy()


# the scan answers for 2.._SCAN_MAX_FEATURES features: below 8 features cKDTree also
# sums the squared differences one feature at a time, so both give the same distances
_SCAN_MAX_FEATURES = 7


class StandardizedNeighbours:
    """The ``k`` nearest training rows in standardized feature space.

    Features are centred by ``mean`` and divided by ``scale`` (see
    :func:`standardization`). The build picks one of three searches from the n
    rows, the k neighbours and the d features:

    * d = 1: the k nearest rows are a contiguous run of the sorted column, so
      the build is one stable argsort and a query binary-searches each run's
      start. The run is contiguous in the stable sort s of the feature and
      starts at the smallest l with q - s[l] <= s[l + k] - q, so a tie between
      its two ends goes to the lower end; inside the run, equal distances keep
      run order. Distances are ``sqrt(d * d)``, as the tree computes them.
    * 2 <= d <= 7 and k >= n // 10, every default-k neighbourhood up to
      10,000 rows: a scan of all rows (:meth:`_scan`). Among equal squared
      distances the lower row index comes first, also at the k-th place. So
      large a neighbourhood leaves a k-d tree little to prune: at n = 10 k the
      scan's build and query took 0.44 to 0.89 of the tree's time at k >= 500;
      at k <= 200 it was up to 1.75 times slower and at most 18 ms slower (d = 2,
      2,000 queries on 2,000 rows; ``BENCH_scan_knn.json``). Loading the tree's
      module costs a process about 0.3 s and 25 MiB.
    * otherwise a ``cKDTree``; its module, ``scipy.spatial``, loads at the
      first such build. From 8 features the tree sums the squared differences
      in another order, so it keeps answering there with the distances it
      always gave.
    """

    def _build_neighbours(self, xs, k: int):
        self.mean, self.scale = standardization(xs)
        self.k = int(k)
        s = standardize(xs, self.mean, self.scale)
        n, d = s.shape
        self._tree = self._order = None
        if d == 1:
            self._order = np.argsort(s[:, 0], kind="stable")
            self._sorted = s[self._order, 0]
        elif d <= _SCAN_MAX_FEATURES and self.k >= n // 10:
            self._columns = s.T.copy()  # (d, n): each feature's column contiguous
        else:
            from scipy.spatial import cKDTree

            self._tree = cKDTree(s)

    def _window(self, q):
        """``(dist, pos)`` of the one-feature queries ``q`` (n_x,); ``pos`` is in sorted order."""
        s, k, n = self._sorted, self.k, self._sorted.size
        if k > n:
            return np.full((q.size, k), np.inf), np.full((q.size, k), n)
        # the run starts at the smallest l with q - s[l] <= s[l + k] - q, in [p - k, p]
        p = np.searchsorted(s, q)
        lo, hi = np.maximum(p - k, 0), np.minimum(p, n - k)
        for _ in range(k.bit_length()):
            mid = (lo + hi) >> 1
            # mid < hi keeps mid + k inside the column; rows already settled stay put
            ok = (mid >= hi) | (q - s[mid] <= s[np.minimum(mid + k, n - 1)] - q)
            lo, hi = np.where(ok, lo, mid + 1), np.where(ok, mid, hi)
        d = sliding_window_view(s, k)[lo]  # a copy: each query's run, in place below
        d -= q[:, None]
        with np.errstate(over="ignore"):  # inf, as from the tree; _query raises on it
            np.sqrt(np.multiply(d, d, out=d), out=d)
        # an unstable sort, redone stably only in rows whose sorted distances tie
        perm = np.argsort(d, axis=1)
        dist = np.take_along_axis(d, perm, axis=1)
        tied = np.flatnonzero((dist[:, 1:] == dist[:, :-1]).any(axis=1))
        perm[tied] = np.argsort(d[tied], axis=1, kind="stable")
        perm += lo[:, None]
        return dist, perm

    def _scan(self, q):
        """``(dist, idx)`` of the queries ``q`` (n_x, d) from all rows, in row blocks.

        Each block of queries holds at most 2**18 // n of them, so its (block, n)
        temporaries stay within 2 MiB. ``k`` above the rows gives inf and index n,
        as the window does.
        """
        k, n = self.k, self._columns.shape[1]
        dist, idx = np.full((q.shape[0], k), np.inf), np.full((q.shape[0], k), n)
        step = max(1, _BLOCK_FLOATS // n)
        for i in range(0, q.shape[0] if k <= n else 0, step):
            dist[i:i + step], idx[i:i + step] = self._scan_block(q[i:i + step])
        return dist, idx

    def _scan_block(self, q):
        """The k nearest rows of each query in ``q`` (m, d) by (squared distance, row)."""
        c, k = self._columns, self.k
        with np.errstate(over="ignore"):  # inf, as from the tree; _query raises on it
            d2 = q[:, :1] - c[0]
            d2 *= d2
            for j in range(1, c.shape[0]):  # feature by feature, as the tree sums
                t = q[:, j:j + 1] - c[j]
                d2 += np.multiply(t, t, out=t)
        part = np.argpartition(d2, k - 1, axis=1)
        kth = np.take_along_axis(d2, part[:, k - 1:k], axis=1)
        part = part[:, :k]
        # a tie at the k-th place leaves out rows as near as the k-th: take the lowest ones
        cut = np.flatnonzero(np.count_nonzero(d2 <= kth, axis=1) > k)
        part[cut] = np.argsort(d2[cut], axis=1, kind="stable")[:, :k]
        d2 = np.take_along_axis(d2, part, axis=1)
        # an unstable sort, redone by (squared distance, row) only in rows whose distances tie
        perm = np.argsort(d2, axis=1)
        dk = np.take_along_axis(d2, perm, axis=1)
        tied = np.flatnonzero((dk[:, 1:] == dk[:, :-1]).any(axis=1))
        perm[tied] = np.lexsort((part[tied], d2[tied]))
        return np.sqrt(dk), np.take_along_axis(part, perm, axis=1)

    def _query(self, xs, rows: bool = True):
        """``(dist, idx)`` of each row of ``xs``, each (n_x, k); ``xs`` is (n_x, d) or (n_x,).

        The search is the one the build picked (see the class): the sorted
        window, the scan, whose ties go to the lower row, or the tree. On data
        without tied distances all three give the tree's answer; ``rows=False``
        leaves the window's positions in the order ``self._order``. A row whose
        k-th standardized distance is inf (it overflows, or k exceeds the rows
        and the slot reads index n) raises :class:`InsufficientData`, which
        names the row by its feature values: callers pass row blocks, so a
        position in ``xs`` need not be the row's position in the data. A NaN
        feature raises ``ValueError`` on every search, as the tree always did.
        """
        q = standardize(xs, self.mean, self.scale)
        if np.isnan(q).any():
            raise ValueError("feature rows must not be NaN")
        if self._tree is not None:
            dist, idx = self._tree.query(q, k=self.k)  # drops the neighbour axis when k == 1
            dist, idx = dist.reshape(q.shape[0], self.k), idx.reshape(q.shape[0], self.k)
        elif q.shape[1] == 1:
            dist, idx = self._window(q[:, 0])
        else:
            dist, idx = self._scan(q)
        far = np.flatnonzero(np.isinf(dist[:, -1]))
        if far.size:
            x = np.asarray(xs, dtype=float).reshape(q.shape)[far[0]]
            raise InsufficientData(f"feature row ({', '.join(map(repr, x.tolist()))}) is too far "
                                   f"from the data for {self.k} neighbours")
        return dist, (self._order[idx] if rows and self._order is not None else idx)


@dataclass(frozen=True)
class LocalEmpiricalConfig:
    """Neighbourhood rule for the local empirical backend: ``k`` nearest neighbours."""

    k: int
    weighting: str = "uniform"

    def __post_init__(self):
        if self.k < 1:
            raise ValueError("k must be >= 1")
        if self.weighting not in ("uniform", "inverse-distance"):
            raise ValueError(f"unknown weighting {self.weighting!r}")


class LocalEmpiricalModel(PitCdfModel, StandardizedNeighbours):
    """Weighted empirical CDF of PIT values over the k nearest calibration points.

    r(gamma; x) = sum_i w_i(x) I(pit_i <= gamma), with the weights
    supported on the k nearest neighbours of x in standardized feature space.
    The curve is a nondecreasing step function of gamma by construction.
    Uniform weights count: each row's neighbour PITs are sorted by value and
    the count at or below gamma reads one cumulative table of k weights 1/k
    (:func:`_uniform_ecdf`). Inverse-distance weights sort each row with its
    weights and sum them (:func:`_weighted_ecdf`).
    """

    backend = "local-empirical"

    def __init__(self, xs, pit_values, cfg: LocalEmpiricalConfig):
        self.xs = feature_rows(xs)
        self.pit_values = np.asarray(pit_values, dtype=float).ravel()
        if self.xs.shape[0] != self.pit_values.shape[0]:
            raise LengthMismatch("feature rows and pit values differ in length")
        self.cfg = cfg
        self._build_neighbours(self.xs, cfg.k)

    def _neighborhoods(self, xs):
        """Neighbour indices of each feature row, (n_x, k), and their normalized
        inverse-distance weights, (n_x, k); uniform weighting builds no weights (``None``)."""
        dist, idx = self._query(xs)
        if self.cfg.weighting == "uniform":
            return idx, None
        # offset by the mean distance so a coincident point cannot
        # swallow the whole neighborhood
        w = 1.0 / (dist + np.mean(dist, axis=-1, keepdims=True) + 1e-300)
        return idx, w / w.sum(axis=-1, keepdims=True)

    def _ecdf(self, pits, w, gammas) -> np.ndarray:
        """Each row's ECDF of its (R, k) neighbour ``pits`` at its (R, G) ``gammas``."""
        if self.cfg.weighting == "uniform":
            return _uniform_ecdf(pits, gammas)
        return _weighted_ecdf(pits, np.broadcast_to(w, pits.shape), gammas)

    def predict_matrix(self, gammas, xs) -> np.ndarray:
        """One neighbourhood query for all rows of ``xs``, then each row's ECDF."""
        idx, w = self._neighborhoods(xs)
        return self._ecdf(self.pit_values[idx], w, _gamma_rows(gammas, idx.shape[0]))

    def to_json(self) -> dict:
        """The fit, not the data: the calibration rows enter as their count and
        the SHA-256 of the C-order float64 bytes of ``xs``, then ``pit_values``."""
        rows = hashlib.sha256(self.xs.tobytes())
        rows.update(self.pit_values.tobytes())
        return {
            "format_version": MODEL_FORMAT_VERSION,
            "backend": self.backend,
            "config": asdict(self.cfg),
            "standardization": {"mean": self.mean.tolist(), "scale": self.scale.tolist()},
            "n_rows": int(self.pit_values.shape[0]),
            "rows_sha256": rows.hexdigest(),
        }


def _uniform_ecdf(pits, gammas) -> np.ndarray:
    """Share of the (R, k) ``pits`` at or below each of the (R, G) ``gammas``.

    Each row is sorted by value alone and counted; a count c reads the
    cumulative sum of c weights 1/k, with the full count snapped to 1, which
    are the values the weighted path's stable sort and cumsum give uniform weights.
    """
    k = pits.shape[1]
    table = np.zeros(k + 1)
    np.cumsum(np.full(k, 1.0 / k), out=table[1:])
    table[-1] = 1.0
    return np.clip(table, 0.0, 1.0)[_row_counts(np.sort(pits, axis=1), gammas)]


def _weighted_ecdf(pits, w, gammas) -> np.ndarray:
    """Weight of the (R, m) ``pits`` at or below each of the (R, G) ``gammas``; rows sum to 1.

    A stable sort keeps tied PITs in neighbour order, so their weights add up
    in the same order every time.
    """
    r = np.arange(pits.shape[0])[:, None]
    order = np.argsort(pits, axis=1, kind="stable")
    cumw = np.zeros((pits.shape[0], pits.shape[1] + 1))
    np.cumsum(w[r, order], axis=1, out=cumw[:, 1:])
    cumw[:, -1] = 1.0
    return np.clip(np.take_along_axis(cumw, _row_counts(pits[r, order], gammas), axis=1), 0.0, 1.0)


def _row_counts(pits_sorted, gammas) -> np.ndarray:
    """How many of each row's sorted PITs lie at or below each of its levels, shape (R, G)."""
    counts = np.empty(gammas.shape, dtype=np.intp)
    for i, (p, g) in enumerate(zip(pits_sorted, gammas)):
        counts[i] = np.searchsorted(p, g, side="right")
    return counts


def _gamma_rows(gammas, n: int) -> np.ndarray:
    """Levels per feature row, shape (n, G), from (G,) shared levels or (n, G) rows."""
    gammas = np.asarray(gammas, dtype=float)
    return np.broadcast_to(gammas, (n, gammas.shape[-1]))


def fit_local_empirical(cal: CalibrationSet, pit_values, cfg: LocalEmpiricalConfig) -> LocalEmpiricalModel:
    """Fit the local empirical PIT-CDF estimator (no augmentation needed)."""
    pit_values = np.asarray(pit_values, dtype=float).ravel()
    if pit_values.shape[0] != len(cal):
        raise LengthMismatch(f"{pit_values.shape[0]} pit values for {len(cal)} rows")
    if cfg.k > len(cal):
        raise InsufficientData(f"k={cfg.k} exceeds n={len(cal)}")
    return LocalEmpiricalModel(cal.xs, pit_values, cfg)


# ----------------------------------------------------------------------
# Recalibrated distributions and prediction sets
# ----------------------------------------------------------------------

@dataclass(frozen=True)
class RecalibratedDistribution:
    """Initial CDF pushed through the fitted P-P map at one feature point."""

    cdf: GridCdf
    pdf: GridDensity


@dataclass(frozen=True)
class PredictionSet:
    """Disjoint response intervals with a nominal coverage level."""

    intervals: tuple
    nominal_level: float
    kind: str

    def __post_init__(self):
        ivs = tuple((float(lo), float(hi)) for lo, hi in self.intervals)
        for lo, hi in ivs:
            if not lo < hi:
                raise ValueError(f"interval bounds must satisfy lo < hi, got ({lo}, {hi})")
        for (_, hi_prev), (lo_next, _) in zip(ivs, ivs[1:]):
            if lo_next < hi_prev:
                raise ValueError("intervals must be sorted and non-overlapping")
        if self.kind == "interval" and len(ivs) != 1:
            raise ValueError("kind='interval' requires exactly one interval")
        object.__setattr__(self, "intervals", ivs)

    def contains(self, y) -> np.ndarray:
        y = np.asarray(y, dtype=float)
        hit = np.zeros(y.shape, dtype=bool)
        for lo, hi in self.intervals:
            hit |= (y >= lo) & (y <= hi)
        return hit

    def total_size(self) -> float:
        return float(sum(hi - lo for lo, hi in self.intervals))

    def to_json(self) -> dict:
        return asdict(self)


def recalibrate_rows(model, r: PitCdfModel, xs) -> np.ndarray:
    """Recalibrated CDF rows at each feature row of ``xs``, shape (n_x, G).

    The CDF on the grid is r(F_init(y); x), made nondecreasing by a
    cumulative maximum, clipped to [0, 1] and endpoint-snapped to {0, 1}.
    Intervals read these rows alone; only HPD sets need the density of
    :func:`recalibrated_pdf_rows`. A map that collapses a row to a
    constant, or a row whose whole mass lies inside one grid cell (narrower
    than the grid resolves), raises :class:`DegenerateRecalibration`.
    """
    xs = feature_rows(xs)
    vals = np.asarray(r.predict_matrix(cdf_rows(model, xs), xs), dtype=float)
    if np.any(vals.max(axis=1) - vals.min(axis=1) < 1e-9):
        raise DegenerateRecalibration("P-P map collapsed the CDF to a constant")
    vals = np.clip(np.maximum.accumulate(vals, axis=1), 0.0, 1.0)
    vals[:, 0] = 0.0
    vals[:, -1] = 1.0
    if np.any(np.diff(vals, axis=1).max(axis=1) >= 1.0):
        raise DegenerateRecalibration("recalibrated CDF puts all its mass in one grid cell")
    return vals


def recalibrated_pdf_rows(points, cdf) -> np.ndarray:
    """Recalibrated density rows of recalibrated ``cdf`` rows, shape (N, G).

    The density is the clipped knot slopes of each row's monotone cubic (the
    spline's derivative at the grid points), renormalized to unit mass by
    :func:`renormalize_rows`; all rows take one :func:`knot_slopes` call. A
    row left with no mass raises :class:`DegenerateDensity`.
    """
    return renormalize_rows(points, knot_slopes(points, cdf))


def recalibrate(model, r: PitCdfModel, x) -> RecalibratedDistribution:
    """The recalibrated distribution at one x: a batch of one of :func:`recalibrate_rows`."""
    cdf = recalibrate_rows(model, r, np.asarray(x, dtype=float).reshape(1, -1))
    pdf = recalibrated_pdf_rows(model.grid.points, cdf)
    return RecalibratedDistribution(GridCdf(model.grid, cdf[0]), GridDensity(model.grid, pdf[0]))


class RecalibratedInitialModel:
    """Expose a recalibrated distribution family as a new initial model.

    Useful for re-running diagnostics after recalibration: PIT values under
    this model should look conditionally uniform if the map fixed the original
    miscalibration.
    """

    def __init__(self, base_model, r: PitCdfModel):
        self.base_model = base_model
        self.r = r
        self.grid = base_model.grid

    def cdf_matrix(self, xs) -> np.ndarray:
        """Recalibrated CDF rows of all feature rows of ``xs``: :func:`recalibrate_rows`."""
        return recalibrate_rows(self.base_model, self.r, xs)


def central_intervals(points, cdf, p_lo: float, p_hi: float, level: float) -> list:
    """Interval [q(p_lo), q(p_hi)] of each row of ``cdf``, all from one :func:`invert_rows`."""
    return [PredictionSet((iv,), nominal_level=level, kind="interval")
            for iv in invert_rows(points, cdf, np.array([p_lo, p_hi])).tolist()]


def calpit_interval(rd: RecalibratedDistribution, alpha: float) -> PredictionSet:
    """Central interval [q(alpha/2), q(1 - alpha/2)] of the recalibrated CDF."""
    if not 0.0 < alpha < 1.0:
        raise ValueError(f"alpha must be in (0, 1), got {alpha}")
    return central_intervals(rd.cdf.grid.points, rd.cdf.values[None, :], 0.5 * alpha,
                             1.0 - 0.5 * alpha, 1.0 - alpha)[0]


def calpit_hpd(rd: RecalibratedDistribution, alpha: float) -> PredictionSet:
    """Highest-density set of one recalibrated density: a batch of one of :func:`hpd_rows`."""
    return hpd_rows(rd.pdf.grid.points, rd.pdf.values[None, :], alpha)[0]


def hpd_rows(points, pdf, alpha: float) -> list:
    """Highest-density set {f >= t} with mass 1 - alpha of each row of ``pdf``, shape (N, G).

    Densities are piecewise linear between grid points, so the mass above a
    level is a sum of per-cell trapezoids and quadratics in it. ceil(log2 G)
    rounds of bisection over each row's sorted values bracket every threshold
    at once, and each is then solved in closed form (Hyndman, 1996). Values
    closer than 1e-12 times the row maximum count as one level. If the target
    falls in the jump of cells lying flat at the threshold, they are filled
    left to right and the last is cut. An independent check integrates each
    kept piece of a cell against the density and raises :class:`HpdSearchFailed`
    if a set's mass misses 1 - alpha by more than 0.005. Rows do not interact.
    """
    if not 0.0 < alpha < 1.0:
        raise ValueError(f"alpha must be in (0, 1), got {alpha}")
    pts, pdf = np.asarray(points, dtype=float), np.asarray(pdf, dtype=float)
    n, g = pdf.shape
    r = np.arange(n)[:, None]
    h = pts[1:] - pts[:-1]
    total = np.add.reduce(h * (pdf[:, 1:] + pdf[:, :-1]) / 2.0, axis=1)  # np.trapezoid's sum
    target = ((1.0 - alpha) * total)[:, None]
    # snap values an ulp apart onto one level, so noisy plateaus are flat:
    # each sorted value takes the first value of its run of near-equal ones
    order = pdf.argsort(axis=1)
    ss = pdf[r, order]
    new = np.ones((n, g), dtype=bool)
    new[:, 1:] = ss[:, 1:] - ss[:, :-1] > 1e-12 * ss[:, -1:]
    ss = ss[r, np.maximum.accumulate(np.where(new, np.arange(g), 0), axis=1)]
    f = np.empty_like(pdf)
    f[r, order] = ss

    a, b = f[:, :-1], f[:, 1:]
    lo, hi = np.minimum(a, b), np.maximum(a, b)
    full = 0.5 * (a + b) * h
    q = 0.5 * h / np.where(hi > lo, hi - lo, np.inf)  # 0 on flat cells

    def mass(t, whole):  # cells marked ``whole`` count in full, the others their part above t
        m = q * np.maximum(hi - t, 0.0) * (hi + t)
        np.copyto(m, full, where=whole)
        return np.add.reduce(m, axis=1, keepdims=True)

    # largest position j of the sorted levels with mass >= target. Position 0
    # passes; each round tries j + step, so j passes and j + 2 step fails.
    # Positions past the end repeat the top level
    rounds = (g - 1).bit_length()
    levels = ss[:, np.minimum(np.arange(1 << rounds), g - 1)]
    j = np.zeros((n, 1), dtype=np.intp)
    for step in [1 << i for i in reversed(range(rounds))]:
        t = levels[r, j + step]
        np.add(j, step, out=j, where=mass(t, lo >= t) >= target)
    v = levels[r, j]
    # on (v, next level] the cells crossing the level are fixed, so the mass
    # is m(t) = above - coef (t - v)(t + v), with above = m(v+) < m(v) when
    # cells lie flat at v
    crossing = (lo <= v) & (hi > v)
    coef = np.add.reduce(q * crossing, axis=1, keepdims=True)
    above = mass(v, lo > v)
    jump = target > above  # the target falls in the jump of the cells lying flat at v
    t = np.where(jump, v, np.sqrt(v * v + np.maximum(above - target, 0.0)
                                  / np.where(jump, 1.0, coef)))

    s = (hi - t) / np.where(crossing, hi - lo, 1.0)  # share of a crossing cell above t
    start = np.where(crossing & (b > a), pts[1:] - s * h, pts[:-1])
    end = np.where(crossing & (a > b), pts[:-1] + s * h, pts[1:])
    keep = crossing | (lo > v)
    if jump.any():
        flat_mass = np.where(jump & (a == v) & (b == v), full, 0.0)
        before = np.cumsum(flat_mass, axis=1) - flat_mass
        fill = (flat_mass > 0) & (before < target - above)
        cut = (target - above - before) / np.where(jump, v, 1.0)
        end = np.where(fill, pts[:-1] + np.minimum(h, cut), end)
        keep |= fill
    keep &= end > start

    # the density is linear on a cell: a piece's mass is its width times its midpoint value
    mid = pdf[:, :-1] + (pdf[:, 1:] - pdf[:, :-1]) / h * (0.5 * (start + end) - pts[:-1])
    kept = np.add.reduce(np.where(keep, mid * (end - start), 0.0), axis=1) / total
    bad = np.flatnonzero(np.abs(kept - (1.0 - alpha)) > _HPD_MASS_TOL)
    if bad.size:
        raise HpdSearchFailed(f"HPD mass {kept[bad[0]]:.6f} misses target {1.0 - alpha:.6f}")

    # kept pieces closer than 1e-12 of the grid span join one interval
    row = keep.nonzero()[0]
    start, end = start[keep], end[keep]
    opens = np.ones(row.size, dtype=bool)
    opens[1:] = (row[1:] != row[:-1]) | (start[1:] - end[:-1] > 1e-12 * (pts[-1] - pts[0]))
    los, his = start[opens].tolist(), end[np.append(opens[1:], True)].tolist()
    stops = np.bincount(row[opens], minlength=n).cumsum().tolist()
    return [PredictionSet(tuple(zip(los[i0:i1], his[i0:i1])), nominal_level=1.0 - alpha,
                          kind="hpd") for i0, i1 in zip([0] + stops[:-1], stops)]
