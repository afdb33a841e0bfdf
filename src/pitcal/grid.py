"""Grid-based one-dimensional densities and CDFs.

Everything downstream speaks in terms of a conditional density or CDF
evaluated on a fixed response grid. This module owns that representation:
integration (density -> CDF), inversion (quantiles), point evaluation of the
CDF (used as the probability integral transform), renormalization of raw
density values, Gaussian widening, and shape-preserving monotone cubic
interpolation.

Conventions
-----------
* Integration rule is the trapezoid rule throughout, so the CDF of a
  piecewise-linear density is exact.
* CDF evaluation off the grid clamps to {0, 1}: these values are
  probabilities, not extrapolations.
* Quantile lookups on flat CDF segments return the leftmost response value.
* Every CDF is read through one monotone cubic with one core: ``_fc_slopes``
  is the only Fritsch-Carlson slope limiter (whole rows in
  :func:`knot_slopes`, five-secant windows in ``_segment_slopes``; past the
  ends of the data both repeat the end secant, so no knot is a special case),
  ``_hermite`` is the only Hermite basis (``_pit_rows`` and
  :func:`invert_rows`), ``_pit_rows`` is the only PIT evaluator, and
  :func:`invert_rows` is the only quantile inverter (:func:`invert_cdf` is a
  batch of one).
* Point queries touch only the spline segment they land in: quantile
  inversion bisects within one segment, and PIT evaluation limits the slopes
  of the queried segment alone. Both equal the whole-spline computation bit
  for bit.

All containers are immutable after construction and safe to share across
threads for read-only evaluation.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import DegenerateDensity, InvalidBandwidth, InvalidDensity, InvalidGrid

__all__ = [
    "YGrid",
    "GridDensity",
    "GridCdf",
    "knot_slopes",
    "invert_cdf",
    "invert_rows",
    "renormalize_density",
    "renormalize_rows",
    "widen_density",
    "default_grid",
    "trapezoid_weights",
]

_SNAP_TOL = 1e-9
_GRID_MARGIN = 0.1  # share of the data span added to each side by default_grid
_BLOCK_FLOATS = 2**18  # float64 values in 2 MiB


def map_row_blocks(f, width: int, *rows) -> np.ndarray:
    """``f`` over consecutive blocks of at most ``max(1, 2**18 // width)`` rows of each of
    ``rows``, joined. ``width`` counts the float64 values per row of all the arrays a pass
    holds live at once, so that live set stays within 2 MiB at any row count. No rows make
    one call on the empty rows."""
    n, step = len(rows[0]), max(1, _BLOCK_FLOATS // max(width, 1))
    return np.concatenate([f(*(r[i:i + step] for r in rows)) for i in range(0, max(n, 1), step)])


def _frozen(a) -> np.ndarray:
    out = np.ascontiguousarray(np.asarray(a, dtype=float))
    out.flags.writeable = False
    return out


@dataclass(frozen=True, eq=False)
class YGrid:
    """Strictly increasing grid of response values (length >= 3)."""

    points: np.ndarray

    def __post_init__(self):
        pts = _frozen(self.points)
        if pts.ndim != 1 or pts.size < 3:
            raise InvalidGrid(f"grid must be 1-D with >= 3 points, got shape {pts.shape}")
        if not np.all(np.isfinite(pts)):
            raise InvalidGrid("grid contains non-finite values")
        if np.any(np.diff(pts) <= 0):
            raise InvalidGrid("grid points must be strictly increasing")
        object.__setattr__(self, "points", pts)

    def __len__(self) -> int:
        return self.points.size

    @property
    def lo(self) -> float:
        return float(self.points[0])

    @property
    def hi(self) -> float:
        return float(self.points[-1])


def trapezoid_weights(points: np.ndarray) -> np.ndarray:
    """Quadrature weights w such that sum(w * f) = trapezoid integral of f."""
    h = np.diff(points)
    w = np.zeros_like(points)
    w[:-1] += h / 2.0
    w[1:] += h / 2.0
    return w


@dataclass(frozen=True, eq=False)
class GridDensity:
    """Density values on a grid.

    The container itself only checks shapes and finiteness; raw spline
    derivatives may carry small negative values, which
    :func:`renormalize_density` clips and rescales. Consumers that require a
    proper density (e.g. :func:`cdf_rows_from_density_rows`) enforce nonnegativity.
    """

    grid: YGrid
    values: np.ndarray

    def __post_init__(self):
        vals = _frozen(self.values)
        if vals.shape != self.grid.points.shape:
            raise InvalidDensity("density values must match grid shape")
        if not np.all(np.isfinite(vals)):
            raise InvalidDensity("density values must be finite")
        object.__setattr__(self, "values", vals)

    def integral(self) -> float:
        return float(np.trapezoid(self.values, self.grid.points))


@dataclass(frozen=True, eq=False)
class GridCdf:
    """Nondecreasing CDF values in [0, 1] on a grid."""

    grid: YGrid
    values: np.ndarray

    def __post_init__(self):
        vals = np.asarray(self.values, dtype=float)
        if vals.shape != self.grid.points.shape:
            raise ValueError("cdf values must match grid shape")
        if not np.all(np.isfinite(vals)):
            raise ValueError("cdf values must be finite")
        if np.any(np.diff(vals) < -_SNAP_TOL):
            raise ValueError("cdf values decrease by more than the snap tolerance")
        vals = np.clip(np.maximum.accumulate(vals), 0.0, 1.0)
        object.__setattr__(self, "values", _frozen(vals))


# ----------------------------------------------------------------------
# Monotone cubic Hermite interpolation (Fritsch-Carlson limited slopes)
# ----------------------------------------------------------------------

def _locate(xs: np.ndarray, q: np.ndarray):
    """Segment index, width and unclipped local coordinate ``t`` of each query."""
    idx = np.clip(np.searchsorted(xs, q, side="right") - 1, 0, xs.size - 2)
    h = xs[idx + 1] - xs[idx]
    return idx, h, (q - xs[idx]) / h


def _hermite(y0, y1, hm0, hm1, t):
    """Cubic Hermite value on one segment at local coordinate ``t`` in [0, 1].

    ``hm0`` and ``hm1`` are the end slopes times the segment width. Works on
    floats and arrays alike; every caller goes through this one operation
    order, so the scalar and array paths agree bit for bit.
    """
    t2 = t * t
    t3 = t2 * t
    return (
        y0 * (2 * t3 - 3 * t2 + 1)
        + hm0 * (t3 - 2 * t2 + t)
        + y1 * (-2 * t3 + 3 * t2)
        + hm1 * (t3 - t2)
    )


def _fc_slopes(d: np.ndarray) -> np.ndarray:
    """Fritsch-Carlson limited slopes at knots ``2 .. W - 2`` of (N, W) secants.

    Knot ``k`` lies between secants ``k - 1`` and ``k``. Callers pad past the
    ends of the data by repeating the end secant, so an end knot's raw slope
    is that secant and the pad never limits it (both of its ratios are 1).
    Raw slopes are secant averages, forced to zero next to a flat secant,
    then scaled into the monotonicity circle (alpha^2 + beta^2 <= 9) of both
    adjacent segments; shrinking only ever preserves the constraint.
    """
    zero = d == 0.0

    # raw slopes at knots 1 .. W - 1
    m = np.where(zero[:, :-1] | zero[:, 1:], 0.0, 0.5 * (d[:, :-1] + d[:, 1:]))

    # monotonicity-circle factors of secants 1 .. W - 2.
    # A flat secant has zero slope at both ends, so its ratios are 0.
    safe_d = np.where(zero[:, 1:-1], 1.0, d[:, 1:-1])
    alpha = m[:, :-1] / safe_d
    beta = m[:, 1:] / safe_d
    r2 = alpha * alpha + beta * beta
    tau = np.where(r2 > 9.0, 3.0 / np.sqrt(np.maximum(r2, 1e-300)), 1.0)
    return m[:, 1:-1] * np.minimum(tau[:, :-1], tau[:, 1:])


def knot_slopes(points: np.ndarray, rows: np.ndarray) -> np.ndarray:
    """Fritsch-Carlson slopes at every knot of each nondecreasing row, shape (N, G).

    One :func:`_fc_slopes` call over all rows: secant averages (the end secant
    at the end knots), zero next to every flat secant, limited to the
    monotonicity circle. They are also the spline's derivative at the knots.
    """
    # two copies of the end secant per side put every knot at positions 2 .. G + 1
    d = np.empty((rows.shape[0], points.size + 3))
    d[:, 2:-2] = np.diff(rows, axis=1) / np.diff(points)
    d[:, :2] = d[:, 2:3]
    d[:, -2:] = d[:, -3:-2]
    return _fc_slopes(d)


# ----------------------------------------------------------------------
# Density / CDF operations
# ----------------------------------------------------------------------

def invert_cdf(c: GridCdf, p: float) -> float:
    """Smallest response value whose interpolated CDF reaches ``p``.

    A batch of one of :func:`invert_rows`. Flat CDF stretches resolve to
    their leftmost point. ``p`` below the first grid value maps to the first
    grid point, ``p`` above the last value to the last grid point.
    """
    if not 0.0 <= p <= 1.0:
        raise ValueError(f"probability must be in [0, 1], got {p}")
    return float(invert_rows(c.grid.points, c.values[None, :], [p])[0, 0])


def renormalize_rows(points, rows) -> np.ndarray:
    """``rows`` (N, G) clipped at zero, each rescaled to unit trapezoid mass over ``points``;
    a row left with no mass raises :class:`DegenerateDensity`."""
    vals = np.maximum(rows, 0.0)
    total = np.trapezoid(vals, points, axis=1)
    if np.any(total <= 0):
        raise DegenerateDensity("no positive mass left after clipping")
    return vals / total[:, None]


def renormalize_density(d: GridDensity) -> GridDensity:
    """Clip negative values to zero and rescale to unit trapezoid mass: a batch of one."""
    return GridDensity(d.grid, renormalize_rows(d.grid.points, d.values[None, :])[0])


def widen_density(d: GridDensity, bandwidth: float) -> GridDensity:
    """Convolve with a Gaussian kernel on the grid, reflecting at the edges.

    Mass that the kernel would push off the grid is folded back in by
    mirroring source points about both boundaries, so the result keeps unit
    mass (up to the final renormalization).
    """
    if not bandwidth > 0:
        raise InvalidBandwidth(f"bandwidth must be > 0, got {bandwidth}")
    pts = d.grid.points
    w = trapezoid_weights(pts)
    src = d.values * w

    def kernel(centers):
        z = (pts[:, None] - centers[None, :]) / bandwidth
        return np.exp(-0.5 * z * z)

    k = kernel(pts) + kernel(2 * pts[0] - pts) + kernel(2 * pts[-1] - pts)
    out = k @ src  # normalization constant cancels in renormalize_density
    return renormalize_density(GridDensity(d.grid, out))


def default_grid(values, n_points: int = 201) -> YGrid:
    """Equispaced grid spanning the data range extended by a tenth per side."""
    values = np.asarray(values, dtype=float)
    lo = float(np.min(values))
    hi = float(np.max(values))
    span = hi - lo
    if span <= 0:
        span = max(abs(lo), 1.0)
    return YGrid(np.linspace(lo - _GRID_MARGIN * span, hi + _GRID_MARGIN * span, n_points))


# ----------------------------------------------------------------------
# Batched PIT evaluation (same spline construction, many rows at once)
# ----------------------------------------------------------------------

def _segment_slopes(xs: np.ndarray, rows: np.ndarray, idx: np.ndarray) -> np.ndarray:
    """Limited slopes at knots ``idx`` and ``idx + 1`` of each row, shape (N, 2).

    A knot's Fritsch-Carlson slope depends on the secants two to each side,
    so the pair needs only the five secants ``idx - 2 .. idx + 2``, which
    :func:`_fc_slopes` limits as it limits a whole row; indices past the ends
    are clipped, which repeats the end secant just as :func:`knot_slopes`
    pads. The result therefore equals ``knot_slopes(xs, rows)[:, [i, i + 1]]``
    bit for bit.
    """
    sec = np.clip(idx[:, None] + np.arange(-2, 3), 0, xs.size - 2)
    r = np.arange(rows.shape[0])[:, None]
    d = (rows[r, sec + 1] - rows[r, sec]) / (xs[sec + 1] - xs[sec])
    return _fc_slopes(d)


def cdf_rows_from_density_rows(points: np.ndarray, density_rows: np.ndarray) -> np.ndarray:
    """Row-wise cumulative trapezoid CDFs, normalized and endpoint-snapped.

    Every step, the cell trapezoids included, runs in place on one output
    array: besides the density rows, a pass holds one (N, G) float64 buffer.
    """
    if np.any(density_rows < 0):
        raise InvalidDensity("density has negative values; renormalize first")
    cum = np.empty(density_rows.shape)
    cum[:, 0] = 0.0
    seg = np.add(density_rows[:, 1:], density_rows[:, :-1], out=cum[:, 1:])
    seg *= 0.5
    seg *= np.diff(points)
    np.cumsum(seg, axis=1, out=seg)
    total = cum[:, -1:].copy()
    if np.any(total <= 0):
        raise DegenerateDensity("density integrates to zero")
    cum /= total
    np.clip(cum, 0.0, 1.0, out=cum)
    cum[:, -1] = 1.0
    return cum


def _pit_rows(points: np.ndarray, cdf_rows: np.ndarray, ys: np.ndarray) -> np.ndarray:
    """PIT of ``ys[i]`` under the monotone cubic through ``cdf_rows[i]``.

    Slopes are limited only at the two knots of the segment each response
    lands in (:func:`_segment_slopes`); values are clipped to [0, 1] and
    queries off the grid clamp to {0, 1}.
    """
    idx, h, t = _locate(points, ys)
    rows = np.arange(ys.shape[0])
    m0, m1 = _segment_slopes(points, cdf_rows, idx).T
    out = _hermite(cdf_rows[rows, idx], cdf_rows[rows, idx + 1], h * m0, h * m1,
                   np.clip(t, 0.0, 1.0))
    out = np.clip(out, 0.0, 1.0)
    out = np.where(ys < points[0], 0.0, out)
    return np.where(ys > points[-1], 1.0, out)


def invert_rows(points: np.ndarray, cdf_rows: np.ndarray, ps) -> np.ndarray:
    """Leftmost x where the monotone cubic through each nondecreasing CDF row reaches each level.

    ``ps`` is (P,), the same levels for all N rows, or (N, P); the result is
    (N, P). A level at or below a row's first value gives the first point, one
    above its last value the last point. Otherwise the one segment holding the
    answer is halved up to 80 times, with slopes from :func:`_segment_slopes`
    and values from :func:`_hermite`, and each element stops at its own test:
    every result equals bit for bit a bisection over its row's whole spline.
    """
    rows = np.asarray(cdf_rows, dtype=float)
    ps = np.asarray(ps, dtype=float)
    shape = (rows.shape[0], ps.shape[-1])
    row = np.repeat(np.arange(shape[0]), shape[1])
    target = np.broadcast_to(ps, shape).ravel()
    out = np.where(target > rows[row, -1], points[-1], points[0])
    e = np.flatnonzero((target > rows[row, 0]) & (target <= rows[row, -1]))
    row, target = row[e], target[e]
    j = np.count_nonzero(rows[row] < target[:, None], axis=1)  # searchsorted, side="left"
    lo, hi = points[j - 1], points[j]
    x0, h = lo, hi - lo
    y0, y1 = rows[row, j - 1], rows[row, j]
    hm0, hm1 = (h[:, None] * _segment_slopes(points, rows[row], j - 1)).T
    done = np.zeros(e.size, dtype=bool)
    # mid stays in [x0, x0 + h] and rounding is monotone, so t needs no clamp
    for _ in range(80):
        mid = 0.5 * (lo + hi)
        up = _hermite(y0, y1, hm0, hm1, (mid - x0) / h) >= target
        hi = np.where(up & ~done, mid, hi)
        lo = np.where(up | done, lo, mid)
        done |= hi - lo <= 1e-14 * np.maximum(1.0, np.abs(hi))
        if done.all():
            break
    out[e] = hi
    return out.reshape(shape)
