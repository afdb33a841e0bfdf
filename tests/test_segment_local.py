"""Segment-local and batched grid computations against frozen reference paths.

``grid`` reads every CDF through one spline core: ``_fc_slopes`` limits the
slopes of whole rows (``knot_slopes``) and of five-secant windows
(``_segment_slopes``), ``_hermite`` evaluates every segment (``invert_rows``,
``_pit_rows``), and ``cdf_rows_from_density_rows`` integrates every density.
The references below are frozen copies of the separate implementations that
came before the shared core, so the core is never checked against itself. Each
must be reproduced exactly, so every comparison here is ``==``.
"""

import numpy as np
from hypothesis import given, settings, strategies as st

import pytest

from pitcal.errors import DegenerateDensity, InvalidDensity
from pitcal.grid import (
    GridCdf,
    GridDensity,
    YGrid,
    _pit_rows,
    _segment_slopes,
    cdf_rows_from_density_rows,
    invert_cdf,
    invert_rows,
    knot_slopes,
)


def reference_slopes(xs, ys):
    """Fritsch-Carlson slopes as the whole-row spline fit computed them alone."""
    xs = np.asarray(xs, dtype=float)
    ys = np.maximum.accumulate(np.asarray(ys, dtype=float))
    n = xs.size
    h = np.diff(xs)
    d = np.diff(ys) / h

    m = np.empty(n)
    m[0] = d[0]
    m[-1] = d[-1]
    if n > 2:
        m[1:-1] = 0.5 * (d[:-1] + d[1:])

    flat = d == 0.0
    m[:-1][flat] = 0.0
    m[1:][flat] = 0.0

    safe_d = np.where(flat, 1.0, d)
    alpha = np.where(flat, 0.0, m[:-1] / safe_d)
    beta = np.where(flat, 0.0, m[1:] / safe_d)
    r2 = alpha * alpha + beta * beta
    tau = np.where(r2 > 9.0, 3.0 / np.sqrt(np.maximum(r2, 1e-300)), 1.0)
    scale = np.minimum(np.concatenate([[1.0], tau]), np.concatenate([tau, [1.0]]))
    m *= scale
    return m


def reference_eval(xs, ys, m, q):
    """The stand-alone spline's evaluation with its own Hermite basis, on an array."""
    q = np.atleast_1d(np.asarray(q, dtype=float))
    idx = np.searchsorted(xs, q, side="right") - 1
    idx = np.clip(idx, 0, xs.size - 2)
    h = xs[idx + 1] - xs[idx]
    t = (q - xs[idx]) / h
    t = np.clip(t, 0.0, 1.0)
    t2 = t * t
    t3 = t2 * t
    h00 = 2 * t3 - 3 * t2 + 1
    h10 = t3 - 2 * t2 + t
    h01 = -2 * t3 + 3 * t2
    h11 = t3 - t2
    return ys[idx] * h00 + h * m[idx] * h10 + ys[idx + 1] * h01 + h * m[idx + 1] * h11


def reference_pit(pts, cdf, y):
    """``pit`` as a whole-row spline fit, evaluated once and clipped."""
    if y < pts[0]:
        return 0.0
    if y > pts[-1]:
        return 1.0
    return float(np.clip(reference_eval(pts, cdf, reference_slopes(pts, cdf), y)[0], 0.0, 1.0))


def reference_solve(xs, ys, target):
    """Bisection that evaluates the whole reference spline at every step."""
    xs = np.asarray(xs, dtype=float)
    ys = np.maximum.accumulate(np.asarray(ys, dtype=float))
    m = reference_slopes(xs, ys)
    if target <= ys[0]:
        return float(xs[0])
    if target > ys[-1]:
        return float(xs[-1])
    j = int(np.searchsorted(ys, target, side="left"))
    lo, hi = float(xs[j - 1]), float(xs[j])
    for _ in range(80):
        mid = 0.5 * (lo + hi)
        if reference_eval(xs, ys, m, mid)[0] >= target:
            hi = mid
        else:
            lo = mid
        if hi - lo <= 1e-14 * max(1.0, abs(hi)):
            break
    return hi


def reference_derivative(xs, ys, m, q):
    """``MonotoneSpline.derivative``: the analytic derivative, zero off the knot range."""
    idx = np.clip(np.searchsorted(xs, q, side="right") - 1, 0, xs.size - 2)
    h = xs[idx + 1] - xs[idx]
    t = (q - xs[idx]) / h
    inside = (t >= 0.0) & (t <= 1.0)
    t = np.clip(t, 0.0, 1.0)
    t2 = t * t
    out = (ys[idx] * (6 * t2 - 6 * t) / h + m[idx] * (3 * t2 - 4 * t + 1)
           + ys[idx + 1] * (-6 * t2 + 6 * t) / h + m[idx + 1] * (3 * t2 - 2 * t))
    return np.where(inside, out, 0.0)


def reference_cdf_from_density(d):
    """The scalar trapezoid CDF as it was before it became a batch of one."""
    pts = d.grid.points
    vals = d.values
    seg = 0.5 * (vals[1:] + vals[:-1]) * np.diff(pts)
    cum = np.concatenate([[0.0], np.cumsum(seg)])
    cum = np.clip(cum / cum[-1], 0.0, 1.0)
    cum[0] = 0.0
    cum[-1] = 1.0
    return GridCdf(d.grid, cum)


def pit_curve(xs, ys, q):
    """``_pit_rows`` of every query under the one CDF row ``ys``."""
    return _pit_rows(xs, np.broadcast_to(ys, (q.size, ys.size)), q)


def random_knots(rng, n, flat_share):
    """Strictly increasing abscissae and nondecreasing ordinates with flat runs."""
    xs = np.cumsum(rng.uniform(0.01, 2.0, size=n)) - rng.uniform(0.0, 10.0)
    steps = rng.exponential(size=n - 1)
    steps[rng.random(n - 1) < flat_share] = 0.0
    ys = np.concatenate([[0.0], np.cumsum(steps)])
    if ys[-1] > 0:
        ys = ys / ys[-1]
    return xs, ys


def random_density_rows(rng, n_rows, n_points, flat_share):
    """Nonnegative density rows with zero runs (flat CDF stretches)."""
    rows = rng.exponential(size=(n_rows, n_points))
    rows[rng.random((n_rows, n_points)) < flat_share] = 0.0
    rows[:, n_points // 2] += 1.0  # every row keeps positive mass
    return rows


class TestFitAndEval:
    @pytest.mark.parametrize("n", [2, 3])
    @pytest.mark.parametrize("flat_share", [0.0, 0.5])
    def test_two_and_three_knots(self, n, flat_share):
        rng = np.random.default_rng(n * 10 + int(flat_share * 2))
        for _ in range(300):
            xs, ys = random_knots(rng, n, flat_share)
            assert np.array_equal(knot_slopes(xs, ys[None, :])[0], reference_slopes(xs, ys))
            q = np.concatenate([xs, rng.uniform(xs[0] - 1.0, xs[-1] + 1.0, size=20)])
            assert pit_curve(xs, ys, q).tolist() == [reference_pit(xs, ys, y) for y in q]

    def test_secant_ratios_across_the_circle(self):
        # with secants 1 and r the first segment has alpha = 1 and
        # beta = (1 + r) / 2, so r near 4.657 puts r2 on either side of 9
        for r in np.linspace(4.4, 4.9, 501):
            xs, ys = np.array([0.0, 1.0, 2.0]), np.array([0.0, 1.0, 1.0 + r])
            assert np.array_equal(knot_slopes(xs, ys[None, :])[0], reference_slopes(xs, ys))
            got = _segment_slopes(xs, ys[None, :], np.array([0]))[0]
            assert np.array_equal(got, reference_slopes(xs, ys)[:2])

    @settings(max_examples=80, deadline=None)
    @given(
        st.integers(min_value=0, max_value=10**6),
        st.integers(min_value=2, max_value=250),
        st.sampled_from([0.0, 0.3, 0.7]),
    )
    def test_full_row_slopes_and_values(self, seed, n, flat_share):
        rng = np.random.default_rng(seed)
        xs, ys = random_knots(rng, n, flat_share)
        assert np.array_equal(knot_slopes(xs, ys[None, :])[0], reference_slopes(xs, ys))
        q = np.concatenate([xs, rng.uniform(xs[0] - 1.0, xs[-1] + 1.0, size=200)])
        assert pit_curve(xs, ys, q).tolist() == [reference_pit(xs, ys, y) for y in q]
        assert _pit_rows(xs, ys[None, :], q[-1:]).tolist() == [reference_pit(xs, ys, q[-1])]


class TestSolve:
    @settings(max_examples=80, deadline=None)
    @given(
        st.integers(min_value=0, max_value=10**6),
        st.integers(min_value=2, max_value=40),
        st.sampled_from([0.0, 0.3, 0.7]),
    )
    def test_equals_whole_spline_bisection(self, seed, n, flat_share):
        rng = np.random.default_rng(seed)
        xs, ys = random_knots(rng, n, flat_share)
        targets = np.array([
            *ys,
            0.0, 0.025, 0.05, 0.95, 0.975, 1.0,
            ys[0], ys[-1], ys[0] - 0.1, ys[-1] + 0.1,
            *rng.uniform(ys[0], ys[-1], size=10),
        ])
        got = invert_rows(xs, ys[None, :], targets)
        assert got.shape == (1, targets.size)
        assert got[0].tolist() == [reference_solve(xs, ys, p) for p in targets]

    @settings(max_examples=40, deadline=None)
    @given(
        st.integers(min_value=0, max_value=10**6),
        st.integers(min_value=3, max_value=60),
        st.integers(min_value=1, max_value=8),
        st.sampled_from([0.0, 0.3, 0.7, 0.9]),
    )
    def test_rows_in_one_batch(self, seed, n_points, n_rows, flat_share):
        # rows share the grid; each row has its own levels: its knot
        # ordinates (flat stretches repeat them), 0, 1 and random levels
        rng = np.random.default_rng(seed)
        pts = np.cumsum(rng.uniform(0.01, 1.0, size=n_points)) - rng.uniform(0.0, 5.0)
        cdfs = cdf_rows_from_density_rows(pts, random_density_rows(rng, n_rows, n_points,
                                                                   flat_share))
        levels = np.stack([np.concatenate([row[rng.integers(0, n_points, size=6)], [0.0, 1.0],
                                           rng.uniform(size=4)]) for row in cdfs])
        got = invert_rows(pts, cdfs, levels)
        for row, ps, out in zip(cdfs, levels, got):
            assert out.tolist() == [reference_solve(pts, row, p) for p in ps]
            assert [invert_cdf(GridCdf(YGrid(pts), row), p) for p in ps] == out.tolist()

    def test_recalibrated_cdf_quantiles(self):
        # CDF rows like those recalibration produces: integrated densities
        # with flat stretches, inverted at the usual interval levels
        rng = np.random.default_rng(7)
        pts = np.linspace(-3.0, 3.0, 201)
        cdfs = cdf_rows_from_density_rows(pts, random_density_rows(rng, 12, 201, 0.4))
        levels = [0.0, 0.025, 0.05, 0.5, 0.95, 0.975, 1.0]
        got = invert_rows(pts, cdfs, levels)
        for row, out in zip(cdfs, got):
            assert out.tolist() == [reference_solve(pts, row, p) for p in levels]


class TestKnotSlopes:
    @settings(max_examples=40, deadline=None)
    @given(st.integers(min_value=0, max_value=10**6), st.sampled_from([0.0, 0.4, 0.8]))
    def test_equal_spline_derivative_at_knots(self, seed, flat_share):
        # the recalibrated density reads knot slopes as the spline derivative
        rng = np.random.default_rng(seed)
        pts = np.linspace(-3.0, 3.0, int(rng.integers(3, 202)))
        cdfs = cdf_rows_from_density_rows(pts, random_density_rows(rng, 10, pts.size, flat_share))
        got = knot_slopes(pts, cdfs)
        for row, slopes in zip(cdfs, got):
            m = reference_slopes(pts, row)
            assert np.array_equal(slopes, m)
            want = np.maximum(reference_derivative(pts, row, m, pts), 0.0)
            assert np.array_equal(np.maximum(slopes, 0.0), want)


class TestPitMatrixSlopes:
    @settings(max_examples=60, deadline=None)
    @given(
        st.integers(min_value=0, max_value=10**6),
        st.integers(min_value=3, max_value=40),
        st.sampled_from([0.0, 0.3, 0.7]),
    )
    def test_equal_to_fitted_spline_slopes(self, seed, n_points, flat_share):
        rng = np.random.default_rng(seed)
        pts = np.cumsum(rng.uniform(0.01, 1.0, size=n_points))
        cdfs = cdf_rows_from_density_rows(pts, random_density_rows(rng, 16, n_points, flat_share))
        last = n_points - 2
        # the first two and last two segments, where the window is clipped,
        # then segments drawn at random
        idx = np.array([0, 1, last - 1, last] * 2 + list(rng.integers(0, last + 1, size=8)))
        idx = np.clip(idx, 0, last)
        got = _segment_slopes(pts, cdfs, idx)
        for i, k in enumerate(idx):
            slopes = reference_slopes(pts, cdfs[i])
            assert got[i, 0] == slopes[k]
            assert got[i, 1] == slopes[k + 1]

    @settings(max_examples=30, deadline=None)
    @given(st.integers(min_value=0, max_value=10**6), st.sampled_from([0.0, 0.5]))
    def test_pit_matrix_equals_per_row_spline(self, seed, flat_share):
        rng = np.random.default_rng(seed)
        grid = YGrid(np.linspace(-2.0, 2.0, 41))
        pts = grid.points
        rows = random_density_rows(rng, 24, pts.size, flat_share)
        h = pts[1] - pts[0]
        ys = np.concatenate([
            rng.uniform(pts[0], pts[0] + 2 * h, size=4),    # first two segments
            rng.uniform(pts[-1] - 2 * h, pts[-1], size=4),  # last two segments
            [pts[0], pts[-1], pts[0] - 0.5, pts[-1] + 0.5],  # ends and off the grid
            rng.uniform(-2.5, 2.5, size=12),
        ])
        cdfs = cdf_rows_from_density_rows(pts, rows)
        got = _pit_rows(pts, cdfs, ys)
        for i, y in enumerate(ys):
            want = reference_pit(pts, cdfs[i], y)
            assert got[i] == want
            assert _pit_rows(pts, cdfs[i : i + 1], ys[i : i + 1]).tolist() == [want]


def masked_fc_slopes(d, real):
    """The shared slope limiter as it was while secants past the ends were masked out."""
    zero = d == 0.0
    flat = real & zero
    lr, rr = real[:, :-1], real[:, 1:]
    m = np.where(lr & rr, 0.5 * (d[:, :-1] + d[:, 1:]), np.where(lr, d[:, :-1], d[:, 1:]))
    m = np.where(flat[:, :-1] | flat[:, 1:], 0.0, m)
    safe_d = np.where(zero[:, 1:-1], 1.0, d[:, 1:-1])
    alpha = m[:, :-1] / safe_d
    beta = m[:, 1:] / safe_d
    r2 = alpha * alpha + beta * beta
    tau = np.where(real[:, 1:-1] & (r2 > 9.0), 3.0 / np.sqrt(np.maximum(r2, 1e-300)), 1.0)
    return m[:, 1:-1] * np.minimum(tau[:, :-1], tau[:, 1:])


def masked_knot_slopes(points, rows):
    d = np.zeros((rows.shape[0], points.size + 3))
    d[:, 2:-2] = np.diff(rows, axis=1) / np.diff(points)
    real = np.zeros(d.shape, dtype=bool)
    real[:, 2:-2] = True
    return masked_fc_slopes(d, real)


def masked_segment_slopes(xs, rows, idx):
    n = xs.size
    sec = idx[:, None] + np.arange(-2, 3)
    real = (sec >= 0) & (sec <= n - 2)
    sec = np.clip(sec, 0, n - 2)
    r = np.arange(rows.shape[0])[:, None]
    d = (rows[r, sec + 1] - rows[r, sec]) / (xs[sec + 1] - xs[sec])
    return masked_fc_slopes(d, real)


class TestPaddedEdges:
    """Repeating the end secant past the data equals masking those secants out."""

    @settings(max_examples=120, deadline=None)
    @given(
        st.integers(min_value=0, max_value=10**6),
        st.one_of(st.sampled_from([2, 3, 4, 5]), st.integers(min_value=6, max_value=60)),
        st.sampled_from([0.0, 0.4, 1.0]),
        st.sampled_from(["none", "steep", "shallow"]),
    )
    def test_padded_equals_masked(self, seed, n_points, flat_share, ends):
        rng = np.random.default_rng(seed)
        pts = np.cumsum(rng.uniform(0.01, 2.0, size=n_points)) - 5.0
        # increments over many decades, so the monotonicity circle often limits
        steps = np.exp(rng.uniform(-6.0, 6.0, size=(8, n_points - 1)))
        if ends == "steep":
            steps[:, [0, -1]] *= 1e6
        elif ends == "shallow":
            steps[:, [0, -1]] *= 1e-6
        steps[rng.random(steps.shape) < flat_share] = 0.0
        steps[0] = 0.0  # an all-flat row
        rows = np.concatenate([np.zeros((8, 1)), np.cumsum(steps, axis=1)], axis=1)

        # the limiter is reached through its two callers: whole rows, padded
        # with the end secant, and every segment's window, clipped at both ends
        assert np.array_equal(knot_slopes(pts, rows), masked_knot_slopes(pts, rows))
        idx = np.arange(n_points - 1)
        each = np.repeat(rows, idx.size, axis=0)
        seg = np.tile(idx, rows.shape[0])
        assert np.array_equal(_segment_slopes(pts, each, seg),
                              masked_segment_slopes(pts, each, seg))

    def test_end_limit_trips(self):
        # a shallow end secant beside a steep one: the circle limit shrinks the
        # second knot's slope, so the cases above cover the limiter at the ends
        pts = np.arange(5.0)
        rows = np.array([[0.0, 1e-6, 1.0, 1.0 + 1e-6, 1.0 + 2e-6]])
        got = knot_slopes(pts, rows)
        assert got[0, 1] < 0.5 * (1e-6 + (1.0 - 1e-6))
        assert np.array_equal(got, masked_knot_slopes(pts, rows))


class TestCdfFromDensity:
    def test_equals_scalar_trapezoid(self):
        rng = np.random.default_rng(11)
        for _ in range(1200):
            n_points = int(rng.integers(3, 1002))
            pts = np.cumsum(rng.uniform(0.001, 1.0, size=n_points)) - rng.uniform(0.0, 50.0)
            row = random_density_rows(rng, 1, n_points, rng.choice([0.0, 0.3, 0.7]))[0]
            d = GridDensity(YGrid(pts), row)
            assert np.array_equal(cdf_rows_from_density_rows(pts, row[None, :])[0],
                                  reference_cdf_from_density(d).values)

    def test_keeps_density_errors(self):
        pts = np.linspace(0.0, 1.0, 5)
        with pytest.raises(InvalidDensity):
            cdf_rows_from_density_rows(pts, np.array([[0.1, -0.2, 0.1, 0.1, 0.1]]))
        with pytest.raises(DegenerateDensity):
            cdf_rows_from_density_rows(pts, np.zeros((1, 5)))
