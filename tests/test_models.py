import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from pitcal.baselines import fit_knn_mean
from pitcal.calibrate import CalibrationSet, LocalEmpiricalConfig, fit_local_empirical
from pitcal.grid import GridDensity, YGrid, _pit_rows, default_grid, widen_density
from pitcal.models import (
    _SMOOTH_STEPS,
    GaussianInitialModel,
    MarginalHistogramModel,
    UniformInitialModel,
    model_cdf,
    standardization,
)


class TestGaussianModel:
    def test_density_matches_matrix_path(self):
        grid = YGrid(np.linspace(-8, 8, 101))
        model = GaussianInitialModel(grid, mean_fn=lambda x: float(x[0]), sd_fn=2.0)
        xs = np.array([[0.0], [1.5], [-2.0]])
        mat = model.density_matrix(xs)
        for i, x in enumerate(xs):
            d = model.density_at(x)
            row = mat[i] / np.trapezoid(mat[i], grid.points)
            np.testing.assert_allclose(d.values, row, atol=1e-12)

    def test_rows_equal_the_normal_density_formula(self):
        grid = YGrid(np.linspace(-8, 8, 101))
        xs = np.array([[0.0], [1.5], [-2.0], [7.9]])
        mean = lambda x: float(x[0])  # noqa: E731
        for sd in (2.0, 0.3, 1.0 / 3.0):
            rows = GaussianInitialModel(grid, mean_fn=mean, sd_fn=sd).density_matrix(xs)
            for row, x in zip(rows, xs):
                want = np.exp(-0.5 * ((grid.points - x[0]) / sd) ** 2) / (sd * np.sqrt(2 * np.pi))
                np.testing.assert_allclose(row, want, rtol=1e-14, atol=1e-300)
        assert GaussianInitialModel(grid, mean_fn=mean, sd_fn=2).density_matrix(xs[:0]).shape \
            == (0, 101)

    def test_cdf_median(self):
        # grid symmetric about the mean, so truncation cannot bias the median
        grid = YGrid(np.linspace(-9, 11, 201))
        model = GaussianInitialModel(grid, mean_fn=lambda x: 1.0, sd_fn=2.0)
        c = model_cdf(model, [0.0])
        assert _pit_rows(grid.points, c.values[None, :], np.array([1.0]))[0] == pytest.approx(
            0.5, abs=1e-4)


class TestUniformModel:
    def test_flat_density(self):
        grid = YGrid(np.linspace(2.0, 4.0, 11))
        model = UniformInitialModel(grid)
        d = model.density_at([0.0])
        np.testing.assert_allclose(d.values, 0.5)
        assert d.integral() == pytest.approx(1.0)


class TestMarginalModel:
    def test_tracks_marginal_distribution(self):
        rng = np.random.default_rng(3)
        ys = rng.normal(1.0, 0.7, size=4000)
        grid = default_grid(ys)
        model = MarginalHistogramModel(grid, ys)
        c = model_cdf(model, [123.0])  # feature ignored
        # the marginal CDF at the sample median should be near one half
        at_median = _pit_rows(grid.points, c.values[None, :], np.array([np.median(ys)]))[0]
        assert at_median == pytest.approx(0.5, abs=0.03)


def marginal_histogram_reference(grid, ys):
    """``MarginalHistogramModel.__init__``'s density before the shared helper."""
    ys = np.asarray(ys, dtype=float)
    pts = grid.points
    edges = np.concatenate([[pts[0]], 0.5 * (pts[1:] + pts[:-1]), [pts[-1]]])
    counts, _ = np.histogram(np.clip(ys, pts[0], pts[-1]), bins=edges)
    widths = np.diff(edges)
    raw = GridDensity(grid, counts / np.maximum(widths, 1e-300) / max(len(ys), 1))
    step = (grid.hi - grid.lo) / (len(grid) - 1)
    return widen_density(raw, _SMOOTH_STEPS * step)


class TestHistogramHelper:
    @settings(max_examples=40, deadline=None)
    @given(st.integers(min_value=0, max_value=10**6), st.integers(min_value=1, max_value=500),
           st.integers(min_value=3, max_value=120))
    def test_equals_old_bodies(self, seed, n, n_grid):
        rng = np.random.default_rng(seed)
        grid = YGrid(np.sort(rng.uniform(-3, 3, size=n_grid)) + np.arange(n_grid) * 1e-3)
        # draws fall inside, outside and on the grid ends
        ys = np.concatenate([grid.points[[0, -1]], rng.normal(0.0, 2.0, size=n)])[:n]
        assert np.array_equal(MarginalHistogramModel(grid, ys).density_at([0.0]).values,
                              marginal_histogram_reference(grid, ys).values)



class TestStandardizationLayout:
    """The fit reads the rows' values, not their memory layout."""

    def test_fortran_rows_fit_as_c_rows(self):
        rng = np.random.default_rng(6)
        x = rng.normal(size=(100, 2))
        xf = np.asfortranarray(x)
        (mean, scale), (mean_f, scale_f) = standardization(x), standardization(xf)
        assert np.array_equal(mean, mean_f) and np.array_equal(scale, scale_f)
        # C-order rows keep the values the unconverted rows gave
        assert np.array_equal(mean, x.mean(axis=0)) and np.array_equal(scale, x.std(axis=0))
        cal = CalibrationSet(x, rng.normal(size=100))
        cal_f = CalibrationSet(xf, cal.ys)
        pits = rng.uniform(size=100)
        gammas = np.linspace(0.0, 1.0, 11)
        for weighting in ("uniform", "inverse-distance"):
            cfg = LocalEmpiricalConfig(k=20, weighting=weighting)
            want = fit_local_empirical(cal, pits, cfg).predict_matrix(gammas, x)
            assert np.array_equal(fit_local_empirical(cal_f, pits, cfg).predict_matrix(gammas, xf),
                                  want)
        assert np.array_equal(fit_knn_mean(cal_f, k=15).predict(xf),
                              fit_knn_mean(cal, k=15).predict(x))
