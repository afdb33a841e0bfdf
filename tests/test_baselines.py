import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

import pitcal.rng as rngmod
from pitcal.baselines import ConformalCalibration, DcpModel, RegSplitModel, fit_knn_mean
from pitcal.calibrate import CalibrationSet
from pitcal.errors import InsufficientCalibration
from pitcal.grid import YGrid
from pitcal.models import GaussianInitialModel, UniformInitialModel, feature_rows
from pitcal.synthgen import TwoGroupConfig, sample_example1, sample_example2


class TestConformalQuantile:
    def test_rank_arithmetic(self):
        cal = ConformalCalibration.from_scores([1.0, 2.0, 3.0, 4.0], alpha=0.2)
        assert cal.quantile_index == 4
        assert cal.threshold == 4.0

    def test_insufficient(self):
        with pytest.raises(InsufficientCalibration):
            ConformalCalibration.from_scores([1.0, 2.0], alpha=0.05)

    @pytest.mark.parametrize("alpha", [0.0, 1.0, -0.5, 1.5, float("nan"), float("inf")])
    def test_alpha_outside_the_open_unit_interval(self, alpha):
        with pytest.raises(ValueError, match=r"alpha must be in \(0, 1\)"):
            ConformalCalibration.from_scores([1.0, 2.0, 3.0, 4.0], alpha=alpha)

    @pytest.mark.parametrize("alpha", [1.5, -0.5, float("nan")])
    def test_models_refuse_alpha_outside_the_open_unit_interval(self, alpha):
        cal = CalibrationSet(np.linspace(0.0, 1.0, 20).reshape(-1, 1), np.linspace(-1.0, 1.0, 20))
        initial = UniformInitialModel(YGrid(np.linspace(-2.0, 2.0, 41)))
        with pytest.raises(ValueError, match=r"alpha must be in \(0, 1\), got"):
            DcpModel(initial, cal, alpha)
        with pytest.raises(ValueError, match=r"alpha must be in \(0, 1\), got"):
            RegSplitModel(lambda tr: _ZeroMean(), cal, cal, alpha)


class _ZeroMean:
    """A constant-zero regressor with the batched call ``fit_mean`` returns."""

    def predict(self, xs):
        return np.zeros(len(xs))


class TestRegSplit:
    def test_zero_mean_interval(self):
        train = CalibrationSet(np.zeros((4, 1)), np.zeros(4))
        cal = CalibrationSet(np.zeros((4, 1)), np.array([1.0, -2.0, 3.0, -4.0]))
        ps = RegSplitModel(lambda tr: _ZeroMean(), train, cal, 0.2).predict_set([0.0])
        assert ps.intervals[0] == (pytest.approx(-4.0), pytest.approx(4.0))

    def test_constant_width_in_x(self):
        data = sample_example1(TwoGroupConfig(), 2000, seed=41)
        half = 1000
        train = CalibrationSet(data.cal.xs[:half], data.cal.ys[:half])
        cal = CalibrationSet(data.cal.xs[half:], data.cal.ys[half:])
        model = RegSplitModel(fit_knn_mean, train, cal, 0.1)
        widths = {
            model.predict_set(x).total_size()
            for x in ([0.0, 0.0], [4.0, -3.0], [-4.5, 2.0])
        }
        assert len({round(w, 9) for w in widths}) == 1

    def test_marginal_coverage(self):
        data = sample_example1(TwoGroupConfig(), 4000, seed=43)
        train = CalibrationSet(data.cal.xs[:2000], data.cal.ys[:2000])
        cal = CalibrationSet(data.cal.xs[2000:], data.cal.ys[2000:])
        model = RegSplitModel(fit_knn_mean, train, cal, 0.1)
        fresh = sample_example1(TwoGroupConfig(), 20000, seed=44)
        hits = np.mean([
            bool(model.predict_set(fresh.cal.xs[i]).contains(fresh.cal.ys[i]))
            for i in range(len(fresh.cal))
        ])
        assert abs(hits - 0.9) < 0.02


class TestKnnMean:
    @staticmethod
    def _scalar_mean(reg, ys, x):
        # the per-point query the batch replaced, as a batch of one: one-feature
        # lattice rows tie, and the tree's choice among tied rows is not the window's
        _, idx = reg._query(np.asarray(x, dtype=float).reshape(1, -1))
        return float(np.mean(ys[idx[0]]))

    @settings(max_examples=40, deadline=None)
    @given(st.integers(min_value=0, max_value=10**6), st.integers(min_value=1, max_value=300),
           st.sampled_from([1, 2, 3]), st.integers(min_value=1, max_value=80), st.booleans())
    def test_batch_equals_scalar_queries(self, seed, n, dim, k, lattice):
        rng = np.random.default_rng(seed)
        xs = (rng.integers(-3, 4, size=(n, dim)) / 3.0 if lattice
              else rng.uniform(-1, 1, size=(n, dim)))
        ys = rng.standard_normal(n)
        reg = fit_knn_mean(CalibrationSet(xs, ys), k=k)
        queries = np.concatenate([xs, rng.uniform(-1.5, 1.5, size=(7, dim))])
        want = np.array([self._scalar_mean(reg, ys, x) for x in queries])
        assert np.array_equal(reg.predict(queries), want)
        assert np.array_equal([reg(x) for x in queries], want)

    def test_gaussian_density_matrix_uses_batch(self):
        data = sample_example2("skewed", 600, seed=45)
        reg = fit_knn_mean(data.cal, k=25)
        batched = GaussianInitialModel(data.grid, mean_fn=reg, sd_fn=1.5)
        scalar = GaussianInitialModel(data.grid, mean_fn=lambda x: reg(x), sd_fn=1.5)
        assert np.array_equal(batched.density_matrix(data.cal.xs),
                              scalar.density_matrix(data.cal.xs))


class HeteroscedasticGaussian:
    """N(x, (2 - |x|)^2) on the grid: an initial model whose width varies with x."""

    def __init__(self, grid):
        self.grid = grid

    def density_matrix(self, xs):
        x = feature_rows(xs)[:, :1]
        sd = 2.0 - np.abs(x)
        return np.exp(-0.5 * ((self.grid.points - x) / sd) ** 2) / (sd * np.sqrt(2.0 * np.pi))


class TestDcp:
    def test_rank_arithmetic_probability_band(self):
        # pit values {0.1, 0.4, 0.6, 0.9} -> scores {0.4, 0.1, 0.1, 0.4};
        # index ceil(5 * 0.8) = 4 -> threshold 0.4 -> band [0.1, 0.9]
        grid = YGrid(np.linspace(0, 1, 101))
        initial = UniformInitialModel(grid)
        cal = CalibrationSet(np.zeros((4, 1)), np.array([0.1, 0.4, 0.6, 0.9]))
        ps = DcpModel(initial, cal, 0.2).predict_set([0.0])
        lo, hi = ps.intervals[0]
        assert lo == pytest.approx(0.1, abs=1e-9)
        assert hi == pytest.approx(0.9, abs=1e-9)

    def test_threshold_approaches_calibrated_limit(self):
        data = sample_example2("skewed", 5000, seed=45)
        truth_initial_pits = np.array([
            float(data.oracle.cdf(data.cal.ys[i], data.cal.xs[i])) for i in range(5000)
        ])
        model = DcpModel(data.initial, data.cal, 0.1, pit_values=truth_initial_pits)
        assert abs(model.calibration.threshold - 0.45) < 0.01

    def test_width_varies_with_heteroscedastic_initial(self):
        grid = YGrid(np.linspace(-10, 10, 201))
        initial = HeteroscedasticGaussian(grid)
        rng = np.random.default_rng(4)
        xs = rng.uniform(-1, 1, size=(500, 1))
        ys = xs[:, 0] + (2.0 - np.abs(xs[:, 0])) * rng.standard_normal(500)
        model = DcpModel(initial, CalibrationSet(xs, ys), 0.1)
        w0 = model.predict_set([0.0]).total_size()
        w1 = model.predict_set([0.9]).total_size()
        assert abs(w0 - w1) > 0.5

    def test_marginal_coverage_under_misspecification(self):
        data = sample_example2("skewed", 4000, seed=46)
        model = DcpModel(data.initial, data.cal, 0.1)
        fresh = sample_example2("skewed", 20000, seed=47)
        sets = model.predict_sets(fresh.cal.xs)
        hits = np.mean([bool(s.contains(y)) for s, y in zip(sets, fresh.cal.ys)])
        assert abs(hits - 0.9) < 0.02

    def test_conditional_coverage_fails_under_misspecification(self):
        # oracle-derived magnitudes: the dispersion misspecification breaks
        # conditional coverage badly; the skew one more mildly with the
        # centered-score variant
        def max_dev(setting):
            data = sample_example2(setting, 4000, seed=48)
            model = DcpModel(data.initial, data.cal, 0.1)
            devs = []
            for xv in (-1.0, 1.0):
                lo, hi = model.predict_set([xv]).intervals[0]
                cov = float(data.oracle.cdf(hi, [xv]) - data.oracle.cdf(lo, [xv]))
                devs.append(abs(cov - 0.9))
            return max(devs)

        assert max_dev("kurtotic") > 0.03
        assert max_dev("skewed") > 0.02
