import numpy as np
import pytest
from hypothesis import example, given, settings, strategies as st
from scipy.integrate import quad
from scipy.special import ndtr, ndtri
from scipy.stats import kstest

import pitcal.rng as rngmod
from pitcal.calibrate import compute_pit_values
from pitcal.models import GaussianInitialModel
from pitcal.synthgen import (
    Example1Oracle,
    Example2Oracle,
    SinhArcsinhParams,
    TwoGroupConfig,
    sample_example1,
    sample_example2,
    sinh_arcsinh_cdf,
    sinh_arcsinh_pdf,
    sinh_arcsinh_quantile,
    sinh_arcsinh_sample,
)


class TestSinhArcsinh:
    def test_reduces_to_normal(self):
        p = SinhArcsinhParams(mu=0.0, sigma=2.0, skew=0.0, tail=1.0)
        assert sinh_arcsinh_cdf(p, 0.0) == pytest.approx(0.5)
        # independent oracle: scaled normal quantile
        assert sinh_arcsinh_quantile(p, 0.975) == pytest.approx(2.0 * ndtri(0.975), abs=1e-6)

    def test_skew_one_closed_form(self):
        p = SinhArcsinhParams(mu=0.0, sigma=1.0, skew=1.0, tail=1.0)
        expected = ndtr(-np.sinh(1.0))  # ~ 0.1199
        assert sinh_arcsinh_cdf(p, 0.0) == pytest.approx(expected, abs=1e-12)
        assert expected == pytest.approx(0.1199, abs=5e-4)
        draws = sinh_arcsinh_sample(p, np.random.default_rng(5), size=10**6)
        assert np.mean(draws <= 0.0) == pytest.approx(expected, abs=1e-3)

    def test_quantile_cdf_round_trip(self):
        p = SinhArcsinhParams(mu=1.0, sigma=1.5, skew=-0.7, tail=1.3)
        # sweep the region where the CDF is representable away from {0, 1}
        lo = float(sinh_arcsinh_quantile(p, 1e-6))
        hi = float(sinh_arcsinh_quantile(p, 1.0 - 1e-6))
        for y in np.linspace(lo, hi, 29):
            assert sinh_arcsinh_quantile(p, sinh_arcsinh_cdf(p, y)) == pytest.approx(y, abs=1e-8)

    def test_pdf_integrates_to_cdf(self):
        p = SinhArcsinhParams(mu=0.5, sigma=2.0, skew=0.5, tail=0.8)
        val, _ = quad(lambda y: sinh_arcsinh_pdf(p, y), -40, 1.7)
        assert val == pytest.approx(float(sinh_arcsinh_cdf(p, 1.7)), abs=1e-7)

    def test_parameter_validation(self):
        with pytest.raises(ValueError):
            SinhArcsinhParams(mu=0, sigma=0.0)
        with pytest.raises(ValueError):
            SinhArcsinhParams(mu=0, sigma=1.0, tail=-1.0)


class TestExample2:
    def test_skewed_reduces_to_initial_at_zero(self):
        data = sample_example2("skewed", 10, seed=1)
        # oracle at x = 0 equals N(0, 2), which is the initial model
        assert data.oracle.cdf(0.0, [0.0]) == pytest.approx(0.5)
        assert data.oracle.quantile(0.975, [0.0]) == pytest.approx(2.0 * ndtri(0.975), abs=1e-9)
        assert data.initial is not None

    def test_skewed_median_at_one(self):
        data = sample_example2("skewed", 10, seed=1)
        assert data.oracle.quantile(0.5, [1.0]) == pytest.approx(1.0 + np.sinh(1.0), abs=1e-9)

    def test_kurtotic_reduces_at_zero(self):
        data = sample_example2("kurtotic", 10, seed=1)
        assert data.oracle.cdf(0.0, [0.0]) == pytest.approx(0.5)
        assert data.oracle.quantile(0.9, [0.0]) == pytest.approx(2.0 * ndtri(0.9), abs=1e-9)

    def test_local_fit_near_diagonal_at_zero(self):
        import pitcal as pc

        data = sample_example2("skewed", 10000, seed=19)
        pits = pc.compute_pit_values(data.initial, data.cal)
        # interior point: a wide neighborhood keeps the step noise well below
        # the 0.05 band around the diagonal
        r = pc.fit_local_empirical(data.cal, pits, pc.LocalEmpiricalConfig(k=1000))
        gam = np.linspace(0.05, 0.95, 19)
        assert np.max(np.abs(r.predict_curve(gam, [0.0]) - gam)) < 0.05

    def test_mirror_symmetry_of_skewed_oracle(self):
        data = sample_example2("skewed", 10, seed=1)
        for x in (0.3, 0.8, -0.5):
            for y in (-2.0, 0.1, 1.7):
                lhs = float(data.oracle.cdf(y, [x]))
                rhs = 1.0 - float(data.oracle.cdf(-y, [-x]))
                assert lhs == pytest.approx(rhs, abs=1e-9)

    def test_pit_of_oracle_draws_uniform(self):
        for setting in ("skewed", "kurtotic"):
            data = sample_example2(setting, 10000, seed=23)
            pits = np.array([
                float(data.oracle.cdf(data.cal.ys[i], data.cal.xs[i]))
                for i in range(10000)
            ])
            assert kstest(pits, "uniform").pvalue > 0.01

    @pytest.mark.parametrize("setting", ["skewed", "kurtotic"])
    def test_batched_initial_mean_equals_scalar_mean(self, setting):
        # the initial model's mean answers a batch at once; the per-row
        # scalar mean it replaced must give the same values bit for bit
        data = sample_example2(setting, 500, seed=3)
        scalar = GaussianInitialModel(data.grid, mean_fn=lambda x: float(np.ravel(x)[0]),
                                      sd_fn=2.0)
        assert np.array_equal(compute_pit_values(data.initial, data.cal),
                              compute_pit_values(scalar, data.cal))
        for x in ([-0.7], [0.0], [0.45], 0.9):
            assert np.array_equal(data.initial.density_at(x).values, scalar.density_at(x).values)
        assert data.initial.mean_fn.predict([[0.45]]).tolist() == [0.45]

    def test_quantile_round_trip(self):
        data = sample_example2("kurtotic", 10, seed=1)
        for x in ([-0.7], [0.2], [0.9]):
            for p in np.linspace(0.01, 0.99, 25):
                q = data.oracle.quantile(p, x)
                assert data.oracle.cdf(q, x) == pytest.approx(p, abs=1e-9)

    @staticmethod
    def frozen_quantile_rows(setting, ps, xs):
        """The per-row loop the batch replaced: one closed-form quantile per feature row."""
        rows = []
        for x in xs:
            x1 = float(np.asarray(x, dtype=float).ravel()[0])
            if setting == "skewed":
                p = SinhArcsinhParams(mu=x1, sigma=2.0 - abs(x1), skew=x1, tail=1.0)
            else:
                p = SinhArcsinhParams(mu=x1, sigma=2.0, skew=0.0, tail=1.0 - x1 / 4.0)
            rows.append(sinh_arcsinh_quantile(p, ps))
        return np.array(rows).reshape(len(xs), np.size(ps))

    @pytest.mark.parametrize("setting", ["skewed", "kurtotic"])
    def test_quantile_rows_equal_frozen_per_row_loop(self, setting):
        rng = np.random.default_rng(7)
        xs = np.concatenate([rng.uniform(-1, 1, size=(2000, 1)), [[0.0], [-0.0], [1.0], [-1.0]]])
        ps = np.concatenate([rng.uniform(size=34), [0.0, 1e-300, 1e-12, 0.5, 1.0 - 1e-12, 1.0]])
        oracle = Example2Oracle(setting)
        got = oracle.quantile_rows(ps, xs)
        assert got.shape == (2004, 40)
        assert np.array_equal(got, self.frozen_quantile_rows(setting, ps, xs))
        assert oracle.quantile_rows(ps, xs[:0]).shape == (0, 40)
        assert oracle.quantile_rows(0.3, xs[:3]).shape == (3, 1)

    @pytest.mark.parametrize("setting, x", [("skewed", 2.0), ("skewed", -2.5),
                                            ("kurtotic", 4.0), ("skewed", np.nan)])
    def test_quantile_rows_reject_a_row_without_a_law(self, setting, x):
        # sigma <= 0 (skewed, |x| >= 2) or tail <= 0 (kurtotic, x >= 4) at any row
        xs = np.array([[0.0], [x], [0.5]])
        with pytest.raises(ValueError):
            Example2Oracle(setting).quantile_rows(np.array([0.1, 0.9]), xs)
        with pytest.raises(ValueError):
            self.frozen_quantile_rows(setting, np.array([0.1, 0.9]), xs)


class TestExample1:
    def test_weights_sum_to_one(self):
        oracle = Example1Oracle(TwoGroupConfig())
        for x in ([3.0, 0.0], [-2.0, 1.0]):
            _, _, weights = oracle._components(x)
            assert weights.sum() == pytest.approx(1.0)

    def test_unimodal_below_zero(self):
        from pitcal.calibrate import RecalibratedDistribution, calpit_hpd
        from pitcal.grid import GridCdf, GridDensity, YGrid, cdf_rows_from_density_rows

        oracle = Example1Oracle(TwoGroupConfig())
        grid = YGrid(np.linspace(-15, 15, 601))
        vals = oracle.pdf(grid.points, [-2.0, 0.0])
        pdf = GridDensity(grid, vals / np.trapezoid(vals, grid.points))
        cdf = GridCdf(grid, cdf_rows_from_density_rows(grid.points, pdf.values[None, :])[0])
        rd = RecalibratedDistribution(cdf, pdf)
        assert len(calpit_hpd(rd, 0.1).intervals) == 1

    def test_bimodal_oracle_hpd_beats_interval(self):
        from pitcal.calibrate import RecalibratedDistribution, calpit_hpd, calpit_interval
        from pitcal.grid import GridCdf, GridDensity, YGrid, cdf_rows_from_density_rows

        oracle = Example1Oracle(TwoGroupConfig())
        grid = YGrid(np.linspace(-22, 22, 801))
        vals = oracle.pdf(grid.points, [5.0, 0.0])
        pdf = GridDensity(grid, vals / np.trapezoid(vals, grid.points))
        cdf = GridCdf(grid, cdf_rows_from_density_rows(grid.points, pdf.values[None, :])[0])
        rd = RecalibratedDistribution(cdf, pdf)
        hpd = calpit_hpd(rd, 0.1)
        interval = calpit_interval(rd, 0.1)
        assert len(hpd.intervals) == 2
        assert hpd.total_size() < interval.total_size()
        # numeric mass oracle on the analytic mixture
        for lo, hi in hpd.intervals:
            mass, _ = quad(lambda y: float(oracle.pdf(y, [5.0, 0.0])), lo, hi)
            assert 0.0 < mass < 1.0
        total = sum(
            quad(lambda y: float(oracle.pdf(y, [5.0, 0.0])), lo, hi)[0]
            for lo, hi in hpd.intervals
        )
        assert total == pytest.approx(0.9, abs=0.01)

    def test_features_exclude_group_label(self):
        data = sample_example1(TwoGroupConfig(), 100, seed=2)
        assert data.cal.dim == 2

    def test_pit_of_oracle_draws_uniform(self):
        data = sample_example1(TwoGroupConfig(), 10000, seed=29)
        pits = np.array([
            float(data.oracle.cdf(data.cal.ys[i], data.cal.xs[i])) for i in range(10000)
        ])
        assert kstest(pits, "uniform").pvalue > 0.01

    def test_oracle_round_trip(self):
        data = sample_example1(TwoGroupConfig(), 10, seed=2)
        for x in ([4.0, 0.0], [-1.0, 2.0]):
            for p in np.linspace(0.02, 0.98, 20):
                q = data.oracle.quantile(p, x)
                assert data.oracle.cdf(q, x) == pytest.approx(p, abs=1e-9)

    @pytest.mark.parametrize("x", [[-5.0, 0.0], [-0.3, 1.0], [0.0, 0.0], [1e-9, 2.0], [2.7, -1.0],
                                   [5.0, 4.0]])
    def test_quantile_levels_match_frozen_scalar_bisection(self, x):
        # the quantile bisects every level in one pass; each must equal the
        # scalar bisection of the scalar mixture CDF it replaced, one level at a time
        from pitcal.normal import ndtr as pitcal_ndtr

        def frozen_bisect(cdf_fn, p, lo, hi):
            for _ in range(100):
                mid = 0.5 * (lo + hi)
                if cdf_fn(mid) >= p:
                    hi = mid
                else:
                    lo = mid
            return 0.5 * (lo + hi)

        oracle = Example1Oracle(TwoGroupConfig())
        means, scales, weights = oracle._components(x)
        lo = float(np.min(means - 12.0 * scales))
        hi = float(np.max(means + 12.0 * scales))
        levels = np.array([0.0, 1e-300, 1e-12, 0.05, 0.1, 0.3, 0.5, 0.8, 0.9, 0.95,
                           1.0 - 1e-12, 1.0])
        frozen = [frozen_bisect(lambda y: pitcal_ndtr((y - means) / scales) @ weights, p, lo, hi)
                  for p in levels]
        assert oracle.quantile(levels, x).tolist() == frozen
        assert [oracle.quantile(p, x) for p in levels] == frozen
        assert oracle.quantile(levels[:0], x).shape == (0,)

    @pytest.mark.parametrize("oracle", [Example1Oracle(TwoGroupConfig()),
                                        Example2Oracle("skewed"), Example2Oracle("kurtotic")])
    def test_quantile_rows_equal_per_row_quantiles(self, oracle):
        # every row is bisected in one pass with its own bracket; each row
        # must equal that row's own quantile call bit for bit
        xs = np.array([[-5.0, 0.0], [-0.3, 1.0], [0.0, 0.0], [1e-9, 2.0], [0.7, -1.0],
                       [5.0, 4.0]])
        if isinstance(oracle, Example2Oracle):
            xs = xs[:, :1] / 5.0
        levels = np.array([0.0, 0.05, 0.5, 0.95, 1.0 - 1e-12])
        got = oracle.quantile_rows(levels, xs)
        assert got.shape == (6, 5)
        assert got.tolist() == [oracle.quantile(levels, x).tolist() for x in xs]
        assert oracle.quantile_rows(levels, xs[:0]).shape == (0, 5)

    def test_config_validation(self):
        with pytest.raises(ValueError):
            TwoGroupConfig(minority_fraction=1.5)
        with pytest.raises(ValueError):
            TwoGroupConfig(minority_scale=0.5)


class TestDeterminism:
    def test_generators_reproducible(self):
        a = sample_example2("skewed", 50, seed=77)
        b = sample_example2("skewed", 50, seed=77)
        np.testing.assert_array_equal(a.cal.xs, b.cal.xs)
        np.testing.assert_array_equal(a.cal.ys, b.cal.ys)
        c = sample_example1(TwoGroupConfig(), 50, seed=77)
        d = sample_example1(TwoGroupConfig(), 50, seed=77)
        np.testing.assert_array_equal(c.cal.ys, d.cal.ys)


def frozen_example2_draws(setting, n, seed):
    """``sample_example2``'s (xs, ys) as it wrote both laws out by hand."""
    rng = rngmod.derived_rng(seed, "example2", setting)
    xs = rng.uniform(-1.0, 1.0, size=(n, 1))
    w = rng.standard_normal(n)
    if setting == "skewed":
        mu = xs[:, 0]
        sigma = 2.0 - np.abs(xs[:, 0])
        ys = mu + sigma * np.sinh(np.arcsinh(w) + xs[:, 0])
    else:
        tail = 1.0 - xs[:, 0] / 4.0
        ys = xs[:, 0] + 2.0 * np.sinh(np.arcsinh(w) / tail)
    return xs, ys


@settings(max_examples=60, deadline=None)
@given(st.sampled_from(["skewed", "kurtotic"]),
       st.one_of(st.just(1), st.integers(min_value=1, max_value=5000)),
       st.integers(min_value=-2**63, max_value=2**63))
def test_example2_draws_through_its_oracle_law_bit_for_bit(setting, n, seed):
    data = sample_example2(setting, n, seed)
    xs, ys = frozen_example2_draws(setting, n, seed)
    assert data.cal.xs.tobytes() == xs.tobytes()
    assert data.cal.ys.tobytes() == ys.tobytes()


# ----------------------------------------------------------------------
# oracle draws in rows: sample_rows against the per-point sample it replaced
# ----------------------------------------------------------------------

def frozen_oracle_sample(oracle, x, rng, size):
    """``oracle.sample(x, rng, size)`` as each oracle drew one point at a time."""
    x1 = float(np.asarray(x, dtype=float).ravel()[0])
    if isinstance(oracle, Example1Oracle):
        offset = 0.5 * oracle.cfg.branch_gap * x1 if x1 > 0 else 0.0
        means, scales = np.array([offset, -offset]), oracle.scales
        comp = rng.random(size) < oracle.weights[1]
        draws = rng.standard_normal(size)
        return np.where(comp, means[1] + scales[1] * draws, means[0] + scales[0] * draws)
    if oracle.setting == "skewed":
        mu, sigma, skew, tail = x1, 2.0 - abs(x1), x1, 1.0
    else:
        mu, sigma, skew, tail = x1, 2.0, 0.0, 1.0 - x1 / 4.0
    w = rng.standard_normal(size)
    return mu + sigma * np.sinh((np.arcsinh(w) + skew) / tail)


ORACLES = {"ex1": Example1Oracle(TwoGroupConfig()), "ex2-skewed": Example2Oracle("skewed"),
           "ex2-kurtotic": Example2Oracle("kurtotic")}


@st.composite
def sample_rows_cases(draw):
    """(oracle name, feature rows, draws per row, seed); ex1's rows often have x1 <= 0."""
    name = draw(st.sampled_from(sorted(ORACLES)))
    n_rows = draw(st.integers(min_value=1, max_value=6))
    if name == "ex1":
        x1 = st.one_of(st.sampled_from([0.0, -0.0, -2.5]), st.floats(-5.0, 5.0))
        rows = [[draw(x1), draw(st.floats(-5.0, 5.0))] for _ in range(n_rows)]
    else:
        rows = [[draw(st.one_of(st.just(0.0), st.floats(-0.99, 0.99)))] for _ in range(n_rows)]
    size = draw(st.one_of(st.just(1), st.integers(min_value=1, max_value=1001)))
    return name, np.array(rows), size, draw(st.integers(min_value=0, max_value=2**64 - 1))


@settings(max_examples=80, deadline=None)
@given(sample_rows_cases())
@example(("ex1", np.array([[0.0, 1.0], [-0.0, 0.0], [-3.0, 2.0], [2.0, 0.5]]), 1, 7))
@example(("ex1", np.array([[-1.0, 1.0], [4.5, -1.0]]), 1001, 8))
@example(("ex2-skewed", np.array([[0.0], [-0.5], [0.9]]), 17, 9))
@example(("ex2-kurtotic", np.array([[0.0], [0.5], [-0.9]]), 999, 10))
def test_sample_rows_equal_per_point_samples(case):
    name, xs, size, seed = case
    oracle = ORACLES[name]
    batch, one, frozen = (rngmod.derived_rngs(seed, "draws", count=len(xs)) for _ in range(3))
    rows = oracle.sample_rows(xs, batch, size)
    assert rows.shape == (len(xs), size)
    for i, x in enumerate(xs):
        assert rows[i].tobytes() == oracle.sample(x, one[i], size).tobytes()
        assert rows[i].tobytes() == frozen_oracle_sample(oracle, x, frozen[i], size).tobytes()
        # each row's generator made the same calls: its next draw agrees too
        assert batch[i].random() == frozen[i].random()
    if name == "ex1":  # x1 <= 0 gives the means (0.0, -0.0), signs included
        offsets = [0.5 * oracle.cfg.branch_gap * x1 if x1 > 0 else 0.0 for x1 in xs[:, 0]]
        assert oracle._means(xs).tobytes() == np.array([[o, -o] for o in offsets]).tobytes()
