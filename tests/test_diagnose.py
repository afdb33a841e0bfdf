import numpy as np
import pytest
from scipy.stats import kstest

import pitcal.rng as rngmod
from pitcal import cli
from pitcal.calibrate import (
    CalibrationSet,
    IdentityPitCdf,
    LocalEmpiricalConfig,
    compute_pit_values,
    fit_local_empirical,
)
from pitcal.diagnose import cde_loss, mc_local_test, mc_p_value
from pitcal.errors import LengthMismatch
from pitcal.grid import GridDensity, YGrid, default_grid
from pitcal.models import GaussianInitialModel
from pitcal.synthgen import sample_example2


def local_fit_fn(k):
    cfg = LocalEmpiricalConfig(k=k)

    def fit(cal, pits):
        return fit_local_empirical(cal, pits, cfg)

    return fit


def band(fit, cal, pits, x, n_mc, gammas, eta, seed):
    """The null band ``(lo, hi)`` of the local coverage test at ``x``."""
    curve = mc_local_test(fit(cal, np.asarray(pits, dtype=float)), x, n_mc, gammas, eta=eta,
                          seed=seed)[1]
    return curve.band_lo, curve.band_hi


def statistic_at_one_x(pits, gammas):
    """The test statistic when every row sits at x = 0 and is a neighbour."""
    n = len(pits)
    model = fit_local_empirical(CalibrationSet(np.zeros((n, 1)), np.zeros(n)), pits,
                                LocalEmpiricalConfig(k=n))
    return mc_local_test(model, [0.0], 20, np.asarray(gammas, dtype=float))[0].statistic


def gaussian_data(n, seed, shift=0.0, sd=2.0):
    rng = rngmod.derived_rng(seed, "gauss-data")
    xs = rng.uniform(-1, 1, size=(n, 1))
    ys = xs[:, 0] + 2.0 * rng.standard_normal(n)
    cal = CalibrationSet(xs, ys)
    grid = default_grid(ys)
    model = GaussianInitialModel(grid, mean_fn=lambda x: float(x[0]) + shift, sd_fn=sd)
    return cal, model


class TestAlpCurve:
    def test_identity_on_diagonal(self):
        gam = np.linspace(0.05, 0.95, 19)
        np.testing.assert_allclose(IdentityPitCdf().predict_curve(gam, [0.0]), gam, atol=1e-12)

    def test_negatively_biased_model_below_diagonal(self):
        data = sample_example2("skewed", 10000, seed=3)
        pits = compute_pit_values(data.initial, data.cal)
        r = fit_local_empirical(data.cal, pits, LocalEmpiricalConfig(k=500))
        gam = np.linspace(0.05, 0.95, 19)
        mid = r.predict_curve(gam, [1.0])[np.argmin(np.abs(gam - 0.5))]
        # oracle: P(PIT <= 0.5 | x=1) = truth CDF at the initial median ~ 0.12
        assert float(data.oracle.cdf(1.0, [1.0])) < 0.2
        assert mid < 0.5

    def test_overdispersed_s_shape(self):
        data = sample_example2("kurtotic", 10000, seed=3)
        pits = compute_pit_values(data.initial, data.cal)
        r = fit_local_empirical(data.cal, pits, LocalEmpiricalConfig(k=500))
        gam = np.linspace(0.05, 0.95, 19)
        curve = r.predict_curve(gam, [-1.0])
        # initial over-dispersed at x = -1: below the diagonal left of 1/2,
        # above right of it, crossing near the middle
        assert curve[2] < gam[2]
        assert curve[-3] > gam[-3]
        assert abs(curve[9] - 0.5) < 0.05


class TestLocalTestStatistic:
    def test_identity_zero(self):
        # 32 evenly spaced PITs: the curve is the diagonal at quarter levels
        assert statistic_at_one_x((np.arange(32) + 0.5) / 32, [0.25, 0.5, 0.75]) == 0.0

    def test_constant_half(self):
        # one PIT below every level and one above: the curve is 1/2 throughout
        stat = statistic_at_one_x([0.1, 0.9], [0.25, 0.5, 0.75])
        assert stat == pytest.approx(1.0 / 24.0)

    def test_square_curve(self):
        # a quarter of the PITs at or below 1/2: r(1/2) = (1/2)^2
        assert statistic_at_one_x([0.1, 0.6, 0.7, 0.8], [0.5]) == pytest.approx(0.0625)


class TestMcPValue:
    def test_zero_statistic_gives_p_one(self):
        # 32 evenly spaced PITs at one x: with every row a neighbour the observed
        # curve is exactly diagonal at the test levels, and every null curve is off it
        n = 32
        cal = CalibrationSet(np.zeros((n, 1)), np.zeros(n))
        pits = (np.arange(n) + 0.5) / n
        res = mc_p_value(local_fit_fn(n), cal, pits, [0.0], 25, np.array([0.25, 0.5, 0.75]),
                         seed=0)
        assert res.statistic == 0.0
        assert res.p_value == 1.0

    def test_non_local_model_is_type_error(self):
        cal = CalibrationSet(np.zeros((10, 1)), np.zeros(10))
        with pytest.raises(TypeError, match="local-empirical"):
            mc_p_value(lambda c, p: IdentityPitCdf(), cal, np.zeros(10), [0.0], 25)
        with pytest.raises(TypeError, match="local-empirical"):
            mc_local_test(IdentityPitCdf(), [0.0], 20, np.array([0.5]))

    def test_rejects_no_replicates_and_empty_grid(self):
        cal = CalibrationSet(np.linspace(0, 1, 10), np.zeros(10))
        observed = local_fit_fn(5)(cal, np.linspace(0, 1, 10))
        for n_mc in (0, -3):
            with pytest.raises(ValueError, match="n_mc"):
                mc_local_test(observed, [0.5], n_mc, np.array([0.5]))
            with pytest.raises(ValueError, match="n_mc"):
                mc_p_value(local_fit_fn(5), cal, np.linspace(0, 1, 10), [0.5], n_mc)
        with pytest.raises(ValueError, match="empty"):
            mc_local_test(observed, [0.5], 20, np.array([]))

    def test_rejects_x_without_one_component_per_feature(self):
        # a one-feature model once answered x = [0.3, 0.9] for [0.3] alone
        cal = CalibrationSet(np.linspace(0, 1, 10), np.zeros(10))
        observed = local_fit_fn(5)(cal, np.linspace(0, 1, 10))
        for x in ([0.3, 0.9], []):
            with pytest.raises(LengthMismatch, match="components"):
                mc_local_test(observed, x, 20, np.array([0.5]))
        two = local_fit_fn(5)(CalibrationSet(np.zeros((10, 2)), np.zeros(10)), np.zeros(10))
        with pytest.raises(LengthMismatch, match="components"):
            mc_local_test(two, [0.3], 20, np.array([0.5]))

    def test_rejects_eta_outside_unit_interval(self):
        # eta = -0.1 once indexed past the replicates, and eta = 1.5 crossed the band
        cal = CalibrationSet(np.linspace(0, 1, 10), np.zeros(10))
        observed = local_fit_fn(5)(cal, np.linspace(0, 1, 10))
        for eta in (-0.1, 0.0, 1.0, 1.5, np.nan):
            with pytest.raises(ValueError, match="eta"):
                mc_local_test(observed, [0.5], 20, np.array([0.5]), eta=eta)

    def test_p_on_lattice(self):
        cal, model = gaussian_data(400, seed=1)
        pits = compute_pit_values(model, cal)
        res = mc_p_value(local_fit_fn(50), cal, pits, [0.2], 20, seed=4)
        assert res.n_mc == 20
        assert abs(res.p_value * 20 - round(res.p_value * 20)) < 1e-12

    def test_relabeling_invariance(self):
        # the p-value depends on the multiset of null statistics, not on the
        # order the replicates arrive in
        cal, model = gaussian_data(300, seed=2)
        pits = compute_pit_values(model, cal)
        cfg = LocalEmpiricalConfig(k=40)
        fit = local_fit_fn(40)
        gam = np.linspace(0.05, 0.95, 21)

        def stat(model):
            return float(np.mean((model.predict_curve(gam, [0.1]) - gam) ** 2))

        t_obs = stat(fit(cal, pits))
        nulls = []
        for b in range(30):
            null_pits = rngmod.derived_rng(9, "null-pits", b).uniform(size=len(cal))
            nulls.append(stat(fit_local_empirical(cal, null_pits, cfg)))
        expected = np.mean([t_obs < t for t in nulls])
        res = mc_p_value(fit, cal, pits, [0.1], 30, gam, seed=9)
        assert res.p_value == pytest.approx(expected)
        rng = np.random.default_rng(0)
        assert res.p_value == pytest.approx(np.mean([t_obs < t for t in rng.permutation(nulls)]))

    def test_null_mean_near_half(self):
        # independent dataset per test point: p-values from one shared
        # dataset are correlated through overlapping neighborhoods, which the
        # 0.05 band around 1/2 does not absorb
        fit = local_fit_fn(50)
        pvals = []
        for i in range(200):
            cal, model = gaussian_data(500, seed=1000 + i)
            pits = compute_pit_values(model, cal)
            res = mc_p_value(fit, cal, pits, [0.0], 100, seed=rngmod.derive_seed(5, "pt", i))
            pvals.append(res.p_value)
        assert abs(np.mean(pvals) - 0.5) < 0.05


class TestConfidenceBand:
    def test_nearest_rank_rule_b20(self):
        n = 200
        cal = CalibrationSet(np.zeros((n, 1)), np.zeros(n))
        fit = local_fit_fn(n)
        gam = np.array([0.5])
        lo, hi = band(fit, cal, np.zeros(n), [0.0], 20, gam, eta=0.1, seed=3)
        # each replicate's curve at 0.5: the share of its n null PITs at or below it
        nulls = [rngmod.derived_rng(3, "null-pits", b).uniform(size=n) for b in range(20)]
        values = sorted(fit(cal, p).predict_curve(gam, [0.0])[0] for p in nulls)
        assert lo[0] == values[1]   # 2nd smallest
        assert hi[0] == values[18]  # 19th smallest

    def test_band_covers_diagonal_under_null(self):
        cal, model = gaussian_data(2000, seed=6)
        pits = compute_pit_values(model, cal)
        fit = local_fit_fn(200)
        gam = np.linspace(0.1, 0.9, 17)
        lo, hi = band(fit, cal, pits, [0.3], 200, gam, eta=0.1, seed=11)
        covered = np.mean((gam >= lo) & (gam <= hi))
        assert covered >= 0.85

    def test_band_width_shrinks_with_sample_size(self):
        gam = np.array([0.5])
        widths = {}
        for n in (500, 8000):
            cal, model = gaussian_data(n, seed=8)
            pits = compute_pit_values(model, cal)
            fit = local_fit_fn(max(20, n // 10))
            lo, hi = band(fit, cal, pits, [0.0], 100, gam, eta=0.1, seed=13)
            widths[n] = float(hi[0] - lo[0])
        assert widths[8000] < widths[500]

    def test_requires_enough_replicates(self, tmp_path):
        # the band needs 20 replicates; diagnose refuses fewer as a usage error
        data = tmp_path / "data.csv"
        data.write_text("x0,y\n" + "".join(f"{i / 10!r},{i % 7!r}\n" for i in range(30)))
        argv = ["diagnose", "--data", str(data), "--k", "10", "--out-dir", str(tmp_path / "out")]
        assert cli.main(argv + ["--n-mc", "19"]) == 2
        assert not (tmp_path / "out").exists()
        assert cli.main(argv + ["--n-mc", "20", "--n-eval-points", "1"]) == 0


class TestCdeLoss:
    def test_uniform_value(self):
        grid = YGrid(np.linspace(0, 1, 51))
        pdfs = [GridDensity(grid, np.ones(51)) for _ in range(4)]
        ys = [0.1, 0.4, 0.6, 0.9]
        assert cde_loss(pdfs, ys) == pytest.approx(-1.0, abs=1e-9)

    def test_reads_the_piecewise_linear_density(self):
        # triangle 0, 1, 0 on a three-point grid: unit trapezoid mass, and the
        # trapezoid rule gives integral f^2 = 1. Read linearly, f(0.5) = 0.5 and
        # f(1.25) = 0.75 (PCHIP would read 0.75 and 0.9375); f(2.5) = 0 off the grid.
        grid = YGrid(np.array([0.0, 1.0, 2.0]))
        tri = GridDensity(grid, np.array([0.0, 1.0, 0.0]))
        assert cde_loss([tri, tri], [0.5, 1.25]) == pytest.approx(1.0 - 2.0 * (0.5 + 0.75) / 2)
        assert cde_loss([tri], [2.5]) == pytest.approx(1.0)

    def test_point_mass_worse_than_uniform(self):
        grid = YGrid(np.linspace(0, 1, 101))
        spike = np.zeros(101)
        spike[2] = 1.0
        total = np.trapezoid(spike, grid.points)
        pdfs = [GridDensity(grid, spike / total)]
        uniform = [GridDensity(grid, np.ones(101))]
        ys = [0.9]  # far from the spike
        assert cde_loss(pdfs, ys) > 0.0
        assert cde_loss(pdfs, ys) > cde_loss(uniform, ys)

    def test_truth_beats_wrong_density(self):
        data = sample_example2("skewed", 200, seed=30)
        test = sample_example2("skewed", 2000, seed=31)
        grid = data.grid
        orac = [
            GridDensity(grid, np.maximum(test.oracle.pdf(grid.points, test.cal.xs[i]), 0))
            for i in range(len(test.cal))
        ]
        gaus = [data.initial.density_at(test.cal.xs[i]) for i in range(len(test.cal))]
        per_point = lambda pdfs: np.array(
            [cde_loss([d], [y]) for d, y in zip(pdfs, test.cal.ys)]
        )
        po, pg = per_point(orac), per_point(gaus)
        gap = pg.mean() - po.mean()
        se = np.std(pg - po, ddof=1) / np.sqrt(len(po))
        assert gap > 3 * se

    def test_convex_path_decreases_toward_truth(self):
        data = sample_example2("skewed", 200, seed=32)
        test = sample_example2("skewed", 1500, seed=33)
        grid = data.grid
        orac = [
            GridDensity(grid, np.maximum(test.oracle.pdf(grid.points, test.cal.xs[i]), 0))
            for i in range(len(test.cal))
        ]
        gaus = [data.initial.density_at(test.cal.xs[i]) for i in range(len(test.cal))]
        losses = []
        for t in (0.0, 0.5, 1.0):
            mix = [
                GridDensity(grid, (1 - t) * g.values + t * o.values)
                for g, o in zip(gaus, orac)
            ]
            losses.append(cde_loss(mix, test.cal.ys))
        assert losses[0] > losses[1] > losses[2]

    def test_length_mismatch(self):
        grid = YGrid(np.linspace(0, 1, 11))
        with pytest.raises(LengthMismatch):
            cde_loss([GridDensity(grid, np.ones(11))], [0.1, 0.2])
        with pytest.raises(LengthMismatch):
            cde_loss([], [])
