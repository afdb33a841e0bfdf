import hashlib
import json

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st
from scipy.integrate import quad
from scipy.stats import kstest

import pitcal.rng as rngmod
from pitcal.baselines import KnnMeanRegressor, RegSplitModel
from pitcal.calibrate import (
    MODEL_FORMAT_VERSION,
    CalibrationSet,
    IdentityPitCdf,
    LocalEmpiricalConfig,
    LocalEmpiricalModel,
    PitCdfModel,
    PredictionSet,
    augment,
    calpit_hpd,
    calpit_interval,
    calpit_sets,
    central_intervals,
    compute_pit_values,
    fit_local_empirical,
    hpd_rows,
    recalibrate,
    recalibrate_rows,
    recalibrated_pdf_rows,
)
from pitcal.dataio import write_json
from pitcal.errors import (
    DegenerateRecalibration,
    InsufficientData,
    LengthMismatch,
)
from pitcal.grid import GridCdf, GridDensity, YGrid, cdf_rows_from_density_rows
from pitcal.calibrate import RecalibratedDistribution
from pitcal.models import (
    GaussianInitialModel,
    MarginalHistogramModel,
    UniformInitialModel,
    model_cdf,
)
from pitcal.pipeline import fit_pit_model
from pitcal.synthgen import TwoGroupConfig, sample_example1, sample_example2


def make_rd_from_density(grid, values):
    """Assemble a recalibrated-distribution object from a raw density."""
    d = GridDensity(grid, values)
    total = np.trapezoid(values, grid.points)
    pdf = GridDensity(grid, values / total)
    cdf = GridCdf(grid, cdf_rows_from_density_rows(grid.points, pdf.values[None, :])[0])
    return RecalibratedDistribution(cdf=cdf, pdf=pdf)


class DensityRows:
    """An initial model whose ``density_matrix`` is ``fn`` of the feature rows."""

    def __init__(self, grid, fn):
        self.grid = grid
        self.density_matrix = fn


class TestComputePitValues:
    def test_pit_of_truth_is_uniform(self):
        data = sample_example2("skewed", 10000, seed=5)
        truth = DensityRows(data.grid, lambda xs: np.array(
            [data.oracle.pdf(data.grid.points, x) for x in xs]))
        sub = CalibrationSet(data.cal.xs[:2000], data.cal.ys[:2000])
        pits = compute_pit_values(truth, sub)
        assert kstest(pits, "uniform").pvalue > 0.01

    def test_point_mass_below_gives_ones(self):
        data = sample_example2("skewed", 50, seed=5)

        def low_spike(xs):
            vals = np.zeros((len(xs), len(data.grid)))
            vals[:, 0] = 1.0
            vals[:, 1] = 0.5
            return vals

        model = DensityRows(data.grid, low_spike)
        pits = compute_pit_values(model, data.cal)
        assert np.all(pits > 0.999)

    def test_marginal_estimate_fails_locally_on_two_group_data(self):
        data = sample_example1(TwoGroupConfig(), 4000, seed=31)
        marginal = MarginalHistogramModel(data.grid, data.cal.ys)
        pits = compute_pit_values(marginal, data.cal)
        overall = kstest(pits, "uniform")
        branch = kstest(pits[data.cal.xs[:, 0] > 2.0], "uniform")
        # globally much closer to uniform than on the bimodal slice, which rejects
        assert branch.pvalue < 1e-4
        assert overall.statistic < 0.5 * branch.statistic


def frozen_flat_augment(cal, pit_values, k_factor, seed):
    """``augment`` before it stored levels per point: flat ``(row_index, gamma, w)``, one
    entry per augmented row."""
    pit_values = np.asarray(pit_values, dtype=float).ravel()
    n = len(cal)
    gamma = np.clip(rngmod.row_uniforms(seed, n, k_factor).ravel(), 1e-12, 1.0 - 1e-12)
    row_index = np.repeat(np.arange(n), k_factor)
    w = (pit_values[row_index] <= gamma).astype(np.uint8)
    return row_index, gamma, w


class TestAugment:
    def test_counts_and_consistency(self):
        cal = CalibrationSet(np.array([[0.0], [1.0]]), np.array([0.0, 0.0]))
        aug = augment(cal, [0.3, 0.8], k_factor=3, seed=9)
        assert (len(aug), aug.n_base, aug.k_factor) == (6, 2, 3)
        assert aug.gamma.shape == aug.w.shape == (2, 3)
        for i, p in enumerate([0.3, 0.8]):
            np.testing.assert_array_equal(aug.w[i], p <= aug.gamma[i])

    @settings(max_examples=40, deadline=None)
    @given(st.integers(min_value=0, max_value=2**64 - 1), st.integers(min_value=0, max_value=30),
           st.sampled_from([1, 3, 4, 5, 20]))
    def test_per_point_arrays_equal_flat_layout(self, seed, n, k_factor):
        rng = np.random.default_rng(seed)
        cal = CalibrationSet(rng.normal(size=(n, 2)), np.zeros(n))
        pits = rng.integers(0, 5, size=n) / 4.0  # ties, and PITs of exactly 0 and 1
        aug = augment(cal, pits, k_factor, seed=seed)
        row_index, gamma, w = frozen_flat_augment(cal, pits, k_factor, seed)
        assert (len(aug), aug.n_base, aug.k_factor) == (gamma.size, n, k_factor)
        assert aug.gamma.shape == aug.w.shape == (n, k_factor)
        assert np.array_equal(aug.gamma.ravel(), gamma)
        assert np.array_equal(aug.w.ravel().astype(np.uint8), w)
        assert np.array_equal(np.repeat(aug.base_xs, k_factor, axis=0), cal.xs[row_index])
        assert np.array_equal(np.repeat(aug.base_pit, k_factor), pits[row_index])

    def test_zero_pit_always_hit(self):
        cal = CalibrationSet(np.array([[0.0]]), np.array([0.0]))
        aug = augment(cal, [0.0], k_factor=100, seed=1)
        assert np.all(aug.w == 1)

    def test_mean_w_half_for_uniform_pits(self):
        rng = np.random.default_rng(12)
        n = 1000
        cal = CalibrationSet(rng.normal(size=(n, 2)), np.zeros(n))
        aug = augment(cal, rng.uniform(size=n), k_factor=50, seed=2)
        assert abs(aug.w.mean() - 0.5) < 0.02

    def test_order_independent_rows(self):
        rng = np.random.default_rng(3)
        xs = rng.normal(size=(5, 1))
        pits = rng.uniform(size=5)
        full = augment(CalibrationSet(xs, np.zeros(5)), pits, 4, seed=77)
        head = augment(CalibrationSet(xs[:3], np.zeros(3)), pits[:3], 4, seed=77)
        np.testing.assert_array_equal(full.gamma[:3], head.gamma)

    def test_deterministic(self):
        rng = np.random.default_rng(3)
        cal = CalibrationSet(rng.normal(size=(20, 1)), np.zeros(20))
        pits = rng.uniform(size=20)
        a = augment(cal, pits, 7, seed=5)
        b = augment(cal, pits, 7, seed=5)
        np.testing.assert_array_equal(a.gamma, b.gamma)
        np.testing.assert_array_equal(a.w, b.w)

    def test_length_mismatch(self):
        cal = CalibrationSet(np.zeros((3, 1)), np.zeros(3))
        with pytest.raises(LengthMismatch):
            augment(cal, [0.5, 0.5], 2, seed=0)

    def test_gamma_in_open_unit_interval(self):
        rng = np.random.default_rng(14)
        cal = CalibrationSet(rng.normal(size=(200, 1)), np.zeros(200))
        aug = augment(cal, rng.uniform(size=200), 20, seed=3)
        assert np.all(aug.gamma > 0.0) and np.all(aug.gamma < 1.0)

    @settings(max_examples=60, deadline=None)
    @given(
        st.one_of(st.sampled_from([0, 1, 2**63, 2**64 - 1]),
                  st.integers(min_value=0, max_value=2**64 - 1)),
        st.sampled_from([1, 3, 4, 5, 20]),
        st.sampled_from([0, 1, 7]),
    )
    def test_levels_equal_per_row_philox(self, seed, k_factor, n):
        # reference: one numpy Philox generator per row, keyed on (seed, row);
        # a list key above 2**63 would pass through float, so pass uint64
        want = np.array([
            np.random.Generator(np.random.Philox(key=np.array([seed, i], dtype=np.uint64)))
            .uniform(size=k_factor)
            for i in range(n)
        ]).reshape(n, k_factor)
        cal = CalibrationSet(np.zeros((n, 1)), np.zeros(n))
        aug = augment(cal, np.full(n, 0.5), k_factor, seed=seed)
        assert np.array_equal(aug.gamma, np.clip(want, 1e-12, 1.0 - 1e-12))


class TestLocalEmpirical:
    def test_three_neighbor_count(self):
        cal = CalibrationSet(np.array([[0.0], [0.1], [-0.1]]), np.zeros(3))
        model = fit_local_empirical(cal, [0.1, 0.5, 0.9], LocalEmpiricalConfig(k=3))
        assert model.predict_curve([0.5], [0.0])[0] == pytest.approx(2.0 / 3.0)

    def test_gamma_one_is_one(self):
        rng = np.random.default_rng(8)
        cal = CalibrationSet(rng.normal(size=(50, 2)), np.zeros(50))
        model = fit_local_empirical(cal, rng.uniform(size=50), LocalEmpiricalConfig(k=10))
        for _ in range(5):
            assert model.predict_curve([1.0], rng.normal(size=2))[0] == 1.0

    def test_well_specified_sup_deviation_within_dkw(self):
        rng = np.random.default_rng(42)
        n, k = 5000, 250
        cal = CalibrationSet(rng.uniform(-1, 1, size=(n, 1)), np.zeros(n))
        model = fit_local_empirical(cal, rng.uniform(size=n), LocalEmpiricalConfig(k=k))
        # DKW bound at per-point level 0.001 (family ~2% over 20 points)
        eps = np.sqrt(np.log(2.0 / 0.001) / (2.0 * k))
        gam = np.linspace(0.025, 0.975, 41)
        for xv in rng.uniform(-0.9, 0.9, size=20):
            curve = model.predict_curve(gam, [xv])
            assert np.max(np.abs(curve - gam)) <= eps

    def test_knn_mean_shares_the_standardized_tree(self):
        # the second feature is constant, so its scale is 1; k == 1 keeps the
        # neighbour axis
        xs = np.column_stack([np.linspace(-1, 1, 9), np.full(9, 3.0)])
        model = fit_local_empirical(CalibrationSet(xs, np.zeros(9)),
                                    np.linspace(0.05, 0.95, 9), LocalEmpiricalConfig(k=1))
        knn = KnnMeanRegressor(CalibrationSet(xs, np.arange(9.0)), k=1)
        assert model.scale[1] == 1.0
        assert np.array_equal(knn.mean, model.mean) and np.array_equal(knn.scale, model.scale)
        dist, idx = model._query(xs[[2, 7]])
        assert dist.shape == idx.shape == (2, 1)
        assert idx[:, 0].tolist() == [2, 7]
        assert knn.predict(xs[[2, 7]]).tolist() == [2.0, 7.0]

    def test_k_too_large(self):
        cal = CalibrationSet(np.zeros((3, 1)), np.zeros(3))
        with pytest.raises(InsufficientData):
            fit_local_empirical(cal, [0.5, 0.5, 0.5], LocalEmpiricalConfig(k=4))

    def test_config_validation(self):
        with pytest.raises(ValueError):
            LocalEmpiricalConfig(k=0)
        with pytest.raises(TypeError):
            LocalEmpiricalConfig()
        with pytest.raises(ValueError):
            LocalEmpiricalConfig(k=3, weighting="nope")

    def test_monotone_in_gamma_exactly(self):
        rng = np.random.default_rng(5)
        cal = CalibrationSet(rng.normal(size=(500, 2)), np.zeros(500))
        model = fit_local_empirical(cal, rng.uniform(size=500), LocalEmpiricalConfig(k=60))
        gam = np.linspace(0.0, 1.0, 101)
        for _ in range(100):
            curve = model.predict_curve(gam, rng.normal(size=2))
            assert np.all(np.diff(curve) >= 0.0)


class TestRecalibrate:
    def test_identity_returns_initial(self):
        data = sample_example2("skewed", 200, seed=3)
        rd = recalibrate(data.initial, IdentityPitCdf(), [0.3])
        c0 = model_cdf(data.initial, [0.3])
        assert np.max(np.abs(rd.cdf.values - c0.values)) <= 1e-9

    def test_skew_direction_follows_oracle(self):
        data = sample_example2("skewed", 10000, seed=7)
        pits = compute_pit_values(data.initial, data.cal)
        r = fit_local_empirical(data.cal, pits, LocalEmpiricalConfig(k=500))

        def mean_of(rd):
            return float(np.trapezoid(rd.pdf.grid.points * rd.pdf.values, rd.pdf.grid.points))

        # oracle: positive skew at x = +1 pushes mass above the initial mean,
        # negative skew at x = -1 below it
        assert data.oracle.quantile(0.5, [1.0]) > 1.0
        assert data.oracle.quantile(0.5, [-1.0]) < -1.0
        rd_pos = recalibrate(data.initial, r, [1.0])
        rd_neg = recalibrate(data.initial, r, [-1.0])
        assert mean_of(rd_pos) > 1.0
        assert mean_of(rd_neg) < -1.0

    def test_two_group_recalibration_recovers_bimodality(self):
        from pitcal.grid import widen_density

        data = sample_example1(TwoGroupConfig(), 8000, seed=21)
        initial = UniformInitialModel(data.grid)
        pits = compute_pit_values(initial, data.cal)
        r = fit_local_empirical(data.cal, pits, LocalEmpiricalConfig(k=800))
        rd = recalibrate(initial, r, [4.0, 0.0])
        step = (data.grid.hi - data.grid.lo) / (len(data.grid) - 1)
        f = widen_density(rd.pdf, 2.0 * step).values
        pts = data.grid.points
        peak_i = int(np.argmax(f))
        modes = [
            i for i in range(1, len(f) - 1)
            if f[i] > f[i - 1] and f[i] >= f[i + 1] and f[i] > 0.05 * f[peak_i]
        ]
        opposite = [i for i in modes if np.sign(pts[i]) != np.sign(pts[peak_i])]
        assert opposite, "no second mode on the other branch"
        m2 = max(opposite, key=lambda i: f[i])
        a, b = sorted((peak_i, m2))
        valley = f[a : b + 1].min()
        assert valley < 0.2 * f[peak_i]

    def test_degenerate_map_rejected(self):
        class ConstantMap(PitCdfModel):
            backend = "stub"

            def predict_matrix(self, gammas, xs):
                return np.full(np.asarray(gammas).shape, 0.5)

        data = sample_example2("skewed", 100, seed=3)
        with pytest.raises(DegenerateRecalibration):
            recalibrate(data.initial, ConstantMap(), [0.0])

    def test_point_mass_rejected(self):
        # every PIT value equal: the map is one step, which puts the whole
        # recalibrated CDF's rise inside one grid cell
        grid = YGrid(np.linspace(0.0, 1.0, 41))
        cal = CalibrationSet(np.linspace(0.0, 1.0, 20)[:, None], np.full(20, 0.4))
        r = fit_local_empirical(cal, np.full(20, 0.4), LocalEmpiricalConfig(k=5))
        with pytest.raises(DegenerateRecalibration, match="one grid cell"):
            recalibrate_rows(UniformInitialModel(grid), r, np.array([0.2, 0.7]))


class TestIntervalAndHpd:
    def _normal_rd(self, sd=1.0, n=801):
        grid = YGrid(np.linspace(-6 * sd, 6 * sd, n))
        z = grid.points / sd
        return make_rd_from_density(grid, np.exp(-0.5 * z * z))

    def test_gaussian_interval(self):
        rd = self._normal_rd()
        ps = calpit_interval(rd, 0.1)
        lo, hi = ps.intervals[0]
        assert abs(lo + 1.6449) < 0.02
        assert abs(hi - 1.6449) < 0.02

    def test_uniform_interval(self):
        grid = YGrid(np.linspace(0, 1, 401))
        rd = make_rd_from_density(grid, np.ones(401))
        lo, hi = calpit_interval(rd, 0.2).intervals[0]
        assert abs(lo - 0.1) < 1e-6
        assert abs(hi - 0.9) < 1e-6

    def test_symmetric_about_median(self):
        rd = self._normal_rd(sd=2.0)
        lo, hi = calpit_interval(rd, 0.5).intervals[0]
        assert abs((lo + hi) / 2.0) < 1e-6

    def test_hpd_matches_interval_for_unimodal_symmetric(self):
        rd = self._normal_rd()
        hpd = calpit_hpd(rd, 0.1)
        interval = calpit_interval(rd, 0.1)
        assert len(hpd.intervals) == 1
        np.testing.assert_allclose(hpd.intervals[0], interval.intervals[0], atol=0.03)

    def test_hpd_two_component_mixture(self):
        grid = YGrid(np.linspace(-6, 6, 801))
        z = grid.points

        def mix_pdf(y):
            return 0.5 * (
                np.exp(-0.5 * ((y + 3) / 0.5) ** 2) / (0.5 * np.sqrt(2 * np.pi))
                + np.exp(-0.5 * ((y - 3) / 0.5) ** 2) / (0.5 * np.sqrt(2 * np.pi))
            )

        rd = make_rd_from_density(grid, mix_pdf(z))
        hpd = calpit_hpd(rd, 0.1)
        assert len(hpd.intervals) == 2
        for lo, hi in hpd.intervals:
            mass, _ = quad(mix_pdf, lo, hi)
            assert abs(mass - 0.45) < 0.01

    def test_hpd_flat_density_length(self):
        grid = YGrid(np.linspace(0, 1, 201))
        rd = make_rd_from_density(grid, np.ones(201))
        hpd = calpit_hpd(rd, 0.1)
        step = 1.0 / 200
        assert abs(hpd.total_size() - 0.9) <= step

    def test_hpd_never_longer_than_interval_when_unimodal(self):
        rd = self._normal_rd(sd=1.3)
        step = rd.pdf.grid.points[1] - rd.pdf.grid.points[0]
        hpd = calpit_hpd(rd, 0.2)
        interval = calpit_interval(rd, 0.2)
        assert hpd.total_size() <= interval.total_size() + 2 * step

    def test_alpha_validation(self):
        rd = self._normal_rd()
        with pytest.raises(ValueError):
            calpit_interval(rd, 0.0)
        with pytest.raises(ValueError):
            calpit_hpd(rd, 1.0)


def frozen_front_end_sets(points, cdf, alpha):
    """The intervals and HPD sets that ``pitcal calibrate`` and ``bench`` each wrote out."""
    intervals = central_intervals(points, cdf, 0.5 * alpha, 1.0 - 0.5 * alpha, 1.0 - alpha)
    return intervals, hpd_rows(points, recalibrated_pdf_rows(points, cdf), alpha)


class TestCalpitSets:
    @pytest.mark.parametrize("backend, params", [
        ("local", {}),
        ("net", {"k_factor": 3, "net": {"hidden_layers": (6, 6), "max_epochs": 2,
                                        "patience": 2, "batch_size": 512}}),
    ])
    def test_equal_the_front_ends_recipe(self, backend, params):
        data = sample_example2("skewed", 400, seed=5)
        r = fit_pit_model(data.cal, compute_pit_values(data.initial, data.cal), backend, 5,
                          **params)
        xs = np.linspace(-0.9, 0.9, 7)[:, None]
        points = data.initial.grid.points
        cdf = recalibrate_rows(data.initial, r, xs)
        for alpha in (0.1, 0.32):
            intervals, hpds = frozen_front_end_sets(points, cdf, alpha)
            assert calpit_sets(points, cdf, alpha, "interval") == intervals
            assert calpit_sets(points, cdf, alpha, "hpd") == hpds
            for x in xs:
                rd = recalibrate(data.initial, r, x)
                assert calpit_interval(rd, alpha) == calpit_sets(
                    points, rd.cdf.values[None, :], alpha, "interval")[0]

    def test_checks_alpha_and_kind(self):
        points = np.linspace(0.0, 1.0, 11)
        cdf = points[None, :]
        for alpha in (0.0, 1.0, np.nan):
            for kind in ("interval", "hpd"):
                with pytest.raises(ValueError, match="alpha"):
                    calpit_sets(points, cdf, alpha, kind)
        with pytest.raises(ValueError, match="kind"):
            calpit_sets(points, cdf, 0.1, "calpit-int")


class TestPredictionSet:
    def test_validation(self):
        with pytest.raises(ValueError):
            PredictionSet(((1.0, 0.5),), 0.9, "interval")
        with pytest.raises(ValueError):
            PredictionSet(((0.0, 1.0), (0.5, 2.0)), 0.9, "hpd")
        with pytest.raises(ValueError):
            PredictionSet(((0.0, 1.0), (2.0, 3.0)), 0.9, "interval")

    def test_contains_and_size(self):
        ps = PredictionSet(((0.0, 1.0), (2.0, 3.0)), 0.9, "hpd")
        np.testing.assert_array_equal(
            ps.contains([0.5, 1.5, 2.5]), [True, False, True]
        )
        assert ps.total_size() == pytest.approx(2.0)


class TestSerialization:
    def test_local_model_records_fit_not_rows(self, tmp_path):
        rng = np.random.default_rng(6)
        cal = CalibrationSet(rng.normal(size=(100, 2)), np.zeros(100))
        pits = rng.uniform(size=100)
        model = fit_local_empirical(cal, pits, LocalEmpiricalConfig(k=20))
        path = tmp_path / "model.json"
        write_json(path, model.to_json())
        doc = json.loads(path.read_text())
        assert doc["format_version"] == MODEL_FORMAT_VERSION == 2
        assert doc["backend"] == "local-empirical"
        assert doc["config"] == {"k": 20, "weighting": "uniform"}
        assert "xs" not in doc and "pit_values" not in doc
        assert doc["n_rows"] == len(cal)
        assert doc["rows_sha256"] == hashlib.sha256(cal.xs.tobytes() + pits.tobytes()).hexdigest()
        again = CalibrationSet(cal.xs.copy(), cal.ys.copy())
        assert fit_local_empirical(again, pits.copy(), LocalEmpiricalConfig(k=20)).to_json() == doc
        moved = pits.copy()
        moved[37] = np.nextafter(moved[37], 1.0)
        other = fit_local_empirical(cal, moved, LocalEmpiricalConfig(k=20)).to_json()
        assert other["rows_sha256"] != doc["rows_sha256"]
        assert {**other, "rows_sha256": doc["rows_sha256"]} == doc


def _flat_xs_outputs(kind, xs):
    """What each reader of feature rows makes of ``xs``, as plain arrays."""
    rng = np.random.default_rng(9)
    ys = rng.normal(size=xs.shape[0])
    pits = rng.uniform(size=xs.shape[0])
    gam = np.linspace(0.0, 1.0, 7)
    if kind == "CalibrationSet":
        return CalibrationSet(xs, ys).xs
    if kind == "LocalEmpiricalModel":
        model = LocalEmpiricalModel(xs, pits, LocalEmpiricalConfig(k=3))
        return model.predict_matrix(gam, xs)
    reg = KnnMeanRegressor(CalibrationSet(xs, ys), k=3)
    if kind == "KnnMeanRegressor.predict":
        return reg.predict(xs)
    # RegSplitModel's residuals are one predict call on the calibration rows
    return RegSplitModel(lambda train: reg, None, CalibrationSet(xs, ys), 0.2).calibration.scores


@pytest.mark.parametrize("kind", ["CalibrationSet", "LocalEmpiricalModel",
                                  "KnnMeanRegressor.predict", "RegSplitModel"])
def test_flat_xs_are_one_feature_rows(kind):
    xs = np.linspace(-1.0, 1.0, 12) ** 3
    assert np.array_equal(_flat_xs_outputs(kind, xs), _flat_xs_outputs(kind, xs[:, None]))


@pytest.mark.parametrize("kind", ["LocalEmpiricalModel", "KnnMeanRegressor"])
def test_point_beyond_float_range_has_no_neighbours(kind):
    # standardized distances to 1e300 overflow, so the tree finds no neighbour
    # (index n at distance inf) for that row, which the error names by its value
    rng = np.random.default_rng(4)
    cal = CalibrationSet(rng.uniform(size=(30, 1)), rng.normal(size=30))
    if kind == "LocalEmpiricalModel":
        model = fit_local_empirical(cal, rng.uniform(size=30), LocalEmpiricalConfig(k=5))
        predict = lambda xs: model.predict_matrix(np.linspace(0.0, 1.0, 5), xs)  # noqa: E731
    else:
        model = KnnMeanRegressor(cal, k=5)
        predict = model.predict
    xs = np.array([[0.5], [1e300], [0.2]])
    with pytest.raises(InsufficientData, match=r"feature row \(1e\+300\) is too far"):
        predict(xs)
    assert np.all(np.isfinite(predict(xs[[0, 2]])))
