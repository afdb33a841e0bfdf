"""Feature-independent initial models against the tiled path they replaced.

``UniformInitialModel`` and ``MarginalHistogramModel`` ignore ``x``. They
once answered ``density_matrix(xs)`` with their one density tiled to n rows,
which ``cdf_rows`` integrated row by row. Now they integrate that density once
and answer ``cdf_matrix(xs)`` with a read-only broadcast of the cached row.
``frozen_cdf_rows`` below is a frozen copy of the old path, and
:class:`FrozenTiled` runs it through ``cdf_rows`` for the consumers: a model
with only ``density_matrix``. Every comparison is ``==``.

Those broadcast rows have a first-axis stride of 0, and ``grid`` works such
rows once: ``_pit_rows`` reads the one row's knot slopes, and ``invert_rows``
bisects the one row for levels shared by all rows. :class:`FrozenTiled` hands
the same values over as n separate rows, which take the per-row path.
"""

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from pitcal import bench, grid as gridmod
from pitcal.baselines import DcpModel
from pitcal.bench import ExperimentRecipe, run_experiment
from pitcal.calibrate import CalibrationSet, IdentityPitCdf, compute_pit_values, recalibrate_rows
from pitcal.grid import YGrid, _pit_rows, cdf_rows_from_density_rows, invert_rows
from pitcal.models import MarginalHistogramModel, UniformInitialModel, cdf_rows, feature_rows
from pitcal.pipeline import fit_pit_model
from pitcal.synthgen import TwoGroupConfig, sample_example1, sample_example2


class FrozenTiled:
    """The old answer of a feature-independent model: its density tiled to n rows."""

    def __init__(self, model):
        self.model = model
        self.grid = model.grid

    def density_matrix(self, xs):
        return np.tile(self.model.density_at(None).values, (feature_rows(xs).shape[0], 1))


def frozen_cdf_rows(model, xs):
    n = feature_rows(xs).shape[0]
    return cdf_rows_from_density_rows(model.grid.points,
                                      np.tile(model.density_at(None).values, (n, 1)))


def both_models(grid, ys):
    return [UniformInitialModel(grid), MarginalHistogramModel(grid, ys)]


@st.composite
def grids_and_draws(draw):
    seed = draw(st.integers(min_value=0, max_value=10**6))
    n_grid = draw(st.integers(min_value=3, max_value=150))
    n = draw(st.one_of(st.just(0), st.just(1), st.integers(min_value=0, max_value=300)))
    d = draw(st.integers(min_value=1, max_value=3))
    rng = np.random.default_rng(seed)
    grid = YGrid(np.sort(rng.uniform(-5, 5, size=n_grid)) + np.arange(n_grid) * 1e-3)
    ys = rng.normal(0.0, 2.0, size=draw(st.integers(min_value=1, max_value=400)))
    return grid, ys, rng.normal(size=(n, d))


class TestCdfRows:
    @settings(max_examples=60, deadline=None)
    @given(grids_and_draws())
    def test_broadcast_equals_tiled(self, case):
        grid, ys, xs = case
        for model in both_models(grid, ys):
            got = cdf_rows(model, xs)
            assert got.shape == (xs.shape[0], len(grid))
            assert not got.flags.writeable
            assert np.array_equal(got, frozen_cdf_rows(model, xs))

    def test_one_dimensional_and_scalar_features(self):
        grid = YGrid(np.linspace(-2.0, 3.0, 41))
        model = UniformInitialModel(grid)
        assert cdf_rows(model, np.array([0.1, 0.2, 0.3])).shape == (3, 41)
        assert cdf_rows(model, 0.5).shape == (1, 41)

    def test_rows_cannot_be_written(self):
        model = UniformInitialModel(YGrid(np.linspace(0.0, 1.0, 11)))
        rows = cdf_rows(model, np.zeros((4, 1)))
        with pytest.raises(ValueError):
            rows[0, 3] = 0.5


def flat_stretch_row():
    """Uneven points and a CDF row that is flat at 0.5 over three knots."""
    points = np.array([-2.0, -1.3, -0.2, 0.1, 0.9, 1.0, 2.5])
    return points, np.array([0.0, 0.2, 0.5, 0.5, 0.5, 0.8, 1.0])


def record_segment_slope_sizes(monkeypatch) -> list:
    """The number of segments each later ``grid._segment_slopes`` call limits, in call order."""
    sizes, real = [], gridmod._segment_slopes
    monkeypatch.setattr(gridmod, "_segment_slopes",
                        lambda xs, rows, idx: sizes.append(idx.size) or real(xs, rows, idx))
    return sizes


class TestBroadcastInversion:
    """``invert_rows`` on one broadcast row against the same row tiled to n rows."""

    @pytest.mark.parametrize("levels", [[0.0, 1.0], [0.5], [0.2, 0.5, 0.5 + 1e-12, 0.65],
                                        [1.0, 0.0, 0.5, 1e-300]])
    def test_shared_levels(self, levels):
        points, row = flat_stretch_row()
        got = invert_rows(points, np.broadcast_to(row, (7, row.size)), levels)
        assert got.shape == (7, len(levels))
        assert np.array_equal(got, invert_rows(points, np.tile(row, (7, 1)), levels))

    @settings(max_examples=40, deadline=None)
    @given(grids_and_draws(), st.lists(st.floats(0.0, 1.0), min_size=1, max_size=6))
    def test_marginal_rows(self, case, levels):
        grid, ys, xs = case
        model = MarginalHistogramModel(grid, ys)
        got = invert_rows(grid.points, cdf_rows(model, xs), levels)
        assert got.shape == (xs.shape[0], len(levels))
        assert np.array_equal(got, invert_rows(grid.points, frozen_cdf_rows(model, xs), levels))

    def test_per_row_levels_take_the_per_row_path(self, monkeypatch):
        points, row = flat_stretch_row()
        levels = np.array([[0.1, 0.9], [0.3, 0.7], [0.5, 0.6], [0.25, 0.95]])
        want = invert_rows(points, np.tile(row, (4, 1)), levels)
        sizes = record_segment_slope_sizes(monkeypatch)
        got = invert_rows(points, np.broadcast_to(row, (4, row.size)), levels)
        assert np.array_equal(got, want)
        assert sizes == [8]

    def test_zero_rows(self):
        points, row = flat_stretch_row()
        empty = np.broadcast_to(row, (0, row.size))
        assert invert_rows(points, empty, [0.1, 0.9]).shape == (0, 2)
        assert _pit_rows(points, empty, np.empty(0)).tolist() == []
        cal = CalibrationSet(np.empty((0, 2)), np.empty(0))
        assert compute_pit_values(UniformInitialModel(YGrid(points)), cal).tolist() == []


class TestOneRowIsWorkedOnce:
    """The broadcast row takes the one-row branches, not n copies of the per-row work."""

    def test_pit_values_read_the_knot_slopes(self, monkeypatch):
        data = sample_example1(TwoGroupConfig(), 300, 5)
        model = UniformInitialModel(data.grid)
        want = compute_pit_values(FrozenTiled(model), data.cal)

        def refuse(*args):
            raise AssertionError("per-row segment slopes on a broadcast row")

        monkeypatch.setattr(gridmod, "_segment_slopes", refuse)
        assert np.array_equal(compute_pit_values(model, data.cal), want)

    def test_dcp_sets_bisect_two_targets(self, monkeypatch):
        data = sample_example1(TwoGroupConfig(), 300, 5)
        dcp = DcpModel(UniformInitialModel(data.grid), data.cal, 0.1)
        sizes = record_segment_slope_sizes(monkeypatch)
        sets = dcp.predict_sets(data.cal.xs[:50])
        assert len(sets) == 50 and len({s.intervals for s in sets}) == 1
        assert sizes == [2]


NET = {"hidden_layers": (6, 6), "max_epochs": 2, "patience": 2, "batch_size": 512}


@pytest.fixture(scope="module", params=["ex1", "ex2"])
def data(request):
    if request.param == "ex1":
        return sample_example1(TwoGroupConfig(), 400, 5)
    return sample_example2("skewed", 400, 5)


@pytest.fixture(params=["uniform", "marginal"])
def initial(request, data):
    if request.param == "uniform":
        return UniformInitialModel(data.grid)
    return MarginalHistogramModel(data.grid, data.cal.ys)


def responses(grid, n, seed):
    """n responses drawn from the knots, points between and off both ends of ``grid``."""
    rng = np.random.default_rng(seed)
    pts = grid.points
    pool = np.concatenate([pts, rng.uniform(pts[0] - 1.0, pts[-1] + 1.0, size=2 * n + 1),
                           [pts[0] - 1.0, pts[-1] + 1.0]])
    return rng.choice(pool, size=n)


class TestConsumers:
    def test_pit_values(self, data, initial):
        assert np.array_equal(compute_pit_values(initial, data.cal),
                              compute_pit_values(FrozenTiled(initial), data.cal))

    @settings(max_examples=60, deadline=None)
    @given(grids_and_draws(), st.integers(min_value=0, max_value=2**32 - 1))
    def test_pit_values_over_grids_and_draws(self, case, seed):
        grid, ys, xs = case
        cal = CalibrationSet(xs, responses(grid, xs.shape[0], seed))
        for model in both_models(grid, ys):
            got = compute_pit_values(model, cal)
            assert got.shape == (xs.shape[0],)
            assert np.array_equal(got, compute_pit_values(FrozenTiled(model), cal))

    @pytest.mark.parametrize("backend", ["local", "net", "identity"])
    def test_recalibrate_rows(self, data, initial, backend):
        if backend == "identity":
            r = IdentityPitCdf()
        else:
            pits = compute_pit_values(initial, data.cal)
            r = fit_pit_model(data.cal, pits, backend, 3, k=40, k_factor=3, net=NET)
        xs = data.cal.xs[:50]
        assert np.array_equal(recalibrate_rows(initial, r, xs),
                              recalibrate_rows(FrozenTiled(initial), r, xs))

    def test_dcp_sets(self, data, initial):
        xs = data.cal.xs[:50]
        got = DcpModel(initial, data.cal, 0.1).predict_sets(xs)
        want = DcpModel(FrozenTiled(initial), data.cal, 0.1).predict_sets(xs)
        assert [s.intervals for s in got] == [s.intervals for s in want]


@pytest.mark.parametrize("generator", ["ex1", "ex2-skewed"])
@pytest.mark.parametrize("kind", ["uniform", "marginal"])
def test_initial_method_report(monkeypatch, generator, kind):
    recipe = ExperimentRecipe(generator=generator, method="initial", initial=kind, n=300,
                              n_realizations=2, n_mc_draws=40, seed=11, test_grid_size=5)
    got = run_experiment(recipe)
    real_build = bench.build_initial
    monkeypatch.setattr(bench, "build_initial",
                        lambda *a, **kw: FrozenTiled(real_build(*a, **kw)))
    want = run_experiment(recipe)
    assert got.points == want.points
    for key in ("proportion_under", "proportion_correct", "proportion_over", "mean_size"):
        assert got.summary[key] == want.summary[key]
