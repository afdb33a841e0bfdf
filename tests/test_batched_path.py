"""The batched path from initial CDF to prediction set against the per-x path.

``run_experiment`` builds all of a realization's sets in one batch: the
initial CDF rows, the fitted map over (points x grid), the recalibrated CDF
and density rows, and the quantiles of every row from one inversion. The
reference below is a frozen copy of the path it replaced, which walked the
test points one at a time through ``model_cdf``, the map's per-x curve,
``recalibrate`` (a fitted spline and its derivative at the knots) and a
segment-local bisection per quantile. With the local backend and a uniform
initial model both paths run the same arithmetic, so every comparison is
``==``; the Gaussian initial model and the network reach the same values
through other array shapes and are held to 1e-12.

A recalibrated family used as an initial model once answered one row at a
time through ``cdf_at``; its frozen copy below must match ``cdf_rows`` and
``compute_pit_values`` of :class:`RecalibratedInitialModel` bit for bit.
"""

import functools

import numpy as np
import pytest
from scipy.spatial import cKDTree

import pitcal.rng as rngmod
from pitcal import bench
from pitcal.baselines import DcpModel, RegSplitModel, fit_knn_mean
from pitcal.bench import ExperimentRecipe, run_experiment
from pitcal.calibrate import (
    GridCdf,
    GridDensity,
    PredictionSet,
    RecalibratedDistribution,
    RecalibratedInitialModel,
    calpit_hpd,
    compute_pit_values,
    recalibrate_rows,
)
from pitcal.errors import DegenerateRecalibration
from pitcal.grid import _pit_rows, cdf_rows_from_density_rows, knot_slopes, renormalize_density
from pitcal.models import cdf_rows, standardize
from pitcal.monotone_net import MonotoneNetModel, _forward, _mono_inputs
from pitcal.pipeline import build_initial, fit_pit_model, split_calibration
from pitcal.synthgen import sample_example2


# ----------------------------------------------------------------------
# frozen reference: the per-x path
# ----------------------------------------------------------------------

def frozen_model_cdf(model, x):
    d = model.density_at(np.asarray(x, dtype=float))
    return GridCdf(d.grid, cdf_rows_from_density_rows(d.grid.points, d.values[None, :])[0])


def frozen_recalibrated_cdf_rows(model, xs):
    """``RecalibratedInitialModel.cdf_at`` row by row: a batch of one per feature row."""
    return np.array([recalibrate_rows(model.base_model, model.r, x.reshape(1, -1))[0]
                     for x in xs])


@functools.lru_cache(maxsize=4)
def frozen_tree(model):
    """A k-d tree on the model's standardized rows, as every local model once built."""
    return cKDTree(standardize(model.xs, model.mean, model.scale))


def frozen_query(model, x):
    """``(dist, idx)`` of one feature point's k nearest rows, from :func:`frozen_tree`."""
    q = (np.asarray(x, dtype=float).ravel() - model.mean) / model.scale
    dist, idx = frozen_tree(model).query(q, k=model.k)
    return np.atleast_1d(dist), np.atleast_1d(idx)


def frozen_local_curve(model, gammas, x, query=frozen_query):
    """The local backend's single-point neighbourhood (from ``query``) and weighted ECDF."""
    dist, idx = query(model, x)
    if model.cfg.weighting == "inverse-distance":
        w = 1.0 / (dist + np.mean(dist) + 1e-300)
    else:
        w = np.ones(idx.size)
    w = w / w.sum()
    pits = model.pit_values[idx][None, :]
    order = np.argsort(pits, axis=1, kind="stable")
    pits_sorted = pits[np.arange(1)[:, None], order]
    cumw = np.zeros((1, idx.size + 1))
    np.cumsum(w[order], axis=1, out=cumw[:, 1:])
    cumw[:, -1] = 1.0
    return np.clip(cumw[0][np.searchsorted(pits_sorted[0], gammas, side="right")], 0.0, 1.0)


def frozen_curve(r, gammas, x):
    if isinstance(r, MonotoneNetModel):
        gammas = np.asarray(gammas, dtype=float).ravel()
        x_std = standardize(np.asarray(x, dtype=float).reshape(1, -1), r.mean, r.scale)
        return _forward(r.params, r.positive, r.hidden, x_std, _mono_inputs(gammas))
    return frozen_local_curve(r, gammas, x)


def frozen_spline(c):
    """``(knots_x, knots_y, slopes)`` of the monotone cubic through a :class:`GridCdf`."""
    return c.grid.points, c.values, knot_slopes(c.grid.points, c.values[None, :])[0]


def frozen_derivative(sp, q):
    """The spline's analytic derivative, zero off the knots' range."""
    xs, ys, m = sp
    idx = np.clip(np.searchsorted(xs, q, side="right") - 1, 0, xs.size - 2)
    h = xs[idx + 1] - xs[idx]
    t = (q - xs[idx]) / h
    inside = (t >= 0.0) & (t <= 1.0)
    t = np.clip(t, 0.0, 1.0)
    t2 = t * t
    out = (ys[idx] * (6 * t2 - 6 * t) / h + m[idx] * (3 * t2 - 4 * t + 1)
           + ys[idx + 1] * (-6 * t2 + 6 * t) / h + m[idx + 1] * (3 * t2 - 2 * t))
    return np.where(inside, out, 0.0)


def frozen_solve(sp, target):
    """Float bisection within the spline segment holding the answer."""
    xs, ys, m = sp
    if target <= ys[0]:
        return float(xs[0])
    if target > ys[-1]:
        return float(xs[-1])
    j = int(np.searchsorted(ys, target, side="left"))
    lo, hi = float(xs[j - 1]), float(xs[j])
    x0, h = lo, hi - lo
    y0, y1 = float(ys[j - 1]), float(ys[j])
    hm0, hm1 = h * float(m[j - 1]), h * float(m[j])
    for _ in range(80):
        mid = 0.5 * (lo + hi)
        t = (mid - x0) / h
        t2 = t * t
        t3 = t2 * t
        value = (y0 * (2 * t3 - 3 * t2 + 1) + hm0 * (t3 - 2 * t2 + t)
                 + y1 * (-2 * t3 + 3 * t2) + hm1 * (t3 - t2))
        if value >= target:
            hi = mid
        else:
            lo = mid
        if hi - lo <= 1e-14 * max(1.0, abs(hi)):
            break
    return hi


def frozen_recalibrate(model, r, x):
    """Recalibrated CDF values, density values and spline at one x."""
    initial = frozen_model_cdf(model, x)
    grid = initial.grid
    vals = np.asarray(frozen_curve(r, initial.values, x), dtype=float)
    if vals.max() - vals.min() < 1e-9:
        raise DegenerateRecalibration("P-P map collapsed the CDF to a constant")
    vals = np.clip(np.maximum.accumulate(vals), 0.0, 1.0)
    vals[0] = 0.0
    vals[-1] = 1.0
    cdf = GridCdf(grid, vals)
    sp = frozen_spline(cdf)
    pdf = renormalize_density(GridDensity(grid, np.maximum(frozen_derivative(sp, grid.points), 0.0)))
    return cdf, pdf, sp


def frozen_interval(sp, p_lo, p_hi, level):
    return PredictionSet(((frozen_solve(sp, p_lo), frozen_solve(sp, p_hi)),),
                         nominal_level=level, kind="interval")


def frozen_constructor(recipe, data, train, cal, rep_seed):
    """The per-x set constructor of each method."""
    alpha = recipe.alpha
    level = 1.0 - alpha
    if recipe.method == "oracle":
        oracle = data.oracle
        return lambda x: PredictionSet(((float(oracle.quantile(alpha / 2.0, x)),
                                          float(oracle.quantile(1.0 - alpha / 2.0, x))),),
                                       nominal_level=level, kind="interval")
    params = dict(recipe.backend_params)
    initial = build_initial(recipe.initial, data.grid, train, mean_k=params.pop("mean_k", 50),
                            generator_model=data.initial)

    def initial_spline(x):
        return frozen_spline(frozen_model_cdf(initial, x))

    if recipe.method == "initial":
        return lambda x: frozen_interval(initial_spline(x), alpha / 2.0, 1.0 - alpha / 2.0, level)
    if recipe.method == "regsplit":
        return RegSplitModel(fit_knn_mean, train, cal, alpha).predict_set
    if recipe.method == "dcp":
        q = DcpModel(initial, cal, alpha).calibration.threshold
        return lambda x: frozen_interval(initial_spline(x), max(0.0, 0.5 - q),
                                         min(1.0, 0.5 + q), level)
    pits = compute_pit_values(initial, cal)
    fit_args = {key: params.pop(key) for key in ("k", "weighting", "k_factor") if key in params}
    r = fit_pit_model(cal, pits, recipe.backend, rep_seed, **fit_args, net=params)
    if recipe.method == "calpit-int":
        return lambda x: frozen_interval(frozen_recalibrate(initial, r, x)[2],
                                         0.5 * alpha, 1.0 - 0.5 * alpha, level)

    def hpd(x):
        cdf, pdf, _ = frozen_recalibrate(initial, r, x)
        return calpit_hpd(RecalibratedDistribution(cdf=cdf, pdf=pdf), alpha)

    return hpd


def realizations(recipe):
    """(data, train, cal, rep_seed) of each realization, as ``run_experiment`` draws them."""
    for rep in range(recipe.n_realizations):
        rep_seed = rngmod.derive_seed(recipe.seed, "realization", rep)
        data = bench._GENERATORS[recipe.generator](recipe.n, rep_seed)
        if recipe.experiment == "split" or recipe.method == "regsplit":
            train, cal = split_calibration(data.cal, 0.5)
        else:
            train = cal = data.cal
        yield rep, data, train, cal, rep_seed


def frozen_points(recipe):
    """Per-point coverage and mean set size, scored one point at a time."""
    test_xs = bench._default_test_grid(recipe)
    coverage = np.zeros(len(test_xs))
    sizes = np.zeros(len(test_xs))
    for rep, data, train, cal, rep_seed in realizations(recipe):
        make = frozen_constructor(recipe, data, train, cal, rep_seed)
        for i, x in enumerate(test_xs):
            pset = make(x)
            draws = data.oracle.sample(
                x, rngmod.derived_rng(recipe.seed, "coverage", rep, i), recipe.n_mc_draws)
            coverage[i] += float(np.mean(pset.contains(draws)))
            sizes[i] += pset.total_size()
    return coverage / recipe.n_realizations, sizes / recipe.n_realizations


# ----------------------------------------------------------------------
# comparisons
# ----------------------------------------------------------------------

METHODS = ["calpit-int", "calpit-hpd", "dcp", "regsplit", "oracle", "initial"]
NET = {"hidden_layers": (6, 6), "max_epochs": 2, "patience": 2, "batch_size": 512,
       "k_factor": 3}


def recipe_for(generator, method, **kw):
    kw = {"initial": "uniform", "backend": "local", "backend_params": {"k": 40}, **kw}
    return ExperimentRecipe(generator=generator, method=method, n=400, alpha=0.1,
                            n_realizations=2, n_mc_draws=60, seed=13,
                            test_grid_size=5 if generator == "ex1" else 9, **kw)


def endpoints(sets):
    return [pset.intervals for pset in sets]


def assert_batched_equals_frozen(recipe, tol):
    batched = []
    for _, data, train, cal, rep_seed in realizations(recipe):
        xs = bench._default_test_grid(recipe)
        make = frozen_constructor(recipe, data, train, cal, rep_seed)
        want = [make(x) for x in xs]
        got = bench._prediction_sets(recipe, data, train, cal, rep_seed, xs)
        assert [len(s.intervals) for s in got] == [len(s.intervals) for s in want]
        if tol == 0.0:
            assert endpoints(got) == endpoints(want)
        else:
            np.testing.assert_allclose(np.concatenate([np.ravel(e) for e in endpoints(got)]),
                                       np.concatenate([np.ravel(e) for e in endpoints(want)]),
                                       rtol=0, atol=tol)
        batched.append(got)
    coverage, sizes = frozen_points(recipe)
    report = run_experiment(recipe)
    got_cov = np.array([p["empirical"] for p in report.points])
    got_size = np.array([p["mean_set_size"] for p in report.points])
    if tol == 0.0:
        assert got_cov.tolist() == coverage.tolist()
        assert got_size.tolist() == sizes.tolist()
    else:
        np.testing.assert_allclose(got_cov, coverage, rtol=0, atol=tol)
        np.testing.assert_allclose(got_size, sizes, rtol=0, atol=tol)


@pytest.mark.parametrize("generator", ["ex2-skewed", "ex1"])
@pytest.mark.parametrize("method", METHODS)
def test_local_uniform_equals_frozen_exactly(generator, method):
    assert_batched_equals_frozen(recipe_for(generator, method), 0.0)


@pytest.mark.parametrize("method", ["calpit-int", "calpit-hpd"])
@pytest.mark.parametrize("params", [{"k": 80},
                                    {"k": 30, "weighting": "inverse-distance"}])
def test_local_neighbourhood_rules_equal_frozen_exactly(method, params):
    recipe = recipe_for("ex2-skewed", method, backend_params=params)
    assert_batched_equals_frozen(recipe, 0.0)


@pytest.mark.parametrize("method", ["calpit-int", "calpit-hpd", "dcp", "initial"])
def test_gaussian_fit_within_rounding(method):
    recipe = recipe_for("ex2-skewed", method, initial="gaussian-fit", experiment="split",
                        backend_params={"k": 30, "mean_k": 25})
    assert_batched_equals_frozen(recipe, 1e-12)


@pytest.mark.parametrize("method", ["calpit-int", "calpit-hpd"])
def test_net_within_rounding(method):
    recipe = recipe_for("ex2-skewed", method, initial="generator", backend="net",
                        backend_params=dict(NET))
    assert_batched_equals_frozen(recipe, 1e-12)


@pytest.mark.parametrize("backend", ["local", "net"])
@pytest.mark.parametrize("initial", ["uniform", "gaussian-fit"])
def test_recalibrated_initial_rows_equal_frozen_exactly(initial, backend):
    data = sample_example2("skewed", 800, 21)
    train, cal = split_calibration(data.cal, 0.5)
    base = build_initial(initial, data.grid, train, mean_k=30)
    params = {"k": 200} if backend == "local" else {"k_factor": 3, "net": {
        "hidden_layers": (6, 6), "max_epochs": 2, "patience": 2, "batch_size": 512}}
    r = fit_pit_model(cal, compute_pit_values(base, cal), backend, 5, **params)
    recal = RecalibratedInitialModel(base, r)
    test = sample_example2("skewed", 400, 22).cal
    want = frozen_recalibrated_cdf_rows(recal, test.xs)
    assert np.array_equal(cdf_rows(recal, test.xs), want)
    assert np.array_equal(compute_pit_values(recal, test),
                          _pit_rows(data.grid.points, want, test.ys))
