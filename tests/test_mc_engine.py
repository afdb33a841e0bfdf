"""The one-pass Monte Carlo local coverage test against frozen copies of older paths.

The first reference is the test as it ran before the batched engine: every
null replicate refitted the local backend (``with_pit_values``) and queried
the neighbourhood again, once for the p-value and once more for the band.
The second is the batched engine as it ran before it read the neighbours
itself: ``frozen_predict_curves``, a copy of the deleted
``LocalEmpiricalModel.predict_curves``, took each full-length PIT vector and
kept its neighbour entries. The third is the one-point engine that
``mc_local_tests`` replaced, which ``pitcal diagnose`` ran once per point.
All paths run the same arithmetic, so they must agree exactly. The first two
references' neighbourhoods come from :func:`old_query`.
"""

import itertools

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

import pitcal.rng as rngmod
from pitcal.calibrate import (
    CalibrationSet,
    LocalEmpiricalConfig,
    PitCdfModel,
    _gamma_rows,
    fit_local_empirical,
)
from pitcal.diagnose import (DEFAULT_TEST_GAMMAS, _deviation, mc_local_test, mc_local_tests,
                             mc_p_value)
from pitcal.errors import LengthMismatch
from pitcal.grid import _BLOCK_FLOATS
from test_batched_path import frozen_query
from test_neighbours import traced_peak_mib


# ----------------------------------------------------------------------
# frozen reference: the local backend's curve and the MC test, per replicate
# ----------------------------------------------------------------------

def old_query(model, x):
    """``(dist, idx)`` of one feature point: the frozen k-d tree's where the model builds one.

    A one-feature model answers from a sorted window, and a model with 2 to 7
    features and k >= n // 10 from a scan of all rows; their choice among tied
    rows is not the tree's, and this module's lattice features tie. There the
    model's own query, a batch of one, stands in. ``test_neighbours`` holds
    both queries to the tree.
    """
    if model._tree is None:
        dist, idx = model._query(np.reshape(x, (1, -1)))
        return dist[0], idx[0]
    return frozen_query(model, x)


def _old_neighborhood(model, x):
    """The local backend's single-point neighbourhood query and weights."""
    dist, idx = old_query(model, x)
    if model.cfg.weighting == "inverse-distance":
        w = 1.0 / (dist + np.mean(dist) + 1e-300)
    else:
        w = np.ones(idx.size)
    return idx, w / w.sum()


class _OldLocal(PitCdfModel):
    """The local backend before the batched engine: one query and one sort per curve."""

    backend = "frozen-local"

    def __init__(self, model, pit_values):
        self.model = model
        self.pit_values = np.asarray(pit_values, dtype=float).ravel()

    def with_pit_values(self, pit_values):
        return _OldLocal(self.model, pit_values)

    def predict_curve(self, gammas, x):
        idx, w = _old_neighborhood(self.model, x)
        pits = self.pit_values[idx]
        order = np.argsort(pits, kind="stable")
        pits_sorted = pits[order]
        cumw = np.cumsum(w[order])
        cumw[-1] = 1.0
        pos = np.searchsorted(pits_sorted, np.asarray(gammas, dtype=float), side="right")
        out = np.concatenate([[0.0], cumw])[pos]
        return np.clip(out, 0.0, 1.0)


def _old_statistic(r, x, g):
    values = np.asarray(r.predict_curve(g, x), dtype=float)
    return float(np.mean((values - g) ** 2))


def _old_null_models(fit_fn, cal, observed_model, n_mc, seed):
    n = len(cal)
    reuse = getattr(observed_model, "with_pit_values", None)
    for b in range(n_mc):
        null_pits = rngmod.derived_rng(seed, "null-pits", b).uniform(size=n)
        if reuse is not None:
            yield reuse(null_pits)
        else:
            yield fit_fn(cal, null_pits)


def _old_mc_p_value(fit_fn, cal, pit_values, x, n_mc, gammas=None, seed=0):
    g = DEFAULT_TEST_GAMMAS if gammas is None else np.asarray(gammas, dtype=float)
    observed_model = fit_fn(cal, np.asarray(pit_values, dtype=float))
    t_obs = _old_statistic(observed_model, x, g)
    exceed = 0
    for model_b in _old_null_models(fit_fn, cal, observed_model, n_mc, seed):
        if t_obs < _old_statistic(model_b, x, g):
            exceed += 1
    return t_obs, exceed / n_mc


def _old_mc_confidence_band(fit_fn, cal, pit_values, x, n_mc, gammas, eta=0.05, seed=0):
    g = np.asarray(gammas, dtype=float)
    observed_model = fit_fn(cal, np.asarray(pit_values, dtype=float))
    curves = np.empty((n_mc, g.size))
    for b, model_b in enumerate(_old_null_models(fit_fn, cal, observed_model, n_mc, seed)):
        curves[b] = model_b.predict_curve(g, x)
    curves.sort(axis=0)
    k = int(np.floor(n_mc * eta / 2.0))
    return curves[k], curves[n_mc - 1 - k]


# ----------------------------------------------------------------------
# frozen reference: the batched engine through full-length PIT vectors
# ----------------------------------------------------------------------

def frozen_predict_curves(model, pit_rows, gammas, x):
    """The deleted ``LocalEmpiricalModel.predict_curves``: one curve per full-length PIT row."""
    idx, w = model._neighborhoods(np.asarray(x, dtype=float).reshape(1, -1))
    pits = []
    for row in pit_rows:
        row = np.asarray(row, dtype=float).ravel()
        if row.shape[0] != model.xs.shape[0]:
            raise LengthMismatch(f"{row.shape[0]} pit values for {model.xs.shape[0]} rows")
        pits.append(row[idx[0]])
    pits = np.array(pits).reshape(len(pits), idx.shape[1])
    return model._ecdf(pits, w, _gamma_rows(gammas, len(pits)))


def frozen_mc_local_test(observed, x, n_mc, gammas, eta=0.05, seed=0):
    """``mc_local_test`` as it ran on ``frozen_predict_curves``: (statistic, p-value, curves)."""
    g = np.asarray(gammas, dtype=float)
    n = observed.pit_values.size
    nulls = (rngmod.derived_rng(seed, "null-pits", b).random(n) for b in range(n_mc))
    curves = frozen_predict_curves(observed, itertools.chain([observed.pit_values], nulls), g, x)
    stats = _deviation(curves, g)
    ranked = np.sort(curves[1:], axis=0)
    k = int(np.floor(n_mc * eta / 2.0))
    p = int(np.count_nonzero(stats[0] < stats[1:])) / n_mc
    return float(stats[0]), p, (curves[0], ranked[k], ranked[n_mc - 1 - k])


# ----------------------------------------------------------------------
# generated cases
# ----------------------------------------------------------------------

@st.composite
def cases(draw):
    seed = draw(st.integers(min_value=0, max_value=10**6))
    n = draw(st.integers(min_value=5, max_value=120))
    dim = draw(st.sampled_from([1, 2]))
    rng = np.random.default_rng(seed)
    # a coarse feature lattice gives distance ties and coincident points
    xs = rng.integers(-4, 5, size=(n, dim)) / 4.0 if draw(st.booleans()) \
        else rng.uniform(-1, 1, size=(n, dim))
    ys = rng.standard_normal(n)
    if draw(st.booleans()):
        # PIT values and gammas on one 1/20 lattice: every comparison can tie
        pits = rng.integers(0, 21, size=n) / 20.0
        gammas = np.arange(0, 21)[:: draw(st.sampled_from([1, 2, 5]))] / 20.0
    else:
        pits = rng.uniform(size=n)
        gammas = np.linspace(0.05, 0.95, draw(st.integers(min_value=1, max_value=25)))
    cfg = LocalEmpiricalConfig(k=draw(st.integers(min_value=1, max_value=n)),
                               weighting=draw(st.sampled_from(["uniform", "inverse-distance"])))
    x = xs[draw(st.integers(min_value=0, max_value=n - 1))] if draw(st.booleans()) \
        else rng.uniform(-1.2, 1.2, size=dim)
    return {
        "cal": CalibrationSet(xs, ys), "pits": pits, "gammas": gammas, "cfg": cfg, "x": x,
        "n_mc": draw(st.sampled_from([20, 37, 200])),
        "eta": draw(st.sampled_from([0.05, 0.1, 0.25, 0.5])),
        "seed": draw(st.integers(min_value=0, max_value=2**31)),
    }


def _fits(cfg):
    def new(cal, pits):
        return fit_local_empirical(cal, pits, cfg)

    def old(cal, pits):
        return _OldLocal(fit_local_empirical(cal, pits, cfg), pits)

    return new, old


class TestMatchesPerReplicateRefits:
    @settings(max_examples=60, deadline=None)
    @given(cases())
    def test_public_functions_equal_frozen(self, c):
        new, old = _fits(c["cfg"])
        args = (c["cal"], c["pits"], c["x"], c["n_mc"], c["gammas"])
        res = mc_p_value(new, *args, seed=c["seed"])
        t_obs, p = _old_mc_p_value(old, *args, seed=c["seed"])
        assert res.statistic == t_obs
        assert res.p_value == p
        curve = mc_local_test(new(c["cal"], c["pits"]), c["x"], c["n_mc"], c["gammas"],
                              eta=c["eta"], seed=c["seed"])[1]
        old_lo, old_hi = _old_mc_confidence_band(old, *args, eta=c["eta"], seed=c["seed"])
        assert np.array_equal(curve.band_lo, old_lo) and np.array_equal(curve.band_hi, old_hi)

    @settings(max_examples=60, deadline=None)
    @given(cases())
    def test_engine_equals_frozen(self, c):
        new, old = _fits(c["cfg"])
        args = (c["cal"], c["pits"], c["x"], c["n_mc"], c["gammas"])
        observed = new(c["cal"], c["pits"])
        res, curve = mc_local_test(observed, c["x"], c["n_mc"], c["gammas"],
                                   eta=c["eta"], seed=c["seed"])
        t_obs, p = _old_mc_p_value(old, *args, seed=c["seed"])
        old_lo, old_hi = _old_mc_confidence_band(old, *args, eta=c["eta"], seed=c["seed"])
        old_curve = old(c["cal"], c["pits"]).predict_curve(c["gammas"], c["x"])
        assert (res.statistic, res.p_value, res.n_mc) == (t_obs, p, c["n_mc"])
        assert np.array_equal(curve.r_values, old_curve)
        assert np.array_equal(curve.band_lo, old_lo)
        assert np.array_equal(curve.band_hi, old_hi)
        # invariants: the 1/B lattice, an ordered band, monotone curves in [0, 1]
        assert res.p_value in {j / c["n_mc"] for j in range(c["n_mc"] + 1)}
        assert np.all(curve.band_lo <= curve.band_hi)
        for values in (curve.r_values, curve.band_lo, curve.band_hi):
            assert np.all(np.diff(values) >= 0)
            assert np.all((values >= 0.0) & (values <= 1.0))


class TestMatchesFrozenPredictCurves:
    @pytest.mark.parametrize("weighting", ["uniform", "inverse-distance"])
    @settings(max_examples=60, deadline=None)
    @given(c=cases())
    def test_engine_equals_frozen_full_length_draws(self, weighting, c):
        cfg = LocalEmpiricalConfig(k=c["cfg"].k, weighting=weighting)
        observed = fit_local_empirical(c["cal"], c["pits"], cfg)
        args = (observed, c["x"], c["n_mc"], c["gammas"])
        res, curve = mc_local_test(*args, eta=c["eta"], seed=c["seed"])
        t_obs, p, (r, lo, hi) = frozen_mc_local_test(*args, eta=c["eta"], seed=c["seed"])
        assert (res.statistic, res.p_value) == (t_obs, p)
        assert np.array_equal(curve.r_values, r)
        assert np.array_equal(curve.band_lo, lo) and np.array_equal(curve.band_hi, hi)


class TestPredictCurves:
    @settings(max_examples=60, deadline=None)
    @given(cases(), st.integers(min_value=1, max_value=6))
    def test_rows_equal_single_curves(self, c, n_rows):
        model = fit_local_empirical(c["cal"], c["pits"], c["cfg"])
        rng = np.random.default_rng(c["seed"])
        rows = [c["pits"]] + [rng.integers(0, 21, size=len(c["cal"])) / 20.0
                              for _ in range(n_rows)]
        idx, w = model._neighborhoods(np.reshape(c["x"], (1, -1)))
        curves = model._ecdf(np.array(rows)[:, idx[0]], w, _gamma_rows(c["gammas"], len(rows)))
        assert curves.shape == (len(rows), c["gammas"].size)
        for row, got in zip(rows, curves):
            want = _OldLocal(model, row).predict_curve(c["gammas"], c["x"])
            assert np.array_equal(got, want)
        assert np.array_equal(model.predict_curve(c["gammas"], c["x"]), curves[0])
        assert np.all(np.diff(curves, axis=1) >= 0)
        assert np.all((curves >= 0.0) & (curves <= 1.0))

    def test_full_mass_at_one(self):
        cal = CalibrationSet(np.linspace(0, 1, 30)[:, None], np.zeros(30))
        model = fit_local_empirical(cal, np.linspace(0, 1, 30), LocalEmpiricalConfig(k=7))
        idx, w = model._neighborhoods(np.array([[0.4]]))
        rows = np.random.default_rng(1).uniform(size=(5, 30))
        curves = model._ecdf(rows[:, idx[0]], w, _gamma_rows(np.array([0.0, 1.0]), 5))
        assert np.all(curves[:, 1] == 1.0)


# ----------------------------------------------------------------------
# frozen reference: the one-point engine, run once per point
# ----------------------------------------------------------------------

def frozen_one_point_test(observed, x, n_mc, gammas, eta, seed):
    """``mc_local_test`` as it ran before ``mc_local_tests``: one query and one
    (B+1, k) block per point; (statistic, p-value, r, band_lo, band_hi)."""
    g = np.asarray(gammas, dtype=float)
    x = np.asarray(x, dtype=float)
    idx, w = observed._neighborhoods(x.reshape(1, -1))
    idx = idx[0]
    n = observed.pit_values.size
    pits = np.empty((n_mc + 1, idx.size))
    pits[0] = observed.pit_values[idx]
    for b, rng in enumerate(rngmod.derived_rngs(seed, "null-pits", count=n_mc)):
        pits[b + 1] = rng.random(n)[idx]
    curves = observed._ecdf(pits, w, _gamma_rows(g, n_mc + 1))
    stats = _deviation(curves, g)
    ranked = np.sort(curves[1:], axis=0)
    k = int(np.floor(n_mc * eta / 2.0))
    exceed = int(np.count_nonzero(stats[0] < stats[1:]))
    return float(stats[0]), exceed / n_mc, curves[0], ranked[k], ranked[n_mc - 1 - k]


def _many_points_case(dim, weighting, n=1_000, k=100):
    rng = np.random.default_rng(dim)
    xs = rng.uniform(-1, 1, size=(n, dim))
    cal = CalibrationSet(xs, rng.standard_normal(n))
    # PITs off uniform where the first feature is positive: the test rejects there alone
    pits = np.where(xs[:, 0] > 0, rng.beta(2.0, 1.0, size=n), rng.uniform(size=n))
    observed = fit_local_empirical(cal, pits,
                                   LocalEmpiricalConfig(k=k, weighting=weighting))
    return observed, rng.uniform(-1, 1, size=(20, dim))


class TestManyPointsEqualOnePointLoop:
    @pytest.mark.parametrize("root", [-5, 0, 2**70])
    @pytest.mark.parametrize("weighting", ["uniform", "inverse-distance"])
    @pytest.mark.parametrize("dim", [1, 2])  # sorted-window and row-scan neighbourhoods
    def test_equals_frozen_loop(self, dim, weighting, root):
        observed, points = _many_points_case(dim, weighting)
        assert observed._tree is None
        n_mc, eta, gammas = 200, 0.1, np.linspace(0.05, 0.95, 9)
        # 2 (B+1) k floats per point: 6 points per row block, so 20 points span 4 blocks
        assert len(points) > 3 * (_BLOCK_FLOATS // (2 * (n_mc + 1) * observed.k))
        seeds = [root + 7 * p for p in range(len(points))]
        got = mc_local_tests(observed, points, n_mc, gammas, eta, seeds=seeds)
        assert len(got) == len(points)
        for x, seed, (res, curve) in zip(points, seeds, got):
            t, p, r, lo, hi = frozen_one_point_test(observed, x, n_mc, gammas, eta, seed)
            assert (res.statistic, res.p_value, res.n_mc) == (t, p, n_mc)
            assert np.array_equal(res.x, x) and np.array_equal(curve.x, x)
            assert np.array_equal(curve.r_values, r)
            assert np.array_equal(curve.band_lo, lo) and np.array_equal(curve.band_hi, hi)
        # the batch of one is the same test at its point
        res, curve = mc_local_test(observed, points[3], n_mc, gammas, eta, seed=seeds[3])
        assert (res.statistic, res.p_value) == (got[3][0].statistic, got[3][0].p_value)
        assert np.array_equal(curve.band_lo, got[3][1].band_lo)
        assert np.array_equal(curve.band_hi, got[3][1].band_hi)
        # the points reach both sides of the test, so the p-values are not all one value
        assert len({res.p_value for res, _ in got}) > 3

    @pytest.mark.parametrize("seed", [-5, 2**70])
    def test_seeds_outside_uint64(self, seed):
        observed, points = _many_points_case(1, "uniform", n=200, k=20)
        res = mc_p_value(lambda c, p: observed, None, observed.pit_values, points[0], 20,
                         seed=seed)
        t, p, *_ = frozen_one_point_test(observed, points[0], 20, DEFAULT_TEST_GAMMAS, 0.05, seed)
        assert (res.statistic, res.p_value) == (t, p)

    def test_one_seed_per_row(self):
        observed, points = _many_points_case(2, "uniform", n=200, k=20)
        with pytest.raises(LengthMismatch):
            mc_local_tests(observed, points, 20, DEFAULT_TEST_GAMMAS, seeds=[0])
        with pytest.raises(LengthMismatch):
            mc_local_tests(observed, points[:, :1], 20, DEFAULT_TEST_GAMMAS, seeds=range(20))


@pytest.mark.parametrize("weighting", ["uniform", "inverse-distance"])
def test_many_points_memory(weighting):
    observed, _ = _many_points_case(1, weighting, n=5_000, k=500)
    points = observed.xs[:40]
    # one (P (B+1), k) block for all 40 points would alone take 30.7 MiB
    peak = traced_peak_mib(lambda: mc_local_tests(observed, points, 200, DEFAULT_TEST_GAMMAS,
                                                  seeds=range(40)))
    assert peak < 8.0
