"""Passes over many rows run in row blocks of ``grid.map_row_blocks``, bit for bit.

``compute_pit_values`` (width G), ``KnnMeanRegressor.predict`` (width 4k),
and ``ndtri`` and ``ndtr`` (width 18: each element gathers a (9, 2) coefficient
table) walk their rows in blocks of at most 2**18 // width rows. The references
below are frozen copies of the one-shot code they replaced, which built every
row's temporaries at once; every comparison is ``==``, NaN equal to NaN. The
row counts straddle each pass's block boundary. The last group checks the
working memory under ``tracemalloc``, which sees numpy's buffers.
"""

import functools
import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from pitcal.baselines import KnnMeanRegressor, fit_knn_mean
from pitcal.calibrate import CalibrationSet, RecalibratedInitialModel, compute_pit_values
from pitcal.errors import InsufficientData
from pitcal.grid import _pit_rows, cdf_rows_from_density_rows, map_row_blocks
from pitcal.models import GaussianInitialModel, standardize
from pitcal.monotone_net import MonotoneNetModel, _forward
from pitcal.normal import (_EXPM2, _MAXLOG, _NDTR, _NDTRI, _S2PI, _SQRT1_2, _rational, ndtr,
                           ndtri)
from pitcal.pipeline import build_initial, fit_pit_model, split_calibration
from pitcal.synthgen import TwoGroupConfig, sample_example1, sample_example2

G = 201
NET = {"hidden_layers": (8, 8), "max_epochs": 1, "batch_size": 256}


def sizes(width):
    """Row counts around the block boundary of a pass of ``width`` values per row."""
    b = 2**18 // width
    return [1, b - 1, b, b + 1, 3 * b + 7]


# ----------------------------------------------------------------------
# frozen references: the one-shot code
# ----------------------------------------------------------------------

def frozen_ndtri(y):
    y = np.asarray(y, dtype=float)
    w = y - 0.5
    central = (y > _EXPM2) & (y <= 1.0 - _EXPM2)
    with np.errstate(divide="ignore", invalid="ignore"):
        x = np.sqrt(-2.0 * np.log(np.minimum(y, 1.0 - y)))
        v = np.where(central, w * w, 1.0 / x)
        ratio = _rational(_NDTRI, central + 2 * (x >= 8.0), v, v)
        tail = np.copysign(x - np.minimum(np.log(x), 1e300) / x - ratio, w)
        out = np.where(central, (w + w * ratio) * _S2PI, tail)
    return out[()]


def frozen_ndtr(a):
    a = np.asarray(a, dtype=float)
    x = a * _SQRT1_2
    z = np.abs(x)
    erf_side = z < 1.0
    with np.errstate(over="ignore", invalid="ignore"):
        s = x * x
        e = np.exp(-s) * (s <= _MAXLOG)
        v = np.where(erf_side, s, np.minimum(z, 40.0))
        r = _rational(_NDTR, erf_side + 2 * (z >= 8.0), v, np.where(erf_side, x, e))
        half = 0.5 * np.where(erf_side, 1.0 - np.abs(r), r)
        out = np.where(z < _SQRT1_2, 0.5 + 0.5 * r, np.where(x > 0.0, 1.0 - half, half))
    return out[()]


def frozen_mono_inputs(gamma):
    g = np.clip(gamma, 1e-7, 1.0 - 1e-7)
    probit = frozen_ndtri(g)
    return np.column_stack([g, 0.25 * np.log(g / (1.0 - g)), 0.25 * probit,
                            0.5 * np.arcsinh(probit)])


def frozen_knn_predict(knn, xs):
    return knn._ys[knn._query(xs)[1]].mean(axis=1)


def frozen_net_matrix(net, gammas, xs):
    xs_std = standardize(xs, net.mean, net.scale)
    gammas = np.asarray(gammas, dtype=float)
    rows = np.broadcast_to(gammas, (xs_std.shape[0], gammas.shape[-1]))
    return _forward(net.params, net.positive, net.hidden, xs_std,
                    frozen_mono_inputs(rows.ravel())).reshape(rows.shape)


def frozen_cdf_rows(model, xs):
    """All rows' initial CDFs at once, for each kind of model these tests build."""
    if isinstance(model, GaussianInitialModel):
        z = (model.grid.points[None, :] - frozen_knn_predict(model.mean_fn, xs)[:, None]) \
            / model.sd_fn
        dens = 1.0 / np.sqrt(2.0 * np.pi) * np.exp(-0.5 * z * z) / model.sd_fn
        return cdf_rows_from_density_rows(model.grid.points, dens)
    if isinstance(model, RecalibratedInitialModel):
        base, r = frozen_cdf_rows(model.base_model, xs), model.r
        vals = (frozen_net_matrix(r, base, xs) if isinstance(r, MonotoneNetModel)
                else r.predict_matrix(base, xs))
        vals = np.clip(np.maximum.accumulate(vals, axis=1), 0.0, 1.0)
        vals[:, 0], vals[:, -1] = 0.0, 1.0
        return vals
    return model.cdf_matrix(xs)  # feature-independent: one cached row


def frozen_pit_values(model, cal):
    return _pit_rows(model.grid.points, frozen_cdf_rows(model, cal.xs), cal.ys)


# ----------------------------------------------------------------------
# models
# ----------------------------------------------------------------------

@functools.cache
def fitted():
    """The initial models, each with its calibration rows, and the network; built once."""
    ex2 = sample_example2("skewed", 8000, 31)
    ex1 = sample_example1(TwoGroupConfig(), 8000, 32)
    (train2, cal2), (train1, cal1) = (split_calibration(d.cal, 0.5) for d in (ex2, ex1))
    gauss2 = build_initial("gaussian-fit", ex2.grid, train2)
    small = CalibrationSet(cal2.xs[:300], cal2.ys[:300])
    uniform = build_initial("uniform", ex2.grid, train2)
    local = fit_pit_model(small, compute_pit_values(uniform, small), "local", 3, k=40)
    net = fit_pit_model(small, compute_pit_values(gauss2, small), "net", 3, k_factor=3, net=NET)
    models = {
        "uniform": (uniform, cal2),
        "marginal": (build_initial("marginal", ex2.grid, train2), cal2),
        "gaussian-fit": (gauss2, cal2),
        "gaussian-fit-2d": (build_initial("gaussian-fit", ex1.grid, train1), cal1),
        "local-map": (RecalibratedInitialModel(uniform, local), cal2),
        "net-map": (RecalibratedInitialModel(gauss2, net), cal2),
    }
    return models, net


def head(cal, n, start=0):
    return CalibrationSet(cal.xs[start:start + n], cal.ys[start:start + n])


# ----------------------------------------------------------------------
# the helper
# ----------------------------------------------------------------------

@pytest.mark.parametrize("n, width", [(0, 5), (1, 5), (10, 2**18), (10, 2**19), (7, 0),
                                      (2**18 + 1, 1), (100_000, 201)])
def test_map_row_blocks_joins_blocks_in_order(n, width):
    seen = []
    rows = np.arange(n, dtype=float)
    got = map_row_blocks(lambda a, b: seen.append(a.size) or a + b, width, rows, 2.0 * rows)
    assert np.array_equal(got, 3.0 * rows)
    step = max(1, 2**18 // max(width, 1))
    assert seen == ([min(step, n - i) for i in range(0, n, step)] if n else [0])


# ----------------------------------------------------------------------
# differential tests
# ----------------------------------------------------------------------

KINDS = ["uniform", "marginal", "gaussian-fit", "gaussian-fit-2d", "local-map", "net-map"]


@pytest.mark.parametrize("n", sizes(G))
@pytest.mark.parametrize("kind", KINDS)
def test_pit_values_equal_one_shot(kind, n):
    model, cal = fitted()[0][kind]
    cal = head(cal, n)
    got = compute_pit_values(model, cal)
    assert got.shape == (n,)
    assert np.array_equal(got, frozen_pit_values(model, cal))


@settings(max_examples=25, deadline=None)
@given(kind=st.sampled_from(KINDS), n=st.integers(1, sizes(G)[-1]),
       start=st.integers(0, 50))
def test_pit_values_equal_one_shot_property(kind, n, start):
    model, cal = fitted()[0][kind]
    cal = head(cal, n, start)
    assert np.array_equal(compute_pit_values(model, cal), frozen_pit_values(model, cal))


@pytest.mark.parametrize("kind, x", [("gaussian-fit", [1e300]),
                                     ("gaussian-fit-2d", [1e300, -2.5])])
def test_far_row_past_the_first_block_is_named_by_its_features(kind, x):
    model, cal = fitted()[0][kind]
    xs = cal.xs[:3000].copy()
    xs[2000] = x  # past the first PIT block (1304 rows) and the first KNN block (1310)
    with pytest.raises(InsufficientData) as exc:
        compute_pit_values(model, CalibrationSet(xs, cal.ys[:3000]))
    assert str(exc.value) == (f"feature row ({', '.join(map(repr, x))}) is too far from the "
                              "data for 50 neighbours")


@pytest.mark.parametrize("n", sizes(4 * 50))
@pytest.mark.parametrize("kind", ["gaussian-fit", "gaussian-fit-2d"])
def test_knn_predict_equals_one_shot(kind, n):
    model, cal = fitted()[0][kind]
    knn = model.mean_fn
    assert isinstance(knn, KnnMeanRegressor) and knn.k == 50
    xs = cal.xs[:n]
    assert np.array_equal(knn.predict(xs), frozen_knn_predict(knn, xs))
    if xs.shape[1] == 1:  # (n,) is n one-feature rows
        assert np.array_equal(knn.predict(xs[:, 0]), frozen_knn_predict(knn, xs))


def test_knn_call_is_one_row():
    models = fitted()[0]
    for kind in ("gaussian-fit", "gaussian-fit-2d"):
        knn, cal = models[kind][0].mean_fn, models[kind][1]
        for x in cal.xs[:5]:  # a (d,) point, d = 1 and 2
            assert knn(x) == float(frozen_knn_predict(knn, x)[0])
            assert knn.predict(x).shape == (1,)
    small = fit_knn_mean(head(models["gaussian-fit"][1], 30), k=7)
    assert small.predict(np.zeros((0, 1))).shape == (0,)


def _levels(n, rng):
    """Levels in and around [0, 1]: uniform draws, deep tails and every special value."""
    y = rng.uniform(size=n)
    tails = 10.0 ** -rng.uniform(300, 323, size=n)
    y = np.where(rng.uniform(size=n) < 0.1, tails, y)
    y = np.where(rng.uniform(size=n) < 0.05, 1.0 - rng.uniform(0, 1e-3, size=n), y)
    special = np.array([0.0, 1.0, np.nan, -1.0, 2.0, np.inf, -np.inf, 5e-324, 1e-300, _EXPM2,
                        1.0 - _EXPM2, np.nextafter(1.0, 0.0), 0.5])
    y[rng.integers(0, n, size=min(n, 40))] = rng.choice(special, size=min(n, 40))
    y[:min(n, special.size)] = special[:min(n, special.size)]
    return y


def _points(n, rng):
    """Points across both branches of ndtr, the tails below 1e-300 and the special values."""
    a = rng.normal(scale=12.0, size=n)
    special = np.array([0.0, -0.0, 1.0, -1.0, np.sqrt(2.0), -8 * np.sqrt(2.0), -37.6, -38.5,
                        -40.0, 40.0, 1e300, -1e300, np.inf, -np.inf, np.nan])
    a[rng.integers(0, n, size=min(n, 40))] = rng.choice(special, size=min(n, 40))
    a[-min(n, special.size):] = special[:min(n, special.size)]
    return a


NORMAL = [(ndtri, frozen_ndtri, _levels), (ndtr, frozen_ndtr, _points)]


@pytest.mark.parametrize("n", sizes(_NDTRI[..., 0].size))
@pytest.mark.parametrize("fn, frozen, values", NORMAL, ids=["ndtri", "ndtr"])
def test_normal_equals_one_shot(fn, frozen, values, n):
    v = values(n, np.random.default_rng(n))
    got = fn(v)
    assert got.shape == (n,) and got.dtype == np.float64
    assert np.array_equal(got, frozen(v), equal_nan=True)


@pytest.mark.parametrize("fn, frozen, values", NORMAL, ids=["ndtri", "ndtr"])
def test_normal_any_shape_equals_one_shot(fn, frozen, values):
    v = values(9 * 4856, np.random.default_rng(5))  # three blocks and a part
    for x in (v.reshape(3, -1), v.reshape(9, -1).T, v[:0].reshape(0, 4)):
        got = fn(x)
        assert got.shape == x.shape
        assert np.array_equal(got, frozen(x), equal_nan=True)
    for x in list(v[:60]) + [np.float64(v[100]), np.asarray(v[101]), 0.0, 1.0, float("nan")]:
        got = fn(x)
        assert type(got) is np.float64
        assert np.array_equal(got, frozen(x), equal_nan=True)
    assert np.array_equal(fn(v.tolist()[:50]), frozen(v[:50]), equal_nan=True)


# ----------------------------------------------------------------------
# working memory
# ----------------------------------------------------------------------

def traced_peak_mib(f):
    """Peak traced allocation, in MiB, while ``f()`` runs; numpy reports its buffers."""
    tracemalloc.start()
    try:
        f()
        return tracemalloc.get_traced_memory()[1] / 2**20
    finally:
        tracemalloc.stop()


@pytest.fixture(scope="module")
def large_ex2():
    data = sample_example2("skewed", 100_000, 230)
    train, cal = split_calibration(data.cal, 0.5)
    return cal, build_initial("gaussian-fit", data.grid, train)


def test_pit_pass_memory(large_ex2):
    cal, initial = large_ex2
    assert len(cal) == 50_000
    assert traced_peak_mib(lambda: compute_pit_values(initial, cal)) < 16.0


def test_knn_predict_memory(large_ex2):
    cal, initial = large_ex2
    assert traced_peak_mib(lambda: initial.mean_fn.predict(cal.xs)) < 8.0


@pytest.mark.parametrize("fn, values", [(ndtri, _levels), (ndtr, _points)], ids=["ndtri", "ndtr"])
def test_normal_memory(fn, values):
    v = values(200_000, np.random.default_rng(7))
    assert traced_peak_mib(lambda: fn(v)) < 8.0
