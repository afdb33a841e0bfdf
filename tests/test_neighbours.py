"""The sorted window and the scan of all rows against a k-d tree.

With one feature, :class:`StandardizedNeighbours` answers from a contiguous
run of the stably sorted column instead of a ``cKDTree``. The tree built here
on the same standardized rows is the reference. Sorted distances must be
bit-equal everywhere. Where the k-th distance is unique the neighbour sets
must be equal, and the KNN mean and the local ECDF within 1e-12 (only the
order of tied rows may differ there). Where it is not, the tree's pick among
the tied rows is its own, so the window is held to its stated rule instead:
in the stable sort s of the column, the run of k rows starting at the
smallest l with q - s[l] <= s[l + k] - q, in stable distance order.

With 2 to 7 features and k >= n // 10 it scans all rows in row blocks. On
tie-free data its ``(dist, idx)`` equal the tree's. On lattice features, where
distances tie, it is held to its rule instead: the k smallest keys
(squared distance, row), in key order, which a full sort gives.
"""

import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st
from scipy.spatial import cKDTree

from pitcal.baselines import KnnMeanRegressor
from pitcal.calibrate import CalibrationSet, LocalEmpiricalConfig, LocalEmpiricalModel
from pitcal.errors import InsufficientData
from pitcal.models import standardize
from pitcal.synthgen import sample_example2
from test_batched_path import frozen_local_curve


@st.composite
def one_feature_cases(draw):
    seed = draw(st.integers(min_value=0, max_value=10**6))
    rng = np.random.default_rng(seed)
    n = draw(st.integers(min_value=1, max_value=60))
    kind = draw(st.sampled_from(["uniform", "lattice", "mirror"]))
    if kind == "uniform":
        xs = rng.uniform(-1, 1, size=n)
    elif kind == "lattice":
        # duplicated values: ties inside runs and at their ends
        xs = rng.integers(-3, 4, size=n) / 4.0
    else:
        # +-v pairs on a quarter lattice: the mean is exactly 0, so a query at 0
        # is exactly as far from each row as from its mirror image
        half = rng.integers(0, 5, size=n // 2) / 4.0
        xs = rng.permutation(np.concatenate([half, -half, np.zeros(n % 2)]))
    k = draw(st.sampled_from([1, n, None]))
    k = draw(st.integers(min_value=1, max_value=n)) if k is None else k
    queries = np.concatenate([xs, [0.0], (xs[:-1] + xs[1:]) / 2.0, rng.uniform(-1.5, 1.5, size=5)])
    return xs, rng.standard_normal(n), k, queries


def tree_query(xs, mean, scale, queries, k):
    tree = cKDTree(standardize(xs, mean, scale))
    dist, idx = tree.query(standardize(queries, mean, scale), k=k)
    return dist.reshape(len(queries), k), idx.reshape(len(queries), k)


def assert_window_rule(s, q, dist, idx):
    """``idx`` is the run of the stable sort ``s[order]`` that starts at the smallest l
    with q - s[l] <= s[l + k] - q, in stable distance order."""
    k = idx.size
    order = np.argsort(s, kind="stable")
    rank = np.empty_like(order)
    rank[order] = np.arange(s.size)
    lo = rank[idx].min()
    assert sorted(rank[idx].tolist()) == list(range(lo, lo + k))
    run = s[order]
    assert lo + k == s.size or q - run[lo] <= run[lo + k] - q
    assert lo == 0 or q - run[lo - 1] > run[lo + k - 1] - q
    d = run[lo:lo + k] - q
    d = np.sqrt(d * d)
    assert np.array_equal(idx, order[lo:lo + k][np.argsort(d, kind="stable")])
    assert np.array_equal(dist, np.sort(d))


class TestWindowMatchesTree:
    @settings(max_examples=300, deadline=None)
    @given(one_feature_cases())
    def test_sets_distances_and_tie_rule(self, c):
        xs, ys, k, queries = c
        reg = KnnMeanRegressor(CalibrationSet(xs, ys), k=k)
        dist, idx = reg._query(queries)
        want_dist, want_idx = tree_query(xs, reg.mean, reg.scale, queries, k)
        assert np.array_equal(dist, want_dist)
        if k < xs.size:
            next_dist = tree_query(xs, reg.mean, reg.scale, queries, k + 1)[0][:, -1]
            unique = next_dist > want_dist[:, -1]
        else:
            unique = np.ones(len(queries), dtype=bool)
        for i in np.flatnonzero(unique):
            assert set(idx[i].tolist()) == set(want_idx[i].tolist())
        np.testing.assert_allclose(reg.predict(queries)[unique],
                                   ys[want_idx[unique]].mean(axis=1), rtol=0, atol=1e-12)
        s = standardize(xs, reg.mean, reg.scale)[:, 0]
        for q, d, i in zip(standardize(queries, reg.mean, reg.scale)[:, 0], dist, idx):
            assert_window_rule(s, q, d, i)

    @settings(max_examples=150, deadline=None)
    @given(one_feature_cases(), st.sampled_from(["uniform", "inverse-distance"]))
    def test_local_ecdf_where_the_kth_distance_is_unique(self, c, weighting):
        xs, ys, k, queries = c
        pits = np.random.default_rng(k).integers(0, 9, size=xs.size) / 8.0
        model = LocalEmpiricalModel(xs, pits, LocalEmpiricalConfig(k=k, weighting=weighting))
        gammas = np.arange(11) / 10.0
        got = model.predict_matrix(gammas, queries)
        dist = tree_query(xs, model.mean, model.scale, queries, min(k + 1, xs.size))[0]
        for i, x in enumerate(queries):
            if k == xs.size or dist[i, -1] > dist[i, k - 1]:
                np.testing.assert_allclose(got[i], frozen_local_curve(model, gammas, x),
                                           rtol=0, atol=1e-12)


def test_example2_neighbours_equal_the_tree():
    data = sample_example2("skewed", 4000, seed=3)
    reg = KnnMeanRegressor(data.cal, k=50)
    queries = np.concatenate([data.cal.xs, np.random.default_rng(1).uniform(-1.2, 1.2, (500, 1))])
    dist, idx = reg._query(queries)
    want_dist, want_idx = tree_query(data.cal.xs, reg.mean, reg.scale, queries, 50)
    assert np.array_equal(idx, want_idx) and np.array_equal(dist, want_dist)
    assert reg._tree is None


def test_far_query_and_too_large_k_have_too_few_neighbours():
    xs = np.linspace(-1, 1, 9)
    reg = KnnMeanRegressor(CalibrationSet(xs, np.zeros(9)), k=3)
    with pytest.raises(InsufficientData, match=r"feature row \(1e\+300\) is too far"):
        reg.predict(np.array([0.0, 1e300]))
    model = LocalEmpiricalModel(xs, np.linspace(0, 1, 9), LocalEmpiricalConfig(k=10))
    with pytest.raises(InsufficientData):
        model.predict_matrix(np.array([0.5]), np.array([0.0]))
    assert model.predict_matrix(np.array([0.5]), np.zeros((0, 1))).shape == (0, 1)


@pytest.mark.parametrize("d, k", [(1, 10), (2, 10), (8, 10)])  # window, scan, tree
def test_k_above_the_rows_reads_as_the_tree_answers(d, k):
    xs = np.random.default_rng(d).standard_normal((9, d))
    model = LocalEmpiricalModel(xs, np.linspace(0, 1, 9), LocalEmpiricalConfig(k=k))
    assert (model._tree is not None) == (d == 8)
    with pytest.raises(InsufficientData, match=f"too far from the data for {k} neighbours"):
        model._query(np.zeros((2, d)))
    dist, idx = model._query(np.zeros((0, d)))
    assert dist.shape == idx.shape == (0, k)


# ----------------------------------------------------------------------
# the scan: 2 to 7 features with k >= n // 10
# ----------------------------------------------------------------------

@pytest.mark.parametrize("n, k", [(19, 1), (1500, 150), (1500, 1500)])
@pytest.mark.parametrize("d", range(2, 8))
def test_scan_equals_the_tree_on_tie_free_data(d, n, k):
    rng = np.random.default_rng(100 * d + k)
    xs = rng.standard_normal((n, d))
    # two and a half blocks of 2**18 // (4 * n) queries, half of them rows of the data
    m = 5 * (2**18 // (4 * n)) // 2
    queries = np.concatenate([xs[rng.integers(0, n, m // 2)], rng.standard_normal((m - m // 2, d))])
    reg = KnnMeanRegressor(CalibrationSet(xs, rng.standard_normal(n)), k=k)
    assert reg._tree is None and reg._columns.shape == (d, n)
    dist, idx = reg._query(queries)
    want_dist, want_idx = tree_query(xs, reg.mean, reg.scale, queries, k)
    assert np.array_equal(dist, want_dist) and np.array_equal(idx, want_idx)


def full_sort_query(xs, mean, scale, queries, k):
    """The k smallest keys (squared distance, row) of each query from a full sort, and their
    distances; squared differences are summed one feature at a time."""
    s, q = standardize(xs, mean, scale), standardize(queries, mean, scale)
    d2 = np.zeros((q.shape[0], s.shape[0]))
    for j in range(s.shape[1]):
        d2 += (q[:, j, None] - s[None, :, j]) ** 2
    rows = np.broadcast_to(np.arange(s.shape[0]), d2.shape)
    idx = np.lexsort((rows, d2))[:, :k]
    return np.sqrt(np.take_along_axis(d2, idx, axis=1)), idx


@st.composite
def lattice_cases(draw):
    """Lattice features: tied distances inside each neighbourhood and at its k-th place."""
    rng = np.random.default_rng(draw(st.integers(min_value=0, max_value=10**6)))
    d = draw(st.integers(min_value=2, max_value=4))
    n = draw(st.integers(min_value=2, max_value=120))
    xs = rng.integers(-2, 3, size=(n, d)) / 2.0
    k = draw(st.integers(min_value=max(1, n // 10), max_value=n))
    queries = np.concatenate([xs, rng.integers(-5, 6, size=(20, d)) / 4.0])
    return xs, rng.integers(0, 5, size=n) / 4.0, k, queries


@settings(max_examples=150, deadline=None)
@given(lattice_cases(), st.sampled_from(["uniform", "inverse-distance"]))
def test_scan_ties_follow_the_row_order(c, weighting):
    xs, pits, k, queries = c
    model = LocalEmpiricalModel(xs, pits, LocalEmpiricalConfig(k=k, weighting=weighting))
    reg = KnnMeanRegressor(CalibrationSet(xs, pits), k=k)
    assert model._tree is None and reg._tree is None
    want_dist, want_idx = full_sort_query(xs, model.mean, model.scale, queries, k)
    dist, idx = model._query(queries)
    assert np.array_equal(dist, want_dist) and np.array_equal(idx, want_idx)
    assert np.array_equal(reg.predict(queries), pits[want_idx].mean(axis=1))
    gammas = np.arange(9) / 8.0
    got = model.predict_matrix(gammas, queries)
    for i, x in enumerate(queries):
        want = frozen_local_curve(model, gammas, x,
                                  query=lambda m, x, i=i: (want_dist[i], want_idx[i]))
        assert np.array_equal(got[i], want)


@pytest.mark.parametrize("d, n, k, search", [
    (1, 1000, 5, "window"), (1, 1000, 1000, "window"),
    (2, 1000, 100, "scan"), (7, 1000, 100, "scan"), (2, 5, 1, "scan"),
    (2, 1000, 99, "tree"), (3, 1000, 5, "tree"), (8, 1000, 1000, "tree")])
def test_the_build_picks_window_scan_or_tree(d, n, k, search):
    rng = np.random.default_rng(d + k)
    reg = KnnMeanRegressor(CalibrationSet(rng.standard_normal((n, d)), np.zeros(n)), k=k)
    picked = "tree" if reg._tree is not None else "scan" if hasattr(reg, "_columns") else "window"
    assert picked == search


def test_scan_too_large_k_and_far_query_have_too_few_neighbours():
    xs = np.random.default_rng(0).standard_normal((9, 2))
    model = LocalEmpiricalModel(xs, np.linspace(0, 1, 9), LocalEmpiricalConfig(k=10))
    assert model._tree is None
    with pytest.raises(InsufficientData):
        model.predict_matrix(np.array([0.5]), np.zeros((1, 2)))
    reg = KnnMeanRegressor(CalibrationSet(xs, np.zeros(9)), k=3)
    with pytest.raises(InsufficientData, match=r"feature row \(1e\+300, 0\.0\) is too far"):
        reg.predict(np.array([[0.0, 0.0], [1e300, 0.0]]))


@pytest.mark.parametrize("d, k", [(1, 3), (2, 3), (2, 1)])  # window, scan, tree
def test_nan_feature_raises(d, k):
    xs = np.random.default_rng(d).standard_normal((40, d))
    model = LocalEmpiricalModel(xs, np.linspace(0, 1, 40), LocalEmpiricalConfig(k=k))
    with pytest.raises(ValueError):
        model.predict_matrix(np.array([0.5]), np.full((1, d), np.nan))


def traced_peak_mib(f):
    """Peak traced allocation, in MiB, while ``f()`` runs; numpy reports its buffers."""
    tracemalloc.start()
    try:
        f()
        return tracemalloc.get_traced_memory()[1] / 2**20
    finally:
        tracemalloc.stop()


def test_scan_memory():
    rng = np.random.default_rng(4)
    xs, queries = rng.standard_normal((20_000, 2)), rng.standard_normal((20_000, 2))
    reg = KnnMeanRegressor(CalibrationSet(xs, rng.standard_normal(20_000)), k=2_000)
    assert reg._tree is None
    # the KNN mean passes (32, 2) query blocks; a (32, n) array of them alone is 4.9 MiB
    assert traced_peak_mib(lambda: reg.predict(queries)) < 16.0
    # 1,000 queries in one call: (dist, idx) take 30.5 MiB, a (1000, n) array 153 MiB
    out_mib = 2 * 1_000 * 2_000 * 8 / 2**20
    assert traced_peak_mib(lambda: reg._query(queries[:1_000])) < out_mib + 16.0
