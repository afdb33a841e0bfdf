"""The counting uniform-weight local ECDF against the frozen stable-argsort copies.

Uniform weights once went through the weighted path: a stable argsort of each
row of neighbour PITs, a gather of the weights 1/k and a row-wise cumsum. They
now sort the PIT values alone and read each count from one cumulative table
of k weights 1/k. Both give the same doubles, so every comparison is ``==``.
The references are the frozen copies in ``test_batched_path`` (the per-x curve
of ``predict_matrix``) and ``test_mc_engine`` (the per-replicate curve of the
local test's neighbour block); inverse-distance weighting runs through the same
cases.
"""

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

import pitcal.rng as rngmod
from pitcal.calibrate import (
    CalibrationSet,
    IdentityPitCdf,
    LocalEmpiricalConfig,
    _gamma_rows,
    _uniform_ecdf,
    _weighted_ecdf,
    fit_local_empirical,
)
from pitcal.monotone_net import MonotoneNetConfig, MonotoneNetModel, _init_params
from test_batched_path import frozen_local_curve
from test_mc_engine import _OldLocal, old_query


def _levels(draw, rng, pits, size):
    """Unsorted levels mixing PIT values, the ends 0 and 1, a 1/20 lattice and uniforms."""
    pool = np.concatenate([pits, [0.0, 1.0], np.arange(21) / 20.0, rng.uniform(size=8)])
    kind = draw(st.sampled_from(["pool", "pits", "uniform"]))
    if kind == "pits":
        return rng.choice(pits, size=size)
    if kind == "uniform":
        return rng.uniform(-0.1, 1.1, size=size)
    return rng.choice(pool, size=size)


@st.composite
def ecdf_cases(draw):
    seed = draw(st.integers(min_value=0, max_value=10**6))
    rng = np.random.default_rng(seed)
    n = draw(st.integers(min_value=1, max_value=40))
    dim = draw(st.sampled_from([1, 2]))
    xs = rng.integers(-2, 3, size=(n, dim)) / 2.0 if draw(st.booleans()) \
        else rng.uniform(-1, 1, size=(n, dim))
    # coarse lattices tie PIT values, exact 0.0 and 1.0 among them
    m = draw(st.sampled_from([1, 2, 4, 20, None]))
    pits = rng.uniform(size=n) if m is None else rng.integers(0, m + 1, size=n) / m
    k = draw(st.sampled_from([1, n, None]))
    k = draw(st.integers(min_value=1, max_value=n)) if k is None else k
    weighting = draw(st.sampled_from(["uniform", "inverse-distance"]))
    n_rows = draw(st.integers(min_value=0, max_value=5))
    n_levels = draw(st.integers(min_value=1, max_value=12))
    if draw(st.booleans()):
        gammas = _levels(draw, rng, pits, n_levels)
    else:
        gammas = np.array([_levels(draw, rng, pits, n_levels) for _ in range(n_rows)])
        gammas = gammas.reshape(n_rows, n_levels)
    return {
        "model": fit_local_empirical(CalibrationSet(xs, np.zeros(n)), pits,
                                     LocalEmpiricalConfig(k=k, weighting=weighting)),
        "query": np.concatenate([xs, rng.uniform(-1.2, 1.2, size=(n, dim))])[
            rng.integers(0, 2 * n, size=n_rows)],
        "rows": ([pits] + [rng.integers(0, 5, size=n) / 4.0 for _ in range(n_rows)])[:n_rows],
        "gammas": gammas,
        "n_levels": n_levels,
    }


def _row(gammas, i):
    return gammas if gammas.ndim == 1 else gammas[i]


class TestMatchesStableArgsort:
    @settings(max_examples=150, deadline=None)
    @given(ecdf_cases())
    def test_predict_matrix_equals_frozen_curves(self, c):
        model, gammas = c["model"], c["gammas"]
        got = model.predict_matrix(gammas, c["query"])
        assert got.shape == (c["query"].shape[0], c["n_levels"])
        for i, x in enumerate(c["query"]):
            assert np.array_equal(got[i], frozen_local_curve(model, _row(gammas, i), x,
                                                             query=old_query))

    @settings(max_examples=150, deadline=None)
    @given(ecdf_cases())
    def test_predict_curves_equals_frozen_replicates(self, c):
        model, gammas = c["model"], c["gammas"]
        x = c["model"].xs[0]
        idx, w = model._neighborhoods(x[None, :])
        rows = np.reshape(c["rows"], (len(c["rows"]), model.xs.shape[0]))
        got = model._ecdf(rows[:, idx[0]], w, _gamma_rows(gammas, len(c["rows"])))
        assert got.shape == (len(c["rows"]), c["n_levels"])
        for i, row in enumerate(c["rows"]):
            want = _OldLocal(model, row).predict_curve(_row(gammas, i), x)
            assert np.array_equal(got[i], want)

    @settings(max_examples=100, deadline=None)
    @given(st.integers(min_value=0, max_value=10**6), st.integers(min_value=0, max_value=6),
           st.integers(min_value=1, max_value=30), st.integers(min_value=1, max_value=9))
    def test_counting_equals_uniform_weight_sums(self, seed, n_rows, k, n_levels):
        rng = np.random.default_rng(seed)
        pits = rng.integers(0, 5, size=(n_rows, k)) / 4.0
        gammas = rng.choice(np.concatenate([np.arange(9) / 8.0, [-0.5, 1.5]]),
                            size=(n_rows, n_levels))
        got = _uniform_ecdf(pits, gammas)
        assert got.shape == (n_rows, n_levels)
        assert np.array_equal(got, _weighted_ecdf(pits, np.full(pits.shape, 1.0 / k), gammas))


def _net_model():
    rng = np.random.default_rng(0)
    hidden = (4,)
    return MonotoneNetModel(_init_params(1, hidden, rng), hidden, np.zeros(1), np.ones(1),
                            MonotoneNetConfig(hidden_layers=hidden))


@pytest.mark.parametrize("make", [
    IdentityPitCdf,
    _net_model,
    lambda: fit_local_empirical(CalibrationSet(np.linspace(0, 1, 9), np.zeros(9)),
                                np.linspace(0, 1, 9), LocalEmpiricalConfig(k=3)),
    lambda: fit_local_empirical(CalibrationSet(np.linspace(0, 1, 9), np.zeros(9)),
                                np.linspace(0, 1, 9),
                                LocalEmpiricalConfig(k=3, weighting="inverse-distance")),
], ids=["identity", "monotone-net", "local-uniform", "local-inverse-distance"])
def test_zero_row_batch_has_one_column_per_level(make):
    model = make()
    gammas = np.linspace(0.0, 1.0, 5)
    assert model.predict_matrix(gammas, np.zeros((0, 1))).shape == (0, 5)
    assert model.predict_matrix(np.zeros((0, 5)), np.zeros((0, 1))).shape == (0, 5)
    if hasattr(model, "_ecdf"):
        _, w = model._neighborhoods(np.array([[0.5]]))
        assert model._ecdf(np.zeros((0, 3)), w, np.zeros((0, 5))).shape == (0, 5)


@pytest.mark.parametrize("n", [0, 1, 7, 10000])
def test_null_draw_random_equals_uniform(n):
    for seed, b in [(0, 0), (3, 17), (2**31, 199)]:
        got = rngmod.derived_rng(seed, "null-pits", b).random(n)
        want = rngmod.derived_rng(seed, "null-pits", b).uniform(size=n)
        assert got.dtype == want.dtype and np.array_equal(got, want)
