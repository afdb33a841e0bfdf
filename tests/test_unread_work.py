"""The identities behind four shortcuts that skip work no output reads.

* The KNN mean reads the responses in the sorted column's order at the
  window's positions, never mapping them to rows: it must equal
  ``ys[idx].mean(axis=1)`` with ``idx`` the rows of the neighbours.
* The Gaussian density and its CDF are built in place in two buffers: the
  PIT values must equal a frozen copy of the code that built them with
  temporaries.
* The null draws keep the raw PCG64 words at the neighbours only and turn
  them into doubles as ``Generator.random`` does: ``(w >> 11) * 2**-53``.
* The CSV reader parses with numpy's C reader wherever that reads a value as
  ``float`` does; elsewhere ``float`` parses.
"""

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

import pitcal.rng as rngmod
from pitcal.baselines import KnnMeanRegressor
from pitcal.calibrate import CalibrationSet, compute_pit_values
from pitcal.errors import PitcalError
from pitcal.grid import _BLOCK_FLOATS, YGrid, _pit_rows
from pitcal.models import GaussianInitialModel, UniformInitialModel
from test_dataio import assert_same_outcome
from test_neighbours import traced_peak_mib

SEEDS = st.integers(min_value=0, max_value=2**32 - 1)


# ----------------------------------------------------------------------
# the KNN mean
# ----------------------------------------------------------------------

def assert_mean_reads_the_rows(xs, k, seed):
    rng = np.random.default_rng(seed)
    ys = rng.standard_normal(xs.shape[0])
    reg = KnnMeanRegressor(CalibrationSet(xs, ys), k=k)
    queries = np.concatenate([xs, xs + rng.standard_normal(xs.shape) / 3.0])
    _, idx = reg._query(queries)
    assert np.array_equal(reg.predict(queries), ys[idx].mean(axis=1))
    return reg


@settings(max_examples=60, deadline=None)
@given(n=st.integers(1, 300), levels=st.integers(1, 12), k=st.integers(1, 300), seed=SEEDS)
def test_knn_mean_on_one_tied_feature(n, levels, k, seed):
    xs = np.random.default_rng(seed).integers(0, levels, size=(n, 1)) / 2.0
    reg = assert_mean_reads_the_rows(xs, min(k, n), seed)
    assert reg._order is not None


@settings(max_examples=40, deadline=None)
@given(n=st.integers(20, 400), scan=st.booleans(), seed=SEEDS)
def test_knn_mean_on_two_features(n, scan, seed):
    xs = np.random.default_rng(seed).standard_normal((n, 2))
    reg = assert_mean_reads_the_rows(xs, n // 10 + (1 if scan else -1), seed)
    assert (reg._tree is None) == scan and reg._order is None


# ----------------------------------------------------------------------
# the Gaussian PIT pass
# ----------------------------------------------------------------------

class Identity:
    """A mean function that returns each row's one feature: the rows are the means."""

    @staticmethod
    def predict(xs):
        return xs[:, 0].copy()


def frozen_gaussian_pits(model, mu, ys):
    """Density, then cumulative trapezoids, then ``_pit_rows``, with temporaries."""
    pts = model.grid.points
    z = (pts[None, :] - mu[:, None]) / model.sd_fn
    dens = 1.0 / np.sqrt(2.0 * np.pi) * np.exp(-0.5 * z * z) / model.sd_fn
    seg = 0.5 * (dens[:, 1:] + dens[:, :-1])
    seg *= np.diff(pts)
    cum = np.empty(dens.shape)
    cum[:, 0] = 0.0
    np.cumsum(seg, axis=1, out=cum[:, 1:])
    total = cum[:, -1:].copy()
    if np.any(total <= 0):
        return "DegenerateDensity"
    cum /= total
    np.clip(cum, 0.0, 1.0, out=cum)
    cum[:, -1] = 1.0
    return _pit_rows(pts, cum, ys)


@settings(max_examples=40, deadline=None)
@given(g=st.integers(3, 400), blocks=st.integers(1, 3), sd=st.floats(1e-3, 1e3),
       spread=st.floats(1e-2, 1e2), seed=SEEDS)
def test_gaussian_pits_equal_frozen(g, blocks, sd, spread, seed):
    rng = np.random.default_rng(seed)
    grid = YGrid(np.cumsum(rng.uniform(0.01, 1.0, g)) * spread / g)
    step = _BLOCK_FLOATS // (2 * g)
    n = min(rng.integers((blocks - 1) * step + 1, blocks * step + 1), 20_000)
    mu = rng.uniform(grid.lo - spread / 4, grid.hi + spread / 4, n)
    ys = rng.uniform(grid.lo - spread / 10, grid.hi + spread / 10, n)
    model = GaussianInitialModel(grid, Identity(), sd)
    want = frozen_gaussian_pits(model, mu, ys)
    try:
        got = compute_pit_values(model, CalibrationSet(mu[:, None], ys))
    except PitcalError as exc:
        assert type(exc).__name__ == want
        return
    assert np.array_equal(got, want)


def test_gaussian_pit_pass_holds_two_buffers():
    """Blocks of 2**18 // (2 G) rows, each with its density and CDF live: 2 MiB, plus
    the PIT values of 50,000 rows (0.4 MiB) and their join."""
    rng = np.random.default_rng(5)
    model = GaussianInitialModel(YGrid(np.linspace(-4.0, 4.0, 201)), Identity(), 0.7)
    cal = CalibrationSet(rng.standard_normal((50_000, 1)), rng.standard_normal(50_000))
    assert traced_peak_mib(lambda: compute_pit_values(model, cal)) < 3.2


def test_pit_pass_blocks_count_the_buffers_a_model_builds():
    """A density model's blocks hold 2**18 // (2 G) rows; a model that returns its CDF
    rows itself, such as the uniform model, builds one buffer at most: 2**18 // G."""
    grid, seen = YGrid(np.linspace(-4.0, 4.0, 201)), []

    class Counted(Identity):
        def predict(self, xs):
            seen.append(len(xs))
            return super().predict(xs)

    class CdfRows:
        def __init__(self):
            self.grid = grid

        def cdf_matrix(self, xs):
            seen.append(len(xs))
            return UniformInitialModel(grid).cdf_matrix(xs)

    cal = CalibrationSet(np.zeros((2_000, 1)), np.zeros(2_000))
    compute_pit_values(GaussianInitialModel(grid, Counted(), 0.7), cal)
    assert seen == [652, 652, 652, 44]
    seen.clear()
    compute_pit_values(CdfRows(), cal)
    assert seen == [1304, 696]


# ----------------------------------------------------------------------
# the null draws
# ----------------------------------------------------------------------

@settings(max_examples=40, deadline=None)
@given(root=st.integers(-2**127, 2**127 - 1), n=st.integers(0, 3000), count=st.integers(1, 4))
def test_raw_words_make_generator_doubles(root, n, count):
    raw = rngmod.derived_rngs(root, "null-pits", count=count)
    ref = rngmod.derived_rngs(root, "null-pits", count=count)
    for a, b in zip(raw, ref):
        for size in (n, 7):  # a second read continues each stream
            got = (a.bit_generator.random_raw(size) >> np.uint64(11)) * 2.0**-53
            assert np.array_equal(got, b.random(size))


# ----------------------------------------------------------------------
# the CSV reader
# ----------------------------------------------------------------------

# ASCII values numpy's C parser and float may read differently, around valid numbers
ODD_ASCII = st.sampled_from(["\x1c1", "1\x1d", " \x1e2.5", "3\x1f ", "1\x00", "\x002", "1_0",
                             "_1", "1__0", "\x0b4\x0c", "\t5", "1e5_0", "0x10", "nan", "-inf"])
GOOD = st.floats(allow_nan=False, allow_infinity=False).map(repr)


@settings(max_examples=150, deadline=None)
@given(fields=st.lists(st.one_of(GOOD, GOOD, ODD_ASCII), min_size=2, max_size=24))
def test_reader_agrees_with_float_on_ascii_oddities(tmp_path_factory, fields):
    rows = [",".join(fields[i:i + 2]) for i in range(0, len(fields) - 1, 2)]
    path = tmp_path_factory.mktemp("csv") / "data.csv"
    path.write_bytes(("x0,y\n" + "\n".join(rows) + "\n").encode("utf-8"))
    assert_same_outcome(path)


@pytest.mark.parametrize("body", ["1_000,2\n3,4\n", "٣,2\n", "1,2\n3,\x1c4\n",
                                  "1,2\n3,4\x00\n", "1, 2\n"])
def test_reader_falls_back_to_float(tmp_path, body):
    path = tmp_path / "data.csv"
    path.write_bytes(("x0,y\n" + body).encode("utf-8"))
    assert_same_outcome(path)
