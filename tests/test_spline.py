import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from pitcal.errors import InvalidGrid
from pitcal.grid import GridCdf, YGrid, _pit_rows, invert_rows, knot_slopes


def curve(xs, ys, q):
    """The monotone cubic through the knots ``(xs, ys)`` at each query, via ``_pit_rows``."""
    xs, ys, q = (np.asarray(a, dtype=float) for a in (xs, ys, q))
    return _pit_rows(xs, np.broadcast_to(ys, (q.size, ys.size)), q)


class TestExamples:
    def test_linear_segment(self):
        assert abs(curve([0.0, 1.0], [0.0, 1.0], [0.5])[0] - 0.5) < 1e-12

    def test_square_knots_stay_bracketed(self):
        xs, ys = [0.0, 0.5, 1.0], [0.0, 0.25, 1.0]
        v = curve(xs, ys, [0.25])[0]
        assert 0.0 <= v <= 0.25
        sweep = curve(xs, ys, np.linspace(0, 1, 1000))
        assert np.all(np.diff(sweep) >= 0)

    def test_flat_run_forces_zero_slope(self):
        xs, ys = np.array([0.0, 1.0, 2.0]), np.array([0.5, 0.5, 0.7])
        slopes = knot_slopes(xs, ys[None, :])[0]
        assert slopes[0] == 0.0 and slopes[1] == 0.0
        assert curve(xs, ys, [0.5])[0] == 0.5


class TestContracts:
    def test_knot_exactness(self):
        xs = np.array([0.0, 0.3, 1.1, 2.0, 5.0])
        ys = np.array([0.0, 0.1, 0.1, 0.9, 1.0])
        np.testing.assert_allclose(curve(xs, ys, xs), ys, atol=1e-12)

    def test_snaps_tiny_decreases(self):
        c = GridCdf(YGrid([0.0, 1.0, 2.0]), [0.0, 0.5, 0.5 - 1e-10])
        assert c.values[2] >= c.values[1]

    def test_rejects_large_decrease(self):
        with pytest.raises(ValueError, match="snap tolerance"):
            GridCdf(YGrid([0.0, 1.0, 2.0]), [0.0, 0.5, 0.4])

    def test_rejects_unsorted_abscissae(self):
        with pytest.raises(InvalidGrid):
            YGrid([0.0, 2.0, 1.0])

    def test_constant_extrapolation(self):
        # the CDF holds its end values: levels outside them invert to the end
        # points, and PIT values off the knots clamp to {0, 1}
        xs, ys = np.array([0.0, 1.0]), np.array([0.2, 0.8])
        np.testing.assert_array_equal(invert_rows(xs, ys[None, :], [0.1, 0.2, 0.9]),
                                      [[0.0, 0.0, 1.0]])
        assert curve(xs, ys, [0.0, 1.0]) == pytest.approx([0.2, 0.8])
        np.testing.assert_array_equal(curve(xs, ys, [-5.0, 4.0]), [0.0, 1.0])

    def test_solve_leftmost_on_flat(self):
        xs, ys = np.array([0.0, 1.0, 2.0, 3.0]), np.array([0.0, 0.5, 0.5, 1.0])
        # the value 0.5 is attained on [1, 2]; the leftmost point wins, up to
        # the float resolution of the cubic near the knot
        assert invert_rows(xs, ys[None, :], [0.5])[0, 0] == pytest.approx(1.0, abs=1e-6)


class TestNeverOvershoots:
    @settings(max_examples=60, deadline=None)
    @given(st.integers(min_value=0, max_value=10**6))
    def test_bracketed_between_knots(self, seed):
        rng = np.random.default_rng(seed)
        n = int(rng.integers(2, 25))
        xs = np.unique(rng.uniform(-10, 10, size=n + 2))
        increments = rng.uniform(0, 1, size=xs.size)
        # make some runs exactly flat
        increments[rng.random(xs.size) < 0.3] = 0.0
        ys = np.cumsum(increments)
        ys /= max(1.0, ys[-1])  # into [0, 1], where _pit_rows does not clip
        for i in range(xs.size - 1):
            v = curve(xs, ys, np.linspace(xs[i], xs[i + 1], 20))
            assert np.all(v >= ys[i] - 1e-12)
            assert np.all(v <= ys[i + 1] + 1e-12)
        sweep = curve(xs, ys, np.linspace(xs[0], xs[-1], 500))
        assert np.all(np.diff(sweep) >= -1e-13)
