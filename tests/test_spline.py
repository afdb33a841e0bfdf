import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from pitcal.errors import InvalidGrid, NonMonotoneInput
from pitcal.grid import fit_monotone_spline, invert_rows


class TestExamples:
    def test_linear_segment(self):
        sp = fit_monotone_spline([0.0, 1.0], [0.0, 1.0])
        assert abs(sp(0.5) - 0.5) < 1e-12

    def test_square_knots_stay_bracketed(self):
        sp = fit_monotone_spline([0.0, 0.5, 1.0], [0.0, 0.25, 1.0])
        v = sp(0.25)
        assert 0.0 <= v <= 0.25
        sweep = sp(np.linspace(0, 1, 1000))
        assert np.all(np.diff(sweep) >= 0)

    def test_flat_run_forces_zero_slope(self):
        sp = fit_monotone_spline([0.0, 1.0, 2.0], [0.5, 0.5, 0.7])
        assert sp.slopes[0] == 0.0 and sp.slopes[1] == 0.0
        assert sp(0.5) == 0.5


class TestContracts:
    def test_knot_exactness(self):
        xs = np.array([0.0, 0.3, 1.1, 2.0, 5.0])
        ys = np.array([0.0, 0.1, 0.1, 0.9, 1.0])
        sp = fit_monotone_spline(xs, ys)
        np.testing.assert_allclose(sp(xs), ys, atol=1e-12)

    def test_snaps_tiny_decreases(self):
        sp = fit_monotone_spline([0.0, 1.0, 2.0], [0.0, 0.5, 0.5 - 1e-10])
        assert sp.knots_y[2] >= sp.knots_y[1]

    def test_rejects_large_decrease(self):
        with pytest.raises(NonMonotoneInput):
            fit_monotone_spline([0.0, 1.0, 2.0], [0.0, 0.5, 0.4])

    def test_rejects_unsorted_abscissae(self):
        with pytest.raises(InvalidGrid):
            fit_monotone_spline([0.0, 2.0, 1.0], [0.0, 0.5, 1.0])

    def test_constant_extrapolation(self):
        sp = fit_monotone_spline([0.0, 1.0], [0.2, 0.8])
        assert sp(-5.0) == pytest.approx(0.2)
        assert sp(4.0) == pytest.approx(0.8)

    def test_solve_leftmost_on_flat(self):
        sp = fit_monotone_spline([0.0, 1.0, 2.0, 3.0], [0.0, 0.5, 0.5, 1.0])
        # the value 0.5 is attained on [1, 2]; the leftmost point wins, up to
        # the float resolution of the cubic near the knot
        assert invert_rows(sp.knots_x, sp.knots_y[None, :], [0.5])[0, 0] == pytest.approx(1.0, abs=1e-6)


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
        sp = fit_monotone_spline(xs, ys)
        for i in range(xs.size - 1):
            q = np.linspace(xs[i], xs[i + 1], 20)
            v = sp(q)
            assert np.all(v >= ys[i] - 1e-12)
            assert np.all(v <= ys[i + 1] + 1e-12)
        sweep = sp(np.linspace(xs[0], xs[-1], 500))
        scale = max(1.0, float(ys[-1] - ys[0]))
        assert np.all(np.diff(sweep) >= -1e-13 * scale)
