"""``pitcal.normal`` against ``scipy.special``, whose Cephes routines it ports."""

import numpy as np
from hypothesis import given, settings, strategies as st
from scipy import special

from pitcal.normal import ndtr, ndtri

E2 = np.exp(-2.0)
# the special values and the branch points of both routines, with their neighbours
LEVEL_EDGES = np.array([
    0.0, 1.0, 5e-324, 1e-300, 1e-20, np.exp(-32.0), 1 - 1e-16, np.nextafter(1.0, 0.0), 0.5,
    E2, np.nextafter(E2, 0.0), np.nextafter(E2, 1.0),
    1 - E2, np.nextafter(1 - E2, 0.0), np.nextafter(1 - E2, 1.0),
    np.nan, -1.0, 2.0, np.inf, -np.inf,
])
POINT_EDGES = np.array([
    0.0, -0.0, 1.0, -1.0, np.sqrt(2.0), -np.sqrt(2.0), np.nextafter(np.sqrt(2.0), 0.0),
    8 * np.sqrt(2.0), -8 * np.sqrt(2.0), -37.0, -38.0, -40.0, 40.0, 1e300, -1e300,
    np.inf, -np.inf, np.nan,
])
levels = st.one_of(
    st.floats(min_value=0.0, max_value=1.0),
    st.floats(min_value=1e-300, max_value=0.2).map(lambda t: 1.0 - t),
    st.floats(min_value=-300.0, max_value=0.0).map(lambda e: 10.0 ** e),
)
points = st.floats(min_value=-38.0, max_value=40.0)


def ulps(got, want):
    """|got - want| in units of the last place of ``want``; 0 where both agree, NaN included."""
    same = (got == want) | (np.isnan(got) & np.isnan(want))
    with np.errstate(invalid="ignore"):
        gap = np.abs(got - want) / np.spacing(np.abs(want))
    return np.where(same, 0.0, gap)


def check_ndtri(y):
    got, want = ndtri(y), special.ndtri(y)
    central = (y > E2) & (y <= 1.0 - E2)
    assert np.array_equal(got[central], want[central])
    assert np.max(ulps(got, want), initial=0.0) <= 4.0


def check_ndtr(x):
    got, want = ndtr(x), special.ndtr(x)
    assert np.array_equal(np.isnan(got), np.isnan(want))
    # within |x| < sqrt(2) both read erf alone; beyond, np.exp may round apart from libm's exp
    inner = np.abs(x) < np.sqrt(2.0)
    assert np.array_equal(got[inner], want[inner])
    read = want > 1e-300
    np.testing.assert_allclose(got[read], want[read], rtol=2e-15, atol=0)


class TestNdtri:
    def test_edges(self):
        check_ndtri(LEVEL_EDGES)
        got = ndtri(LEVEL_EDGES[:2])
        assert got[0] == -np.inf and got[1] == np.inf
        assert np.isnan(ndtri(np.array([np.nan, -1.0, 2.0, np.inf]))).all()

    @settings(max_examples=200, deadline=None)
    @given(st.lists(levels, min_size=1, max_size=50))
    def test_matches_scipy(self, ys):
        check_ndtri(np.array(ys))

    @settings(max_examples=100, deadline=None)
    @given(st.lists(levels, min_size=2, max_size=50))
    def test_nondecreasing(self, ys):
        q = ndtri(np.sort(ys))
        assert np.all(q[1:] >= q[:-1])

    def test_shapes(self):
        assert isinstance(ndtri(0.975), np.float64)
        assert ndtri(0.975) == special.ndtri(0.975)
        y = np.linspace(0.0, 1.0, 12).reshape(3, 4)
        assert ndtri(y).shape == (3, 4)
        check_ndtri(y)
        assert ndtri(np.empty((0, 5))).shape == (0, 5)


class TestNdtr:
    def test_edges(self):
        check_ndtr(POINT_EDGES)
        got = ndtr(np.array([-np.inf, np.inf, -1e300, 1e300]))
        assert np.array_equal(got, [0.0, 1.0, 0.0, 1.0])
        # exp(-x^2 / 2) is subnormal here, and Cephes flushes it to 0
        assert np.array_equal(ndtr(np.array([-38.0, -38.5])), [0.0, 0.0])

    @settings(max_examples=200, deadline=None)
    @given(st.lists(points, min_size=1, max_size=50))
    def test_matches_scipy(self, xs):
        check_ndtr(np.array(xs))

    @settings(max_examples=100, deadline=None)
    @given(st.lists(points, min_size=2, max_size=50))
    def test_nondecreasing(self, xs):
        p = ndtr(np.sort(xs))
        assert np.all(p[1:] >= p[:-1])

    def test_shapes(self):
        assert isinstance(ndtr(0.3), np.float64)
        x = np.linspace(-3.0, 3.0, 12).reshape(3, 4)
        assert ndtr(x).shape == (3, 4)
        check_ndtr(x)
