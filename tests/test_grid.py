import dataclasses

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st
from scipy.special import erf, ndtri

from pitcal.errors import (
    DegenerateDensity,
    InvalidBandwidth,
    InvalidDensity,
    InvalidGrid,
)
from pitcal.grid import (
    GridCdf,
    GridDensity,
    YGrid,
    _pit_rows,
    cdf_rows_from_density_rows,
    default_grid,
    invert_cdf,
    renormalize_density,
    renormalize_rows,
    widen_density,
)
from pitcal.dataio import write_csv


def normal_cdf(x):
    return 0.5 * (1.0 + erf(np.asarray(x) / np.sqrt(2.0)))


def std_normal_density(grid):
    z = grid.points
    return GridDensity(grid, np.exp(-0.5 * z * z) / np.sqrt(2 * np.pi))


class TestYGrid:
    def test_rejects_short_and_unsorted(self):
        with pytest.raises(InvalidGrid):
            YGrid(np.array([0.0, 1.0]))
        with pytest.raises(InvalidGrid):
            YGrid(np.array([0.0, 2.0, 1.0]))
        with pytest.raises(InvalidGrid):
            YGrid(np.array([0.0, np.inf, 1.0]))

    def test_immutable(self):
        g = YGrid(np.linspace(0, 1, 5))
        with pytest.raises(ValueError):
            g.points[0] = -1.0

    def test_equality_is_identity(self):
        # numpy fields make a generated __eq__ raise; comparison is by identity
        g, g2 = YGrid(np.linspace(0, 1, 5)), YGrid(np.linspace(0, 1, 5))
        d = GridDensity(g, np.ones(5))
        c, c2 = GridCdf(g, np.linspace(0, 1, 5)), GridCdf(g, np.linspace(0, 1, 5))
        for a, b in ((g, g2), (d, GridDensity(g, np.ones(5))), (c, c2)):
            assert (a == a) is True
            assert (a == b) is False
            assert (a != b) is True
            assert len({a, b}) == 2  # hashable by identity
        assert _pit_rows(g.points, c.values[None, :], np.array([0.5]))[0] == pytest.approx(0.5)


class TestCdfFromDensity:
    def test_uniform_cumsum(self):
        c = cdf_rows_from_density_rows(np.array([0.0, 0.5, 1.0]), np.ones((1, 3)))
        np.testing.assert_allclose(c, [[0.0, 0.5, 1.0]], atol=1e-15)

    def test_triangle_symmetry(self):
        c = cdf_rows_from_density_rows(np.array([-1.0, 0.0, 1.0]), np.array([[0.0, 1.0, 0.0]]))
        np.testing.assert_allclose(c, [[0.0, 0.5, 1.0]], atol=1e-15)

    def test_standard_normal_median(self):
        g = YGrid(np.linspace(-5, 5, 201))
        c = cdf_rows_from_density_rows(g.points, std_normal_density(g).values[None, :])
        assert abs(c[0, 100] - normal_cdf(0.0)) < 1e-4

    def test_negative_density_rejected(self):
        with pytest.raises(InvalidDensity):
            cdf_rows_from_density_rows(np.array([0.0, 0.5, 1.0]), np.array([[0.1, -0.2, 0.1]]))

    def test_endpoints_snapped(self):
        g = YGrid(np.linspace(-3, 3, 31))
        c = cdf_rows_from_density_rows(g.points, std_normal_density(g).values[None, :])
        assert c[0, 0] == 0.0
        assert c[0, -1] == 1.0


class TestInvertCdf:
    def test_uniform_quantile(self):
        g = YGrid(np.linspace(0, 1, 11))
        c = GridCdf(g, cdf_rows_from_density_rows(g.points, np.ones((1, 11)))[0])
        assert abs(invert_cdf(c, 0.25) - 0.25) < 1e-12

    def test_normal_quantile_oracle(self):
        g = YGrid(np.linspace(-5, 5, 201))
        rows = cdf_rows_from_density_rows(g.points, std_normal_density(g).values[None, :])
        c = GridCdf(g, rows[0])
        assert abs(invert_cdf(c, 0.95) - ndtri(0.95)) < 0.01

    def test_p_zero_returns_first_point(self):
        g = YGrid(np.linspace(2, 7, 51))
        rows = cdf_rows_from_density_rows(g.points, std_normal_density(g).values[None, :])
        c = GridCdf(g, rows[0])
        assert invert_cdf(c, 0.0) == g.points[0]

    def test_cdf_fields_are_grid_and_values(self):
        g = YGrid(np.linspace(-5, 5, 201))
        rows = cdf_rows_from_density_rows(g.points, std_normal_density(g).values[None, :])
        c = GridCdf(g, rows[0])
        assert [f.name for f in dataclasses.fields(c)] == ["grid", "values"]
        assert type(invert_cdf(c, 0.5)) is float

    def test_p_out_of_range(self):
        g = YGrid(np.linspace(0, 1, 5))
        c = GridCdf(g, cdf_rows_from_density_rows(g.points, np.ones((1, 5)))[0])
        with pytest.raises(ValueError):
            invert_cdf(c, 1.5)


class TestPit:
    def test_normal_median(self):
        g = YGrid(np.linspace(-5, 5, 201))
        c = cdf_rows_from_density_rows(g.points, std_normal_density(g).values[None, :])
        assert abs(_pit_rows(g.points, c, np.array([0.0]))[0] - 0.5) < 1e-4

    def test_below_grid_clamps_to_zero(self):
        g = YGrid(np.linspace(0, 1, 5))
        c = cdf_rows_from_density_rows(g.points, np.ones((2, 5)))
        ys = np.array([g.points[0] - 1.0, g.points[-1] + 1.0])
        assert _pit_rows(g.points, c, ys).tolist() == [0.0, 1.0]

    def test_identity_cdf(self):
        g = YGrid(np.linspace(0, 1, 101))
        c = cdf_rows_from_density_rows(g.points, np.ones((1, 101)))
        assert abs(_pit_rows(g.points, c, np.array([0.73]))[0] - 0.73) < 1e-9


class TestRenormalize:
    def test_clip_then_scale(self):
        g = YGrid(np.array([0.0, 0.5, 1.0]))
        out = renormalize_density(GridDensity(g, np.array([-0.1, 1.0, -0.1])))
        np.testing.assert_allclose(out.values, [0.0, 2.0, 0.0], atol=1e-15)

    def test_fixed_point_on_valid_density(self):
        g = YGrid(np.linspace(0, 1, 9))
        d = GridDensity(g, np.ones(9))
        out = renormalize_density(d)
        np.testing.assert_allclose(out.values, d.values, atol=1e-12)

    def test_all_zero_rejected(self):
        g = YGrid(np.array([0.0, 0.5, 1.0]))
        with pytest.raises(DegenerateDensity):
            renormalize_density(GridDensity(g, np.zeros(3)))

    def test_idempotent(self):
        g = YGrid(np.linspace(-2, 3, 41))
        rng = np.random.default_rng(3)
        d = GridDensity(g, rng.uniform(0, 2, size=41))
        once = renormalize_density(d)
        twice = renormalize_density(once)
        assert abs(once.integral() - 1.0) < 1e-9
        np.testing.assert_allclose(twice.values, once.values, atol=1e-12)


def frozen_renormalize_density(d):
    """``renormalize_density`` as it was before it became a batch of one."""
    vals = np.maximum(d.values, 0.0)
    total = np.trapezoid(vals, d.grid.points)
    if total <= 0:
        raise DegenerateDensity("no positive mass left after clipping")
    return GridDensity(d.grid, vals / total)


def frozen_pdf_rows_renormalization(points, slopes):
    """The clip and rescale ``recalibrated_pdf_rows`` did itself before ``renormalize_rows``."""
    pdf = np.maximum(slopes, 0.0)
    total = np.trapezoid(pdf, points, axis=1)
    if np.any(total <= 0):
        raise DegenerateDensity("no positive mass left after clipping")
    return pdf / total[:, None]


class TestRenormalizeRows:
    @settings(max_examples=60, deadline=None)
    @given(st.integers(3, 60), st.integers(1, 6), st.integers(0, 2**32 - 1))
    def test_matches_frozen_copies(self, n_points, n_rows, seed):
        rng = np.random.default_rng(seed)
        points = np.cumsum(rng.uniform(1e-3, 2.0, size=n_points)) - rng.uniform(0.0, 10.0)
        rows = rng.normal(size=(n_rows, n_points)) * rng.uniform(1e-6, 1e3)
        rows[rng.uniform(size=rows.shape) < 0.2] = 0.0
        rows[:, rng.integers(n_points)] = abs(rows[:, 0]) + 1.0  # every row keeps some mass
        got = renormalize_rows(points, rows)
        assert np.array_equal(got, frozen_pdf_rows_renormalization(points, rows))
        grid = YGrid(points)
        for row, want in zip(rows, got):
            assert np.array_equal(renormalize_density(GridDensity(grid, row)).values, want)
            assert np.array_equal(frozen_renormalize_density(GridDensity(grid, row)).values,
                                  want)

    def test_a_massless_row_is_degenerate(self):
        points = np.linspace(0.0, 1.0, 5)
        rows = np.vstack([np.ones(5), -np.ones(5)])
        with pytest.raises(DegenerateDensity):
            renormalize_rows(points, rows)
        assert renormalize_rows(points, rows[:0]).shape == (0, 5)


class TestWiden:
    def test_point_mass_spreads(self):
        g = YGrid(np.linspace(0, 10, 101))
        vals = np.zeros(101)
        vals[50] = 1.0
        step = 0.1
        out = widen_density(GridDensity(g, vals), 2 * step)
        assert np.count_nonzero(out.values > 1e-12) >= 5
        assert abs(out.integral() - 1.0) < 1e-6

    def test_delta_kernel_limit(self):
        g = YGrid(np.linspace(0, 1, 51))
        rng = np.random.default_rng(4)
        d = renormalize_density(GridDensity(g, rng.uniform(0.5, 1.5, size=51)))
        step = g.points[1] - g.points[0]
        out = widen_density(d, step / 100.0)
        np.testing.assert_allclose(out.values, d.values, atol=1e-3)

    def test_gaussian_variance_addition(self):
        g = YGrid(np.linspace(-12, 12, 401))
        d = renormalize_density(std_normal_density(g))
        bw = 1.5
        out = widen_density(d, bw)
        z = g.points
        mean = np.trapezoid(z * out.values, z)
        var = np.trapezoid((z - mean) ** 2 * out.values, z)
        assert abs(var - (1.0 + bw**2)) / (1.0 + bw**2) < 0.05

    def test_bad_bandwidth(self):
        g = YGrid(np.linspace(0, 1, 5))
        with pytest.raises(InvalidBandwidth):
            widen_density(GridDensity(g, np.ones(5)), 0.0)


class TestRoundTrip:
    def test_pit_invert_round_trip(self):
        g = YGrid(np.linspace(-4, 4, 201))
        rows = cdf_rows_from_density_rows(g.points, std_normal_density(g).values[None, :])
        c = GridCdf(g, rows[0])
        for p in np.arange(0.01, 1.0, 0.01):
            y = invert_cdf(c, p)
            assert abs(_pit_rows(g.points, c.values[None, :], np.array([y]))[0] - p) <= 1e-6

    @settings(max_examples=40, deadline=None)
    @given(st.integers(min_value=0, max_value=10**6))
    def test_cdf_from_density_always_valid(self, seed):
        rng = np.random.default_rng(seed)
        n = int(rng.integers(3, 40))
        pts = np.unique(rng.uniform(-5, 5, size=n))
        while pts.size < 3:
            pts = np.unique(np.concatenate([pts, rng.uniform(-5, 5, size=3)]))
        vals = rng.uniform(0, 3, size=pts.size)
        if np.trapezoid(vals, pts) <= 0:
            vals = vals + 0.1
        c = cdf_rows_from_density_rows(YGrid(pts).points, vals[None, :])[0]
        assert np.all(np.diff(c) >= 0)
        assert 0.0 <= c[0] <= 1e-6
        assert 1.0 - 1e-6 <= c[-1] <= 1.0


class TestBatchPit:
    def test_matches_scalar_path(self):
        g = YGrid(np.linspace(-5, 5, 101))
        rng = np.random.default_rng(11)
        rows = rng.uniform(0.01, 1.0, size=(20, 101))
        ys = rng.uniform(-6, 6, size=20)
        batch = _pit_rows(g.points, cdf_rows_from_density_rows(g.points, rows), ys)
        for i in range(20):
            row = renormalize_density(GridDensity(g, rows[i])).values[None, :]
            one = _pit_rows(g.points, cdf_rows_from_density_rows(g.points, row), ys[i : i + 1])
            assert abs(batch[i] - one[0]) < 1e-12


class TestSerialization:
    def test_round_trip(self, tmp_path):
        g = YGrid(np.linspace(-1, 2, 31))
        vals = np.exp(-np.abs(g.points))
        path = tmp_path / "density.csv"
        write_csv(path, ("y", "value"), zip(g.points, vals), comment="test stamp")
        assert path.read_text().splitlines()[:2] == ["# test stamp", "y,value"]
        table = np.loadtxt(path, delimiter=",", skiprows=2)
        np.testing.assert_array_equal(table[:, 0], g.points)
        np.testing.assert_array_equal(table[:, 1], vals)

    def test_default_grid_span(self):
        g = default_grid(np.array([0.0, 10.0]), n_points=201)
        assert len(g) == 201
        assert g.lo == pytest.approx(-1.0)
        assert g.hi == pytest.approx(11.0)
