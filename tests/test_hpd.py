"""Highest-density sets: invariants of ``hpd_rows`` and agreement with older searches.

``hpd_rows`` finds the density threshold of every row at once, in closed form
on the piecewise-linear density; ``calpit_hpd`` is a batch of one of it.
Two frozen references live below:

* ``frozen_calpit_hpd`` is the per-x closed-form search that ``hpd_rows``
  replaced. It solves the same equation with sums in another order, so the
  two must give the same intervals with endpoints within 1e-12 of the grid span.
* ``bisection_hpd`` is the older search: a bisection on the level that stops
  within 0.001 of the target mass, with a separate fill of flat stretches
  when the bracket collapses. The closed form is exact, so the two agree only
  up to the old search's slack; the tolerances of each comparison say how far.
"""

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from pitcal.calibrate import (
    LocalEmpiricalConfig,
    PredictionSet,
    RecalibratedDistribution,
    augment,
    calpit_hpd,
    compute_pit_values,
    fit_local_empirical,
    hpd_rows,
    recalibrate,
)
from pitcal.errors import HpdSearchFailed
from pitcal.grid import GridCdf, GridDensity, YGrid, cdf_rows_from_density_rows
from pitcal.models import UniformInitialModel
from pitcal.monotone_net import MonotoneNetConfig, fit_monotone_net
from pitcal.synthgen import sample_example2

ALPHAS = (0.05, 0.1, 0.5)


def _interval_mass(pts, f, lo, hi):
    """Trapezoid mass of the piecewise-linear density over [lo, hi]."""
    grid = np.unique(np.concatenate([pts[(pts > lo) & (pts < hi)], [lo, hi]]))
    vals = np.interp(grid, pts, f)
    return float(np.trapezoid(vals, grid))


# ----------------------------------------------------------------------
# frozen copy of the per-x closed-form search
# ----------------------------------------------------------------------

def frozen_calpit_hpd(rd, alpha):
    pts = rd.pdf.grid.points
    total = np.trapezoid(rd.pdf.values, pts)
    target = (1.0 - alpha) * total
    uniq = np.unique(rd.pdf.values)
    new_level = np.r_[True, np.diff(uniq) > 1e-12 * uniq[-1]]
    levels = uniq[new_level]
    f = levels[np.cumsum(new_level)[np.searchsorted(uniq, rd.pdf.values)] - 1]

    a, b, h = f[:-1], f[1:], np.diff(pts)
    lo, hi = np.minimum(a, b), np.maximum(a, b)
    full = 0.5 * (a + b) * h
    q = 0.5 * h / np.where(hi > lo, hi - lo, np.inf)

    def mass_above(t):
        crossing = (lo < t) & (hi >= t)
        return float(np.sum(full[lo >= t])
                     + np.sum(q[crossing] * (hi[crossing] - t) * (hi[crossing] + t)))

    j, k = 0, levels.size
    while k - j > 1:
        mid = (j + k) // 2
        if mass_above(levels[mid]) >= target:
            j = mid
        else:
            k = mid
    v = levels[j]
    crossing = (lo <= v) & (hi > v)
    coef = float(np.sum(q[crossing]))
    above = float(np.sum(full[lo > v])
                  + np.sum(q[crossing] * (hi[crossing] - v) * (hi[crossing] + v)))
    t = np.sqrt(v * v + (above - target) / coef) if target <= above else v

    s = (hi - t) / np.where(crossing, hi - lo, 1.0)
    start = np.where(crossing & (b > a), pts[1:] - s * h, pts[:-1])
    end = np.where(crossing & (a > b), pts[:-1] + s * h, pts[1:])
    keep = crossing | (lo > v)
    if target > above:
        flat_mass = np.where((a == v) & (b == v), full, 0.0)
        before = np.cumsum(flat_mass) - flat_mass
        fill = (flat_mass > 0) & (before < target - above)
        end = np.where(fill, pts[:-1] + np.minimum(h, (target - above - before) / v), end)
        keep |= fill
    keep &= end > start
    start, end = start[keep], end[keep]
    gap = start[1:] - end[:-1] > 1e-12 * (pts[-1] - pts[0])
    intervals = list(zip(start[np.r_[True, gap]].tolist(), end[np.r_[gap, True]].tolist()))

    mass = sum(_interval_mass(pts, rd.pdf.values, x0, x1) for x0, x1 in intervals) / total
    if abs(mass - (1.0 - alpha)) > 0.005:
        raise HpdSearchFailed(f"HPD mass {mass:.6f} misses target {1.0 - alpha:.6f}")
    return PredictionSet(tuple(intervals), nominal_level=1.0 - alpha, kind="hpd")


# ----------------------------------------------------------------------
# frozen copy of the bisection search
# ----------------------------------------------------------------------

def _mass_above(pts, f, t):
    a, b = f[:-1], f[1:]
    h = np.diff(pts)
    both = (a >= t) & (b >= t)
    left = (a >= t) & (b < t)
    right = (a < t) & (b >= t)
    full = np.where(both, 0.5 * (a + b) * h, 0.0)
    with np.errstate(divide="ignore", invalid="ignore"):
        s_left = np.where(left, (a - t) / np.where(a != b, a - b, 1.0), 0.0)
        s_right = np.where(right, (b - t) / np.where(a != b, b - a, 1.0), 0.0)
    part_left = np.where(left, 0.5 * (a + t) * s_left * h, 0.0)
    part_right = np.where(right, 0.5 * (b + t) * s_right * h, 0.0)
    return float(np.sum(full + part_left + part_right))


def _level_intervals(pts, f, t):
    intervals = []
    n = pts.size
    open_left = None
    if f[0] >= t:
        open_left = float(pts[0])
    for i in range(n - 1):
        a, b = f[i], f[i + 1]
        if a >= t and b < t:
            s = (a - t) / (a - b)
            intervals.append((open_left, float(pts[i] + s * (pts[i + 1] - pts[i]))))
            open_left = None
        elif a < t and b >= t:
            s = (b - t) / (b - a)
            open_left = float(pts[i + 1] - s * (pts[i + 1] - pts[i]))
    if open_left is not None:
        intervals.append((open_left, float(pts[-1])))
    return [(lo, hi) for lo, hi in intervals if hi > lo]


def _merge_intervals(intervals, gap_tol):
    merged = []
    for lo, hi in sorted(intervals):
        if merged and lo - merged[-1][1] <= gap_tol:
            merged[-1][1] = max(merged[-1][1], hi)
        else:
            merged.append([lo, hi])
    return [(lo, hi) for lo, hi in merged if hi > lo]


def _subtract_intervals(base, remove):
    out = []
    for lo, hi in base:
        pieces = [(lo, hi)]
        for rlo, rhi in remove:
            nxt = []
            for plo, phi in pieces:
                if rhi <= plo or rlo >= phi:
                    nxt.append((plo, phi))
                else:
                    if plo < rlo:
                        nxt.append((plo, rlo))
                    if rhi < phi:
                        nxt.append((rhi, phi))
            pieces = nxt
        out.extend(pieces)
    return [(lo, hi) for lo, hi in sorted(out) if hi > lo]


def _mass_cut(pts, f, lo, hi, deficit):
    grid = np.unique(np.concatenate([pts[(pts > lo) & (pts < hi)], [lo, hi]]))
    vals = np.interp(grid, pts, f)
    acc = 0.0
    for i in range(grid.size - 1):
        seg = 0.5 * (vals[i] + vals[i + 1]) * (grid[i + 1] - grid[i])
        if acc + seg >= deficit:
            a, b = vals[i], vals[i + 1]
            h = grid[i + 1] - grid[i]
            rem = deficit - acc
            if abs(b - a) < 1e-14 * max(abs(a), 1.0):
                s = rem / max(a, 1e-300)
            else:
                slope = (b - a) / h
                disc = max(a * a + 2.0 * slope * rem, 0.0)
                s = (np.sqrt(disc) - a) / slope
            return float(grid[i] + min(max(s, 0.0), h))
        acc += seg
    return float(hi)


def bisection_hpd(rd, alpha):
    pts = rd.pdf.grid.points
    f = rd.pdf.values
    total = np.trapezoid(f, pts)
    target = (1.0 - alpha) * total
    span = pts[-1] - pts[0]
    fmax = float(f.max())
    lo_t, hi_t = 0.0, fmax * (1.0 + 1e-12) + 1e-300
    t = 0.0
    converged = False
    for _ in range(200):
        t = 0.5 * (lo_t + hi_t)
        m = _mass_above(pts, f, t)
        if abs(m - target) <= 0.2 * 0.005:
            converged = True
            break
        if m > target:
            lo_t = t
        else:
            hi_t = t
        if hi_t - lo_t <= 1e-13 * max(fmax, 1.0):
            break
    if converged:
        intervals = _level_intervals(pts, f, t)
    else:
        core = _level_intervals(pts, f, hi_t)
        core_mass = sum(_interval_mass(pts, f, lo, hi) for lo, hi in core)
        deficit = target - core_mass
        at_level = _level_intervals(pts, f, lo_t)
        candidates = _subtract_intervals(at_level, core)
        chosen = []
        for lo, hi in candidates:
            if deficit <= 0:
                break
            m = _interval_mass(pts, f, lo, hi)
            if m <= deficit:
                chosen.append((lo, hi))
                deficit -= m
            else:
                cut = _mass_cut(pts, f, lo, hi, deficit)
                chosen.append((lo, cut))
                deficit = 0.0
        intervals = _merge_intervals(core + chosen, gap_tol=1e-12 * span)
    intervals = _merge_intervals(intervals, gap_tol=1e-12 * span)
    mass = sum(_interval_mass(pts, f, lo, hi) for lo, hi in intervals) / total
    if abs(mass - (1.0 - alpha)) > 0.005:
        raise HpdSearchFailed(f"HPD mass {mass:.6f} misses target {1.0 - alpha:.6f}")
    return PredictionSet(tuple(intervals), nominal_level=1.0 - alpha, kind="hpd")


# ----------------------------------------------------------------------
# helpers
# ----------------------------------------------------------------------

def set_mass(rd, pset):
    """Share of the piecewise-linear density's mass inside ``pset``, by trapezoids."""
    pts, f = rd.pdf.grid.points, rd.pdf.values
    mass = 0.0
    for lo, hi in pset.intervals:
        xs = np.unique(np.concatenate([pts[(pts > lo) & (pts < hi)], [lo, hi]]))
        mass += float(np.trapezoid(np.interp(xs, pts, f), xs))
    return mass / float(np.trapezoid(f, pts))


def contains(big, small, tol):
    """Every interval of ``small`` lies inside one interval of ``big``, up to ``tol``."""
    return all(any(lo >= blo - tol and hi <= bhi + tol for blo, bhi in big.intervals)
               for lo, hi in small.intervals)


def rd_from_values(values, lo=0.0, hi=3.0):
    grid = YGrid(np.linspace(lo, hi, len(values)))
    values = np.asarray(values, dtype=float)
    pdf = GridDensity(grid, values / np.trapezoid(values, grid.points))
    cdf = GridCdf(grid, cdf_rows_from_density_rows(grid.points, pdf.values[None, :])[0])
    return RecalibratedDistribution(cdf=cdf, pdf=pdf)


def random_density(rng, kind, n=201):
    """Densities with the shapes that stress the level search."""
    if kind == "continuous":
        v = rng.uniform(0.0, 1.0, n)
    elif kind == "zeros":  # zero stretches between positive ones
        v = rng.uniform(0.0, 1.0, n)
        v[rng.uniform(size=n) < 0.4] = 0.0
    elif kind == "plateaus":  # exact ties on a few levels
        v = np.repeat(rng.integers(0, 4, size=n // 5 + 1) / 3.0, 5)[:n]
    elif kind == "noisy-plateaus":  # the same, with values an ulp or so apart
        v = np.repeat(rng.uniform(0.0, 1.0, size=n // 7 + 1), 7)[:n]
        v = v * (1.0 + 2e-16 * rng.integers(-2, 3, size=n))
    else:  # "mixed": ties on a few levels, zero stretches, values within the 1e-12 snap
        v = np.repeat(rng.integers(0, 4, size=n // 5 + 1) / 3.0, 5)[:n]
        v = v * (1.0 + 1e-13 * rng.integers(-3, 4, size=n))
    if not np.any(v > 0):
        v[n // 2] = 1.0
    return rd_from_values(v)


KINDS = ["continuous", "zeros", "plateaus", "noisy-plateaus", "mixed"]
densities = st.builds(
    lambda seed, kind, n: random_density(np.random.default_rng(seed), kind, n),
    st.integers(min_value=0, max_value=2**32 - 1),
    st.sampled_from(KINDS),
    st.integers(min_value=3, max_value=301),
)
alphas = st.floats(min_value=0.01, max_value=0.99)


def batched_hpd(rd, alpha):
    """The set of ``rd`` as the middle row of a three-row :func:`hpd_rows` call."""
    f = rd.pdf.values
    return hpd_rows(rd.pdf.grid.points, np.stack([f[::-1], f, np.ones_like(f)]), alpha)[1]


# ----------------------------------------------------------------------
# invariants
# ----------------------------------------------------------------------

class TestProperties:
    @settings(max_examples=200, deadline=None)
    @given(densities, alphas)
    def test_mass_is_exact(self, rd, alpha):
        for hpd in (calpit_hpd, batched_hpd):
            assert abs(set_mass(rd, hpd(rd, alpha)) - (1.0 - alpha)) <= 1e-9

    @settings(max_examples=200, deadline=None)
    @given(densities, alphas)
    def test_intervals_sorted_and_disjoint(self, rd, alpha):
        pts = rd.pdf.grid.points
        for hpd in (calpit_hpd, batched_hpd):
            ivs = hpd(rd, alpha).intervals
            assert ivs
            assert all(lo < hi for lo, hi in ivs)
            assert all(hi_prev < lo_next for (_, hi_prev), (lo_next, _) in zip(ivs, ivs[1:]))
            assert pts[0] <= ivs[0][0] and ivs[-1][1] <= pts[-1]

    @settings(max_examples=200, deadline=None)
    @given(densities, alphas, alphas)
    def test_set_grows_as_alpha_falls(self, rd, a1, a2):
        small, big = calpit_hpd(rd, max(a1, a2)), calpit_hpd(rd, min(a1, a2))
        assert contains(big, small, 1e-9)

    def test_noisy_plateau_of_a_local_fit(self):
        # the local backend's densities carry plateaus whose values differ
        # by an ulp; they must be filled as one level
        data = sample_example2("skewed", 5000, 11)
        initial = UniformInitialModel(data.grid)
        r = fit_local_empirical(data.cal, compute_pit_values(initial, data.cal),
                                LocalEmpiricalConfig(k=500))
        rd = recalibrate(initial, r, np.array([0.5]))
        for alpha in ALPHAS:
            assert abs(set_mass(rd, calpit_hpd(rd, alpha)) - (1.0 - alpha)) <= 1e-9


# ----------------------------------------------------------------------
# agreement with the per-x search, and rows that do not interact
# ----------------------------------------------------------------------

class TestAgainstFrozenPerX:
    @settings(max_examples=300, deadline=None)
    @given(densities, st.floats(min_value=1e-3, max_value=1.0 - 1e-3))
    def test_same_intervals(self, rd, alpha):
        new, old = calpit_hpd(rd, alpha), frozen_calpit_hpd(rd, alpha)
        assert len(new.intervals) == len(old.intervals)
        span = rd.pdf.grid.points[-1] - rd.pdf.grid.points[0]
        np.testing.assert_allclose(new.intervals, old.intervals, rtol=0, atol=1e-12 * span)

    @settings(max_examples=100, deadline=None)
    @given(st.integers(min_value=0, max_value=2**32 - 1),
           st.lists(st.sampled_from(KINDS), min_size=2, max_size=6),
           st.integers(min_value=3, max_value=301), alphas)
    def test_each_row_equals_its_batch_of_one(self, seed, kinds, n, alpha):
        rng = np.random.default_rng(seed)
        rows = np.stack([random_density(rng, kind, n).pdf.values for kind in kinds])
        pts = np.linspace(0.0, 3.0, n)
        sets = hpd_rows(pts, rows, alpha)
        assert len(sets) == len(kinds)
        for i, pset in enumerate(sets):
            assert pset == hpd_rows(pts, rows[i:i + 1], alpha)[0]


# ----------------------------------------------------------------------
# agreement with the bisection search
# ----------------------------------------------------------------------

@pytest.fixture(scope="module")
def net_recalibrations():
    data = sample_example2("skewed", 2000, seed=31)
    aug = augment(data.cal, compute_pit_values(data.initial, data.cal), 10, seed=32)
    net = fit_monotone_net(aug, MonotoneNetConfig(hidden_layers=(16, 16), max_epochs=5,
                                                  patience=5, seed=33))
    return [recalibrate(data.initial, net, np.array([x])) for x in np.linspace(-1, 1, 41)]


def assert_nested_with_old(rd, alpha):
    new, old = calpit_hpd(rd, alpha), bisection_hpd(rd, alpha)
    assert contains(new, old, 1e-9) or contains(old, new, 1e-9)
    assert abs(set_mass(rd, old) - (1.0 - alpha)) <= 1e-3


class TestAgainstBisection:
    @pytest.mark.parametrize("alpha", ALPHAS)
    def test_net_recalibrations_nested(self, net_recalibrations, alpha):
        for rd in net_recalibrations:
            assert_nested_with_old(rd, alpha)

    @settings(max_examples=100, deadline=None)
    @given(st.integers(min_value=0, max_value=2**32 - 1), st.sampled_from(ALPHAS))
    def test_continuous_densities_nested(self, seed, alpha):
        assert_nested_with_old(random_density(np.random.default_rng(seed), "continuous"), alpha)

    @pytest.mark.parametrize("alpha", ALPHAS)
    @pytest.mark.parametrize("kind", ["flat", "two-step", "lattice"])
    def test_exact_plateaus_same_components(self, kind, alpha):
        rng = np.random.default_rng(37)
        cases = {
            "flat": [np.ones(201)],
            "two-step": [np.where(np.arange(201) < 100, 1.0, 2.0),
                         np.where(np.arange(201) < 60, 3.0, 1.0)],
            "lattice": [np.repeat(rng.integers(1, 4, size=41), 5)[:201] for _ in range(10)],
        }[kind]
        for values in cases:
            rd = rd_from_values(values, 0.0, 1.0)
            new, old = calpit_hpd(rd, alpha), bisection_hpd(rd, alpha)
            assert len(new.intervals) == len(old.intervals)
            np.testing.assert_allclose(new.intervals, old.intervals, rtol=0, atol=0.002)
