import dataclasses
import json

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from pitcal.errors import NonStationaryVar
from pitcal.synthgen import (
    TcModelConfig,
    chunk_tc,
    default_tc_config,
    simulate_tc,
    tc_summary_features,
    var_spectral_radius,
    write_storms_jsonl,
)
from pitcal.synthgen.tc import RidgeMean, _logistic, _logit, _simulate_storm, windowed_summaries


class TestTransforms:
    def test_logit_midpoint(self):
        # intensity 100 maps to exactly zero on the transformed scale
        assert _logit(100.0 / 200.0) == 0.0


class TestStationarity:
    def test_default_config_radius(self):
        cfg = default_tc_config()
        assert var_spectral_radius(cfg.var_coefficients) == pytest.approx(0.9, abs=1e-9)

    def test_non_stationary_rejected(self):
        cfg = default_tc_config()
        bad = np.array(cfg.var_coefficients)
        bad[0] = np.eye(3) * 1.05
        bad_cfg = TcModelConfig(
            var_coefficients=bad,
            var_intercept=cfg.var_intercept,
            var_noise_cov=cfg.var_noise_cov,
            intensity_betas=cfg.intensity_betas,
            noise_sd=cfg.noise_sd,
            pca_eofs=cfg.pca_eofs,
            profile_mean=cfg.profile_mean,
        )
        with pytest.raises(NonStationaryVar):
            simulate_tc(bad_cfg, 1, seed=0)


class TestDegenerateRecursion:
    def test_intercept_only_arithmetic_sequence(self):
        cfg = default_tc_config()
        betas = np.zeros(13)
        betas[0] = 0.01
        det = TcModelConfig(
            var_coefficients=np.zeros((3, 3, 3)),
            var_intercept=np.zeros(3),
            var_noise_cov=np.eye(3) * 1e-300,
            intensity_betas=betas,
            noise_sd=1e-300,
            pca_eofs=cfg.pca_eofs,
            profile_mean=cfg.profile_mean,
            storm_length_range=(120, 120),
            initial_intensity_range=(40.0, 40.0),
        )
        storms = simulate_tc(det, 1, seed=3)
        z = _logit(storms[0].intensities / 200.0)
        z0 = _logit(40.0 / 200.0)
        # along each 6-hour chain, z advances by beta0 per step of 12
        for offset in range(12):
            chain = z[offset::12]
            steps = np.diff(chain)
            np.testing.assert_allclose(steps, 0.01, atol=1e-9)
        # all chains share the same initial condition
        k0 = round((z[0] - z0) / 0.01)
        assert z[0] == pytest.approx(z0 + 0.01 * k0, abs=1e-9)


def frozen_simulate_storm(cfg, length, rng, burn_in=96):
    """The storm recursion as it was, checking each lag against the storm's start."""
    total = length + burn_in
    chol = np.linalg.cholesky(cfg.var_noise_cov)
    a = cfg.var_coefficients

    dpc = np.zeros((total, 3))
    noise = rng.standard_normal((total, 3)) @ chol.T
    for t in range(total):
        acc = cfg.var_intercept + noise[t]
        for lag in range(1, 4):
            if t - lag >= 0:
                acc = acc + a[lag - 1] @ dpc[t - lag]
        dpc[t] = acc
    pc = np.cumsum(dpc, axis=0)

    y0 = rng.uniform(*cfg.initial_intensity_range)
    z_init = _logit(y0 / 200.0)
    z = np.full(total, z_init)
    b = cfg.intensity_betas
    eps = rng.normal(0.0, cfg.noise_sd, size=total)

    def z_at(t):
        return z[t] if t >= 0 else z_init

    def pc_at(t, j):
        return pc[t, j] if t >= 0 else 0.0

    for t in range(12, total):
        dz_prev = z_at(t - 12) - z_at(t - 24)
        dz = (
            b[0]
            + b[1] * z_at(t - 12)
            + b[2] * dz_prev
            + b[3] * pc_at(t, 0) + b[4] * pc_at(t, 1) + b[5] * pc_at(t, 2)
            + b[6] * pc_at(t - 12, 0) + b[7] * pc_at(t - 12, 1)
            + b[8] * pc_at(t - 12, 2)
            + b[9] * pc_at(t - 24, 0) + b[10] * pc_at(t - 24, 1)
            + b[11] * pc_at(t - 36, 2)
            + b[12] * pc_at(t - 48, 1)
            + eps[t]
        )
        z[t] = z_at(t - 12) + dz

    profiles = cfg.profile_mean[None, :] + pc[burn_in:] @ cfg.pca_eofs
    intensities = 200.0 * _logistic(z[burn_in:])
    return profiles, intensities


def _variant(kind):
    cfg = default_tc_config()
    if kind == "default":
        return cfg
    if kind == "zero-var":
        return dataclasses.replace(cfg, var_coefficients=np.zeros((3, 3, 3)))
    # degenerate: no noise to speak of, intercepts only
    betas = np.zeros(13)
    betas[0] = 0.01
    return dataclasses.replace(cfg, var_coefficients=np.zeros((3, 3, 3)),
                               var_noise_cov=np.eye(3) * 1e-300, intensity_betas=betas,
                               noise_sd=1e-300, initial_intensity_range=(40.0, 40.0))


class TestPaddedRecursion:
    """The padded, block-stepped recursion against the per-step one it replaced."""

    @settings(max_examples=30, deadline=None)
    @given(st.integers(min_value=0, max_value=2**32 - 1),
           st.sampled_from([1, 5, 11, 12, 13, 37, 49, 143, 401, 700]),
           st.sampled_from(["default", "zero-var", "degenerate"]))
    def test_equals_frozen_recursion(self, seed, length, kind):
        cfg = _variant(kind)
        profiles, intensities = _simulate_storm(cfg, length, np.random.default_rng(seed))
        want_profiles, want_intensities = frozen_simulate_storm(cfg, length,
                                                                np.random.default_rng(seed))
        assert profiles.shape == (length, 80)
        assert np.array_equal(profiles, want_profiles)
        assert np.array_equal(intensities, want_intensities)


class TestIntensityRange:
    def test_strictly_inside_0_200(self):
        cfg = default_tc_config()
        storms = simulate_tc(cfg, 200, seed=11)
        all_y = np.concatenate([s.intensities for s in storms])
        assert all_y.size >= 10**5
        assert np.all(all_y > 0.0)
        assert np.all(all_y < 200.0)


class TestWindows:
    def _storm_of(self, length, cfg, seed=5):
        storms = simulate_tc(
            TcModelConfig(
                var_coefficients=cfg.var_coefficients,
                var_intercept=cfg.var_intercept,
                var_noise_cov=cfg.var_noise_cov,
                intensity_betas=cfg.intensity_betas,
                noise_sd=cfg.noise_sd,
                pca_eofs=cfg.pca_eofs,
                profile_mean=cfg.profile_mean,
                storm_length_range=(length, length),
            ),
            1,
            seed=seed,
        )
        return storms

    def test_exact_window_counts(self):
        cfg = default_tc_config()
        s49 = self._storm_of(49, cfg)
        out = chunk_tc(s49)
        assert len(out.cal) == 1
        s50 = self._storm_of(50, cfg)
        out2 = chunk_tc(s50)
        assert len(out2.cal) == 2
        # consecutive windows share 48 of their 49 profiles
        a = out2.cal.xs[0].reshape(49, 80)
        b = out2.cal.xs[1].reshape(49, 80)
        np.testing.assert_array_equal(a[1:], b[:-1])

    def test_feature_dimension(self):
        cfg = default_tc_config()
        storms = self._storm_of(60, cfg)
        out = chunk_tc(storms)
        assert out.cal.xs.shape[1] == 49 * 80 == 3920

    def test_short_storm_skipped(self):
        cfg = default_tc_config()
        storms = self._storm_of(48, cfg) + self._storm_of(49, cfg, seed=6)
        out = chunk_tc(storms)
        assert out.skipped_storms == 1
        assert len(out.cal) == 1

    def test_gapped_mode_leaves_full_gap(self):
        cfg = default_tc_config()
        storms = self._storm_of(200, cfg)
        out = chunk_tc(storms, mode="gapped")
        # starts at 0, 97, ... -> windows [0..48], [97..145]: 48-step gap
        assert len(out.cal) == 2

    def test_summaries_match_materialized(self):
        cfg = default_tc_config()
        storms = simulate_tc(cfg, 2, seed=9)
        for stride in (1, 13, 97):
            fast = windowed_summaries(storms, stride=stride)
            slow = chunk_tc(storms, stride=stride)
            np.testing.assert_array_equal(fast.cal.xs, tc_summary_features(slow.cal.xs))
            np.testing.assert_array_equal(fast.cal.ys, slow.cal.ys)


class TestRecursionOracle:
    def test_step_residuals_are_gaussian(self):
        # recover the driving noise of the intensity recursion from the
        # emitted storm records alone; its PIT under the configured noise law
        # must be uniform, which pins the implemented regression structure
        from scipy.stats import kstest
        from scipy.special import ndtr

        cfg = default_tc_config()
        storms = simulate_tc(cfg, 30, seed=19)
        b = cfg.intensity_betas
        resid = []
        for storm in storms:
            pcs = (storm.profiles - cfg.profile_mean) @ cfg.pca_eofs.T / 144.0
            z = _logit(storm.intensities / 200.0)
            for t in range(48, z.size):
                det = (
                    b[0]
                    + b[1] * z[t - 12]
                    + b[2] * (z[t - 12] - z[t - 24])
                    + b[3] * pcs[t, 0] + b[4] * pcs[t, 1] + b[5] * pcs[t, 2]
                    + b[6] * pcs[t - 12, 0] + b[7] * pcs[t - 12, 1] + b[8] * pcs[t - 12, 2]
                    + b[9] * pcs[t - 24, 0] + b[10] * pcs[t - 24, 1]
                    + b[11] * pcs[t - 36, 2]
                    + b[12] * pcs[t - 48, 1]
                )
                resid.append((z[t] - z[t - 12]) - det)
        pit = ndtr(np.array(resid) / cfg.noise_sd)
        assert kstest(pit[:10000], "uniform").pvalue > 0.01


class TestReproducibility:
    def test_bit_identical(self):
        cfg = default_tc_config()
        a = simulate_tc(cfg, 3, seed=13)
        b = simulate_tc(cfg, 3, seed=13)
        for sa, sb in zip(a, b):
            np.testing.assert_array_equal(sa.profiles, sb.profiles)
            np.testing.assert_array_equal(sa.intensities, sb.intensities)

    def test_per_storm_streams_independent_of_count(self):
        cfg = default_tc_config()
        first_of_three = simulate_tc(cfg, 3, seed=13)[0]
        only_one = simulate_tc(cfg, 1, seed=13)[0]
        np.testing.assert_array_equal(first_of_three.intensities, only_one.intensities)


class TestRidgeMean:
    @settings(max_examples=40, deadline=None)
    @given(st.integers(min_value=0, max_value=10**6), st.integers(min_value=2, max_value=300),
           st.integers(min_value=1, max_value=8), st.floats(min_value=1e-3, max_value=10.0))
    def test_predict_equals_per_row_means(self, seed, n, dim, lam):
        rng = np.random.default_rng(seed)
        xs = rng.uniform(-5, 5, size=(n, dim)) * rng.uniform(0.1, 10, size=dim)
        ys = rng.standard_normal(n) * 10.0 + 50.0
        mu = RidgeMean(xs, ys, lam=lam)
        per_row = np.array([(row - mu.mean) / mu.scale @ mu.coef + mu.intercept for row in xs])
        batch = mu.predict(xs)
        assert batch.shape == (n,)
        np.testing.assert_allclose(batch, per_row, rtol=0, atol=1e-12)


class TestJsonl:
    def test_round_trip(self, tmp_path):
        cfg = default_tc_config()
        storms = simulate_tc(cfg, 2, seed=17)
        path = tmp_path / "storms.jsonl"
        write_storms_jsonl(storms, path, meta={"seed": 17})
        lines = [json.loads(line) for line in path.read_text().splitlines()]
        assert lines[0] == {"meta": {"seed": 17}}
        records = lines[1:]
        assert len(records) == sum(s.intensities.size for s in storms)
        for orig in storms:
            rows = [r for r in records if r["storm_id"] == orig.storm_id]
            np.testing.assert_array_equal([r["t_minutes"] for r in rows], orig.t_minutes)
            np.testing.assert_allclose([r["profile"] for r in rows], orig.profiles, atol=1e-6)
            np.testing.assert_allclose([r["intensity"] for r in rows], orig.intensities,
                                       atol=1e-12)
