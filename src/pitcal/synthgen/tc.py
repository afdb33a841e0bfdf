"""Toy storm simulator: radial-profile sequences with coupled intensities.

Structure evolves as a vector autoregression of order 3 on the 30-minute
changes of three principal-component coefficients; profiles are rebuilt from a
mean profile plus the component basis. Intensity Y lives on (0, 200) through
Z = logit(Y / 200); the 6-hour change of Z follows a linear regression on its
own lag and on component coefficients at fixed lags, plus Gaussian noise.

Real-data coefficients are not available here; the shipped defaults are a
documented stationary configuration producing plausible intensity ranges.
Everything downstream treats the simulator as a black-box data source.
"""

from __future__ import annotations

import json
from dataclasses import dataclass

import numpy as np

from .. import rng as rngmod
from ..calibrate import CalibrationSet
from ..errors import NonStationaryVar
from ..models import GaussianInitialModel, standardization, standardize

__all__ = [
    "TcModelConfig",
    "StormRecord",
    "TcChunkResult",
    "default_tc_config",
    "var_spectral_radius",
    "simulate_tc",
    "chunk_tc",
    "tc_summary_features",
    "write_storms_jsonl",
]

N_RADII = 80
STEP_MINUTES = 30  # the lags and the windows assume this step
STEPS_6H = 6 * 60 // STEP_MINUTES
_BURN_IN = 96  # steps simulated and dropped before a storm's first record
_PAD = 4 * STEPS_6H  # the longest lag: PC2 24 hours back


@dataclass(frozen=True)
class TcModelConfig:
    var_coefficients: np.ndarray  # (3, 3, 3): lag matrices A1..A3
    var_intercept: np.ndarray  # (3,)
    var_noise_cov: np.ndarray  # (3, 3) SPD
    intensity_betas: np.ndarray  # (13,)
    noise_sd: float
    pca_eofs: np.ndarray  # (3, 80)
    profile_mean: np.ndarray  # (80,)
    storm_length_range: tuple = (400, 700)
    initial_intensity_range: tuple = (25.0, 45.0)

    def __post_init__(self):
        for name in ("var_coefficients", "var_intercept", "var_noise_cov", "intensity_betas",
                     "pca_eofs", "profile_mean"):
            object.__setattr__(self, name, np.asarray(getattr(self, name), dtype=float))
        if self.var_coefficients.shape != (3, 3, 3):
            raise ValueError("var_coefficients must have shape (3, 3, 3)")
        if self.intensity_betas.shape != (13,):
            raise ValueError("need exactly 13 intensity regression coefficients")
        if self.pca_eofs.shape != (3, N_RADII) or self.profile_mean.shape != (N_RADII,):
            raise ValueError(f"profile basis must use {N_RADII} radii")
        if not self.noise_sd > 0:
            raise ValueError("noise_sd must be > 0")


@dataclass(frozen=True)
class StormRecord:
    storm_id: int
    t_minutes: np.ndarray
    profiles: np.ndarray  # (length, 80)
    intensities: np.ndarray  # (length,)


@dataclass(frozen=True)
class TcChunkResult:
    cal: CalibrationSet
    skipped_storms: int


def var_spectral_radius(coefficients) -> float:
    """Spectral radius of the VAR companion matrix."""
    a = np.asarray(coefficients, dtype=float)
    p, k, _ = a.shape
    # lag blocks on top, then [I 0] shifting each lag down by one
    companion = np.vstack([np.concatenate(list(a), axis=1), np.eye(k * (p - 1), k * p)])
    return float(np.max(np.abs(np.linalg.eigvals(companion))))


def default_tc_config() -> TcModelConfig:
    """Stationary defaults tuned to span roughly 20-160 intensity units."""
    a1 = np.array([
        [0.50, 0.10, 0.00],
        [0.00, 0.40, 0.10],
        [0.10, 0.00, 0.30],
    ])
    a2 = np.array([
        [-0.20, 0.00, 0.05],
        [0.05, -0.15, 0.00],
        [0.00, 0.05, -0.10],
    ])
    a3 = np.array([
        [0.05, 0.00, 0.00],
        [0.00, 0.05, 0.00],
        [0.00, 0.00, 0.05],
    ])
    coeffs = np.stack([a1, a2, a3])
    radius = var_spectral_radius(coeffs)
    # scaling lag k by c**k maps companion eigenvalues lambda -> c * lambda
    c = 0.9 / radius
    coeffs = np.stack([coeffs[k] * c ** (k + 1) for k in range(3)])

    radii = np.arange(N_RADII, dtype=float)
    e1 = np.exp(-((radii - 15.0) / 12.0) ** 2)
    e2 = np.cos(np.pi * radii / N_RADII)
    e3 = np.sin(2.0 * np.pi * radii / N_RADII) * np.exp(-radii / 40.0)
    basis = []
    for vec in (e1, e2, e3):
        v = vec.copy()
        for b in basis:
            v -= (v @ b) * b
        basis.append(v / np.linalg.norm(v))
    eofs = 12.0 * np.stack(basis)

    profile_mean = 280.0 - 70.0 * np.exp(-(((radii - 12.0) / 18.0) ** 2))

    # equilibrium of dZ = b0 + b1 * Z near Y ~ 70
    b1 = -0.10
    b0 = -b1 * np.log(0.35 / 0.65)
    betas = np.array([
        b0, b1, 0.20,
        0.010, -0.006, 0.004,   # PC1..PC3 at t
        -0.006, 0.004, -0.002,  # PC1..PC3 at t - 6h
        0.003, -0.002,          # PC1, PC2 at t - 12h
        0.002,                  # PC3 at t - 18h
        -0.002,                 # PC2 at t - 24h
    ])
    return TcModelConfig(
        var_coefficients=coeffs,
        var_intercept=np.zeros(3),
        var_noise_cov=np.diag([0.15, 0.10, 0.08]),
        intensity_betas=betas,
        noise_sd=0.12,
        pca_eofs=eofs,
        profile_mean=profile_mean,
    )


def _logit(p):
    return np.log(p / (1.0 - p))


def _logistic(z):
    return 1.0 / (1.0 + np.exp(-z))


def _simulate_storm(cfg: TcModelConfig, length: int, rng: np.random.Generator):
    """Profiles and intensities of one storm after a burn-in.

    ``_PAD`` leading steps of zero components and initial Z stand for the time
    before the storm, so every step reads all of its lags; the end is padded to
    whole 6-hour blocks, one row each.
    """
    n = _BURN_IN + length
    n_blocks = -(-(_PAD + n) // STEPS_6H)
    chol = np.linalg.cholesky(cfg.var_noise_cov)
    a = cfg.var_coefficients

    dpc = np.zeros((n_blocks * STEPS_6H, 3))
    noise = rng.standard_normal((n, 3)) @ chol.T
    for t, e in enumerate(noise, _PAD):
        dpc[t] = cfg.var_intercept + e + a[0] @ dpc[t - 1] + a[1] @ dpc[t - 2] + a[2] @ dpc[t - 3]
    pc = np.cumsum(dpc, axis=0)

    y0 = rng.uniform(*cfg.initial_intensity_range)
    z = np.full((n_blocks, STEPS_6H), _logit(y0 / 200.0))
    eps = np.zeros(z.shape)
    eps.flat[_PAD:_PAD + n] = rng.normal(0.0, cfg.noise_sd, size=n)
    p = pc.reshape(n_blocks, STEPS_6H, 3)
    b = cfg.intensity_betas
    # Z reads Z only 6 and 12 hours back, so one statement steps a whole block;
    # the first block after the pad keeps Z at its initial value
    for i in range(_PAD // STEPS_6H + 1, n_blocks):
        z[i] = z[i - 1] + (
            b[0]
            + b[1] * z[i - 1]
            + b[2] * (z[i - 1] - z[i - 2])
            + b[3] * p[i, :, 0] + b[4] * p[i, :, 1] + b[5] * p[i, :, 2]
            + b[6] * p[i - 1, :, 0] + b[7] * p[i - 1, :, 1] + b[8] * p[i - 1, :, 2]
            + b[9] * p[i - 2, :, 0] + b[10] * p[i - 2, :, 1]
            + b[11] * p[i - 3, :, 2]
            + b[12] * p[i - 4, :, 1]
            + eps[i]
        )

    kept = slice(_PAD + _BURN_IN, _PAD + n)
    profiles = cfg.profile_mean[None, :] + pc[kept] @ cfg.pca_eofs
    intensities = 200.0 * _logistic(z.ravel()[kept])
    return profiles, intensities


def simulate_tc(cfg: TcModelConfig, n_storms: int, seed: int) -> list:
    """Simulate independent storms; each storm draws its own length and seed."""
    if var_spectral_radius(cfg.var_coefficients) >= 1.0:
        raise NonStationaryVar("companion-matrix spectral radius must be < 1")
    storms = []
    lo, hi = cfg.storm_length_range
    for sid, storm_rng in enumerate(rngmod.derived_rngs(seed, "storm", count=n_storms)):
        length = int(storm_rng.integers(lo, hi + 1))
        profiles, intensities = _simulate_storm(cfg, length, storm_rng)
        t_minutes = np.arange(length) * STEP_MINUTES
        storms.append(StormRecord(sid, t_minutes, profiles, intensities))
    return storms


def _window_stride(window_steps: int, mode: str, stride: int | None) -> int:
    if stride is not None:
        if stride < 1:
            raise ValueError("stride must be >= 1")
        return stride
    if mode == "overlapping":
        return 1
    if mode == "gapped":
        # a full window-length gap between consecutive chunks
        return window_steps + (window_steps - 1)
    raise ValueError(f"unknown windowing mode {mode!r}")


def _cut_windows(storms, window_hours: int, mode: str, stride: int | None,
                 features) -> TcChunkResult:
    """Cut storms as :func:`chunk_tc` describes; ``features(flat, w)`` makes one storm's rows."""
    w = window_hours * 60 // STEP_MINUTES + 1
    stride = _window_stride(w, mode, stride)
    feats, targets = [], []
    skipped = 0
    for storm in storms:
        length = storm.intensities.shape[0]
        if length < w:
            skipped += 1
            continue
        starts = np.arange(0, length - w + 1, stride)
        windows = np.lib.stride_tricks.sliding_window_view(storm.profiles, w, axis=0)
        # view shape (length - w + 1, n_radii, w); flatten per selected start
        flat = windows[starts].transpose(0, 2, 1).reshape(starts.size, -1)
        feats.append(features(flat, w))
        targets.append(storm.intensities[starts + w - 1])
    if not feats:
        raise ValueError("no storm was long enough for a single window")
    cal = CalibrationSet(np.vstack(feats), np.concatenate(targets))
    return TcChunkResult(cal=cal, skipped_storms=skipped)


def chunk_tc(storms, window_hours: int = 24, mode: str = "overlapping",
             stride: int | None = None) -> TcChunkResult:
    """Cut storms into trajectory windows with the current intensity as target.

    A window holds ``window_hours * 60 / STEP_MINUTES + 1`` consecutive
    profiles (49 for the defaults), flattened into one feature row; the target
    is the intensity at the final step. ``overlapping`` shifts by one step;
    ``gapped`` leaves a full window-length gap between chunks so rows carry no
    shared history; an explicit ``stride`` overrides either. Storms shorter
    than one window are skipped and counted.
    """
    return _cut_windows(storms, window_hours, mode, stride, lambda flat, w: flat)


def windowed_summaries(storms, window_hours: int = 24, mode: str = "overlapping",
                       stride: int | None = None) -> TcChunkResult:
    """Like :func:`chunk_tc`, but rows are summary features, not raw windows.

    Equivalent to ``tc_summary_features(chunk_tc(...).cal.xs)`` while only
    ever holding one storm's windows in memory; overlapping windows over many
    long storms never materialize the full flattened feature matrix.
    """
    return _cut_windows(storms, window_hours, mode, stride,
                        lambda flat, w: tc_summary_features(flat, n_profiles=w))


def tc_summary_features(xs: np.ndarray, n_profiles: int = 49) -> np.ndarray:
    """Low-dimensional summaries of flattened trajectory windows.

    Used as the regression features for both the point fit behind the initial
    Gaussian model and the neighborhoods of the PIT-CDF estimator; raw
    3920-dimensional windows are too sparse for either.
    """
    xs = np.atleast_2d(np.asarray(xs, dtype=float))
    n = xs.shape[0]
    prof = xs.reshape(n, n_profiles, -1)
    last = prof[:, -1, :]
    first = prof[:, 0, :]
    per_time_mean = prof.mean(axis=2)
    return np.column_stack([
        prof.mean(axis=(1, 2)),
        last.mean(axis=1),
        last.min(axis=1),
        last[:, :20].mean(axis=1),
        last[:, 60:].mean(axis=1),
        first.mean(axis=1),
        per_time_mean.std(axis=1),
        last.mean(axis=1) - first.mean(axis=1),
    ])


class RidgeMean:
    """Ridge point prediction on standardized features."""

    def __init__(self, xs, ys, lam: float = 1.0):
        xs = np.atleast_2d(np.asarray(xs, dtype=float))
        ys = np.asarray(ys, dtype=float)
        self.mean, self.scale = standardization(xs)
        z = standardize(xs, self.mean, self.scale)
        d = z.shape[1]
        self.coef = np.linalg.solve(z.T @ z + lam * np.eye(d), z.T @ (ys - ys.mean()))
        self.intercept = float(ys.mean())

    def predict(self, xs) -> np.ndarray:
        """Ridge means, one per row of ``xs``: (n, d), or (n,) for one feature."""
        return standardize(xs, self.mean, self.scale) @ self.coef + self.intercept


def fit_tc_initial(summary_cal, grid, sd_scale: float = 1.0, lam: float = 1.0):
    """Gaussian initial model for windowed storms: ridge mean on summaries.

    ``sd_scale`` rescales the residual standard deviation; values below one
    deliberately under-disperse the model (useful for exercising the
    diagnostics and the recalibration fix).
    """
    mu = RidgeMean(summary_cal.xs, summary_cal.ys, lam=lam)
    sd = float(np.std(summary_cal.ys - mu.predict(summary_cal.xs))) or 1.0
    return GaussianInitialModel(grid, mean_fn=mu, sd_fn=sd * sd_scale)


def write_storms_jsonl(storms, path, meta: dict | None = None):
    """One JSON record per time step: storm id, minutes, profile, intensity."""
    with open(path, "w", encoding="utf-8") as fh:
        if meta:
            fh.write(json.dumps({"meta": meta}) + "\n")
        for storm in storms:
            for i in range(storm.intensities.shape[0]):
                rec = {
                    "storm_id": int(storm.storm_id),
                    "t_minutes": int(storm.t_minutes[i]),
                    "profile": [round(float(v), 6) for v in storm.profiles[i]],
                    "intensity": float(storm.intensities[i]),
                }
                fh.write(json.dumps(rec) + "\n")

