"""Monte Carlo conditional-coverage benchmark harness.

For each realization, data are drawn fresh from a registered generator, the
chosen method is fitted, and every test point's prediction set is scored
against oracle draws of the response. Coverage pools across realizations, and
each point is classified under / correct / over by a two-standard-deviation
band around the nominal level, with the binomial standard deviation computed
from the total pooled draw count.
"""

from __future__ import annotations

import json
import time
from dataclasses import dataclass, field

import numpy as np

from . import rng as rngmod
from .baselines import DcpModel, RegSplitModel, fit_knn_mean
from .calibrate import (
    CalibrationSet,
    PredictionSet,
    calpit_hpd,
    calpit_interval,
    compute_pit_values,
    recalibrate,
)
from .errors import ConfigError
from .grid import invert_cdf
from .models import model_cdf
from .pipeline import build_initial, fit_pit_model, split_calibration
from .synthgen import TwoGroupConfig, sample_example1, sample_example2

__all__ = [
    "ExperimentRecipe",
    "CoverageReport",
    "conditional_coverage",
    "classify_coverage",
    "run_experiment",
    "REPORT_FORMAT_VERSION",
]

REPORT_FORMAT_VERSION = 1

_GENERATORS = {
    "ex1": lambda n, seed, params: sample_example1(TwoGroupConfig(**params), n, seed),
    "ex2-skewed": lambda n, seed, params: sample_example2("skewed", n, seed, **params),
    "ex2-kurtotic": lambda n, seed, params: sample_example2("kurtotic", n, seed, **params),
}

_METHODS = ("calpit-int", "calpit-hpd", "dcp", "regsplit", "oracle", "initial")
_INITIALS = ("uniform", "marginal", "gaussian-fit", "generator")


@dataclass(frozen=True)
class ExperimentRecipe:
    """Fully determines one benchmark run (echoed into every report)."""

    generator: str
    method: str
    n: int
    alpha: float = 0.1
    n_realizations: int = 10
    n_mc_draws: int = 1000
    seed: int = 0
    initial: str = "uniform"
    backend: str = "local"
    backend_params: dict = field(default_factory=dict)
    experiment: str = "full"  # "full" uses all data for calibration; "split" halves it
    test_grid_size: int | None = None
    test_xs: tuple | None = None
    generator_params: dict = field(default_factory=dict)

    def __post_init__(self):
        if self.generator not in _GENERATORS:
            raise ConfigError(f"unknown generator {self.generator!r}")
        if self.method not in _METHODS:
            raise ConfigError(f"unknown method {self.method!r}")
        if self.initial not in _INITIALS:
            raise ConfigError(f"unknown initial model kind {self.initial!r}")
        if self.backend not in ("local", "net"):
            raise ConfigError(f"unknown backend {self.backend!r}")
        if self.experiment not in ("full", "split"):
            raise ConfigError(f"unknown experiment mode {self.experiment!r}")
        if not 0.0 < self.alpha < 1.0:
            raise ConfigError(f"alpha must be in (0, 1), got {self.alpha}")
        if min(self.n, self.n_realizations, self.n_mc_draws) < 1:
            raise ConfigError("n, realizations and mc_draws must be >= 1")

    def to_config(self) -> dict:
        doc = {
            "generator": self.generator,
            "method": self.method,
            "n": self.n,
            "alpha": self.alpha,
            "n_realizations": self.n_realizations,
            "n_mc_draws": self.n_mc_draws,
            "seed": self.seed,
            "initial": self.initial,
            "backend": self.backend,
            "backend_params": dict(self.backend_params),
            "experiment": self.experiment,
            "test_grid_size": self.test_grid_size,
            "generator_params": dict(self.generator_params),
        }
        if self.test_xs is not None:
            doc["test_xs"] = [list(np.atleast_1d(x).astype(float)) for x in self.test_xs]
        return doc


@dataclass
class CoverageReport:
    points: list
    summary: dict

    def to_json(self) -> dict:
        return {
            "format_version": REPORT_FORMAT_VERSION,
            "points": self.points,
            "summary": self.summary,
        }

    def write_json(self, path):
        with open(path, "w", encoding="utf-8") as fh:
            json.dump(self.to_json(), fh, indent=1)

    def write_csv(self, path, comment: str | None = None):
        with open(path, "w", encoding="utf-8") as fh:
            if comment:
                fh.write(f"# {comment}\n")
            fh.write("x0,x1,empirical,classification,set_size\n")
            for rec in self.points:
                x = rec["x"]
                x1 = repr(float(x[1])) if len(x) > 1 else ""
                fh.write(
                    f"{float(x[0])!r},{x1},{rec['empirical']!r},"
                    f"{rec['classification']},{rec['mean_set_size']!r}\n"
                )


def conditional_coverage(method, oracle, test_xs, n_draws: int, seed: int) -> np.ndarray:
    """Fraction of oracle response draws captured by the method's set, per x."""
    if n_draws < 1:
        raise ValueError("n_draws must be >= 1")
    test_xs = [np.atleast_1d(np.asarray(x, dtype=float)) for x in test_xs]
    out = np.empty(len(test_xs))
    for i, x in enumerate(test_xs):
        pset = method(x)
        draws = oracle.sample(x, rngmod.derived_rng(seed, "coverage", i), n_draws)
        out[i] = float(np.mean(pset.contains(draws)))
    return out


def classify_coverage(empirical: float, nominal: float, n_draws: int,
                      n_realizations: int = 1) -> str:
    """Two-standard-deviation band classification of one coverage estimate.

    The binomial SD uses the total number of pooled draws behind the
    estimate, n_draws * n_realizations.
    """
    m_eff = n_draws * n_realizations
    if m_eff < 1:
        raise ValueError("need at least one draw")
    sd = np.sqrt(nominal * (1.0 - nominal) / m_eff)
    if empirical < nominal - 2.0 * sd:
        return "under"
    if empirical > nominal + 2.0 * sd:
        return "over"
    return "correct"


def _default_test_grid(recipe: ExperimentRecipe):
    if recipe.test_xs is not None:
        return [np.atleast_1d(np.asarray(x, dtype=float)) for x in recipe.test_xs]
    if recipe.generator == "ex1":
        g = recipe.test_grid_size or 30
        lo, hi = recipe.generator_params.get("x_range", (-5.0, 5.0))
        axis = np.linspace(lo, hi, g)
        return [np.array([a, b]) for a in axis for b in axis]
    g = recipe.test_grid_size or 41
    return [np.array([v]) for v in np.linspace(-1.0, 1.0, g)]


def _method_constructor(recipe: ExperimentRecipe, data, train: CalibrationSet,
                        cal: CalibrationSet, rep_seed: int):
    """Fit whatever the method needs once, return a per-x set constructor."""
    alpha = recipe.alpha
    if recipe.method == "oracle":
        oracle = data.oracle

        def make(x):
            lo = float(oracle.quantile(alpha / 2.0, x))
            hi = float(oracle.quantile(1.0 - alpha / 2.0, x))
            return PredictionSet(((lo, hi),), nominal_level=1.0 - alpha, kind="interval")

        return make

    params = dict(recipe.backend_params)
    initial = build_initial(recipe.initial, data.grid, train, mean_k=params.pop("mean_k", 50),
                            generator_model=data.initial)
    if recipe.method == "initial":
        def make(x):
            cdf = model_cdf(initial, x)
            lo = invert_cdf(cdf, alpha / 2.0)
            hi = invert_cdf(cdf, 1.0 - alpha / 2.0)
            return PredictionSet(((lo, hi),), nominal_level=1.0 - alpha, kind="interval")

        return make

    if recipe.method == "regsplit":
        model = RegSplitModel(fit_knn_mean, train, cal, alpha)
        return model.predict_set

    if recipe.method == "dcp":
        model = DcpModel(initial, cal, alpha)
        return model.predict_set

    pits = compute_pit_values(initial, cal)
    fit_args = {key: params.pop(key) for key in ("k", "bandwidth", "weighting", "k_factor")
                if key in params}
    r = fit_pit_model(cal, pits, recipe.backend, rep_seed, **fit_args, net=params)
    if recipe.method == "calpit-int":
        return lambda x: calpit_interval(recalibrate(initial, r, x), alpha)
    return lambda x: calpit_hpd(recalibrate(initial, r, x), alpha)


def run_experiment(recipe: ExperimentRecipe, n_threads: int = 1) -> CoverageReport:
    """Generate, fit, evaluate, and classify; deterministic under the seed.

    Test points are independent work units; with ``n_threads > 1`` they are
    mapped over a thread pool and reduced in point order, so the report does
    not depend on scheduling.
    """
    t_start = time.perf_counter()
    test_xs = _default_test_grid(recipe)
    n_points = len(test_xs)
    coverage = np.zeros(n_points)
    sizes = np.zeros(n_points)

    oracle = None
    for rep in range(recipe.n_realizations):
        rep_seed = rngmod.derive_seed(recipe.seed, "realization", rep)
        data = _GENERATORS[recipe.generator](recipe.n, rep_seed, recipe.generator_params)
        oracle = data.oracle
        if recipe.experiment == "split" or recipe.method in ("regsplit",):
            train, cal = split_calibration(data.cal, 0.5)
        else:
            train = cal = data.cal
        make_set = _method_constructor(recipe, data, train, cal, rep_seed)

        def point_work(item, _rep=rep, _oracle=oracle, _make=make_set):
            i, x = item
            pset = _make(x)
            draws = _oracle.sample(
                x, rngmod.derived_rng(recipe.seed, "coverage", _rep, i), recipe.n_mc_draws
            )
            return float(np.mean(pset.contains(draws))), pset.total_size()

        items = list(enumerate(test_xs))
        if n_threads > 1:
            from concurrent.futures import ThreadPoolExecutor

            with ThreadPoolExecutor(max_workers=n_threads) as pool:
                results = list(pool.map(point_work, items))
        else:
            results = [point_work(item) for item in items]
        for i, (cov_i, size_i) in enumerate(results):
            coverage[i] += cov_i
            sizes[i] += size_i

    coverage /= recipe.n_realizations
    sizes /= recipe.n_realizations
    nominal = 1.0 - recipe.alpha

    points = []
    tallies = {"under": 0, "correct": 0, "over": 0}
    for i, x in enumerate(test_xs):
        label = classify_coverage(coverage[i], nominal, recipe.n_mc_draws, recipe.n_realizations)
        tallies[label] += 1
        points.append({
            "x": [float(v) for v in x],
            "nominal": nominal,
            "empirical": float(coverage[i]),
            "classification": label,
            "mean_set_size": float(sizes[i]),
        })

    summary = {
        "proportion_under": tallies["under"] / n_points,
        "proportion_correct": tallies["correct"] / n_points,
        "proportion_over": tallies["over"] / n_points,
        "mean_size": float(np.mean(sizes)),
        "runtime_seconds": time.perf_counter() - t_start,
        "config": recipe.to_config(),
        "seed": recipe.seed,
    }
    return CoverageReport(points=points, summary=summary)
