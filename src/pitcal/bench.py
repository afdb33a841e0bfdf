"""Monte Carlo conditional-coverage benchmark harness.

For each realization, data are drawn fresh from a registered generator, the
chosen method is fitted, and every test point's prediction set is scored
against oracle draws of the response. Coverage pools across realizations, and
each point is classified under / correct / over by a two-standard-deviation
band around the nominal level, with the binomial standard deviation computed
from the total pooled draw count.
"""

from __future__ import annotations

import time
from dataclasses import asdict, dataclass, field, fields

import numpy as np

from . import rng as rngmod
from .baselines import DcpModel, RegSplitModel, fit_knn_mean
from .calibrate import (CalibrationSet, PredictionSet, calpit_sets, compute_pit_values,
                        recalibrate_rows)
from .errors import ConfigError
from .grid import map_row_blocks
from .models import cdf_rows
from .monotone_net import MonotoneNetConfig
from .pipeline import build_initial, fit_pit_model, split_calibration
from .synthgen import TwoGroupConfig, sample_example1, sample_example2

__all__ = [
    "ExperimentRecipe",
    "CoverageReport",
    "classify_coverage",
    "run_experiment",
    "REPORT_FORMAT_VERSION",
]

REPORT_FORMAT_VERSION = 1

_GENERATORS = {
    "ex1": lambda n, seed: sample_example1(TwoGroupConfig(), n, seed),
    "ex2-skewed": lambda n, seed: sample_example2("skewed", n, seed),
    "ex2-kurtotic": lambda n, seed: sample_example2("kurtotic", n, seed),
}

_METHODS = ("calpit-int", "calpit-hpd", "dcp", "regsplit", "oracle", "initial")
_INITIALS = ("uniform", "marginal", "gaussian-fit", "generator")
# the backend_params keys each backend reads; mean_k sets the initial model's KNN mean
_BACKEND_PARAMS = {
    "local": {"k", "weighting", "mean_k"},
    "net": {f.name for f in fields(MonotoneNetConfig)} | {"k_factor", "mean_k"},
}
# the keys each method reads where not its backend's: dcp and initial only mean_k
_METHOD_PARAMS = {"dcp": {"mean_k"}, "initial": {"mean_k"}, "regsplit": set(), "oracle": set()}


def _unread_params(recipe) -> list:
    """The ``backend_params`` keys that ``recipe``'s method never reads, sorted."""
    read = _METHOD_PARAMS.get(recipe.method, _BACKEND_PARAMS[recipe.backend])
    return sorted(set(recipe.backend_params) - read)


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

    def __post_init__(self):
        if self.generator not in _GENERATORS:
            raise ConfigError(f"unknown generator {self.generator!r}")
        if self.method not in _METHODS:
            raise ConfigError(f"unknown method {self.method!r}")
        if self.initial not in _INITIALS:
            raise ConfigError(f"unknown initial model kind {self.initial!r}")
        if self.backend not in _BACKEND_PARAMS:
            raise ConfigError(f"unknown backend {self.backend!r}")
        unknown = sorted(set(self.backend_params) - _BACKEND_PARAMS[self.backend])
        if unknown:
            raise ConfigError(f"the {self.backend} backend reads no backend_params {unknown}")
        if self.experiment not in ("full", "split"):
            raise ConfigError(f"unknown experiment mode {self.experiment!r}")
        if not 0.0 < self.alpha < 1.0:
            raise ConfigError(f"alpha must be in (0, 1), got {self.alpha}")
        if min(self.n, self.n_realizations, self.n_mc_draws) < 1:
            raise ConfigError("n, realizations and mc_draws must be >= 1")
        if self.test_grid_size is not None and self.test_grid_size < 1:
            raise ConfigError(f"test_grid_size must be >= 1, got {self.test_grid_size}")


@dataclass
class CoverageReport:
    points: list
    summary: dict

    CSV_HEADER = ("x0", "x1", "empirical", "classification", "set_size")

    def to_json(self) -> dict:
        return {
            "format_version": REPORT_FORMAT_VERSION,
            "points": self.points,
            "summary": self.summary,
        }

    def csv_rows(self) -> list:
        """One row per point under :attr:`CSV_HEADER`; ``x1`` is empty for one feature."""
        return [(p["x"][0], p["x"][1] if len(p["x"]) > 1 else "", p["empirical"],
                 p["classification"], p["mean_set_size"]) for p in self.points]


def _score_sets(sets, oracle, xs, n_draws: int, seed: int, label: tuple):
    """Share of oracle draws inside each point's set, and the set's size.

    Point i draws from ``derived_rng(seed, *label, i)``. Blocks of points
    (:func:`map_row_blocks`) take their draws from ``oracle.sample_rows`` and
    test them against every interval slot of their sets in one pass; a set
    with fewer intervals than the most pads with (inf, -inf), which holds no
    draw. The width is 4 * ``n_draws``: the draws and two temporaries of the
    oracle's transform, plus the pass's four boolean masks.
    """
    rngs = rngmod.derived_rngs(seed, *label, count=len(sets))
    slots = max(len(s.intervals) for s in sets)
    bounds = np.array([s.intervals + ((np.inf, -np.inf),) * (slots - len(s.intervals))
                       for s in sets]).reshape(len(sets), slots, 2)

    def coverage(xs, rngs, bounds):
        y = oracle.sample_rows(xs, rngs, n_draws)
        hit = np.zeros(y.shape, dtype=bool)
        for lo, hi in bounds.transpose(1, 2, 0)[..., None]:  # each slot's (P, 1) ends
            hit |= (y >= lo) & (y <= hi)
        return np.count_nonzero(hit, axis=1) / n_draws

    return (map_row_blocks(coverage, 4 * n_draws, xs, rngs, bounds),
            np.array([s.total_size() for s in sets]))


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


def _default_test_grid(recipe: ExperimentRecipe) -> np.ndarray:
    """Test points as rows, shape (n_points, d)."""
    if recipe.generator == "ex1":
        g = recipe.test_grid_size or 30
        lo, hi = TwoGroupConfig().x_range
        axis = np.linspace(lo, hi, g)
        return np.array([[a, b] for a in axis for b in axis])
    g = recipe.test_grid_size or 41
    return np.linspace(-1.0, 1.0, g)[:, None]


def _prediction_sets(recipe: ExperimentRecipe, data, train: CalibrationSet,
                     cal: CalibrationSet, rep_seed: int, xs: np.ndarray) -> list:
    """Fit whatever the method needs once, then build the set of every row of ``xs``."""
    alpha = recipe.alpha
    if recipe.method == "oracle":
        ends = data.oracle.quantile_rows([alpha / 2.0, 1.0 - alpha / 2.0], xs)
        return [PredictionSet(((float(lo), float(hi)),), nominal_level=1.0 - alpha,
                              kind="interval") for lo, hi in ends]
    if recipe.method == "regsplit":
        return RegSplitModel(fit_knn_mean, train, cal, alpha).predict_sets(xs)

    params = dict(recipe.backend_params)
    initial = build_initial(recipe.initial, data.grid, train, mean_k=params.pop("mean_k", 50),
                            generator_model=data.initial)
    if recipe.method == "initial":
        return calpit_sets(initial.grid.points, cdf_rows(initial, xs), alpha, "interval")
    if recipe.method == "dcp":
        return DcpModel(initial, cal, alpha).predict_sets(xs)

    pits = compute_pit_values(initial, cal)
    fit_args = {key: params.pop(key) for key in ("k", "weighting", "k_factor") if key in params}
    r = fit_pit_model(cal, pits, recipe.backend, rep_seed, **fit_args, net=params)
    kind = "interval" if recipe.method == "calpit-int" else "hpd"
    return calpit_sets(initial.grid.points, recalibrate_rows(initial, r, xs), alpha, kind)


def run_experiment(recipe: ExperimentRecipe, n_threads: int = 1) -> CoverageReport:
    """Generate, fit, evaluate, and classify; deterministic under the seed.

    Each realization builds all of its test points' sets in one batch, then
    scores them against oracle draws in blocks of points (:func:`_score_sets`).
    ``n_threads`` is accepted and ignored.
    """
    t_start = time.perf_counter()
    xs = _default_test_grid(recipe)
    n_points = len(xs)
    coverage = np.zeros(n_points)
    sizes = np.zeros(n_points)

    for rep in range(recipe.n_realizations):
        rep_seed = rngmod.derive_seed(recipe.seed, "realization", rep)
        data = _GENERATORS[recipe.generator](recipe.n, rep_seed)
        if recipe.experiment == "split" or recipe.method == "regsplit":
            train, cal = split_calibration(data.cal, 0.5)
        else:
            train = cal = data.cal
        sets = _prediction_sets(recipe, data, train, cal, rep_seed, xs)
        cov, size = _score_sets(sets, data.oracle, xs, recipe.n_mc_draws, recipe.seed,
                                ("coverage", rep))
        coverage += cov
        sizes += size

    coverage /= recipe.n_realizations
    sizes /= recipe.n_realizations
    nominal = 1.0 - recipe.alpha

    points = []
    tallies = {"under": 0, "correct": 0, "over": 0}
    for i, x in enumerate(xs):
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
        "config": asdict(recipe),
        "seed": recipe.seed,
    }
    return CoverageReport(points=points, summary=summary)
