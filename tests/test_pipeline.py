"""The shared pipeline against frozen copies of the helpers it replaced.

``pitcal.pipeline`` took over the CLI's and the benchmark's own copies of the
initial-model builder, the backend fit and the train/cal split. The frozen
copies below are those helpers as they were; the new functions, called the
way ``cmd_calibrate`` and ``run_experiment`` call them, must give the same
PIT values, the same fitted curves and the same network weights, all under
exact ``==``.
"""

import numpy as np
import pytest

from pitcal import cli
from pitcal import rng as rngmod
from pitcal.baselines import fit_knn_mean
from pitcal.bench import ExperimentRecipe
from pitcal.calibrate import (
    CalibrationSet,
    LocalEmpiricalConfig,
    augment,
    compute_pit_values,
    fit_local_empirical,
)
from pitcal.dataio import read_calibration_csv, write_calibration_csv
from pitcal.errors import ConfigError
from pitcal.grid import default_grid
from pitcal.models import GaussianInitialModel, MarginalHistogramModel, UniformInitialModel
from pitcal.monotone_net import MonotoneNetConfig, fit_monotone_net
from pitcal.pipeline import build_initial, default_k, fit_pit_model, split_calibration
from pitcal.synthgen import sample_example2

GAMMAS = np.linspace(0.0, 1.0, 21)
XS = [np.array([-0.7]), np.array([0.05]), np.array([0.6])]
TINY_NET = {"net_hidden": "4,4", "net_lr": 1e-3, "net_lr_decay": 0.95,
            "net_weight_decay": 0.01, "net_batch": 256, "net_patience": 2,
            "net_val_fraction": 0.1, "net_max_epochs": 2}


# ----------------------------------------------------------------------
# frozen copies of the replaced helpers
# ----------------------------------------------------------------------

def frozen_cli_build_initial(cfg, cal, grid, train):
    kind = cfg["initial"]
    if kind == "uniform":
        return UniformInitialModel(grid)
    if kind == "marginal":
        return MarginalHistogramModel(grid, train.ys)
    if kind == "gaussian-fit":
        mu = fit_knn_mean(train, k=int(cfg["mean_k"]))
        resid = np.array([train.ys[i] - mu(train.xs[i]) for i in range(len(train))])
        sd = float(np.std(resid)) or 1.0
        return GaussianInitialModel(grid, mean_fn=mu, sd_fn=sd * float(cfg["sd_scale"]))
    raise ConfigError(f"unknown initial model kind {kind!r}")


def frozen_cli_split_for_initial(cfg, data):
    if cfg["initial"] == "gaussian-fit":
        half = int(len(data) * float(cfg["train_fraction"]))
        if half < 1 or half >= len(data):
            raise ConfigError("train_fraction leaves an empty split")
        train = CalibrationSet(data.xs[:half], data.ys[:half])
        cal = CalibrationSet(data.xs[half:], data.ys[half:])
        return train, cal
    return data, data


def frozen_cli_fit_backend(cfg, cal, pits, seed):
    if cfg["backend"] == "local":
        k = cfg["k"] if cfg["k"] is not None else max(10, min(len(cal) // 10, 1000))
        return fit_local_empirical(cal, pits, LocalEmpiricalConfig(k=int(k), weighting=cfg["weighting"]))
    if cfg["backend"] == "net":
        net_cfg = MonotoneNetConfig(
            hidden_layers=tuple(int(h) for h in str(cfg["net_hidden"]).split(",")),
            learning_rate=float(cfg["net_lr"]),
            lr_decay=float(cfg["net_lr_decay"]),
            weight_decay=float(cfg["net_weight_decay"]),
            batch_size=int(cfg["net_batch"]),
            patience=int(cfg["net_patience"]),
            val_fraction=float(cfg["net_val_fraction"]),
            max_epochs=int(cfg["net_max_epochs"]),
            seed=rngmod.derive_seed(seed, "net"),
        )
        aug = augment(cal, pits, int(cfg["k_factor"]), rngmod.derive_seed(seed, "augment"))
        return fit_monotone_net(aug, net_cfg)
    raise ConfigError(f"unknown backend {cfg['backend']!r}")


def frozen_bench_split(data_cal):
    half = len(data_cal) // 2
    train = CalibrationSet(data_cal.xs[:half], data_cal.ys[:half])
    cal = CalibrationSet(data_cal.xs[half:], data_cal.ys[half:])
    return train, cal


def frozen_bench_build_initial(recipe, data, train):
    if recipe.initial == "uniform":
        return UniformInitialModel(data.grid)
    if recipe.initial == "marginal":
        return MarginalHistogramModel(data.grid, train.ys)
    if recipe.initial == "generator":
        if data.initial is None:
            raise ConfigError(f"generator {recipe.generator!r} provides no initial model")
        return data.initial
    mu = fit_knn_mean(train, k=int(recipe.backend_params.get("mean_k", 50)))
    resid = np.array([train.ys[i] - mu(train.xs[i]) for i in range(len(train))])
    sd = float(np.std(resid))
    sd = sd if sd > 0 else 1.0
    return GaussianInitialModel(data.grid, mean_fn=mu, sd_fn=sd)


def frozen_bench_fit_pit_model(recipe, cal, pits, seed):
    if recipe.backend == "local":
        k = recipe.backend_params.get("k")
        if k is None:
            k = max(10, min(len(cal) // 10, 1000))
        weighting = recipe.backend_params.get("weighting", "uniform")
        cfg = LocalEmpiricalConfig(k=int(k), weighting=weighting)
        return fit_local_empirical(cal, pits, cfg)
    params = dict(recipe.backend_params)
    k_factor = int(params.pop("k_factor", 50))
    params.setdefault("seed", seed)
    cfg = MonotoneNetConfig(**params)
    aug = augment(cal, pits, k_factor, rngmod.derive_seed(seed, "augment"))
    return fit_monotone_net(aug, cfg)


# ----------------------------------------------------------------------
# comparisons
# ----------------------------------------------------------------------

def assert_same_model(old, new):
    for x in XS:
        assert np.array_equal(old.predict_curve(GAMMAS, x), new.predict_curve(GAMMAS, x))
    assert old.to_json() == new.to_json()


@pytest.fixture(scope="module")
def csv_path(tmp_path_factory):
    path = tmp_path_factory.mktemp("pipeline") / "data.csv"
    write_calibration_csv(path, sample_example2("skewed", 401, 17).cal)
    return path


CLI_CASES = [
    ("uniform", "local", None, "uniform"),
    ("marginal", "local", 40, "inverse-distance"),
    ("gaussian-fit", "local", 25, "uniform"),
    ("gaussian-fit", "local", None, "inverse-distance"),
    ("uniform", "net", None, "uniform"),
    ("gaussian-fit", "net", None, "uniform"),
]


@pytest.mark.parametrize("initial,backend,k,weighting", CLI_CASES)
def test_cli_assembly_matches_frozen_helpers(csv_path, initial, backend, k, weighting):
    cfg = {**vars(cli.build_parser().parse_args(["calibrate"])), **TINY_NET, "data": str(csv_path), "initial": initial,
           "backend": backend, "k": k, "weighting": weighting, "k_factor": 3,
           "mean_k": 30, "sd_scale": 1.3, "train_fraction": 0.4}
    seed = 11

    data = read_calibration_csv(csv_path)
    grid = default_grid(data.ys, n_points=int(cfg["grid_points"]))
    train, cal_old = frozen_cli_split_for_initial(cfg, data)
    initial_old = frozen_cli_build_initial(cfg, cal_old, grid, train)
    pits_old = compute_pit_values(initial_old, cal_old)
    model_old = frozen_cli_fit_backend(cfg, cal_old, pits_old, seed)

    cal_new, initial_new, pits_new, _ = cli._prepare(cfg)
    model_new = fit_pit_model(cal_new, pits_new, backend, seed, k=cfg["k"],
                              weighting=cfg["weighting"], k_factor=cfg["k_factor"],
                              net=cli._net_params(cfg, seed))

    assert np.array_equal(cal_old.xs, cal_new.xs) and np.array_equal(cal_old.ys, cal_new.ys)
    assert np.array_equal(pits_old, pits_new)
    assert_same_model(model_old, model_new)


BENCH_CASES = [
    ("uniform", "local", {"k": 50}, "full"),
    ("marginal", "local", {"k": 30}, "split"),
    ("gaussian-fit", "local", {"mean_k": 20, "weighting": "inverse-distance"}, "split"),
    ("generator", "local", {}, "full"),
    ("generator", "net", {"hidden_layers": (4, 4), "max_epochs": 2, "patience": 2,
                          "batch_size": 256, "k_factor": 3}, "full"),
    ("gaussian-fit", "net", {"hidden_layers": (4,), "max_epochs": 2, "batch_size": 256,
                             "k_factor": 2, "seed": 5}, "split"),
]


@pytest.mark.parametrize("initial,backend,params,experiment", BENCH_CASES)
def test_bench_assembly_matches_frozen_helpers(initial, backend, params, experiment):
    recipe = ExperimentRecipe(generator="ex2-skewed", method="calpit-int", n=301,
                              initial=initial, backend=backend, backend_params=params,
                              experiment=experiment)
    rep_seed = rngmod.derive_seed(recipe.seed, "realization", 0)
    data = sample_example2("skewed", recipe.n, rep_seed)

    if experiment == "split":
        train_old, cal_old = frozen_bench_split(data.cal)
        train_new, cal_new = split_calibration(data.cal, 0.5)
        assert np.array_equal(train_old.ys, train_new.ys)
        assert np.array_equal(cal_old.ys, cal_new.ys)
    else:
        train_old = cal_old = train_new = cal_new = data.cal
    initial_old = frozen_bench_build_initial(recipe, data, train_old)
    pits_old = compute_pit_values(initial_old, cal_old)
    model_old = frozen_bench_fit_pit_model(recipe, cal_old, pits_old, rep_seed)

    # the way bench._prediction_sets calls the pipeline
    rest = dict(params)
    initial_new = build_initial(initial, data.grid, train_new, mean_k=rest.pop("mean_k", 50),
                                generator_model=data.initial)
    pits_new = compute_pit_values(initial_new, cal_new)
    fit_args = {key: rest.pop(key) for key in ("k", "weighting", "k_factor") if key in rest}
    model_new = fit_pit_model(cal_new, pits_new, backend, rep_seed, **fit_args, net=rest)

    assert np.array_equal(pits_old, pits_new)
    assert_same_model(model_old, model_new)


class TestValidation:
    def test_default_k(self):
        assert [default_k(n) for n in (3, 150, 2500, 10**6)] == [10, 15, 250, 1000]

    @pytest.mark.parametrize("n,fraction", [(1, 0.5), (10, 0.05), (10, 1.0)])
    def test_empty_split_is_config_error(self, n, fraction):
        data = CalibrationSet(np.zeros((n, 1)), np.zeros(n))
        with pytest.raises(ConfigError):
            split_calibration(data, fraction)

    def test_half_split_matches_floor_division(self):
        for n in range(2, 400):
            data = CalibrationSet(np.arange(n, dtype=float)[:, None], np.zeros(n))
            train, _ = split_calibration(data, 0.5)
            assert len(train) == n // 2

    @pytest.mark.parametrize("kwargs", [
        {"k": 0}, {"k": 31}, {"k": "many"}, {"weighting": "nope"},
    ])
    def test_local_config_errors(self, kwargs):
        cal = CalibrationSet(np.zeros((30, 1)), np.zeros(30))
        with pytest.raises(ConfigError):
            fit_pit_model(cal, np.full(30, 0.5), "local", 0, **kwargs)

    @pytest.mark.parametrize("net", [{"val_fraction": 2.0}, {"hidden_layers": (0,)},
                                     {"no_such_field": 1}])
    def test_net_config_errors(self, net):
        cal = CalibrationSet(np.zeros((30, 1)), np.zeros(30))
        with pytest.raises(ConfigError):
            fit_pit_model(cal, np.full(30, 0.5), "net", 0, net=net)

    def test_unknown_kinds(self):
        cal = CalibrationSet(np.zeros((30, 1)), np.zeros(30))
        with pytest.raises(ConfigError):
            build_initial("generator", None, cal)
        with pytest.raises(ConfigError):
            build_initial("nope", None, cal)
        with pytest.raises(ConfigError):
            fit_pit_model(cal, np.full(30, 0.5), "nope", 0)
