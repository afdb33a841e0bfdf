"""Serialized records equal the hand-listed builders they replaced.

Model configs, a benchmark report's ``config`` (``asdict`` of its
:class:`ExperimentRecipe`) and :meth:`PredictionSet.to_json` are built with
``dataclasses.asdict``. The
frozen copies below are the builders that listed every field by hand. The
new documents must give the same JSON text, key order included, and equal
dicts once read back: ``asdict`` keeps tuple fields as tuples, which JSON
writes as the same lists the old builders made.
"""

import hashlib
import json
from dataclasses import asdict

import numpy as np
import pytest

from pitcal.bench import ExperimentRecipe
from pitcal.calibrate import (
    MODEL_FORMAT_VERSION,
    CalibrationSet,
    LocalEmpiricalConfig,
    PredictionSet,
    fit_local_empirical,
)
from pitcal.monotone_net import MonotoneNetConfig, MonotoneNetModel, _init_params


def frozen_local_to_json(model) -> dict:
    return {
        "format_version": MODEL_FORMAT_VERSION,
        "backend": model.backend,
        "config": {
            "k": model.cfg.k,
            "weighting": model.cfg.weighting,
        },
        "standardization": {"mean": model.mean.tolist(), "scale": model.scale.tolist()},
        "n_rows": len(model.pit_values),
        "rows_sha256": hashlib.sha256(model.xs.tobytes() + model.pit_values.tobytes()).hexdigest(),
    }


def frozen_net_to_json(model) -> dict:
    return {
        "format_version": MODEL_FORMAT_VERSION,
        "backend": model.backend,
        "hidden_layers": list(model.hidden),
        "raw_weights": {k: v.tolist() for k, v in model.params.items()},
        "standardization": {"mean": model.mean.tolist(), "scale": model.scale.tolist()},
        "config": {
            "hidden_layers": list(model.config.hidden_layers),
            "learning_rate": model.config.learning_rate,
            "lr_decay": model.config.lr_decay,
            "weight_decay": model.config.weight_decay,
            "batch_size": model.config.batch_size,
            "patience": model.config.patience,
            "val_fraction": model.config.val_fraction,
            "max_epochs": model.config.max_epochs,
            "seed": model.config.seed,
        },
        "loss_history": [[train, val] for train, val in model.loss_history],
        "best_epoch": model.best_epoch,
    }


def frozen_to_config(recipe) -> dict:
    return {
        "generator": recipe.generator,
        "method": recipe.method,
        "n": recipe.n,
        "alpha": recipe.alpha,
        "n_realizations": recipe.n_realizations,
        "n_mc_draws": recipe.n_mc_draws,
        "seed": recipe.seed,
        "initial": recipe.initial,
        "backend": recipe.backend,
        "backend_params": dict(recipe.backend_params),
        "experiment": recipe.experiment,
        "test_grid_size": recipe.test_grid_size,
    }


def frozen_set_to_json(ps) -> dict:
    return {
        "intervals": [list(iv) for iv in ps.intervals],
        "nominal_level": ps.nominal_level,
        "kind": ps.kind,
    }


def assert_same_doc(new: dict, old: dict):
    assert json.dumps(new, indent=1) == json.dumps(old, indent=1)
    assert json.loads(json.dumps(new)) == json.loads(json.dumps(old))


def local_model(cfg):
    rng = np.random.default_rng(11)
    cal = CalibrationSet(rng.normal(size=(60, 2)), rng.normal(size=60))
    return fit_local_empirical(cal, rng.uniform(size=60), cfg)


def net_model():
    rng = np.random.default_rng(12)
    return MonotoneNetModel(_init_params(2, (8, 8), rng), (8, 8), rng.normal(size=2),
                            rng.uniform(0.5, 2.0, size=2),
                            MonotoneNetConfig(hidden_layers=(8, 8), learning_rate=3e-3,
                                              batch_size=256, max_epochs=7, seed=5),
                            [(0.25, 0.3), (0.125, 0.2), (0.1, 0.21)], 1)


MODELS = {
    "local-k": (lambda: local_model(LocalEmpiricalConfig(k=7)), frozen_local_to_json),
    "local-inverse-distance": (
        lambda: local_model(LocalEmpiricalConfig(k=9, weighting="inverse-distance")),
        frozen_local_to_json),
    "net-8-8": (net_model, frozen_net_to_json),
}


@pytest.mark.parametrize("name", list(MODELS))
def test_model_to_json_matches_hand_listed(name):
    build, frozen = MODELS[name]
    model = build()
    assert_same_doc(model.to_json(), frozen(model))


RECIPES = {
    "defaults": dict(generator="ex2-skewed", method="calpit-int", n=500),
    "ex1-dcp": dict(generator="ex1", method="dcp", n=300, alpha=0.2, seed=4),
    "tuple-backend-params": dict(generator="ex2-kurtotic", method="calpit-hpd", n=200,
                                 backend="net", experiment="split", test_grid_size=7,
                                 backend_params={"hidden_layers": (8, 8), "k_factor": 5}),
}


@pytest.mark.parametrize("name", list(RECIPES))
def test_recipe_to_config_matches_hand_listed(name):
    recipe = ExperimentRecipe(**RECIPES[name])
    assert_same_doc(asdict(recipe), frozen_to_config(recipe))


@pytest.mark.parametrize("ps", [
    PredictionSet(((-1.5, 2.25),), nominal_level=0.9, kind="interval"),
    PredictionSet(((-3, -1), (0.5, 4.0)), nominal_level=0.8, kind="hpd"),
])
def test_prediction_set_to_json_matches_hand_listed(ps):
    assert_same_doc(ps.to_json(), frozen_set_to_json(ps))
