import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

import pitcal.rng as rngmod
from pitcal.calibrate import CalibrationSet, augment, load_pit_model
from pitcal.dataio import write_json
from pitcal.errors import TrainingDiverged
from pitcal.monotone_net import (
    MonotoneNetConfig,
    MonotoneNetModel,
    _forward,
    _init_params,
    fit_monotone_net,
)
from pitcal.synthgen import sample_example2

SMALL_CFG = dict(hidden_layers=(16, 16), learning_rate=3e-3, lr_decay=0.97,
                 batch_size=512, max_epochs=25, seed=1)


def calibrated_aug(n=2000, k_factor=10, seed=0):
    rng = np.random.default_rng(seed)
    cal = CalibrationSet(rng.uniform(-1, 1, size=(n, 1)), np.zeros(n))
    return augment(cal, rng.uniform(size=n), k_factor, seed=seed + 1)


class TestConfig:
    def test_validation(self):
        with pytest.raises(ValueError):
            MonotoneNetConfig(val_fraction=0.0)
        with pytest.raises(ValueError):
            MonotoneNetConfig(patience=0)
        with pytest.raises(ValueError):
            MonotoneNetConfig(hidden_layers=(8, 0))


class TestIdentityTarget:
    def test_calibrated_data_learns_diagonal(self):
        # pit ~ U(0,1) independent of x: the target regression is the
        # identity in gamma
        rng = np.random.default_rng(0)
        n = 5000
        cal = CalibrationSet(rng.uniform(-1, 1, size=(n, 1)), np.zeros(n))
        aug = augment(cal, rng.uniform(size=n), 50, seed=5)
        cfg = MonotoneNetConfig(hidden_layers=(32, 32), learning_rate=1e-3,
                                lr_decay=0.95, batch_size=2048, max_epochs=30, seed=1)
        net = fit_monotone_net(aug, cfg)
        gam = np.linspace(0.025, 0.975, 41)
        worst = max(
            float(np.max(np.abs(net.predict_curve(gam, [xv]) - gam)))
            for xv in np.linspace(-1, 1, 20)
        )
        assert worst <= 0.05


@pytest.fixture(scope="module")
def skewed_net():
    data = sample_example2("skewed", 10000, seed=7)
    from pitcal.calibrate import compute_pit_values

    pits = compute_pit_values(data.initial, data.cal)
    aug = augment(data.cal, pits, 50, seed=11)
    cfg = MonotoneNetConfig(hidden_layers=(32, 32), learning_rate=3e-3,
                            lr_decay=0.97, batch_size=2048, max_epochs=40,
                            patience=15, seed=1)
    return data, fit_monotone_net(aug, cfg)


class TestExampleTwo:

    def test_diagonal_where_well_specified(self, skewed_net):
        _, net = skewed_net
        gam = np.linspace(0.05, 0.95, 41)
        curve = net.predict_curve(gam, [0.0])
        assert np.max(np.abs(curve - gam)) <= 0.05

    def test_biased_point_pushes_above_half(self, skewed_net):
        data, net = skewed_net
        # local-empirical oracle value: P(Y <= -1 | x = -1) ~ 0.88
        assert float(data.oracle.cdf(-1.0, [-1.0])) > 0.85
        assert net.predict_curve([0.5], [-1.0])[0] > 0.55


class TestMonotonicity:
    def test_zero_violations(self):
        aug = calibrated_aug()
        net = fit_monotone_net(aug, MonotoneNetConfig(**SMALL_CFG))
        gam = np.linspace(0.001, 0.999, 101)
        rng = np.random.default_rng(2)
        for _ in range(100):
            curve = net.predict_curve(gam, rng.uniform(-1.5, 1.5, size=1))
            assert np.all(np.diff(curve) >= 0.0)

    def test_outputs_in_unit_interval(self):
        aug = calibrated_aug(n=500, k_factor=5)
        net = fit_monotone_net(aug, MonotoneNetConfig(**SMALL_CFG))
        gam = np.linspace(0.0, 1.0, 21)
        curve = net.predict_curve(gam, [3.0])
        assert np.all(curve >= 0.0) and np.all(curve <= 1.0)


class TestDeterminism:
    def test_same_seed_same_trajectory(self):
        aug = calibrated_aug(n=500, k_factor=5)
        cfg = MonotoneNetConfig(hidden_layers=(8, 8), batch_size=256, max_epochs=5, seed=3)
        a = fit_monotone_net(aug, cfg)
        b = fit_monotone_net(aug, cfg)
        assert a.loss_history == b.loss_history
        gam = np.linspace(0.05, 0.95, 11)
        np.testing.assert_array_equal(a.predict_curve(gam, [0.2]), b.predict_curve(gam, [0.2]))


def reference_predict_curve(model, gammas, x):
    """``predict_curve`` as it was before it became a batch of one."""
    gammas = np.asarray(gammas, dtype=float).ravel()
    x_std = model._standardize(np.asarray(x, dtype=float).ravel())
    xs = np.repeat(x_std, gammas.size, axis=0)
    return _forward(model.params, model.hidden, xs, gammas)


class TestPredictCurve:
    @settings(max_examples=40, deadline=None)
    @given(
        st.integers(min_value=0, max_value=10**6),
        st.sampled_from([1, 2]),
        st.sampled_from([(), (8,), (6, 5)]),
        st.integers(min_value=1, max_value=60),
    )
    def test_batch_of_one_equals_reference(self, seed, dim, hidden, n_gammas):
        rng = np.random.default_rng(seed)
        # perturb every weight so the output depends on x and gamma
        params = {k: v + rng.normal(0.0, 0.5, size=v.shape)
                  for k, v in _init_params(dim, hidden, rng).items()}
        net = MonotoneNetModel(params, hidden, rng.normal(size=dim),
                               rng.uniform(0.5, 2.0, size=dim), MonotoneNetConfig(seed=1))
        gammas = np.sort(np.concatenate([[0.0, 1.0], rng.uniform(size=n_gammas)]))
        xs = rng.normal(size=(5, dim))
        for x in xs:
            want = reference_predict_curve(net, gammas, x)
            assert np.array_equal(net.predict_curve(gammas, x), want)
            assert np.array_equal(net.predict_curve(gammas, list(x)), want)
        if dim == 1:
            assert np.array_equal(net.predict_curve(gammas, float(xs[0, 0])),
                                  reference_predict_curve(net, gammas, float(xs[0, 0])))
        # rows of a larger batch go through BLAS with other shapes, so they
        # are held to rounding, not to bit equality
        mat = net.predict_matrix(gammas, xs)
        assert mat.shape == (5, gammas.size)
        for i, x in enumerate(xs):
            np.testing.assert_allclose(mat[i], reference_predict_curve(net, gammas, x),
                                       rtol=0, atol=1e-13)

    def test_one_feature_flat_xs_matches_column(self):
        rng = np.random.default_rng(4)
        params = {k: v + rng.normal(0.0, 0.5, size=v.shape)
                  for k, v in _init_params(1, (6,), rng).items()}
        net = MonotoneNetModel(params, (6,), np.array([0.3]), np.array([1.7]),
                               MonotoneNetConfig(seed=1))
        gammas = np.linspace(0.0, 1.0, 9)
        xs = np.array([0.1, 0.2, 0.3])
        flat = net.predict_matrix(gammas, xs)
        assert flat.shape == (3, 9)
        assert np.array_equal(flat, net.predict_matrix(gammas, xs[:, None]))


class TestSerialization:
    def test_round_trip(self, tmp_path):
        aug = calibrated_aug(n=300, k_factor=5)
        cfg = MonotoneNetConfig(hidden_layers=(8,), batch_size=256, max_epochs=3, seed=3)
        net = fit_monotone_net(aug, cfg)
        path = tmp_path / "net.json"
        write_json(path, net.to_json())
        loaded = load_pit_model(path)
        assert isinstance(loaded, MonotoneNetModel)
        gam = np.linspace(0.05, 0.95, 11)
        np.testing.assert_allclose(
            loaded.predict_curve(gam, [0.4]), net.predict_curve(gam, [0.4]), atol=1e-15
        )
        import json

        doc = json.loads(path.read_text())
        assert doc["backend"] == "monotone-net"
        assert doc["format_version"] == 1
        assert "raw_weights" in doc and "standardization" in doc


class TestDivergence:
    def test_absurd_learning_rate_diverges(self):
        aug = calibrated_aug(n=300, k_factor=5)
        cfg = MonotoneNetConfig(hidden_layers=(8,), batch_size=64, max_epochs=10,
                                learning_rate=1e12, seed=3)
        with np.errstate(over="ignore", invalid="ignore"):
            with pytest.raises(TrainingDiverged):
                fit_monotone_net(aug, cfg)
