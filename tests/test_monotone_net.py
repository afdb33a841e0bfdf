import json
import os
import subprocess
import sys
import warnings
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

import pitcal
import pitcal.rng as rngmod
from pitcal.calibrate import MODEL_FORMAT_VERSION, CalibrationSet, augment, compute_pit_values
from pitcal.dataio import write_json
from pitcal.errors import TrainingDiverged
from pitcal.monotone_net import (
    VAL_GAMMA_GRID,
    MonotoneNetConfig,
    MonotoneNetModel,
    _backward,
    _forward,
    _init_params,
    _mono_inputs,
    _per_row,
    _positive_weights,
    _sigmoid,
    _softplus,
    fit_monotone_net,
)
from pitcal.models import standardize
from pitcal.synthgen import sample_example2

SMALL_CFG = dict(hidden_layers=(16, 16), learning_rate=3e-3, lr_decay=0.97,
                 batch_size=512, max_epochs=25, seed=1)


def net_from_doc(doc):
    """The network that a ``model.json`` document records, rebuilt from its JSON text."""
    doc = json.loads(json.dumps(doc))
    return MonotoneNetModel({k: np.array(v) for k, v in doc["raw_weights"].items()},
                            doc["hidden_layers"], np.array(doc["standardization"]["mean"]),
                            np.array(doc["standardization"]["scale"]),
                            MonotoneNetConfig(**doc["config"]),
                            [tuple(e) for e in doc["loss_history"]], doc["best_epoch"])


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


class TestFittedModel:
    @settings(max_examples=12, deadline=None)
    @given(st.integers(min_value=0, max_value=2**32 - 1), st.sampled_from([(), (8,), (8, 8)]))
    def test_float32_fit_predicts_float64_monotone_and_round_trips(self, seed, hidden):
        rng = np.random.default_rng(seed)
        n = 150
        xs = rng.normal(size=(n, 2))
        pits = np.clip(0.5 + 0.3 * np.tanh(xs[:, 0]) + 0.2 * rng.normal(size=n), 0.0, 1.0)
        aug = augment(CalibrationSet(xs, np.zeros(n)), pits, 3, seed=seed)
        cfg = MonotoneNetConfig(hidden_layers=hidden, learning_rate=1e-2, batch_size=64,
                                max_epochs=2, seed=seed)
        net = fit_monotone_net(aug, cfg)
        gammas = np.concatenate([[0.0], np.sort(rng.uniform(size=30)), [1.0]])
        grid = rng.normal(0.0, 2.0, size=(7, 2))
        mat = net.predict_matrix(gammas, grid)
        assert mat.dtype == np.float64
        assert np.all(mat >= 0.0) and np.all(mat <= 1.0)
        assert np.all(np.diff(mat, axis=1) >= 0.0)
        assert np.array_equal(net_from_doc(net.to_json()).predict_matrix(gammas, grid), mat)


class TestDeterminism:
    def test_same_seed_same_trajectory(self):
        aug = calibrated_aug(n=500, k_factor=5)
        cfg = MonotoneNetConfig(hidden_layers=(8, 8), batch_size=256, max_epochs=5, seed=3)
        a = fit_monotone_net(aug, cfg)
        b = fit_monotone_net(aug, cfg)
        assert a.loss_history == b.loss_history
        gam = np.linspace(0.05, 0.95, 11)
        np.testing.assert_array_equal(a.predict_curve(gam, [0.2]), b.predict_curve(gam, [0.2]))

    def test_same_model_json_for_one_and_two_blas_threads(self):
        # BLAS reads its thread count when numpy loads, so each fit runs in its own process
        script = (
            "import json, numpy as np\n"
            "from pitcal.calibrate import CalibrationSet, augment\n"
            "from pitcal.monotone_net import MonotoneNetConfig, fit_monotone_net\n"
            "rng = np.random.default_rng(0)\n"
            "xs = rng.uniform(-1, 1, size=(3000, 1))\n"
            "pits = np.clip(0.5 + 0.3 * xs[:, 0] + 0.2 * rng.normal(size=3000), 0, 1)\n"
            "aug = augment(CalibrationSet(xs, np.zeros(3000)), pits, 10, seed=1)\n"
            "cfg = MonotoneNetConfig(hidden_layers=(32, 32), max_epochs=2, seed=2)\n"
            "print(json.dumps(fit_monotone_net(aug, cfg).to_json()))\n"
        )
        src = str(Path(pitcal.__file__).resolve().parents[1])
        docs = []
        for threads in ("1", "2"):
            env = {**os.environ, "OPENBLAS_NUM_THREADS": threads, "OMP_NUM_THREADS": threads,
                   "PYTHONPATH": os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))}
            out = subprocess.run([sys.executable, "-c", script], env=env, capture_output=True,
                                 text=True, timeout=300, check=True)
            docs.append(out.stdout)
        assert json.loads(docs[0])["loss_history"]
        assert docs[0] == docs[1]


def reference_predict_curve(model, gammas, x):
    """``predict_curve`` as it was before it became a batch of one."""
    gammas = np.asarray(gammas, dtype=float).ravel()
    x_std = standardize(np.asarray(x, dtype=float).ravel(), model.mean, model.scale)
    return _forward(model.params, model.positive, model.hidden, x_std, _mono_inputs(gammas))


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

    @settings(max_examples=30, deadline=None)
    @given(
        st.integers(min_value=0, max_value=10**6),
        st.sampled_from([1, 3]),
        st.sampled_from([(), (8,), (6, 5)]),
        st.integers(min_value=1, max_value=7),
    )
    def test_cached_positive_weights_equal_recomputed(self, seed, dim, hidden, n_x):
        rng = np.random.default_rng(seed)
        params = {k: v + rng.normal(0.0, 0.5, size=v.shape)
                  for k, v in _init_params(dim, hidden, rng).items()}
        net = MonotoneNetModel(params, hidden, rng.normal(size=dim),
                               rng.uniform(0.5, 2.0, size=dim), MonotoneNetConfig(seed=1))
        gammas = np.sort(np.concatenate([[0.0, 1.0], rng.uniform(size=20)]))
        xs = rng.normal(size=(n_x, dim))
        want = recomputing_forward(params, hidden, standardize(xs, net.mean, net.scale),
                                   _mono_inputs(np.tile(gammas, n_x))).reshape(n_x, -1)
        assert np.array_equal(net.predict_matrix(gammas, xs), want)
        assert np.array_equal(net_from_doc(net.to_json()).predict_matrix(gammas, xs), want)


def recomputing_forward(params, hidden, x_std, z0):
    """The grouped forward pass as it was when it took softplus of every raw weight on each call."""
    m = x_std.shape[0]
    n_levels = z0.shape[0] // m
    a, z = x_std, z0
    for k in range(len(hidden)):
        s = _per_row(a, params[f"U{k}"])
        s += params[f"c{k}"]
        a = np.maximum(s, 0.0, out=s)
        q = z @ _softplus(params[f"P{k}"]).T
        free = _per_row(a, params[f"B{k}"])
        free += params[f"b{k}"]
        grouped = q.reshape(m, n_levels, q.shape[1])
        grouped += free[:, None, :]
        z = np.tanh(q, out=q)
    mono = z @ _softplus(params["p_out"]).T + z0 @ _softplus(params["p_skip"]).T
    gate = _softplus(_per_row(a, params["s_out"]) + params["s_bias"])
    u = mono.reshape(m, n_levels) * gate
    u += _per_row(a, params["r_out"])
    u += params["b_out"]
    return _sigmoid(u.ravel())


def frozen_forward(params, hidden, x_std, gamma, keep=False):
    """The network's forward pass before it took the monotone encodings."""
    a = x_std
    z0 = _mono_inputs(gamma)
    z = z0
    cache = {"a": [a], "z": [z], "s": [], "q": []} if keep else None
    for k in range(len(hidden)):
        s = a @ params[f"U{k}"].T + params[f"c{k}"]
        a = np.maximum(s, 0.0)
        pp = _softplus(params[f"P{k}"])
        q = z @ pp.T + a @ params[f"B{k}"].T + params[f"b{k}"]
        z = np.tanh(q)
        if keep:
            cache["s"].append(s)
            cache["a"].append(a)
            cache["q"].append(q)
            cache["z"].append(z)
    mono = z @ _softplus(params["p_out"]).T + z0 @ _softplus(params["p_skip"]).T
    gate_pre = a @ params["s_out"].T + params["s_bias"]
    gate = _softplus(gate_pre)
    u = gate * mono + a @ params["r_out"].T + params["b_out"]
    yhat = _sigmoid(u[:, 0])
    if keep:
        cache.update(mono=mono, gate_pre=gate_pre, gate=gate, u=u, yhat=yhat)
        return yhat, cache
    return yhat


def frozen_backward(params, hidden, cache, w):
    """The backward pass before it dropped its temporaries, returning a dict."""
    n = w.shape[0]
    yhat = cache["yhat"]
    du = ((2.0 / n) * (yhat - w) * yhat * (1.0 - yhat))[:, None]
    g = {}
    z_last = cache["z"][-1]
    a_last = cache["a"][-1]
    pp_out = _softplus(params["p_out"])
    dmono = du * cache["gate"]
    dgate = du * cache["mono"]
    dgate_pre = dgate * _sigmoid(cache["gate_pre"])
    g["p_out"] = (dmono.T @ z_last) * _sigmoid(params["p_out"])
    g["p_skip"] = (dmono.T @ cache["z"][0]) * _sigmoid(params["p_skip"])
    g["r_out"] = du.T @ a_last
    g["b_out"] = du.sum(axis=0)
    g["s_out"] = dgate_pre.T @ a_last
    g["s_bias"] = dgate_pre.sum(axis=0)
    L = len(hidden)
    dz = dmono @ pp_out
    da = [np.zeros_like(cache["a"][k + 1]) for k in range(L)]
    if L:
        da[L - 1] = du @ params["r_out"] + dgate_pre @ params["s_out"]
    for k in range(L - 1, -1, -1):
        dq = dz * (1.0 - cache["z"][k + 1] ** 2)
        pp = _softplus(params[f"P{k}"])
        g[f"P{k}"] = (dq.T @ cache["z"][k]) * _sigmoid(params[f"P{k}"])
        g[f"B{k}"] = dq.T @ cache["a"][k + 1]
        g[f"b{k}"] = dq.sum(axis=0)
        da[k] = da[k] + dq @ params[f"B{k}"]
        dz = dq @ pp
    d_next = None
    for k in range(L - 1, -1, -1):
        total = da[k] if d_next is None else da[k] + d_next
        ds = total * (cache["s"][k] > 0.0)
        g[f"U{k}"] = ds.T @ cache["a"][k]
        g[f"c{k}"] = ds.sum(axis=0)
        if k:
            d_next = ds @ params[f"U{k}"]
    return g


def frozen_fit(aug, cfg, batches="points"):
    """``fit_monotone_net`` with the passes above and per-key AdamW: (params, loss history).

    ``batches="points"`` shuffles the training points and gives each batch
    ``max(1, batch_size // K)`` of them with all K levels, as the trainer does;
    ``batches="rows"`` shuffles the augmented rows and cuts batches of
    ``batch_size`` rows, the order the trainer used before it grouped levels.
    """
    mean = aug.base_xs.mean(axis=0)
    scale = aug.base_xs.std(axis=0)
    scale = np.where(scale > 0, scale, 1.0)
    xs_std_base = (aug.base_xs - mean) / scale
    perm = rngmod.derived_rng(cfg.seed, "net-split").permutation(aug.n_base)
    n_val = max(1, int(round(cfg.val_fraction * aug.n_base)))
    val_base = perm[:n_val]
    train_mask = np.ones(aug.n_base, dtype=bool)
    train_mask[val_base] = False
    k_factor = aug.k_factor
    # one row per (training point, level), each point's K levels in a run
    x_train = np.repeat(xs_std_base[train_mask], k_factor, axis=0)
    g_train = aug.gamma[train_mask].ravel()
    w_train = aug.w[train_mask].ravel().astype(float)
    n_train = g_train.shape[0]
    n_points = n_train // k_factor
    x_val = xs_std_base[val_base]
    val_x_tiled = np.repeat(x_val, VAL_GAMMA_GRID.size, axis=0)
    val_g_tiled = np.tile(VAL_GAMMA_GRID, x_val.shape[0])
    val_w = (aug.base_pit[val_base][:, None] <= VAL_GAMMA_GRID[None, :]).astype(float).ravel()

    def batch_rows(epoch):
        if batches == "rows":
            order = rngmod.derived_rng(cfg.seed, "net-shuffle", epoch).permutation(n_train)
            return [order[i : i + cfg.batch_size] for i in range(0, n_train, cfg.batch_size)]
        order = rngmod.derived_rng(cfg.seed, "net-shuffle", epoch).permutation(n_points)
        per_batch = max(1, cfg.batch_size // k_factor)
        return [(order[i : i + per_batch, None] * k_factor + np.arange(k_factor)).ravel()
                for i in range(0, n_points, per_batch)]

    params = _init_params(aug.base_xs.shape[1], cfg.hidden_layers,
                          rngmod.derived_rng(cfg.seed, "net-init"))
    m_state = {k: np.zeros_like(v) for k, v in params.items()}
    v_state = {k: np.zeros_like(v) for k, v in params.items()}
    beta1, beta2, eps = 0.9, 0.999, 1e-8
    step = 0
    decay_mask = {key: 0.0 if (key.startswith("P") or key in {"p_out", "p_skip", "s_bias"})
                  else 1.0 for key in params}
    best_val = np.inf
    best_params = {k: v.copy() for k, v in params.items()}
    bad_epochs = 0
    history = []
    for epoch in range(cfg.max_epochs):
        lr = cfg.learning_rate * (cfg.lr_decay ** epoch)
        epoch_loss = 0.0
        for idx in batch_rows(epoch):
            yhat, cache = frozen_forward(params, cfg.hidden_layers, x_train[idx], g_train[idx],
                                         keep=True)
            epoch_loss += float(np.mean((yhat - w_train[idx]) ** 2)) * idx.size
            grads = frozen_backward(params, cfg.hidden_layers, cache, w_train[idx])
            step += 1
            bc1 = 1.0 - beta1**step
            bc2 = 1.0 - beta2**step
            for key in params:
                gk = grads[key]
                m_state[key] = beta1 * m_state[key] + (1.0 - beta1) * gk
                v_state[key] = beta2 * v_state[key] + (1.0 - beta2) * gk * gk
                update = (m_state[key] / bc1) / (np.sqrt(v_state[key] / bc2) + eps)
                wd = cfg.weight_decay * decay_mask[key]
                params[key] = params[key] - lr * (update + wd * params[key])
        val_pred = frozen_forward(params, cfg.hidden_layers, val_x_tiled, val_g_tiled)
        val_loss = float(np.mean((val_pred - val_w) ** 2))
        history.append((epoch_loss / n_train, val_loss))
        if val_loss < best_val - 1e-12:
            best_val = val_loss
            best_params = {k: v.copy() for k, v in params.items()}
            bad_epochs = 0
        else:
            bad_epochs += 1
            if bad_epochs >= cfg.patience:
                break
    return best_params, history


# a fixed (x, gamma) grid on which the float32 fit is compared with the float64 frozen
# fit; x stays inside the training features' range, where data pin the fitted map
FROZEN_GRID_X = np.linspace(-1.0, 1.0, 9)
FROZEN_GRID_GAMMA = np.linspace(0.0, 1.0, 21)


def assert_matches_frozen(net, aug, cfg):
    """The float32 fit against ``frozen_fit`` in float64, within float32 rounding.

    Epoch count and early-stop epoch must agree exactly, the loss history
    within a relative 1e-6, and ``predict_matrix`` within 1e-6 on the grid.
    """
    want_params, want_history = frozen_fit(aug, cfg)
    assert len(net.loss_history) == len(want_history)
    assert net.best_epoch == int(np.argmin([v for _, v in want_history]))
    np.testing.assert_allclose(np.array(net.loss_history), np.array(want_history),
                               rtol=1e-6, atol=0)
    assert net.params.keys() == want_params.keys()
    want = MonotoneNetModel(want_params, net.hidden, net.mean, net.scale, cfg)
    dim = net.mean.size
    xs = np.column_stack([FROZEN_GRID_X * (-1) ** j for j in range(dim)])
    np.testing.assert_allclose(net.predict_matrix(FROZEN_GRID_GAMMA, xs),
                               want.predict_matrix(FROZEN_GRID_GAMMA, xs), rtol=0, atol=1e-6)
    return want_history


class TestMatchesFrozenTraining:
    """The float32 fit with cached encodings, in-place passes and flat AdamW tracks the
    float64 frozen copy to float32 rounding."""

    @pytest.mark.parametrize("hidden", [(), (8,), (16, 16), (8, 8, 8)])
    @pytest.mark.parametrize("dim", [1, 3])
    def test_params_and_history_equal(self, hidden, dim):
        rng = np.random.default_rng(len(hidden) + 10 * dim)
        n = 230  # 207 training points x 4 levels: batches of 25 points leave 7 over
        xs = rng.normal(size=(n, dim))
        # PITs that depend on x, so the tower and the gate both get gradient
        pits = np.clip(0.5 + 0.3 * np.tanh(xs.sum(axis=1)) + 0.2 * rng.normal(size=n), 0.0, 1.0)
        aug = augment(CalibrationSet(xs, np.zeros(n)), pits, 4, seed=3)
        cfg = MonotoneNetConfig(hidden_layers=hidden, learning_rate=3e-3, batch_size=100,
                                max_epochs=6, seed=5)
        n_points = n - round(cfg.val_fraction * n)
        assert n_points % (cfg.batch_size // aug.k_factor) != 0
        assert_matches_frozen(fit_monotone_net(aug, cfg), aug, cfg)

    def test_early_stop_before_max_epochs(self):
        aug = calibrated_aug(n=300, k_factor=5)
        # a large learning rate stalls the validation loss after a few epochs
        cfg = MonotoneNetConfig(hidden_layers=(8, 8), learning_rate=0.3, batch_size=256,
                                patience=3, max_epochs=30, seed=3)
        want_history = assert_matches_frozen(fit_monotone_net(aug, cfg), aug, cfg)
        assert len(want_history) < cfg.max_epochs


class TestGroupedPass:
    """The pass on (m feature rows, L levels each) against the ungrouped frozen pass on
    ``np.repeat``-ed feature rows, in float64."""

    @settings(max_examples=60, deadline=None)
    @given(
        st.integers(min_value=0, max_value=10**6),
        st.sampled_from([(), (8,), (8, 8)]),
        st.sampled_from([1, 3]),
        st.integers(min_value=1, max_value=5),
        st.integers(min_value=1, max_value=7),
    )
    def test_equals_repeated_rows(self, seed, hidden, dim, m, n_levels):
        rng = np.random.default_rng(seed)
        params = {k: v + rng.normal(0.0, 0.5, size=v.shape)
                  for k, v in _init_params(dim, hidden, rng).items()}
        xs = rng.normal(size=(m, dim))
        gamma = rng.uniform(size=m * n_levels)
        w = (rng.uniform(size=m * n_levels) < 0.5).astype(float)
        positive = _positive_weights(params, len(hidden))
        yhat, cache = _forward(params, positive, hidden, xs, _mono_inputs(gamma), keep=True)
        want, want_cache = frozen_forward(params, hidden, np.repeat(xs, n_levels, axis=0),
                                          gamma, keep=True)
        np.testing.assert_allclose(yhat, want, rtol=0, atol=1e-12)
        assert np.array_equal(_forward(params, positive, hidden, xs, _mono_inputs(gamma)), yhat)
        grads = {k: np.empty_like(v) for k, v in params.items()}
        _backward(params, positive, hidden, cache, w, grads)
        want_grads = frozen_backward(params, hidden, want_cache, w)
        for key, g in grads.items():
            np.testing.assert_allclose(g, want_grads[key], rtol=1e-12, atol=1e-12, err_msg=key)


class TestPointBatchesAgainstRowBatches:
    """Point batches fit as well as the row-shuffled batches they replaced."""

    @pytest.mark.parametrize("seed", [0, 1, 2])
    @pytest.mark.parametrize("setting", ["skewed", "kurtotic"])
    def test_best_validation_loss_within_one_percent(self, setting, seed):
        data = sample_example2(setting, 2000, seed=seed)
        aug = augment(data.cal, compute_pit_values(data.initial, data.cal), 10, seed=seed)
        cfg = MonotoneNetConfig(hidden_layers=(16, 16), max_epochs=4, seed=seed)
        got = min(v for _, v in fit_monotone_net(aug, cfg).loss_history)
        want = min(v for _, v in frozen_fit(aug, cfg, batches="rows")[1])
        assert abs(got - want) <= 0.01 * want


class TestSerialization:
    def test_round_trip(self, tmp_path):
        aug = calibrated_aug(n=300, k_factor=5)
        cfg = MonotoneNetConfig(hidden_layers=(8,), batch_size=256, max_epochs=3, seed=3)
        net = fit_monotone_net(aug, cfg)
        path = tmp_path / "net.json"
        write_json(path, net.to_json())
        doc = json.loads(path.read_text())
        assert doc["backend"] == "monotone-net"
        assert doc["format_version"] == MODEL_FORMAT_VERSION == 2
        assert "raw_weights" in doc and "standardization" in doc
        assert len(doc["loss_history"]) == 3
        loaded = net_from_doc(doc)
        gam = np.linspace(0.05, 0.95, 11)
        assert np.array_equal(loaded.predict_curve(gam, [0.4]), net.predict_curve(gam, [0.4]))
        assert loaded.loss_history == net.loss_history
        assert loaded.best_epoch == net.best_epoch is not None


class TestDivergence:
    def test_absurd_learning_rate_diverges(self):
        aug = calibrated_aug(n=300, k_factor=5)
        cfg = MonotoneNetConfig(hidden_layers=(8,), batch_size=64, max_epochs=10,
                                learning_rate=1e12, seed=3)
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always")
            with pytest.raises(TrainingDiverged):
                fit_monotone_net(aug, cfg)
        # the fit reports divergence by its exception alone, with no numpy RuntimeWarning
        assert not [w for w in caught if issubclass(w.category, RuntimeWarning)]
