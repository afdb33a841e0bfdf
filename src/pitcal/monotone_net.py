"""Partially monotone neural network backend for the PIT-CDF regression.

The coverage level gamma reaches the output only through weights
reparameterized as softplus(raw) >= 0 with tanh activations along that path,
so predictions are nondecreasing in gamma by construction, with no numerical
integration. Features enter an unconstrained relu tower whose layer outputs
are added to the monotone path's pre-activations. A final sigmoid keeps
predictions in [0, 1].

Training is plain mini-batch AdamW on the squared error of the indicator
targets, with a multiplicative learning-rate decay per epoch and early
stopping on a validation loss evaluated over a fixed gamma grid. Everything
runs in numpy: deterministic under a seed, and the fitted model serializes to
a binary-free JSON document.
"""

from __future__ import annotations

from dataclasses import asdict, dataclass

import numpy as np
from scipy.special import ndtri

from . import rng as rngmod
from .calibrate import MODEL_FORMAT_VERSION, AugmentedCalibrationSet, PitCdfModel, _gamma_rows
from .errors import TrainingDiverged

__all__ = ["MonotoneNetConfig", "MonotoneNetModel", "fit_monotone_net", "VAL_GAMMA_GRID"]

# fixed gamma grid for the per-epoch validation loss
VAL_GAMMA_GRID = np.linspace(0.025, 0.975, 41)


@dataclass(frozen=True)
class MonotoneNetConfig:
    hidden_layers: tuple = (64, 64, 64)
    learning_rate: float = 1e-3
    lr_decay: float = 0.95
    weight_decay: float = 0.01
    batch_size: int = 2048
    patience: int = 10
    val_fraction: float = 0.1
    max_epochs: int = 100
    seed: int = 0

    def __post_init__(self):
        if not 0.0 < self.val_fraction < 1.0:
            raise ValueError("val_fraction must be in (0, 1)")
        if min(self.patience, self.batch_size, self.max_epochs) < 1:
            raise ValueError("patience, batch_size and max_epochs must be >= 1")
        if any(h < 1 for h in self.hidden_layers):
            raise ValueError("hidden layer widths must be >= 1")
        if not 0.0 < self.learning_rate < np.inf:
            raise ValueError(f"learning_rate must be finite and > 0, got {self.learning_rate}")
        if not 0.0 < self.lr_decay <= 1.0:
            raise ValueError(f"lr_decay must be in (0, 1], got {self.lr_decay}")
        if not 0.0 <= self.weight_decay < np.inf:
            raise ValueError(f"weight_decay must be finite and >= 0, got {self.weight_decay}")
        object.__setattr__(self, "hidden_layers", tuple(int(h) for h in self.hidden_layers))


def _softplus(x):
    return np.logaddexp(0.0, x)


def _sigmoid(x):
    return 0.5 * (1.0 + np.tanh(0.5 * x))


def _inv_softplus(y):
    # log(exp(y) - 1), stable for small positive y
    return np.log(np.expm1(np.maximum(y, 1e-12)))


def _mono_inputs(gamma: np.ndarray) -> np.ndarray:
    """Monotone encodings of gamma fed to the constrained path.

    The raw level plus scaled log-odds, probit, and log-tail probit terms;
    P-P curves of roughly calibrated models are near-linear in log-odds, and
    the tail-sensitive coordinates let dispersion corrections stay linear
    instead of fighting saturating activations. All coordinates are
    nondecreasing in gamma.
    """
    g = np.clip(gamma, 1e-7, 1.0 - 1e-7)
    probit = ndtri(g)
    return np.column_stack([
        g,
        0.25 * np.log(g / (1.0 - g)),
        0.25 * probit,
        0.5 * np.arcsinh(probit),
    ])


_N_MONO_IN = 4


def _init_params(dim_x: int, hidden: tuple, rng: np.random.Generator) -> dict:
    p = {}
    prev_free = dim_x
    prev_mono = _N_MONO_IN
    for k, h in enumerate(hidden):
        p[f"U{k}"] = rng.normal(0.0, 1.0 / np.sqrt(prev_free), size=(h, prev_free))
        p[f"c{k}"] = np.zeros(h)
        target = np.abs(rng.normal(0.0, 1.0, size=(h, prev_mono))) / prev_mono
        p[f"P{k}"] = _inv_softplus(target)
        p[f"B{k}"] = rng.normal(0.0, 1.0 / np.sqrt(h), size=(h, h))
        p[f"b{k}"] = np.zeros(h)
        prev_free = h
        prev_mono = h
    p["p_out"] = _inv_softplus(0.1 * np.abs(rng.normal(0.0, 1.0, size=(1, prev_mono))) / prev_mono)
    # direct skip from the monotone inputs; weight 4 on the 0.25*log-odds
    # coordinate makes the initial network the exact identity P-P map
    p["p_skip"] = _inv_softplus(np.array([[1e-3, 4.0, 1e-3, 1e-3]]))
    # feature-driven affine head: u = softplus(gate(x)) * mono + shift(x);
    # the shift absorbs local bias, the gate local dispersion
    p["r_out"] = np.zeros((1, prev_free))
    p["b_out"] = np.zeros(1)
    p["s_out"] = np.zeros((1, prev_free))
    p["s_bias"] = _inv_softplus(np.ones(1))
    return p


def _forward(params: dict, hidden: tuple, x_std: np.ndarray, gamma: np.ndarray,
             keep: bool = False):
    """Forward pass; with keep=True also returns intermediates for backprop."""
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
        cache["mono"] = mono
        cache["gate_pre"] = gate_pre
        cache["gate"] = gate
        cache["u"] = u
        cache["yhat"] = yhat
        return yhat, cache
    return yhat


def _backward(params: dict, hidden: tuple, cache: dict, w: np.ndarray) -> dict:
    """Gradients of mean squared error w.r.t. all raw parameters."""
    n = w.shape[0]
    yhat = cache["yhat"]
    du = (2.0 / n) * (yhat - w) * yhat * (1.0 - yhat)
    du = du[:, None]

    g = {}
    z_last = cache["z"][-1]
    a_last = cache["a"][-1]
    pp_out = _softplus(params["p_out"])
    gate = cache["gate"]
    dmono = du * gate
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

    # monotone tower backward, collecting gradients into the free activations
    for k in range(L - 1, -1, -1):
        dq = dz * (1.0 - cache["z"][k + 1] ** 2)
        pp = _softplus(params[f"P{k}"])
        g[f"P{k}"] = (dq.T @ cache["z"][k]) * _sigmoid(params[f"P{k}"])
        g[f"B{k}"] = dq.T @ cache["a"][k + 1]
        g[f"b{k}"] = dq.sum(axis=0)
        da[k] = da[k] + dq @ params[f"B{k}"]
        dz = dq @ pp

    # free tower backward; nothing reads the gradient of the input features
    d_next = None
    for k in range(L - 1, -1, -1):
        total = da[k] if d_next is None else da[k] + d_next
        ds = total * (cache["s"][k] > 0.0)
        g[f"U{k}"] = ds.T @ cache["a"][k]
        g[f"c{k}"] = ds.sum(axis=0)
        if k:
            d_next = ds @ params[f"U{k}"]
    return g


class MonotoneNetModel(PitCdfModel):
    """Fitted partially monotone network with feature standardization."""

    backend = "monotone-net"

    def __init__(self, params: dict, hidden: tuple, mean: np.ndarray,
                 scale: np.ndarray, config: MonotoneNetConfig,
                 loss_history: list | None = None):
        self.params = params
        self.hidden = tuple(hidden)
        self.mean = np.asarray(mean, dtype=float)
        self.scale = np.asarray(scale, dtype=float)
        self.config = config
        self.loss_history = list(loss_history or [])

    def _standardize(self, xs: np.ndarray) -> np.ndarray:
        return (xs.reshape(-1, self.mean.size) - self.mean) / self.scale

    def predict_matrix(self, gammas, xs) -> np.ndarray:
        """r(gamma; x) for every (x row, gamma) pair in one forward pass, shape (n_x, G).

        ``xs`` is (n_x, d), or (n_x,) for a one-feature model; ``gammas`` is
        (G,) or (n_x, G).
        """
        xs_std = self._standardize(np.asarray(xs, dtype=float))
        rows = _gamma_rows(gammas, xs_std.shape[0])
        tiled_x = np.repeat(xs_std, rows.shape[1], axis=0)
        return _forward(self.params, self.hidden, tiled_x, rows.ravel()).reshape(rows.shape)

    def to_json(self) -> dict:
        return {
            "format_version": MODEL_FORMAT_VERSION,
            "backend": self.backend,
            "hidden_layers": list(self.hidden),
            "raw_weights": {k: v.tolist() for k, v in self.params.items()},
            "standardization": {"mean": self.mean.tolist(), "scale": self.scale.tolist()},
            "config": asdict(self.config),
        }

    @classmethod
    def from_json(cls, doc: dict) -> "MonotoneNetModel":
        return cls(
            {k: np.array(v, dtype=float) for k, v in doc["raw_weights"].items()},
            tuple(doc["hidden_layers"]),
            np.array(doc["standardization"]["mean"]),
            np.array(doc["standardization"]["scale"]),
            MonotoneNetConfig(**doc["config"]),
        )


def fit_monotone_net(aug: AugmentedCalibrationSet, cfg: MonotoneNetConfig) -> MonotoneNetModel:
    """Train the monotone network on an augmented calibration set.

    Base calibration points are split into train/validation partitions; the
    validation loss is the squared error of predictions against the indicator
    targets I(pit <= gamma) over the fixed gamma grid, so early stopping sees
    the whole curve rather than the drawn gammas only. The model with the best
    validation loss is returned.
    """
    if len(aug) == 0:
        raise ValueError("augmented set is empty")
    mean = aug.base_xs.mean(axis=0)
    scale = aug.base_xs.std(axis=0)
    scale = np.where(scale > 0, scale, 1.0)
    xs_std_base = (aug.base_xs - mean) / scale

    split_rng = rngmod.derived_rng(cfg.seed, "net-split")
    n_base = aug.n_base
    perm = split_rng.permutation(n_base)
    n_val = max(1, int(round(cfg.val_fraction * n_base)))
    val_base = perm[:n_val]
    train_mask = np.ones(n_base, dtype=bool)
    train_mask[val_base] = False

    row_train = train_mask[aug.row_index]
    x_train = xs_std_base[aug.row_index[row_train]]
    g_train = aug.gamma[row_train]
    w_train = aug.w[row_train].astype(float)
    n_train = g_train.shape[0]
    if n_train == 0:
        raise ValueError("no training rows left after the validation split")

    x_val = xs_std_base[val_base]
    pit_val = aug.base_pit[val_base]
    m_grid = VAL_GAMMA_GRID.size
    val_x_tiled = np.repeat(x_val, m_grid, axis=0)
    val_g_tiled = np.tile(VAL_GAMMA_GRID, x_val.shape[0])
    val_w = (pit_val[:, None] <= VAL_GAMMA_GRID[None, :]).astype(float).ravel()

    init_rng = rngmod.derived_rng(cfg.seed, "net-init")
    params = _init_params(aug.base_xs.shape[1], cfg.hidden_layers, init_rng)

    m_state = {k: np.zeros_like(v) for k, v in params.items()}
    v_state = {k: np.zeros_like(v) for k, v in params.items()}
    beta1, beta2, eps = 0.9, 0.999, 1e-8
    step = 0
    # decaying a raw softplus parameter pulls the effective weight toward
    # softplus(0) = 0.69, not toward zero; exempt the monotone-path weights
    # and the gate bias, whose sane resting point is softplus(s_bias) = 1
    no_decay = {"p_out", "p_skip", "s_bias"}
    decay_mask = {
        key: 0.0 if (key.startswith("P") or key in no_decay) else 1.0 for key in params
    }

    best_val = np.inf
    best_params = {k: v.copy() for k, v in params.items()}
    bad_epochs = 0
    history = []

    for epoch in range(cfg.max_epochs):
        lr = cfg.learning_rate * (cfg.lr_decay ** epoch)
        order = rngmod.derived_rng(cfg.seed, "net-shuffle", epoch).permutation(n_train)
        epoch_loss = 0.0
        for start in range(0, n_train, cfg.batch_size):
            idx = order[start : start + cfg.batch_size]
            yhat, cache = _forward(params, cfg.hidden_layers, x_train[idx], g_train[idx], keep=True)
            batch_loss = float(np.mean((yhat - w_train[idx]) ** 2))
            if not np.isfinite(batch_loss):
                raise TrainingDiverged(f"non-finite loss at epoch {epoch}")
            epoch_loss += batch_loss * idx.size
            grads = _backward(params, cfg.hidden_layers, cache, w_train[idx])
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

        val_pred = _forward(params, cfg.hidden_layers, val_x_tiled, val_g_tiled)
        val_loss = float(np.mean((val_pred - val_w) ** 2))
        if not np.isfinite(val_loss):
            raise TrainingDiverged(f"non-finite validation loss at epoch {epoch}")
        history.append((epoch_loss / n_train, val_loss))

        if val_loss < best_val - 1e-12:
            best_val = val_loss
            best_params = {k: v.copy() for k, v in params.items()}
            bad_epochs = 0
        else:
            bad_epochs += 1
            if bad_epochs >= cfg.patience:
                break

    return MonotoneNetModel(best_params, cfg.hidden_layers, mean, scale, cfg, history)
