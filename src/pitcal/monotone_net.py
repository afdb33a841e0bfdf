"""Partially monotone neural network backend for the PIT-CDF regression.

The coverage level gamma reaches the output only through weights
reparameterized as softplus(raw) >= 0 with tanh activations along that path,
so predictions are nondecreasing in gamma by construction, with no numerical
integration. Features enter an unconstrained relu tower whose layer outputs
are added to the monotone path's pre-activations. A final sigmoid keeps
predictions in [0, 1].

Training is plain mini-batch AdamW on the squared error of the indicator
targets, with a multiplicative learning-rate decay per epoch and early
stopping on a validation loss evaluated over a fixed gamma grid. The network
trains in float32, as the paper's UMNN does in PyTorch; the validation loss
that drives early stopping is summed in float64, and the fitted weights are
stored and evaluated in float64. Everything runs in numpy: deterministic under
a seed, and the fitted model serializes to a binary-free JSON document.
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


def _forward(params: dict, hidden: tuple, x_std: np.ndarray, z0: np.ndarray,
             keep: bool = False):
    """Forward pass on ``z0 = _mono_inputs(gamma)``; keep=True also returns the backprop cache."""
    a, z = x_std, z0
    cache = {"a": [a], "z": [z]} if keep else None
    for k in range(len(hidden)):
        s = a @ params[f"U{k}"].T
        s += params[f"c{k}"]
        a = np.maximum(s, 0.0, out=s)
        q = z @ _softplus(params[f"P{k}"]).T
        q += a @ params[f"B{k}"].T
        q += params[f"b{k}"]
        z = np.tanh(q, out=q)
        if keep:
            cache["a"].append(a)
            cache["z"].append(z)
    mono = z @ _softplus(params["p_out"]).T + z0 @ _softplus(params["p_skip"]).T
    gate_pre = a @ params["s_out"].T + params["s_bias"]
    gate = _softplus(gate_pre)
    u = gate * mono + a @ params["r_out"].T + params["b_out"]
    yhat = _sigmoid(u[:, 0])
    if keep:
        cache.update(mono=mono, gate_pre=gate_pre, gate=gate, yhat=yhat)
        return yhat, cache
    return yhat


def _backward(params: dict, hidden: tuple, cache: dict, w: np.ndarray, g: dict) -> None:
    """Gradients of mean squared error w.r.t. all raw parameters, written into ``g``."""
    n = w.shape[0]
    yhat = cache["yhat"]
    du = ((2.0 / n) * (yhat - w) * yhat * (1.0 - yhat))[:, None]

    z, a = cache["z"], cache["a"]
    dmono = du * cache["gate"]
    dgate_pre = du * cache["mono"] * _sigmoid(cache["gate_pre"])
    g["p_out"][...] = (dmono.T @ z[-1]) * _sigmoid(params["p_out"])
    g["p_skip"][...] = (dmono.T @ z[0]) * _sigmoid(params["p_skip"])
    g["r_out"][...] = du.T @ a[-1]
    g["b_out"][...] = du.sum(axis=0)
    g["s_out"][...] = dgate_pre.T @ a[-1]
    g["s_bias"][...] = dgate_pre.sum(axis=0)

    # the head's outer products have one term each, so broadcasting is exact
    dz = dmono * _softplus(params["p_out"])
    d_free = du * params["r_out"]
    d_free += dgate_pre * params["s_out"]

    # layer k's monotone block reads the free activations a_{k+1}, so their
    # gradient is complete once dq is; nothing reads the input features' gradient
    for k in range(len(hidden) - 1, -1, -1):
        dq = np.square(z[k + 1])
        np.subtract(1.0, dq, out=dq)
        dq *= dz
        g[f"P{k}"][...] = (dq.T @ z[k]) * _sigmoid(params[f"P{k}"])
        g[f"B{k}"][...] = dq.T @ a[k + 1]
        g[f"b{k}"][...] = dq.sum(axis=0)
        ds = dq @ params[f"B{k}"]
        ds += d_free
        ds *= a[k + 1] > 0.0
        g[f"U{k}"][...] = ds.T @ a[k]
        g[f"c{k}"][...] = ds.sum(axis=0)
        if k:
            dz = dq @ _softplus(params[f"P{k}"])
            d_free = ds @ params[f"U{k}"]


def _views(flat: np.ndarray, template: dict) -> dict:
    """Arrays shaped like ``template``'s values, laid end to end in ``flat``."""
    out, start = {}, 0
    for key, v in template.items():
        out[key] = flat[start : start + v.size].reshape(v.shape)
        start += v.size
    return out


class MonotoneNetModel(PitCdfModel):
    """Fitted partially monotone network with feature standardization."""

    backend = "monotone-net"

    def __init__(self, params: dict, hidden: tuple, mean: np.ndarray,
                 scale: np.ndarray, config: MonotoneNetConfig,
                 loss_history: list | None = None, best_epoch: int | None = None):
        self.params = params
        self.hidden = tuple(hidden)
        self.mean = np.asarray(mean, dtype=float)
        self.scale = np.asarray(scale, dtype=float)
        self.config = config
        # (train, validation) loss per epoch, and the epoch whose weights were kept
        self.loss_history = list(loss_history or [])
        self.best_epoch = best_epoch

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
        return _forward(self.params, self.hidden, tiled_x,
                        _mono_inputs(rows.ravel())).reshape(rows.shape)

    def to_json(self) -> dict:
        return {
            "format_version": MODEL_FORMAT_VERSION,
            "backend": self.backend,
            "hidden_layers": list(self.hidden),
            "raw_weights": {k: v.tolist() for k, v in self.params.items()},
            "standardization": {"mean": self.mean.tolist(), "scale": self.scale.tolist()},
            "config": asdict(self.config),
            "loss_history": [list(e) for e in self.loss_history],
            "best_epoch": self.best_epoch,
        }

    @classmethod
    def from_json(cls, doc: dict) -> "MonotoneNetModel":
        return cls(
            {k: np.array(v, dtype=float) for k, v in doc["raw_weights"].items()},
            tuple(doc["hidden_layers"]),
            np.array(doc["standardization"]["mean"]),
            np.array(doc["standardization"]["scale"]),
            MonotoneNetConfig(**doc["config"]),
            [tuple(e) for e in doc.get("loss_history", [])],
            doc.get("best_epoch"),
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
    x_train = xs_std_base[aug.row_index[row_train]].astype(np.float32)
    z_train = _mono_inputs(aug.gamma[row_train]).astype(np.float32)
    w_train = aug.w[row_train].astype(np.float32)
    n_train = w_train.shape[0]
    if n_train == 0:
        raise ValueError("no training rows left after the validation split")

    x_val = xs_std_base[val_base]
    pit_val = aug.base_pit[val_base]
    m_grid = VAL_GAMMA_GRID.size
    val_x_tiled = np.repeat(x_val, m_grid, axis=0).astype(np.float32)
    val_z_tiled = _mono_inputs(np.tile(VAL_GAMMA_GRID, x_val.shape[0])).astype(np.float32)
    # float64 targets make the validation loss a float64 sum of float32 predictions
    val_w = (pit_val[:, None] <= VAL_GAMMA_GRID[None, :]).astype(float).ravel()

    init_rng = rngmod.derived_rng(cfg.seed, "net-init")
    template = _init_params(aug.base_xs.shape[1], cfg.hidden_layers, init_rng)
    # AdamW runs on one flat float32 vector; params and grads are per-key views of it
    flat = np.concatenate([v.ravel() for v in template.values()]).astype(np.float32)
    params = _views(flat, template)
    grad = np.empty_like(flat)
    grads = _views(grad, template)

    m_state, v_state = np.zeros_like(flat), np.zeros_like(flat)
    beta1, beta2, eps = 0.9, 0.999, 1e-8
    step = 0
    # decaying a raw softplus parameter pulls the effective weight toward
    # softplus(0) = 0.69, not toward zero; exempt the monotone-path weights
    # and the gate bias, whose sane resting point is softplus(s_bias) = 1
    no_decay = {"p_out", "p_skip", "s_bias"}
    wd = np.concatenate([
        np.full(v.size, 0.0 if key.startswith("P") or key in no_decay else cfg.weight_decay)
        for key, v in template.items()
    ]).astype(np.float32)

    best_val = np.inf
    best_flat = flat.copy()
    best_epoch = None
    bad_epochs = 0
    history = []

    # float32 overflows sooner than float64; the checks below raise TrainingDiverged
    with np.errstate(over="ignore", invalid="ignore"):
        for epoch in range(cfg.max_epochs):
            lr = cfg.learning_rate * (cfg.lr_decay ** epoch)
            order = rngmod.derived_rng(cfg.seed, "net-shuffle", epoch).permutation(n_train)
            epoch_loss = 0.0
            for start in range(0, n_train, cfg.batch_size):
                idx = order[start : start + cfg.batch_size]
                w_batch = w_train[idx]
                yhat, cache = _forward(params, cfg.hidden_layers, x_train[idx], z_train[idx],
                                       keep=True)
                batch_loss = float(np.mean((yhat - w_batch) ** 2))
                if not np.isfinite(batch_loss):
                    raise TrainingDiverged(f"non-finite loss at epoch {epoch}")
                epoch_loss += batch_loss * idx.size
                _backward(params, cfg.hidden_layers, cache, w_batch, grads)
                step += 1
                bc1 = 1.0 - beta1**step
                bc2 = 1.0 - beta2**step
                m_state *= beta1
                m_state += (1.0 - beta1) * grad
                v_state *= beta2
                v_state += (1.0 - beta2) * grad * grad
                update = (m_state / bc1) / (np.sqrt(v_state / bc2) + eps)
                flat -= lr * (update + wd * flat)

            val_pred = _forward(params, cfg.hidden_layers, val_x_tiled, val_z_tiled)
            val_loss = float(np.mean((val_pred - val_w) ** 2))
            if not np.isfinite(val_loss):
                raise TrainingDiverged(f"non-finite validation loss at epoch {epoch}")
            history.append((epoch_loss / n_train, val_loss))

            if val_loss < best_val - 1e-12:
                best_val = val_loss
                best_flat = flat.copy()
                best_epoch = epoch
                bad_epochs = 0
            else:
                bad_epochs += 1
                if bad_epochs >= cfg.patience:
                    break

    # the fitted model holds float64 widenings of the float32 weights
    return MonotoneNetModel(_views(best_flat.astype(float), template), cfg.hidden_layers,
                            mean, scale, cfg, history, best_epoch)
