"""Partially monotone neural network backend for the PIT-CDF regression.

The coverage level gamma reaches the output only through weights
reparameterized as softplus(raw) >= 0 with tanh activations along that path,
so predictions are nondecreasing in gamma by construction, with no numerical
integration. Features enter an unconstrained relu tower whose layer outputs
are added to the monotone path's pre-activations. A final sigmoid keeps
predictions in [0, 1].

Training is plain mini-batch AdamW on the squared error of the indicator
targets, with a multiplicative learning-rate decay per epoch and early
stopping on a validation loss evaluated over a fixed gamma grid. A batch
holds ``max(1, batch_size // K)`` calibration points with all K of their
augmented levels, so the feature tower runs once per point, not once per
level; validation and prediction group their levels the same way. The network
trains in float32, as the paper's UMNN does in PyTorch; the validation loss
that drives early stopping is summed in float64, and the fitted weights are
stored and evaluated in float64. Everything runs in numpy: deterministic under
a seed, and the fitted model serializes to a binary-free JSON document.
"""

from __future__ import annotations

from dataclasses import asdict, dataclass

import numpy as np

from . import rng as rngmod
from .calibrate import MODEL_FORMAT_VERSION, AugmentedCalibrationSet, PitCdfModel, _gamma_rows
from .errors import TrainingDiverged
from .grid import map_row_blocks
from .models import standardization, standardize
from .normal import ndtri

__all__ = ["MonotoneNetConfig", "MonotoneNetModel", "fit_monotone_net", "VAL_GAMMA_GRID"]

# fixed gamma grid for the per-epoch validation loss
VAL_GAMMA_GRID = np.linspace(0.025, 0.975, 41)


@dataclass(frozen=True)
class MonotoneNetConfig:
    """Network shape and training settings.

    ``batch_size`` counts augmented rows: a batch holds
    ``max(1, batch_size // K)`` calibration points, each with all K of its
    levels, so a K above ``batch_size`` gives one point per batch.
    """

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
    nondecreasing in gamma. The probit is :func:`pitcal.normal.ndtri`, a numpy
    port of Cephes' routine.
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


def _per_row(a: np.ndarray, w: np.ndarray) -> np.ndarray:
    """``a @ w.T`` for feature rows ``a``; a one-row ``a`` is doubled and the copy dropped.

    numpy sends a one-row product to gemv or dot rather than gemm; the second
    copy of the row sends it to gemm, as a larger batch goes.
    """
    if a.shape[0] != 1:
        return a @ w.T
    return (np.repeat(a, 2, axis=0) @ w.T)[:1]


def _positive_weights(params: dict, n_layers: int) -> dict:
    """softplus of the raw monotone-path weights, computed once per set of weights.

    A forward and a backward pass on the same weights share one copy:
    ``np.logaddexp`` on every raw matrix costs more than a small batch's products.
    """
    keys = [f"P{k}" for k in range(n_layers)] + ["p_out", "p_skip"]
    return {key: _softplus(params[key]) for key in keys}


def _forward(params: dict, positive: dict, hidden: tuple, x_std: np.ndarray, z0: np.ndarray,
             keep: bool = False):
    """Forward pass on m feature rows and their m*L level rows, ``yhat`` of shape (m*L,).

    Rows i*L .. i*L + L - 1 of ``z0 = _mono_inputs(gamma)`` are the levels of
    feature row i. The relu tower and the gate/shift head depend on x alone,
    so they run once per feature row and broadcast over that row's L levels;
    only the monotone path runs on all m*L rows. ``positive`` is
    ``_positive_weights(params, len(hidden))``. keep=True also returns the
    backprop cache.
    """
    m = x_std.shape[0]
    n_levels = z0.shape[0] // max(m, 1)
    a, z = x_std, z0
    cache = {"a": [a], "z": [z]} if keep else None
    for k in range(len(hidden)):
        s = _per_row(a, params[f"U{k}"])
        s += params[f"c{k}"]
        a = np.maximum(s, 0.0, out=s)
        q = z @ positive[f"P{k}"].T
        free = _per_row(a, params[f"B{k}"])
        free += params[f"b{k}"]
        grouped = q.reshape(m, n_levels, q.shape[1])  # a view of q, levels grouped by row
        grouped += free[:, None, :]
        z = np.tanh(q, out=q)
        if keep:
            cache["a"].append(a)
            cache["z"].append(z)
    mono = z @ positive["p_out"].T + z0 @ positive["p_skip"].T
    gate_pre = _per_row(a, params["s_out"]) + params["s_bias"]
    gate = _softplus(gate_pre)
    u = mono.reshape(m, n_levels) * gate
    u += _per_row(a, params["r_out"])
    u += params["b_out"]
    yhat = _sigmoid(u.ravel())
    if keep:
        cache.update(mono=mono, gate_pre=gate_pre, gate=gate, yhat=yhat)
        return yhat, cache
    return yhat


# OpenBLAS's serial and threaded GEMM drivers cut a long reduction into blocks
# differently unless its length is a multiple of the block unit, so a sum over
# batch rows runs as a multiple-of-64-row product plus a short tail; the fitted
# weights then do not depend on the BLAS thread count
_ROW_BLOCK = 64


def _row_sum_product(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """``a.T @ b``, the sum over rows, blocked the same way on any BLAS thread count."""
    head = a.shape[0] - a.shape[0] % _ROW_BLOCK
    out = a[:head].T @ b[:head]
    if head < a.shape[0]:
        out += a[head:].T @ b[head:]
    return out


def _backward(params: dict, positive: dict, hidden: tuple, cache: dict, w: np.ndarray,
              g: dict) -> None:
    """Gradients of mean squared error w.r.t. all raw parameters, written into ``g``.

    Per-level terms reach the once-per-feature-row tower and head through a
    sum over each row's levels.
    """
    z, a = cache["z"], cache["a"]
    m = a[0].shape[0]
    yhat = cache["yhat"]
    du = ((2.0 / yhat.shape[0]) * (yhat - w) * yhat * (1.0 - yhat)).reshape(m, -1)
    du_row = du.sum(axis=1, keepdims=True)

    dmono = (du * cache["gate"]).reshape(-1, 1)
    dgate_pre = (du * cache["mono"].reshape(m, -1)).sum(axis=1, keepdims=True)
    dgate_pre *= _sigmoid(cache["gate_pre"])
    g["p_out"][...] = (dmono.T @ z[-1]) * _sigmoid(params["p_out"])
    g["p_skip"][...] = (dmono.T @ z[0]) * _sigmoid(params["p_skip"])
    g["r_out"][...] = du_row.T @ a[-1]
    g["b_out"][...] = du_row.sum(axis=0)
    g["s_out"][...] = dgate_pre.T @ a[-1]
    g["s_bias"][...] = dgate_pre.sum(axis=0)

    # the head's outer products have one term each, so broadcasting is exact
    dz = dmono * positive["p_out"]
    d_free = du_row * params["r_out"]
    d_free += dgate_pre * params["s_out"]

    # layer k's monotone block reads the free activations a_{k+1}, so their
    # gradient is complete once dq is; nothing reads the input features' gradient
    for k in range(len(hidden) - 1, -1, -1):
        dq = np.square(z[k + 1])
        np.subtract(1.0, dq, out=dq)
        dq *= dz
        g[f"P{k}"][...] = _row_sum_product(dq, z[k]) * _sigmoid(params[f"P{k}"])
        # einsum sums over the levels about twice as fast as .sum(axis=1)
        dq_row = np.einsum("mlh->mh", dq.reshape(m, -1, dq.shape[1]))
        g[f"B{k}"][...] = _row_sum_product(dq_row, a[k + 1])
        g[f"b{k}"][...] = dq_row.sum(axis=0)
        ds = dq_row @ params[f"B{k}"]
        ds += d_free
        ds *= a[k + 1] > 0.0
        g[f"U{k}"][...] = _row_sum_product(ds, a[k])
        g[f"c{k}"][...] = ds.sum(axis=0)
        if k:
            dz = dq @ positive[f"P{k}"]
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
        self.positive = _positive_weights(params, len(self.hidden))
        self.mean = np.asarray(mean, dtype=float)
        self.scale = np.asarray(scale, dtype=float)
        self.config = config
        # (train, validation) loss per epoch, and the epoch whose weights were kept
        self.loss_history = list(loss_history or [])
        self.best_epoch = best_epoch

    def predict_matrix(self, gammas, xs) -> np.ndarray:
        """r(gamma; x) for every (x row, gamma) pair in one forward pass, shape (n_x, G).

        ``xs`` is (n_x, d), or (n_x,) for a one-feature model; ``gammas`` is
        (G,) or (n_x, G).
        """
        xs_std = standardize(xs, self.mean, self.scale)
        rows = _gamma_rows(gammas, xs_std.shape[0])
        return _forward(self.params, self.positive, self.hidden, xs_std,
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


def fit_monotone_net(aug: AugmentedCalibrationSet, cfg: MonotoneNetConfig) -> MonotoneNetModel:
    """Train the monotone network on an augmented calibration set.

    Base calibration points are split into train/validation partitions; the
    validation loss is the squared error of predictions against the indicator
    targets I(pit <= gamma) over the fixed gamma grid, so early stopping sees
    the whole curve rather than the drawn gammas only. The model with the best
    validation loss is returned. The validation pass runs in row blocks of whole
    points (:func:`map_row_blocks`), so its float32 temporaries stay within 2 MiB;
    OpenBLAS can round a float32 product's row by its place in the batch and the
    batch's size, so a validation set of more than one block gives losses that can
    differ in the last bits from one pass over all points.
    """
    if len(aug) == 0:
        raise ValueError("augmented set is empty")
    mean, scale = standardization(aug.base_xs)
    xs_std_base = standardize(aug.base_xs, mean, scale)

    split_rng = rngmod.derived_rng(cfg.seed, "net-split")
    n_base = aug.n_base
    perm = split_rng.permutation(n_base)
    n_val = max(1, int(round(cfg.val_fraction * n_base)))
    val_base = perm[:n_val]
    train_base = np.sort(perm[n_val:])

    n_levels = aug.k_factor
    if train_base.size == 0:
        raise ValueError("no training rows left after the validation split")
    x_train = xs_std_base[train_base].astype(np.float32)
    z_train = _mono_inputs(aug.gamma[train_base].ravel()).astype(
        np.float32).reshape(train_base.size, n_levels, _N_MONO_IN)
    w_train = aug.w[train_base].astype(np.float32)
    n_train = w_train.size
    # a batch holds whole points: every augmented level of each
    points_per_batch = max(1, cfg.batch_size // n_levels)

    x_val = xs_std_base[val_base].astype(np.float32)
    pit_val = aug.base_pit[val_base]
    # (points, levels, inputs): a row block of validation points keeps all their levels
    val_z = np.broadcast_to(_mono_inputs(VAL_GAMMA_GRID).astype(np.float32),
                            (x_val.shape[0], VAL_GAMMA_GRID.size, _N_MONO_IN))
    # float64 targets make the validation loss a float64 sum of float32 predictions
    val_w = (pit_val[:, None] <= VAL_GAMMA_GRID[None, :]).astype(float).ravel()
    # a validation point's widest float32 temporary holds its levels times the widest
    # layer; map_row_blocks counts float64 values, each worth two float32
    val_width = VAL_GAMMA_GRID.size * max((_N_MONO_IN, *cfg.hidden_layers)) // 2

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
    n_layers = len(cfg.hidden_layers)

    # float32 overflows sooner than float64; the checks below raise TrainingDiverged
    with np.errstate(over="ignore", invalid="ignore"):
        for epoch in range(cfg.max_epochs):
            lr = cfg.learning_rate * (cfg.lr_decay ** epoch)
            order = rngmod.derived_rng(cfg.seed, "net-shuffle", epoch).permutation(train_base.size)
            epoch_loss = 0.0
            for start in range(0, order.size, points_per_batch):
                idx = order[start : start + points_per_batch]
                w_batch = w_train[idx].ravel()
                positive = _positive_weights(params, n_layers)
                yhat, cache = _forward(params, positive, cfg.hidden_layers, x_train[idx],
                                       z_train[idx].reshape(-1, _N_MONO_IN), keep=True)
                batch_loss = float(np.mean((yhat - w_batch) ** 2))
                if not np.isfinite(batch_loss):
                    raise TrainingDiverged(f"non-finite loss at epoch {epoch}")
                epoch_loss += batch_loss * w_batch.size
                _backward(params, positive, cfg.hidden_layers, cache, w_batch, grads)
                step += 1
                bc1 = 1.0 - beta1**step
                bc2 = 1.0 - beta2**step
                m_state *= beta1
                m_state += (1.0 - beta1) * grad
                v_state *= beta2
                v_state += (1.0 - beta2) * grad * grad
                update = (m_state / bc1) / (np.sqrt(v_state / bc2) + eps)
                flat -= lr * (update + wd * flat)

            positive = _positive_weights(params, n_layers)
            val_pred = map_row_blocks(
                lambda x, z: _forward(params, positive, cfg.hidden_layers, x,
                                      z.reshape(-1, _N_MONO_IN)),
                val_width, x_val, val_z)
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
