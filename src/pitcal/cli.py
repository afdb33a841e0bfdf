"""Command-line interface: gen, calibrate, diagnose, bench.

Every run is driven by flags plus an optional key = value config file (flags
win). All outputs embed the tool version, a hash of the fully resolved
configuration, and the root seed, so runs are reproducible and auditable.

Exit codes: 0 success, 2 usage or configuration error, 3 numerical failure.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import sys
from pathlib import Path

import numpy as np

from . import __version__
from . import rng as rngmod
from .bench import (_GENERATORS, _INITIALS, _METHODS, ExperimentRecipe, _unread_params,
                    run_experiment)
from .calibrate import (central_intervals, compute_pit_values, hpd_rows, recalibrate_rows,
                        recalibrated_pdf_rows)
from .dataio import read_calibration_csv, write_calibration_csv, write_csv, write_json
from .diagnose import mc_local_tests
from .errors import ConfigError, PitcalError
from .grid import default_grid
from .pipeline import build_initial, check_train_fraction, fit_pit_model, split_calibration
from .synthgen import chunk_tc, default_tc_config, simulate_tc, write_storms_jsonl

__all__ = ["main"]


def _parse_value(raw: str):
    try:
        return json.loads(raw)
    except json.JSONDecodeError:
        return raw


def _read_config_file(path: str, subparser: argparse.ArgumentParser) -> dict:
    """The ``key = value`` lines of ``path``; each must suit a flag of ``subparser``."""
    out = {}
    try:
        with open(path, "r", encoding="utf-8") as fh:
            for lineno, line in enumerate(fh, start=1):
                line = line.strip()
                if not line or line.startswith("#"):
                    continue
                if "=" not in line:
                    raise ConfigError(f"{path}:{lineno}: expected 'key = value'")
                key, _, raw = line.partition("=")
                out[key.strip().replace("-", "_")] = _parse_value(raw.strip())
    except (OSError, UnicodeDecodeError) as exc:
        raise ConfigError(f"cannot read config file {path}: {exc}") from exc
    flags = {a.dest: a for a in subparser._actions if a.dest not in ("help", "config")}
    unknown = set(out) - set(flags)
    if unknown:
        raise ConfigError(f"unknown config keys: {sorted(unknown)}")
    for key, value in out.items():
        convert, choices = flags[key].type or str, flags[key].choices
        if value is None:
            if flags[key].default is not None:
                raise ConfigError(f"{path}: {key}: null given for a setting whose default "
                                  f"is {flags[key].default!r}")
            continue
        try:
            convert(str(value))
        except ValueError:
            raise ConfigError(f"{path}: {key}: invalid value {value!r}") from None
        if choices is not None and value not in choices:
            raise ConfigError(f"{path}: {key}: {value!r} is not one of {choices}")
    return out


def _config_hash(cfg: dict) -> str:
    # where outputs land and how many threads run does not change what the
    # run computes; exclude them so equal configurations hash equally
    core = {k: v for k, v in cfg.items() if k not in ("out_dir", "config", "threads")}
    blob = json.dumps(core, sort_keys=True, default=str).encode("utf-8")
    return hashlib.sha256(blob).hexdigest()[:12]


def _stamp(cfg: dict, seed: int) -> str:
    return f"pitcal {__version__} config={_config_hash(cfg)} seed={seed}"


def _meta(cfg: dict, seed: int) -> dict:
    return {"tool_version": __version__, "config_hash": _config_hash(cfg), "seed": seed}


def _parse_points(spec: str, dim: int) -> np.ndarray:
    """The points of ``spec`` as (n_points, dim) rows."""
    pts = []
    for chunk in spec.split(";"):
        chunk = chunk.strip()
        if not chunk:
            continue
        try:
            pts.append(np.array([float(v) for v in chunk.split(",")]))
        except ValueError as exc:
            raise ConfigError(f"bad evaluation point {chunk!r} in {spec!r}") from exc
    if not pts:
        raise ConfigError(f"no evaluation points in {spec!r}")
    if any(x.size != dim for x in pts):
        raise ConfigError(f"each point of {spec!r} needs {dim} component(s), one per data feature")
    pts = np.stack(pts)
    if not np.all(np.isfinite(pts)):
        raise ConfigError(f"evaluation points must be finite, got {spec!r}")
    return pts


def _ensure_outdir(path: str) -> Path:
    """``path`` as a directory, made if missing; a file in the way is a configuration error."""
    out = Path(path)
    try:
        out.mkdir(parents=True, exist_ok=True)
    except OSError as exc:
        raise ConfigError(f"cannot use --out-dir {path}: {exc}") from exc
    return out


# ----------------------------------------------------------------------
# gen
# ----------------------------------------------------------------------

def cmd_gen(cfg: dict) -> int:
    example = cfg["example"]
    size = "storms" if example == "tc" else "n"
    if int(cfg[size]) < 1:
        raise ConfigError(f"{size} must be >= 1, got {cfg[size]}")
    seed = int(cfg["seed"])
    storms = None
    if example == "tc":
        storms = simulate_tc(default_tc_config(), int(cfg["storms"]), seed)
        chunks = chunk_tc(storms, mode=cfg["window_mode"])
        cal = chunks.cal
        if chunks.skipped_storms:
            print(f"skipped {chunks.skipped_storms} storms shorter than one window")
    else:
        cal = _GENERATORS[example](int(cfg["n"]), seed).cal

    out = _ensure_outdir(cfg["out_dir"])
    if storms is not None:
        write_storms_jsonl(storms, out / "storms.jsonl", meta=_meta(cfg, seed))
    write_calibration_csv(out / "dataset.csv", cal, comment=_stamp(cfg, seed))
    write_json(out / "generator_meta.json", {**_meta(cfg, seed), "config": cfg})
    print(f"wrote {out / 'dataset.csv'}")
    return 0


# ----------------------------------------------------------------------
# calibrate and diagnose
# ----------------------------------------------------------------------

# network flags -> (MonotoneNetConfig field, default, parser of the flag's string)
_NET_FIELDS = {
    "net_hidden": ("hidden_layers", "64,64,64", lambda v: tuple(map(int, str(v).split(",")))),
    "net_lr": ("learning_rate", 1e-3, float),
    "net_lr_decay": ("lr_decay", 0.95, float),
    "net_weight_decay": ("weight_decay", 0.01, float),
    "net_batch": ("batch_size", 2048, int),
    "net_patience": ("patience", 10, int),
    "net_val_fraction": ("val_fraction", 0.1, float),
    "net_max_epochs": ("max_epochs", 100, int),
}
_NET_HELP = {
    "net_batch": "training rows per batch: each batch holds max(1, NET_BATCH // K) "
                 "calibration points with all K of their levels (K is --k-factor)",
}


def _prepare(cfg: dict):
    """Read the data, then grid, split, initial model and PIT values.

    Returns ``(cal, initial, pits, points)``, where ``points`` are the parsed
    ``eval_x`` points as (n_points, d) rows, or None.
    """
    if not cfg["data"]:
        raise ConfigError("--data is required")
    if not os.path.isfile(cfg["data"]):
        raise ConfigError(f"dataset not found or not a file: {cfg['data']}")
    if int(cfg["grid_points"]) < 3:
        raise ConfigError(f"grid_points must be >= 3, got {cfg['grid_points']}")
    # checked for every initial model, though only gaussian-fit splits the data
    fraction = check_train_fraction(cfg["train_fraction"])
    data = read_calibration_csv(cfg["data"])
    points = _parse_points(str(cfg["eval_x"]), data.dim) if cfg["eval_x"] else None
    grid = default_grid(data.ys, n_points=int(cfg["grid_points"]))
    if cfg["initial"] == "gaussian-fit":
        train, cal = split_calibration(data, fraction)
    else:
        train = cal = data
    initial = build_initial(cfg["initial"], grid, train, mean_k=cfg["mean_k"],
                            sd_scale=cfg["sd_scale"])
    return cal, initial, compute_pit_values(initial, cal), points


def _net_params(cfg: dict, seed: int) -> dict:
    params = {"seed": rngmod.derive_seed(seed, "net")}
    for key, (name, _, parse) in _NET_FIELDS.items():
        try:
            params[name] = parse(cfg[key])
        except ValueError as exc:
            raise ConfigError(f"{key}: {exc}") from exc
    return params


def cmd_calibrate(cfg: dict) -> int:
    alpha = float(cfg["alpha"])
    if not 0.0 < alpha < 1.0:
        raise ConfigError(f"alpha must be in (0, 1), got {cfg['alpha']}")
    seed = int(cfg["seed"])
    cal, initial, pits, points = _prepare(cfg)
    model = fit_pit_model(cal, pits, cfg["backend"], seed, k=cfg["k"],
                          weighting=cfg["weighting"], k_factor=cfg["k_factor"],
                          net=_net_params(cfg, seed))

    # all points in one batch; intervals read the recalibrated CDF alone and
    # only HPD sets build the density
    grid = initial.grid
    sets = []
    if points is not None:
        cdf = recalibrate_rows(initial, model, points)
        intervals = central_intervals(grid.points, cdf, 0.5 * alpha, 1.0 - 0.5 * alpha,
                                      1.0 - alpha)
        hpds = hpd_rows(grid.points, recalibrated_pdf_rows(grid.points, cdf),
                        alpha) if cfg["hpd"] else None
        for i, x in enumerate(points):
            sets.append({"x": [float(v) for v in x], "interval": intervals[i].to_json()})
            if hpds:
                sets[-1]["hpd"] = hpds[i].to_json()

    # every result is in hand: a failed run leaves no file behind
    out, stamp = _ensure_outdir(cfg["out_dir"]), _stamp(cfg, seed)
    write_json(out / "model.json", {**model.to_json(), **_meta(cfg, seed)})
    for i in range(len(sets)):
        write_csv(out / f"recal_cdf_{i}.csv", ("y", "value"), zip(grid.points, cdf[i]),
                  comment=stamp)
    write_json(out / "sets.json", {**_meta(cfg, seed), "alpha": cfg["alpha"], "sets": sets})
    print(f"wrote {out / 'model.json'} and {len(sets)} evaluation points")
    return 0


def cmd_diagnose(cfg: dict) -> int:
    n_mc = int(cfg["n_mc"])
    if n_mc < 20:
        raise ConfigError(f"n_mc must be >= 20 for the null band, got {n_mc}")
    eta = float(cfg["band_eta"])
    if not 0.0 < eta < 1.0:
        raise ConfigError(f"band_eta must be in (0, 1), got {cfg['band_eta']}")
    n_gammas = int(cfg["n_gammas"])
    if n_gammas < 1:
        raise ConfigError(f"n_gammas must be >= 1, got {n_gammas}")
    n_eval_points = int(cfg["n_eval_points"])
    if n_eval_points < 1:
        raise ConfigError(f"n_eval_points must be >= 1, got {n_eval_points}")
    gammas = np.linspace(0.05, 0.95, n_gammas)
    seed = int(cfg["seed"])
    cal, initial, pits, points = _prepare(cfg)

    # the local backend, the one the test is valid for
    observed = fit_pit_model(cal, pits, "local", seed, k=cfg["k"], weighting=cfg["weighting"])
    points = cal.xs[:n_eval_points] if points is None else points
    tests = mc_local_tests(observed, points, n_mc, gammas, eta, seeds=[
        rngmod.derive_seed(seed, "diagnose", i) for i in range(len(points))])
    results = [{"x": [float(v) for v in res.x], "statistic": res.statistic,
                "p_value": res.p_value, "B": res.n_mc} for res, _ in tests]

    # every test is done: a failed run leaves no file behind
    out, stamp = _ensure_outdir(cfg["out_dir"]), _stamp(cfg, seed)
    for i, (_, curve) in enumerate(tests):
        write_csv(out / f"alp_{i}.csv", ("gamma", "r", "lo", "hi"),
                  zip(gammas, curve.r_values, curve.band_lo, curve.band_hi), comment=stamp)
    write_json(out / "local_tests.json", {**_meta(cfg, seed), "results": results})
    print(f"wrote {len(results)} ALP curves and {out / 'local_tests.json'}")
    return 0


# ----------------------------------------------------------------------
# bench
# ----------------------------------------------------------------------

def cmd_bench(cfg: dict) -> int:
    seed = int(cfg["seed"])
    realizations = int(cfg["realizations"])
    mc_draws = int(cfg["mc_draws"])
    if cfg["quick"]:
        realizations, mc_draws = 3, 300
    backend_params = {} if cfg["k"] is None else {"k": int(cfg["k"])}
    recipe = ExperimentRecipe(
        generator=cfg["example"],
        method=cfg["method"],
        n=int(cfg["n"]),
        alpha=float(cfg["alpha"]),
        n_realizations=realizations,
        n_mc_draws=mc_draws,
        seed=seed,
        initial=cfg["initial"],
        backend=cfg["backend"],
        backend_params=backend_params,
        experiment=cfg["experiment"],
        test_grid_size=None if cfg["test_grid"] is None else int(cfg["test_grid"]),
    )
    # the recipe checks keys against the backend; a method may still ignore them
    unread = _unread_params(recipe)
    if unread:
        raise ConfigError(f"bench --method {recipe.method} reads no {', '.join(unread)}")
    out = _ensure_outdir(cfg["out_dir"])
    report = run_experiment(recipe)
    report.summary["tool_version"] = __version__
    report.summary["config_hash"] = _config_hash(cfg)
    write_json(out / "report.json", report.to_json())
    write_csv(out / "report.csv", report.CSV_HEADER, report.csv_rows(),
              comment=_stamp(cfg, seed))
    s = report.summary
    print(f"under={s['proportion_under']:.3f} correct={s['proportion_correct']:.3f} "
          f"over={s['proportion_over']:.3f} mean_size={s['mean_size']:.3f}")
    return 0


# ----------------------------------------------------------------------
# entry point
# ----------------------------------------------------------------------

def root_seed(raw: str) -> int:
    """``raw`` as an integer seed that ``derive_seed`` accepts; anything else raises ValueError."""
    seed = int(raw)
    rngmod.derive_seed(seed)
    return seed


def _add_common(p):
    """Flags every command takes; added last, after the command's own flags."""
    p.add_argument("--seed", type=root_seed, default=0)
    p.add_argument("--out-dir", dest="out_dir", default="out")
    p.add_argument("--config", default=None,
                   help="key = value file; its values beat the defaults and flags beat both")
    # main hands a --config file's values to this subparser as its defaults
    p.set_defaults(subparser=p)


def _add_pipeline_flags(p):
    """Flags of the shared front half of calibrate and diagnose (see _prepare)."""
    p.add_argument("--data", default=None)
    p.add_argument("--initial", choices=["uniform", "marginal", "gaussian-fit"], default="uniform")
    p.add_argument("--eval-x", dest="eval_x", default=None,
                   help="semicolon-separated points, comma-separated components")
    p.add_argument("--k", type=int, default=None)
    p.add_argument("--weighting", choices=["uniform", "inverse-distance"], default="uniform")
    p.add_argument("--mean-k", dest="mean_k", type=int, default=50)
    p.add_argument("--sd-scale", dest="sd_scale", type=float, default=1.0)
    p.add_argument("--train-fraction", dest="train_fraction", type=float, default=0.5)
    p.add_argument("--grid-points", dest="grid_points", type=int, default=201)


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(prog="pitcal", description=__doc__)
    parser.add_argument("--version", action="version", version=f"pitcal {__version__}")
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("gen", help="generate synthetic datasets with oracle metadata")
    p.add_argument("--example", choices=[*_GENERATORS, "tc"], default="ex2-skewed")
    p.add_argument("--n", type=int, default=5000)
    p.add_argument("--storms", type=int, default=50)
    p.add_argument("--window-mode", dest="window_mode", choices=["overlapping", "gapped"],
                   default="gapped")
    _add_common(p)
    p.set_defaults(func=cmd_gen)

    p = sub.add_parser("calibrate", help="fit the PIT-CDF map and emit recalibrated outputs")
    _add_pipeline_flags(p)
    p.add_argument("--backend", choices=["local", "net"], default="local")
    p.add_argument("--alpha", type=float, default=0.1)
    p.add_argument("--hpd", action="store_true")
    p.add_argument("--k-factor", dest="k_factor", type=int, default=50)
    for key, (_, default, _) in _NET_FIELDS.items():
        p.add_argument("--" + key.replace("_", "-"), dest=key, default=default,
                       help=_NET_HELP.get(key))
    _add_common(p)
    p.set_defaults(func=cmd_calibrate)

    p = sub.add_parser("diagnose", help="local P-P curves, bands, and coverage tests")
    _add_pipeline_flags(p)
    p.add_argument("--n-eval-points", dest="n_eval_points", type=int, default=20)
    p.add_argument("--n-mc", dest="n_mc", type=int, default=100)
    p.add_argument("--band-eta", dest="band_eta", type=float, default=0.05)
    p.add_argument("--n-gammas", dest="n_gammas", type=int, default=21)
    p.add_argument("--threads", type=int, default=None, help="accepted and ignored")
    _add_common(p)
    p.set_defaults(func=cmd_diagnose)

    p = sub.add_parser("bench", help="Monte Carlo conditional-coverage benchmark")
    p.add_argument("--example", choices=list(_GENERATORS), default="ex2-skewed")
    p.add_argument("--method", choices=list(_METHODS), default="calpit-int")
    p.add_argument("--n", type=int, default=5000)
    p.add_argument("--alpha", type=float, default=0.1)
    p.add_argument("--realizations", type=int, default=10)
    p.add_argument("--mc-draws", dest="mc_draws", type=int, default=1000)
    p.add_argument("--initial", choices=list(_INITIALS), default="uniform")
    p.add_argument("--backend", choices=["local", "net"], default="local")
    p.add_argument("--k", type=int, default=None)
    p.add_argument("--experiment", choices=["full", "split"], default="full")
    p.add_argument("--test-grid", dest="test_grid", type=int, default=None)
    p.add_argument("--quick", action="store_true", help="preset: 3 realizations x 300 draws")
    _add_common(p)
    p.set_defaults(func=cmd_bench)
    return parser


def main(argv=None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        # argparse uses code 2 for usage errors already; pass it through
        return int(exc.code or 0)
    try:
        if args.config:
            # file values become the defaults, so explicit flags still win; the
            # file passed its flags' checks, so the same argv parses again
            args.subparser.set_defaults(**_read_config_file(args.config, args.subparser))
            args = parser.parse_args(argv)
        cfg = {k: v for k, v in vars(args).items() if k not in ("config", "func", "subparser")}
        return args.func(cfg)
    except ConfigError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except PitcalError as exc:
        print(f"numerical failure: {exc}", file=sys.stderr)
        return 3


if __name__ == "__main__":
    sys.exit(main())
