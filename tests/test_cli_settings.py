"""Command-line settings against frozen copies of the default tables they replaced.

Each command's defaults used to live in a table beside a parser whose flags
all defaulted to None, and ``_resolve`` merged table, ``--config`` file and
explicit flags. The frozen copies below are those tables and that merge as
they were; the settings ``main`` now hands each command must equal their
resolved dict, and so hash to the same ``config_hash``, with no flags, with
flags, with a config file, and with a file plus an overriding flag.
"""

import hashlib
import json

import pytest

from pitcal import cli

# ----------------------------------------------------------------------
# frozen copies of the replaced tables and merge
# ----------------------------------------------------------------------

FROZEN_GEN_DEFAULTS = {
    "example": "ex2-skewed", "n": 5000, "storms": 50, "seed": 0,
    "out_dir": "out", "window_mode": "gapped",
}
FROZEN_PIPELINE_DEFAULTS = {
    "data": None, "initial": "uniform", "eval_x": None, "out_dir": "out", "seed": 0,
    "k": None, "weighting": "uniform", "mean_k": 50, "sd_scale": 1.0,
    "train_fraction": 0.5, "grid_points": 201, "threads": None,
}
FROZEN_CAL_DEFAULTS = {
    **FROZEN_PIPELINE_DEFAULTS, "backend": "local", "alpha": 0.1, "hpd": False, "k_factor": 50,
    "net_hidden": "64,64,64", "net_lr": 1e-3, "net_lr_decay": 0.95,
    "net_weight_decay": 0.01, "net_batch": 2048, "net_patience": 10,
    "net_val_fraction": 0.1, "net_max_epochs": 100,
}
FROZEN_DIAG_DEFAULTS = {
    **FROZEN_PIPELINE_DEFAULTS, "n_eval_points": 20, "n_mc": 100, "band_eta": 0.05,
    "n_gammas": 21,
}
FROZEN_BENCH_DEFAULTS = {
    "example": "ex2-skewed", "method": "calpit-int", "n": 5000, "alpha": 0.1,
    "realizations": 10, "mc_draws": 1000, "seed": 0, "initial": "uniform",
    "backend": "local", "k": None, "experiment": "full", "test_grid": None,
    "out_dir": "out", "quick": False, "threads": None,
}
FROZEN_TABLES = {"gen": FROZEN_GEN_DEFAULTS, "calibrate": FROZEN_CAL_DEFAULTS,
                 "diagnose": FROZEN_DIAG_DEFAULTS, "bench": FROZEN_BENCH_DEFAULTS}


def frozen_read_config_file(path):
    out = {}
    with open(path, "r", encoding="utf-8") as fh:
        for line in fh:
            line = line.strip()
            if not line or line.startswith("#"):
                continue
            key, _, raw = line.partition("=")
            try:
                value = json.loads(raw.strip())
            except json.JSONDecodeError:
                value = raw.strip()
            out[key.strip().replace("-", "_")] = value
    return out


def frozen_resolve(args, parser_defaults):
    resolved = dict(parser_defaults)
    if getattr(args, "config", None):
        file_cfg = frozen_read_config_file(args.config)
        assert not set(file_cfg) - set(parser_defaults)
        resolved.update(file_cfg)
    for key, value in vars(args).items():
        if key in ("config", "func", "flag_checks") or value is None:
            continue
        resolved[key] = value
    return resolved


def frozen_config_hash(cfg):
    core = {k: v for k, v in cfg.items() if k not in ("out_dir", "config", "threads")}
    blob = json.dumps(core, sort_keys=True, default=str).encode("utf-8")
    return hashlib.sha256(blob).hexdigest()[:12]


def frozen_settings(argv):
    """The old resolved dict: the flags parsed with every default None, then merged."""
    parser = cli.build_parser()
    for sub in parser._subparsers._group_actions[0].choices.values():
        sub.set_defaults(**{a.dest: None for a in sub._actions if a.dest != "help"})
    args = parser.parse_args(argv)
    del args.subparser  # the old parser set no such default
    return frozen_resolve(args, FROZEN_TABLES[args.command])


def new_settings(monkeypatch, argv):
    """The settings ``main`` hands the command, captured in place of running it."""
    seen = []
    for name in ("cmd_gen", "cmd_calibrate", "cmd_diagnose", "cmd_bench"):
        monkeypatch.setattr(cli, name, lambda cfg: seen.append(cfg) or 0)
    assert cli.main(argv) == 0
    return seen[0]


# (command, flags, config-file text or None, overriding flags after the file)
CASES = [
    ("gen", [], None, []),
    ("gen", ["--example", "ex1", "--n", "50", "--seed", "3", "--out-dir", "o"], None, []),
    ("gen", [], "example = tc\nstorms = 4\nwindow-mode = overlapping\n", []),
    ("gen", [], "example = tc\nstorms = 4\nseed = 9\n", ["--storms", "2", "--example", "ex1"]),
    ("calibrate", [], None, []),
    ("calibrate", ["--data", "d.csv", "--backend", "net", "--hpd", "--alpha", "0.2",
                   "--net-lr", "0.01", "--net-hidden", "8,8", "--eval-x=0.5;0.7", "--k", "7",
                   "--sd-scale", "1.5", "--initial", "gaussian-fit"], None, []),
    ("calibrate", [], "# settings\ndata = d.csv\nalpha = 0.2\nhpd = true\nnet_hidden = 8,8\n"
                      "net_batch = 256\ninitial = gaussian-fit\nsd_scale = 1.5\n"
                      "eval_x = -1;0;1\nk = null\n", []),
    ("calibrate", [], "data = d.csv\nalpha = 0.2\nnet_lr = 0.01\nk_factor = 5\n",
     ["--alpha", "0.3", "--net-hidden", "4", "--hpd"]),
    ("diagnose", [], None, []),
    ("diagnose", ["--data", "d.csv", "--n-mc", "40", "--band-eta", "0.1", "--threads", "1",
                  "--weighting", "inverse-distance"], None, []),
    ("diagnose", [], "n_mc = 40\nn_gammas = 5\nweighting = inverse-distance\nthreads = 2\n", []),
    ("diagnose", [], "n_mc = 40\neval_x = 0.5\n", ["--n-mc", "60", "--grid-points", "51"]),
    ("bench", [], None, []),
    ("bench", ["--method", "dcp", "--quick", "--test-grid", "5", "--k", "20"],
     None, []),
    ("bench", [], "method = calpit-hpd\nquick = true\nrealizations = 2\nk = 30\n", []),
    ("bench", [], "method = calpit-hpd\nrealizations = 2\ntest_grid = 3\n",
     ["--realizations", "4", "--method", "oracle", "--test-grid", "0"]),
]


@pytest.mark.parametrize("command,flags,file_text,override", CASES)
def test_settings_match_frozen_tables(tmp_path, monkeypatch, command, flags, file_text,
                                      override):
    argv = [command] + flags
    if file_text is not None:
        cfg_path = tmp_path / "run.cfg"
        cfg_path.write_text(file_text)
        argv += ["--config", str(cfg_path)]
    argv += override
    old = frozen_settings(argv)
    new = new_settings(monkeypatch, argv)
    if command != "diagnose":
        # only diagnose takes --threads, and it ignores it
        old.pop("threads", None)
    assert new == old
    assert cli._config_hash(new) == frozen_config_hash(old)


def test_file_values_sit_between_defaults_and_flags(tmp_path, monkeypatch):
    cfg_path = tmp_path / "run.cfg"
    cfg_path.write_text("n = 120\nseed = 4\n")
    cfg = new_settings(monkeypatch, ["gen", "--config", str(cfg_path), "--n", "60"])
    assert (cfg["n"], cfg["seed"], cfg["storms"]) == (60, 4, 50)


@pytest.mark.parametrize("command", ["gen", "calibrate", "bench"])
def test_threads_is_an_unknown_config_key(tmp_path, capsys, command):
    cfg_path = tmp_path / "run.cfg"
    cfg_path.write_text("threads = 1\n")
    assert cli.main([command, "--config", str(cfg_path)]) == 2
    assert "unknown config keys: ['threads']" in capsys.readouterr().err
