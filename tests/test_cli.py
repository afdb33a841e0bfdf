import json
import os
import time

import numpy as np
import pytest

from pitcal.cli import main
from pitcal.dataio import write_calibration_csv
from pitcal.synthgen import TwoGroupConfig, sample_example1, sample_example2


def run(args):
    return main([str(a) for a in args])


class TestGen:
    def test_ex2_single_feature(self, tmp_path):
        out = tmp_path / "g"
        assert run(["gen", "--example", "ex2-skewed", "--n", 500, "--seed", 7,
                    "--out-dir", out]) == 0
        lines = (out / "dataset.csv").read_text().splitlines()
        assert lines[1] == "x0,y"
        assert len(lines) == 2 + 500
        meta = json.loads((out / "generator_meta.json").read_text())
        assert meta["seed"] == 7 and "config_hash" in meta

    def test_ex1_two_features(self, tmp_path):
        out = tmp_path / "g"
        assert run(["gen", "--example", "ex1", "--n", 200, "--seed", 1,
                    "--out-dir", out]) == 0
        header = (out / "dataset.csv").read_text().splitlines()[1]
        assert header == "x0,x1,y"

    def test_tc_storms_and_windows(self, tmp_path):
        out = tmp_path / "g"
        assert run(["gen", "--example", "tc", "--storms", 2, "--seed", 2,
                    "--out-dir", out]) == 0
        assert (out / "storms.jsonl").exists()
        header = (out / "dataset.csv").read_text().splitlines()[1]
        assert header.split(",")[-1] == "y"
        assert len(header.split(",")) == 3920 + 1

    def test_unknown_example_exits_2(self, tmp_path, capsys):
        code = run(["gen", "--example", "ex9", "--out-dir", tmp_path])
        assert code == 2

    @pytest.mark.parametrize("example, sample", [
        ("ex1", lambda n, seed: sample_example1(TwoGroupConfig(), n, seed)),
        ("ex2-skewed", lambda n, seed: sample_example2("skewed", n, seed)),
        ("ex2-kurtotic", lambda n, seed: sample_example2("kurtotic", n, seed)),
    ], ids=["ex1", "ex2-skewed", "ex2-kurtotic"])
    def test_dataset_is_the_generators_calibration_set(self, tmp_path, example, sample):
        out = tmp_path / "g"
        assert run(["gen", "--example", example, "--n", 300, "--seed", 5, "--out-dir", out]) == 0
        meta = json.loads((out / "generator_meta.json").read_text())
        stamp = f"pitcal {meta['tool_version']} config={meta['config_hash']} seed=5"
        write_calibration_csv(tmp_path / "want.csv", sample(300, 5).cal, comment=stamp)
        assert (out / "dataset.csv").read_bytes() == (tmp_path / "want.csv").read_bytes()


class TestCalibrate:
    def _uniform_dataset(self, tmp_path, n=3000):
        rng = np.random.default_rng(5)
        path = tmp_path / "data.csv"
        with open(path, "w") as fh:
            fh.write("x0,y\n")
            for _ in range(n):
                fh.write(f"{rng.uniform()!r},{rng.uniform()!r}\n")
        return path

    def test_identity_smoke(self, tmp_path):
        # data drawn from the initial model itself: the map is near-identity
        # and the emitted interval matches the initial quantiles
        data = self._uniform_dataset(tmp_path)
        out = tmp_path / "cal"
        assert run(["calibrate", "--data", data, "--initial", "uniform",
                    "--backend", "local", "--eval-x=0.5", "--alpha", 0.1,
                    "--seed", 3, "--out-dir", out]) == 0
        doc = json.loads((out / "sets.json").read_text())
        lo, hi = doc["sets"][0]["interval"]["intervals"][0]
        assert abs(lo - 0.05) < 0.05
        assert abs(hi - 0.95) < 0.05
        assert (out / "model.json").exists()
        assert (out / "recal_cdf_0.csv").exists()

    def test_hpd_flag_toggles_output(self, tmp_path):
        data = self._uniform_dataset(tmp_path, n=500)
        out1 = tmp_path / "without"
        out2 = tmp_path / "with"
        run(["calibrate", "--data", data, "--eval-x=0.5", "--seed", 3, "--out-dir", out1])
        run(["calibrate", "--data", data, "--eval-x=0.5", "--hpd", "--seed", 3, "--out-dir", out2])
        a = json.loads((out1 / "sets.json").read_text())["sets"][0]
        b = json.loads((out2 / "sets.json").read_text())["sets"][0]
        assert "hpd" not in a
        assert "hpd" in b

    def test_intervals_need_no_density(self, tmp_path, capsys):
        # 100 rows and the default k of 10: at some of these x the recalibrated
        # density has no mass left, but the CDF, which intervals read, is fine
        run(["gen", "--example", "ex2-skewed", "--n", 100, "--seed", 7, "--out-dir", tmp_path])
        xs = ";".join(repr(float(v)) for v in np.linspace(-1.0, 1.0, 41))
        args = ["calibrate", "--data", tmp_path / "dataset.csv", "--eval-x=" + xs]
        assert run(args + ["--out-dir", tmp_path / "int"]) == 0
        sets = json.loads((tmp_path / "int" / "sets.json").read_text())["sets"]
        assert len(sets) == 41
        assert run(args + ["--hpd", "--out-dir", tmp_path / "hpd"]) == 3
        assert "no positive mass" in capsys.readouterr().err
        assert run(["bench", "--n", 100, "--realizations", 1, "--mc-draws", 10,
                    "--out-dir", tmp_path / "bench"]) == 0

    def test_missing_dataset_no_partial_outputs(self, tmp_path):
        out = tmp_path / "cal"
        code = run(["calibrate", "--data", tmp_path / "absent.csv", "--out-dir", out])
        assert code == 2
        assert not (out / "model.json").exists()

    def test_malformed_csv_reports_row(self, tmp_path, capsys):
        path = tmp_path / "bad.csv"
        path.write_text("x0,y\n0.1,0.2\n0.3\n")
        code = run(["calibrate", "--data", path, "--out-dir", tmp_path / "o"])
        captured = capsys.readouterr()
        assert code == 2
        assert ":3:" in captured.err

    @pytest.mark.parametrize("value", ["nan", "inf", "-inf"])
    def test_non_finite_csv_value_reports_row(self, tmp_path, capsys, value):
        path = tmp_path / "bad.csv"
        path.write_text(f"x0,y\n0.1,0.2\n0.3,{value}\n0.5,0.6\n")
        code = run(["calibrate", "--data", path, "--out-dir", tmp_path / "o"])
        captured = capsys.readouterr()
        assert code == 2
        assert f"{path}:3: non-finite value" in captured.err

    def test_net_backend_round_trip(self, tmp_path):
        data = self._uniform_dataset(tmp_path, n=400)
        out = tmp_path / "net"
        assert run(["calibrate", "--data", data, "--backend", "net",
                    "--net-hidden", "8,8", "--net-max-epochs", 3,
                    "--net-batch", 256, "--k-factor", 5,
                    "--eval-x=0.5", "--seed", 3, "--out-dir", out]) == 0
        doc = json.loads((out / "model.json").read_text())
        assert doc["backend"] == "monotone-net"
        assert doc["hidden_layers"] == [8, 8]
        weights = doc["raw_weights"]
        assert set(weights) == {f"{name}{k}" for k in range(2) for name in "UcPBb"} | {
            "p_out", "p_skip", "r_out", "b_out", "s_out", "s_bias"}
        assert np.shape(weights["U0"]) == (8, 1) and np.shape(weights["B1"]) == (8, 8)


class TestDiagnose:
    def test_outputs_on_lattice_with_band(self, tmp_path):
        assert run(["gen", "--example", "ex2-skewed", "--n", 800, "--seed", 7,
                    "--out-dir", tmp_path / "g"]) == 0
        out = tmp_path / "d"
        assert run(["diagnose", "--data", tmp_path / "g" / "dataset.csv",
                    "--initial", "uniform", "--n-mc", 40, "--n-eval-points", 3,
                    "--band-eta", 0.1, "--seed", 3, "--out-dir", out]) == 0
        doc = json.loads((out / "local_tests.json").read_text())
        assert len(doc["results"]) == 3
        for rec in doc["results"]:
            assert rec["B"] == 40
            lattice = rec["p_value"] * 40
            assert abs(lattice - round(lattice)) < 1e-9
        header = (out / "alp_0.csv").read_text().splitlines()[1]
        assert header == "gamma,r,lo,hi"

    def test_backend_flag_rejected(self, tmp_path, capsys):
        # null refits always use the local backend, so diagnose takes no --backend
        run(["gen", "--example", "ex2-skewed", "--n", 300, "--seed", 7,
             "--out-dir", tmp_path / "g"])
        code = run(["diagnose", "--data", tmp_path / "g" / "dataset.csv", "--backend", "net",
                    "--n-mc", 25, "--n-eval-points", 1, "--seed", 3,
                    "--out-dir", tmp_path / "d"])
        assert code == 2
        assert "--backend" in capsys.readouterr().err
        assert not (tmp_path / "d").exists()


class TestBench:
    def test_quick_preset_under_a_minute(self, tmp_path):
        t0 = time.perf_counter()
        out = tmp_path / "b"
        assert run(["bench", "--example", "ex2-skewed", "--method", "calpit-int",
                    "--initial", "generator", "--n", 2000, "--quick",
                    "--k", 200, "--seed", 5, "--out-dir", out]) == 0
        assert time.perf_counter() - t0 < 60.0
        doc = json.loads((out / "report.json").read_text())
        assert doc["summary"]["config"]["n_mc_draws"] == 300
        assert doc["summary"]["config"]["n_realizations"] == 3

    def test_rerun_identical_up_to_runtime(self, tmp_path):
        args = ["bench", "--example", "ex2-skewed", "--method", "oracle", "--n", 100,
                "--realizations", 1, "--mc-draws", 100, "--test-grid", 5, "--seed", 9]
        run(args + ["--out-dir", tmp_path / "r1"])
        run(args + ["--out-dir", tmp_path / "r2"])
        a = json.loads((tmp_path / "r1" / "report.json").read_text())
        b = json.loads((tmp_path / "r2" / "report.json").read_text())
        a["summary"].pop("runtime_seconds")
        b["summary"].pop("runtime_seconds")
        assert a == b
        csv_a = (tmp_path / "r1" / "report.csv").read_text()
        csv_b = (tmp_path / "r2" / "report.csv").read_text()
        assert csv_a == csv_b


class TestConfigFile:
    def test_flags_override_file(self, tmp_path):
        cfg = tmp_path / "run.cfg"
        cfg.write_text("# run configuration\nexample = ex2-skewed\nn = 120\nseed = 4\n")
        out = tmp_path / "g"
        assert run(["gen", "--config", cfg, "--n", 60, "--out-dir", out]) == 0
        lines = (out / "dataset.csv").read_text().splitlines()
        assert len(lines) == 2 + 60  # flag wins over file

    def test_unknown_key_rejected(self, tmp_path, capsys):
        cfg = tmp_path / "run.cfg"
        cfg.write_text("nonsense_key = 1\n")
        assert run(["gen", "--config", cfg, "--out-dir", tmp_path / "g"]) == 2

    def test_version_stamp_embedded(self, tmp_path):
        out = tmp_path / "g"
        run(["gen", "--example", "ex2-skewed", "--n", 50, "--seed", 1, "--out-dir", out])
        first = (out / "dataset.csv").read_text().splitlines()[0]
        assert first.startswith("# pitcal 0.")
        assert "config=" in first and "seed=1" in first


def _write_csv(path, n, constant_y=False, dim=1):
    rng = np.random.default_rng(3)
    with open(path, "w") as fh:
        fh.write("".join(f"x{j}," for j in range(dim)) + "y\n")
        for _ in range(n):
            y = 1.0 if constant_y else rng.uniform()
            xs = "".join(f"{rng.uniform()!r}," for _ in range(dim))
            fh.write(f"{xs}{y!r}\n")
    return path


# (case, dataset rows or None, constant y, args, exit code, stderr prefix)
EXIT_CASES = [
    ("ok", 300, False, ["calibrate", "--eval-x=0.5"], 0, None),
    ("three_rows_default_k", 3, False, ["calibrate"], 2, "error:"),
    ("k_above_rows", 300, False, ["calibrate", "--k", 5000], 2, "error:"),
    ("bench_k_above_n", None, False,
     ["bench", "--n", 50, "--k", 100, "--realizations", 1, "--mc-draws", 10], 2, "error:"),
    ("k_zero", 300, False, ["calibrate", "--k", 0], 2, "error:"),
    ("eval_x_not_a_number", 300, False, ["calibrate", "--eval-x=abc"], 2, "error:"),
    ("alpha_above_one", 300, False, ["calibrate", "--eval-x=0.5", "--alpha", 2], 2, "error:"),
    ("net_hidden_not_a_number", 300, False,
     ["calibrate", "--backend", "net", "--net-hidden", "x"], 2, "error:"),
    ("net_val_fraction_above_one", 300, False,
     ["calibrate", "--backend", "net", "--net-val-fraction", 2], 2, "error:"),
    ("net_val_fraction_leaves_no_training_rows", 400, False,
     ["calibrate", "--backend", "net", "--net-val-fraction", 0.999], 2, "error:"),
    ("diagnose_too_few_replicates", 300, False, ["diagnose", "--n-mc", 5], 2, "error:"),
    ("diagnose_band_eta_above_one", 300, False, ["diagnose", "--band-eta", 3], 2, "error:"),
    ("grid_points_below_three", 300, False, ["calibrate", "--grid-points", 2], 2, "error:"),
    ("bench_alpha_above_one", None, False, ["bench", "--alpha", 2], 2, "error:"),
    ("bench_no_draws", None, False, ["bench", "--mc-draws", 0], 2, "error:"),
    ("diagnose_no_gammas", 300, False, ["diagnose", "--n-gammas", 0], 2, "error:"),
    ("mean_k_zero", 300, False, ["calibrate", "--initial", "gaussian-fit", "--mean-k", 0],
     2, "error:"),
    ("gen_no_rows", None, False, ["gen", "--n", 0], 2, "error:"),
    ("config_value_not_a_number", 300, False, ["calibrate"], 2, "error:"),
    ("config_value_not_a_choice", None, False, ["gen", "--example", "tc"], 2, "error:"),
    ("constant_response", 300, True, ["calibrate", "--eval-x=0.2"], 3, "numerical failure:"),
    ("eval_x_two_components_one_feature", 300, False, ["calibrate", "--eval-x=0.1,0.2"],
     2, "error:"),
    ("eval_x_one_component_two_features", 300, False, ["calibrate", "--eval-x=0.5"],
     2, "error:"),
    ("diagnose_eval_x_one_component_two_features", 300, False,
     ["diagnose", "--eval-x=0.5", "--n-mc", 20], 2, "error:"),
    ("diagnose_eval_x_two_components_one_feature", 300, False,
     ["diagnose", "--eval-x=0.1,0.9", "--n-mc", 20], 2, "error:"),
    ("net_batch_zero", 300, False, ["calibrate", "--backend", "net", "--net-batch", 0],
     2, "error:"),
    ("net_max_epochs_zero", 300, False,
     ["calibrate", "--backend", "net", "--net-max-epochs", 0], 2, "error:"),
    ("bench_test_grid_negative", None, False,
     ["bench", "--n", 50, "--realizations", 1, "--mc-draws", 10, "--test-grid", -3],
     2, "error:"),
    ("bench_test_grid_zero", None, False,
     ["bench", "--n", 50, "--realizations", 1, "--mc-draws", 10, "--test-grid", 0],
     2, "error:"),
    ("sd_scale_zero", 300, False,
     ["calibrate", "--initial", "gaussian-fit", "--sd-scale", 0], 2, "error:"),
    ("sd_scale_negative", 300, False,
     ["calibrate", "--initial", "gaussian-fit", "--sd-scale", -1], 2, "error:"),
    ("gen_threads_unknown", None, False, ["gen", "--threads", 1], 2, "usage:"),
    ("calibrate_threads_unknown", 300, False, ["calibrate", "--threads", 1], 2, "usage:"),
    ("config_null_for_a_default", None, False, ["gen"], 2, "error:"),
    ("train_fraction_nan", 300, False,
     ["calibrate", "--initial", "gaussian-fit", "--train-fraction", "nan"], 2, "error:"),
    ("uniform_train_fraction_above_one", 300, False,
     ["calibrate", "--initial", "uniform", "--train-fraction", 2], 2, "error:"),
    ("diagnose_marginal_train_fraction_zero", 300, False,
     ["diagnose", "--initial", "marginal", "--train-fraction", 0, "--n-mc", 20], 2, "error:"),
    ("diagnose_no_eval_points", 300, False, ["diagnose", "--n-eval-points", 0], 2, "error:"),
    ("data_is_a_directory", None, False, ["diagnose"], 2, "error:"),
    ("data_not_utf8", None, False, ["calibrate"], 2, "error:"),
    ("config_not_utf8", 300, False, ["calibrate"], 2, "error:"),
    ("no_feature_column", 300, False, ["diagnose", "--n-mc", 20], 2, "error:"),
    ("eval_x_nan", 300, False, ["calibrate", "--eval-x=nan"], 2, "error:"),
    ("diagnose_eval_x_inf", 300, False, ["diagnose", "--eval-x=inf", "--n-mc", 20], 2, "error:"),
    ("eval_x_beyond_float_range", 300, False, ["calibrate", "--eval-x=1e300"],
     3, "numerical failure:"),
    ("diagnose_eval_x_beyond_float_range", 300, False,
     ["diagnose", "--eval-x=1e300", "--n-mc", 20], 3, "numerical failure:"),
    ("gaussian_fit_eval_x_beyond_float_range", 300, False,
     ["calibrate", "--initial", "gaussian-fit", "--eval-x=1e300"], 3, "numerical failure:"),
    ("two_feature_eval_x_beyond_float_range", 300, False, ["calibrate", "--eval-x=1e300,0"],
     3, "numerical failure:"),
    ("diagnose_second_eval_x_beyond_float_range", 300, False,
     ["diagnose", "--eval-x=0;1e300", "--n-mc", 20], 3, "numerical failure:"),
    ("out_dir_is_a_file", 300, False, ["calibrate", "--eval-x=0.5"], 2, "error:"),
    ("diagnose_out_dir_under_a_file", 300, False,
     ["diagnose", "--n-mc", 20, "--n-eval-points", 1], 2, "error:"),
    ("gen_out_dir_under_a_file", None, False, ["gen", "--n", 10], 2, "error:"),
    ("bench_out_dir_is_a_file", None, False,
     ["bench", "--n", 50, "--realizations", 1, "--mc-draws", 10, "--test-grid", 2], 2, "error:"),
    ("net_lr_negative", 300, False, ["calibrate", "--backend", "net", "--net-lr", -1],
     2, "error:"),
    ("net_lr_infinite", 300, False, ["calibrate", "--backend", "net", "--net-lr", "inf"],
     2, "error:"),
    ("net_lr_decay_negative", 300, False,
     ["calibrate", "--backend", "net", "--net-lr-decay", -2], 2, "error:"),
    ("net_lr_decay_above_one", 300, False,
     ["calibrate", "--backend", "net", "--net-lr-decay", 2], 2, "error:"),
    ("net_weight_decay_negative", 300, False,
     ["calibrate", "--backend", "net", "--net-weight-decay", -5], 2, "error:"),
    # bench takes no --threads, so these are unknown arguments
    ("bench_threads_negative", None, False,
     ["bench", "--n", 50, "--realizations", 1, "--mc-draws", 10, "--threads", -3], 2, "usage:"),
    ("bench_threads_zero", None, False,
     ["bench", "--n", 50, "--realizations", 1, "--mc-draws", 10, "--threads", 0], 2, "usage:"),
    ("sd_scale_infinite", 300, False,
     ["calibrate", "--initial", "gaussian-fit", "--sd-scale", "inf"], 2, "error:"),
    # seeds are encoded in 16 signed bytes
    ("seed_above_sixteen_bytes", None, False, ["gen", "--n", 10, "--seed", 2**127], 2, "usage:"),
    ("seed_below_sixteen_bytes", None, False, ["gen", "--n", 10, "--seed", -2**127 - 1],
     2, "usage:"),
    ("config_seed_above_sixteen_bytes", None, False, ["gen", "--n", 10], 2, "error:"),
]

# cases that also read a --config file with these bytes
EXIT_CONFIG_FILES = {"config_value_not_a_number": b"alpha = abc\n",
                     "config_value_not_a_choice": b"window_mode = foo\n",
                     "config_null_for_a_default": b"seed = null\n",
                     "config_not_utf8": b"alpha = \xff\xfe\n",
                     "config_seed_above_sixteen_bytes": f"seed = {2**127}\n".encode()}

# cases whose dataset has other than one feature
EXIT_FEATURES = {"eval_x_one_component_two_features": 2,
                 "two_feature_eval_x_beyond_float_range": 2,
                 "diagnose_eval_x_one_component_two_features": 2,
                 "no_feature_column": 0}

# cases whose --data is these bytes, or a directory where None
EXIT_DATA = {"data_is_a_directory": None, "data_not_utf8": b"x0,y\n\xff\xfe,1\n"}

# cases whose --out-dir is this path, below tmp_path, where tmp_path/"out" is a file
EXIT_OUT_FILE = {"out_dir_is_a_file": "out", "diagnose_out_dir_under_a_file": "out/sub",
                 "gen_out_dir_under_a_file": "out/sub", "bench_out_dir_is_a_file": "out"}


@pytest.mark.parametrize("case,rows,constant_y,args,code,prefix", EXIT_CASES,
                         ids=[c[0] for c in EXIT_CASES])
def test_documented_exit_codes(tmp_path, capsys, case, rows, constant_y, args, code, prefix):
    argv = list(args)
    if rows is not None:
        dim = EXIT_FEATURES.get(case, 1)
        argv += ["--data", _write_csv(tmp_path / "data.csv", rows, constant_y, dim)]
    if case in EXIT_DATA:
        data = tmp_path / "data"
        if EXIT_DATA[case] is None:
            data.mkdir()
        else:
            data.write_bytes(EXIT_DATA[case])
        argv += ["--data", data]
    if case in EXIT_CONFIG_FILES:
        cfg = tmp_path / "run.cfg"
        cfg.write_bytes(EXIT_CONFIG_FILES[case])
        argv += ["--config", cfg]
    out = tmp_path / "out"
    if case in EXIT_OUT_FILE:
        out.write_text("a file, not a directory\n")
        out = tmp_path / EXIT_OUT_FILE[case]
    assert run(argv + ["--out-dir", out]) == code
    err = capsys.readouterr().err.splitlines()
    if prefix is None:
        assert err == []
    else:
        assert any(line.startswith(prefix) for line in err), err
    if code != 0:
        # a run that fails, on its configuration or on its numbers, writes no output file
        assert not out.is_dir() or not any(out.iterdir())


# (backend, flags that backend never reads, the settings its refusal names)
UNREAD_CALIBRATE_FLAGS = [
    ("net", ["--k", 50], "k"),
    ("net", ["--weighting", "inverse-distance"], "weighting"),
    ("net", ["--k", 5, "--weighting", "inverse-distance"], "k, weighting"),
    ("local", ["--k-factor", 5], "k_factor"),
    ("local", ["--net-hidden", 4], "net_hidden"),
    ("local", ["--net-lr", 0.01], "net_lr"),
    ("local", ["--net-lr-decay", 0.5], "net_lr_decay"),
    ("local", ["--net-weight-decay", 0], "net_weight_decay"),
    ("local", ["--net-batch", 256], "net_batch"),
    ("local", ["--net-patience", 3], "net_patience"),
    ("local", ["--net-val-fraction", 0.2], "net_val_fraction"),
    ("local", ["--net-max-epochs", "abc"], "net_max_epochs"),
    ("local", ["--k-factor", 5, "--net-batch", 256], "k_factor, net_batch"),
]


@pytest.mark.parametrize("backend, flags, names", UNREAD_CALIBRATE_FLAGS,
                         ids=[f"{c[0]}-{c[2]}" for c in UNREAD_CALIBRATE_FLAGS])
def test_calibrate_refuses_flags_its_backend_never_reads(tmp_path, capsys, backend, flags,
                                                         names):
    # the data file is absent: the refusal comes before any data is read
    out = tmp_path / "out"
    assert run(["calibrate", "--data", tmp_path / "absent.csv", "--backend", backend, *flags,
                "--out-dir", out]) == 2
    err = capsys.readouterr().err.strip()
    assert err == f"error: calibrate --backend {backend} reads no {names}"
    assert not out.exists()


def test_calibrate_refuses_a_config_file_setting_its_backend_never_reads(tmp_path, capsys):
    cfg = tmp_path / "run.cfg"
    cfg.write_text("backend = net\nk = 7\n")
    assert run(["calibrate", "--config", cfg, "--data", tmp_path / "absent.csv"]) == 2
    assert capsys.readouterr().err.strip() == "error: calibrate --backend net reads no k"


# (command, initial model, flags that model never reads, the settings its refusal names)
UNREAD_INITIAL_FLAGS = [
    ("calibrate", "uniform", ["--mean-k", 7], "mean_k"),
    ("calibrate", "marginal", ["--sd-scale", 3], "sd_scale"),
    ("calibrate", "uniform", ["--mean-k", 7, "--sd-scale", 0.5], "mean_k, sd_scale"),
    ("diagnose", "uniform", ["--sd-scale", "nan"], "sd_scale"),
    ("diagnose", "marginal", ["--mean-k", 0], "mean_k"),
    ("diagnose", "uniform", ["--mean-k", 49, "--sd-scale", 1.5], "mean_k, sd_scale"),
]


@pytest.mark.parametrize("command, initial, flags, names", UNREAD_INITIAL_FLAGS,
                         ids=[f"{c[0]}-{c[1]}-{c[3]}" for c in UNREAD_INITIAL_FLAGS])
def test_refuses_flags_the_initial_model_never_reads(tmp_path, capsys, command, initial, flags,
                                                     names):
    # the data file is absent: the refusal comes before any data is read
    out = tmp_path / "out"
    assert run([command, "--data", tmp_path / "absent.csv", "--initial", initial, *flags,
                "--out-dir", out]) == 2
    err = capsys.readouterr().err.strip()
    assert err == f"error: {command} --initial {initial} reads no {names}"
    assert not out.exists()


@pytest.mark.parametrize("command", ["calibrate", "diagnose"])
def test_refuses_a_config_file_setting_the_initial_model_never_reads(tmp_path, capsys, command):
    cfg = tmp_path / "run.cfg"
    cfg.write_text("initial = marginal\nmean_k = 7\n")
    assert run([command, "--config", cfg, "--data", tmp_path / "absent.csv"]) == 2
    assert capsys.readouterr().err.strip() == f"error: {command} --initial marginal reads no mean_k"


@pytest.mark.parametrize("command, extra", [("calibrate", ["--eval-x=0.5"]),
                                            ("diagnose", ["--n-mc", 20, "--n-eval-points", 1])])
def test_takes_initial_model_flags_at_their_defaults(tmp_path, command, extra):
    data = _write_csv(tmp_path / "data.csv", 300)
    cfg = tmp_path / "run.cfg"
    cfg.write_text("sd_scale = 1\n")
    assert run([command, "--data", data, "--config", cfg, "--initial", "marginal", "--mean-k", 50,
                *extra, "--out-dir", tmp_path / "out"]) == 0


@pytest.mark.parametrize("backend, flags", [
    ("local", ["--k-factor", 50, "--net-hidden", "64,64,64", "--net-lr", "0.001",
               "--net-max-epochs", 100]),
    ("net", ["--weighting", "uniform", "--k-factor", 3, "--net-hidden", 4,
             "--net-max-epochs", 1]),
])
def test_calibrate_takes_unread_flags_at_their_defaults(tmp_path, backend, flags):
    data = _write_csv(tmp_path / "data.csv", 300)
    assert run(["calibrate", "--data", data, "--backend", backend, *flags, "--eval-x=0.5",
                "--out-dir", tmp_path / "out"]) == 0
    assert (tmp_path / "out" / "sets.json").is_file()
