"""What a fresh process loads: ``import pitcal`` needs numpy alone, without numpy.random.

No scipy module loads until a run first builds a k-d tree, which imports
``scipy.spatial`` (with ``scipy.sparse``, ``scipy.linalg`` and
``scipy.special``). Only data with two or more features build one: one-feature
neighbours come from a sorted window, and a network run queries none. Each
check runs in a subprocess, because the test session itself has long since
imported all of them.
"""

import json
import os
import subprocess
import sys
from pathlib import Path

import pitcal

SRC = Path(pitcal.__file__).resolve().parents[1]


def loaded_after(code: str, package: str = "scipy") -> list:
    """Run ``code`` in a fresh interpreter; return the modules of ``package`` it left loaded."""
    probe = code + ("\nimport json, sys\nprint(json.dumps([m for m in sys.modules"
                    f" if m == {package!r} or m.startswith({package + '.'!r})]))")
    env = dict(os.environ, PYTHONPATH=str(SRC))
    proc = subprocess.run([sys.executable, "-c", probe], env=env, capture_output=True, text=True,
                          timeout=120, check=True)
    return json.loads(proc.stdout.strip().splitlines()[-1])


def test_import_loads_no_tree_or_interpolation_module():
    # nor any other scipy module
    assert loaded_after("import pitcal, pitcal.cli") == []


def test_import_leaves_numpy_random_unloaded():
    # rng defines its numpy.random seed source on first use, not at import
    assert loaded_after("import pitcal, pitcal.cli", "numpy.random") == []
    assert loaded_after("import pitcal.rng\npitcal.rng.derived_rngs(0, count=1)",
                        "numpy.random") != []


def cli_loads(tmp_path, argv, features: int = 1) -> list:
    """Run one tiny ``pitcal`` command on 80 rows in a fresh interpreter; return its scipy modules."""
    tmp_path.mkdir(parents=True, exist_ok=True)
    data = tmp_path / "data.csv"
    header = "".join(f"x{j}," for j in range(features)) + "y\n"
    data.write_text(header + "".join(
        f"{i / 40!r}," + f"{(i * 3) % 7 / 7!r}," * (features - 1) + f"{(i * 7) % 11 / 10!r}\n"
        for i in range(80)))
    argv = [argv[0], "--data", str(data), "--out-dir", str(tmp_path / "out"), *argv[1:]]
    return loaded_after(f"from pitcal import cli\nassert cli.main({argv!r}) == 0")


def calibrate_loads(tmp_path, *flags, features: int = 1) -> list:
    return cli_loads(tmp_path, ["calibrate", "--initial", "uniform", *flags], features)


def test_network_calibration_builds_no_tree(tmp_path):
    loaded = calibrate_loads(tmp_path, "--backend", "net", "--hpd", "--eval-x=0.2;0.8",
                             "--k-factor", "3", "--net-hidden", "4,4", "--net-max-epochs", "1")
    assert loaded == []
    assert (tmp_path / "out" / "sets.json").is_file()


def test_local_calibration_loads_the_tree_module(tmp_path):
    # two features build a tree, so the probe sees the lazy import happen and the
    # tests of runs that load no scipy are not vacuous
    assert "scipy.spatial" in calibrate_loads(tmp_path, "--backend", "local", "--eval-x=0.5,0.5",
                                              "--k", "20", features=2)


def test_one_feature_neighbour_runs_load_no_scipy(tmp_path):
    assert calibrate_loads(tmp_path / "cal", "--backend", "local", "--eval-x=0.5",
                           "--k", "20") == []
    assert (tmp_path / "cal" / "out" / "model.json").is_file()
    assert cli_loads(tmp_path / "diag", ["diagnose", "--initial", "gaussian-fit", "--mean-k",
                                         "10", "--k", "15", "--n-mc", "20",
                                         "--n-eval-points", "2"]) == []
    assert (tmp_path / "diag" / "out" / "local_tests.json").is_file()
