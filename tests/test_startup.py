"""What a fresh process loads: ``import pitcal`` needs numpy alone, without numpy.random.

No scipy module loads until a run first builds a k-d tree, which imports
``scipy.spatial`` (with ``scipy.sparse``, ``scipy.linalg`` and
``scipy.special``); a network run builds none. Each check runs in a
subprocess, because the test session itself has long since imported all of
them.
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


def calibrate_loads(tmp_path, *flags) -> list:
    """Run one tiny ``pitcal calibrate`` in a fresh interpreter; return its scipy modules."""
    data = tmp_path / "data.csv"
    data.write_text("x0,y\n" + "".join(f"{i / 40!r},{(i * 7) % 11 / 10!r}\n" for i in range(80)))
    argv = ["calibrate", "--data", str(data), "--initial", "uniform",
            "--out-dir", str(tmp_path / "out"), *flags]
    return loaded_after(f"from pitcal import cli\nassert cli.main({argv!r}) == 0")


def test_network_calibration_builds_no_tree(tmp_path):
    loaded = calibrate_loads(tmp_path, "--backend", "net", "--hpd", "--eval-x=0.2;0.8",
                             "--k-factor", "3", "--net-hidden", "4,4", "--net-max-epochs", "1")
    assert loaded == []
    assert (tmp_path / "out" / "sets.json").is_file()


def test_local_calibration_loads_the_tree_module(tmp_path):
    # the same probe sees the lazy import happen, so the test above is not vacuous
    assert "scipy.spatial" in calibrate_loads(tmp_path, "--backend", "local", "--eval-x=0.5",
                                              "--k", "20")
