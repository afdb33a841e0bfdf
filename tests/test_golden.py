"""Golden outputs of the gaussian-fit path through the command line.

``tests/data/golden_gaussian_fit`` holds what ``pitcal diagnose`` (uniform and
inverse-distance weighting) and ``pitcal calibrate --hpd`` wrote on 1,500 rows
of the skewed example 2 before the KNN mean, the Gaussian PIT pass, the null
draws and the CSV reader were rewritten to skip work no output reads. Each
output file is stored without its stamp: the ``# pitcal ...`` comment line of
a CSV, and the ``tool_version``, ``config_hash`` and ``seed`` keys of a JSON
file, which hash the data path. The rest must match byte for byte.
"""

import json
from pathlib import Path

import pytest

from pitcal.cli import main

GOLDEN = Path(__file__).parent / "data" / "golden_gaussian_fit"
_STAMP_KEYS = ("tool_version", "config_hash", "seed")

RUNS = {
    "diag-uniform": ["diagnose", "--initial", "gaussian-fit", "--n-eval-points", "4",
                     "--n-mc", "40"],
    "diag-idw": ["diagnose", "--initial", "gaussian-fit", "--weighting", "inverse-distance",
                 "--n-eval-points", "4", "--n-mc", "40"],
    "cal": ["calibrate", "--initial", "gaussian-fit", "--hpd", "--eval-x=-0.8;-0.2;0.4;0.9"],
}


def unstamped(path: Path) -> str:
    """The text of an output file without its stamp."""
    text = path.read_text(encoding="utf-8")
    if path.suffix == ".csv":
        head, rest = text.split("\n", 1)
        assert head.startswith("# pitcal ")
        return rest
    doc = json.loads(text)
    for key in _STAMP_KEYS:
        doc.pop(key)
    return json.dumps(doc, indent=1)


@pytest.fixture(scope="module")
def dataset(tmp_path_factory):
    out = tmp_path_factory.mktemp("golden") / "gen"
    assert main(["gen", "--example", "ex2-skewed", "--n", "1500", "--seed", "3",
                 "--out-dir", str(out)]) == 0
    return out / "dataset.csv"


@pytest.mark.parametrize("run", sorted(RUNS))
def test_outputs_match_golden_files(run, dataset, tmp_path):
    out = tmp_path / run
    assert main(RUNS[run] + ["--data", str(dataset), "--out-dir", str(out)]) == 0
    expected = sorted(p.name for p in (GOLDEN / run).iterdir())
    assert sorted(p.name for p in out.iterdir()) == expected
    for name in expected:
        assert unstamped(out / name) == (GOLDEN / run / name).read_text(encoding="utf-8"), name
