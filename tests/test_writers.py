"""The two output writers against frozen copies of the writers they replaced.

Every JSON and CSV output file goes through :func:`pitcal.dataio.write_json`
and :func:`pitcal.dataio.write_csv`. The frozen functions below are the
hand-written blocks those two replaced: ``grid.write_grid_csv``, the ALP CSV
block of ``pitcal diagnose``, ``CoverageReport.write_csv``, the old body of
``write_calibration_csv`` and ``json.dump(..., indent=1)``. On the same
inputs each pair must write the same bytes.
"""

import json

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from pitcal.bench import CoverageReport, ExperimentRecipe, run_experiment
from pitcal.calibrate import CalibrationSet
from pitcal.dataio import write_calibration_csv, write_csv, write_json
from pitcal.grid import YGrid


def frozen_write_grid_csv(path, grid, values, comment=None):
    with open(path, "w", encoding="utf-8") as fh:
        if comment:
            fh.write(f"# {comment}\n")
        fh.write("y,value\n")
        for y, v in zip(grid.points, np.asarray(values, dtype=float)):
            fh.write(f"{float(y)!r},{float(v)!r}\n")


def frozen_write_alp_csv(path, stamp, gammas, r_values, band_lo, band_hi):
    with open(path, "w", encoding="utf-8") as fh:
        fh.write(f"# {stamp}\n")
        fh.write("gamma,r,lo,hi\n")
        for row in zip(gammas, r_values, band_lo, band_hi):
            fh.write(",".join(repr(float(v)) for v in row) + "\n")


def frozen_write_report_csv(report, path, comment=None):
    with open(path, "w", encoding="utf-8") as fh:
        if comment:
            fh.write(f"# {comment}\n")
        fh.write("x0,x1,empirical,classification,set_size\n")
        for rec in report.points:
            x = rec["x"]
            x1 = repr(float(x[1])) if len(x) > 1 else ""
            fh.write(
                f"{float(x[0])!r},{x1},{rec['empirical']!r},"
                f"{rec['classification']},{rec['mean_set_size']!r}\n"
            )


def frozen_write_calibration_csv(path, cal, comment=None):
    d = cal.dim
    header = ",".join(f"x{j}" for j in range(d)) + ",y"
    with open(path, "w", encoding="utf-8") as fh:
        if comment:
            fh.write(f"# {comment}\n")
        fh.write(header + "\n")
        for i in range(len(cal)):
            fh.write(",".join(repr(float(v)) for v in cal.xs[i]) + f",{float(cal.ys[i])!r}\n")


def frozen_write_json(path, doc):
    with open(path, "w", encoding="utf-8") as fh:
        json.dump(doc, fh, indent=1)


def same_bytes(tmp_dir, frozen, new):
    """Run both writers, each given its own path, and compare what they wrote."""
    old_path, new_path = tmp_dir / "frozen", tmp_dir / "new"
    frozen(old_path)
    new(new_path)
    assert new_path.read_bytes() == old_path.read_bytes()


comments = st.sampled_from([None, "", "stamp", "pitcal 0.1.0 config=0123456789ab seed=7"])
# every float, the non-finite ones, -0.0 and subnormals included
any_floats = st.floats(allow_nan=True, allow_infinity=True)
finite_floats = st.floats(allow_nan=False, allow_infinity=False)


@settings(max_examples=60, deadline=None)
@given(points=st.lists(st.floats(-1e6, 1e6), min_size=3, max_size=40, unique=True),
       data=st.data(), comment=comments)
def test_grid_csv(tmp_path_factory, points, data, comment):
    grid = YGrid(np.sort(np.array(points)))
    values = np.array(data.draw(st.lists(any_floats, min_size=len(grid), max_size=len(grid))))
    same_bytes(tmp_path_factory.mktemp("grid"),
               lambda p: frozen_write_grid_csv(p, grid, values, comment=comment),
               lambda p: write_csv(p, ("y", "value"), zip(grid.points, values),
                                   comment=comment))


@settings(max_examples=60, deadline=None)
@given(n=st.integers(1, 30), data=st.data())
def test_alp_csv(tmp_path_factory, n, data):
    gammas = np.linspace(0.05, 0.95, n)
    r, lo, hi = (np.array(data.draw(st.lists(any_floats, min_size=n, max_size=n)))
                 for _ in range(3))
    stamp = "pitcal 0.1.0 config=0123456789ab seed=7"
    same_bytes(tmp_path_factory.mktemp("alp"),
               lambda p: frozen_write_alp_csv(p, stamp, gammas, r, lo, hi),
               lambda p: write_csv(p, ("gamma", "r", "lo", "hi"), zip(gammas, r, lo, hi),
                                   comment=stamp))


def report_points(dim):
    return st.lists(st.fixed_dictionaries({
        "x": st.lists(finite_floats, min_size=dim, max_size=dim),
        "nominal": st.just(0.9),
        "empirical": st.floats(0.0, 1.0),
        "classification": st.sampled_from(["under", "correct", "over"]),
        "mean_set_size": st.floats(0.0, 1e6),
    }), max_size=20)


@settings(max_examples=60, deadline=None)
@given(dim=st.sampled_from([1, 2]), data=st.data(), comment=comments)
def test_report_csv(tmp_path_factory, dim, data, comment):
    report = CoverageReport(points=data.draw(report_points(dim)), summary={})
    same_bytes(tmp_path_factory.mktemp("report"),
               lambda p: frozen_write_report_csv(report, p, comment=comment),
               lambda p: write_csv(p, report.CSV_HEADER, report.csv_rows(), comment=comment))


@pytest.mark.parametrize("generator", ["ex1", "ex2-skewed"])
def test_report_files_of_a_run(tmp_path, generator):
    """A real report: two features (ex1) and one feature, where ``x1`` is empty."""
    report = run_experiment(ExperimentRecipe(generator=generator, method="oracle", n=20,
                                             n_realizations=1, n_mc_draws=20, seed=2,
                                             test_grid_size=3))
    assert len(report.points[0]["x"]) == (2 if generator == "ex1" else 1)
    same_bytes(tmp_path, lambda p: frozen_write_report_csv(report, p, comment="stamp"),
               lambda p: write_csv(p, report.CSV_HEADER, report.csv_rows(), comment="stamp"))
    (tmp_path / "json").mkdir()
    same_bytes(tmp_path / "json", lambda p: frozen_write_json(p, report.to_json()),
               lambda p: write_json(p, report.to_json()))


@settings(max_examples=60, deadline=None)
@given(n=st.integers(1, 30), dim=st.integers(1, 3), data=st.data(), comment=comments)
def test_calibration_csv(tmp_path_factory, n, dim, data, comment):
    flat = data.draw(st.lists(finite_floats, min_size=n * (dim + 1), max_size=n * (dim + 1)))
    values = np.array(flat).reshape(n, dim + 1)
    cal = CalibrationSet(values[:, :-1], values[:, -1])
    same_bytes(tmp_path_factory.mktemp("cal"),
               lambda p: frozen_write_calibration_csv(p, cal, comment=comment),
               lambda p: write_calibration_csv(p, cal, comment=comment))


json_docs = st.recursive(
    st.none() | st.booleans() | st.integers() | any_floats | st.text(),
    lambda inner: st.lists(inner, max_size=4) | st.dictionaries(st.text(), inner, max_size=4),
    max_leaves=20,
)


@settings(max_examples=100, deadline=None)
@given(doc=json_docs)
def test_json(tmp_path_factory, doc):
    same_bytes(tmp_path_factory.mktemp("json"), lambda p: frozen_write_json(p, doc),
               lambda p: write_json(p, doc))


@pytest.mark.parametrize("comment", [None, ""])
def test_no_comment_line(tmp_path, comment):
    path = tmp_path / "t.csv"
    write_csv(path, ("a", "b"), [(1, "s")], comment=comment)
    assert path.read_text(encoding="utf-8") == "a,b\n1.0,s\n"
