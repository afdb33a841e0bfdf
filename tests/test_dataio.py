"""The calibration CSV reader against a frozen copy of its per-value loop.

``read_calibration_csv`` parses all data rows in one numpy pass, and scans a
file again only when that pass fails, to name the first bad line. The frozen
reader below is the loop it replaced, which called ``float`` on every value.
On any file both must return bit-identical arrays or raise the same
:class:`ConfigError` message.
"""

import math

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from pitcal import cli
from pitcal.calibrate import CalibrationSet
from pitcal.dataio import read_calibration_csv
from pitcal.errors import ConfigError


def frozen_read_calibration_csv(path) -> CalibrationSet:
    try:
        with open(path, "r", encoding="utf-8") as fh:
            lines = fh.readlines()
    except UnicodeDecodeError as exc:
        raise ConfigError(f"{path}: not UTF-8 text: {exc.reason}") from exc
    xs, ys = [], []
    header = None
    for lineno, line in enumerate(lines, start=1):
        line = line.strip()
        if not line or line.startswith("#"):
            continue
        if header is None:
            header = line.split(",")
            if header[-1] != "y" or not all(c == f"x{j}" for j, c in enumerate(header[:-1])):
                raise ConfigError(f"{path}: expected header x0,...,y, got {line!r}")
            if len(header) < 2:
                raise ConfigError(f"{path}: no feature column before y")
            continue
        parts = line.split(",")
        if len(parts) != len(header):
            raise ConfigError(f"{path}:{lineno}: expected {len(header)} fields, got {len(parts)}")
        try:
            row = [float(v) for v in parts]
        except ValueError as exc:
            raise ConfigError(f"{path}:{lineno}: {exc}") from exc
        if not all(math.isfinite(v) for v in row):
            raise ConfigError(f"{path}:{lineno}: non-finite value")
        xs.append(row[:-1])
        ys.append(row[-1])
    if header is None or not ys:
        raise ConfigError(f"{path}: no data rows")
    return CalibrationSet(np.array(xs), np.array(ys))


def outcome(reader, path):
    """(xs, ys) of a read, or the message of its ConfigError."""
    try:
        cal = reader(path)
    except ConfigError as exc:
        return str(exc)
    return cal.xs, cal.ys


def assert_same_outcome(path):
    got, want = outcome(read_calibration_csv, path), outcome(frozen_read_calibration_csv, path)
    if isinstance(want, str):
        assert got == want
    else:
        assert not isinstance(got, str), got
        for g, w in zip(got, want):
            assert g.dtype == w.dtype and g.shape == w.shape and np.array_equal(g, w)
            assert g.flags.c_contiguous


# values a field may hold: round-trip floats, odd spellings Python's float
# accepts, and values it rejects or that parse to a non-finite number
GOOD = st.floats(allow_nan=False, allow_infinity=False).map(repr)
ODD = st.sampled_from([" 1.5 ", "1_000", "+2", "-0.0", "1e-320", "١", ".5", "5.", "\x0c2\x0b",
                       "3\u2028", "\t4"])
BAD = st.sampled_from(["", "abc", "nan", "inf", "-inf", "1e999", "1__0", "0x1p3", "1,2", '"1"',
                       "1#2", "2\x00", " "])


@st.composite
def csv_files(draw):
    d = draw(st.integers(min_value=1, max_value=3))
    width = d + 1
    field = st.one_of(GOOD, GOOD, GOOD, ODD) if draw(st.booleans()) else st.one_of(GOOD, ODD, BAD)
    row = st.lists(field, min_size=width, max_size=width).map(",".join)
    extra = st.sampled_from(["", "   ", "# note", "  # indented note"])
    if draw(st.integers(min_value=0, max_value=9)) == 0:
        row = st.lists(field, min_size=1, max_size=width + 1).map(",".join)
    body = draw(st.lists(st.one_of(row, row, row, extra), max_size=30))
    header = draw(st.sampled_from([",".join(f"x{j}" for j in range(d)) + ",y"] * 12
                                  + ["y", "x1,y", "a,b", " x0 , y"]))
    head = draw(st.lists(extra, max_size=2))
    newline = draw(st.sampled_from(["\n", "\r\n", "\r"]))
    text = newline.join(head + [header] + body)
    return text + (newline if draw(st.booleans()) else "")


class TestReader:
    @settings(max_examples=200, deadline=None)
    @given(csv_files())
    def test_equals_frozen_reader(self, tmp_path_factory, text):
        path = tmp_path_factory.mktemp("csv") / "data.csv"
        path.write_bytes(text.encode("utf-8"))
        assert_same_outcome(path)

    @pytest.mark.parametrize("text", [
        "x0,y\n0.1,0.2\n0.3,abc\n",
        "x0,y\n0.1,0.2\n0.3\n",
        "x0,y\n0.1,0.2\n0.3,0.4,0.5\n0.6,0.7,0.8\n",
        "x0,y\n0.1,0.2\n0.3,nan\n",
        "x0,y\n0.1,1e999\n0.3,0.4\n",
        "x0,y\n0.1,0.2\n0.3,0.4,0.5\n0.6,abc\n",
        "x0,y\n0.1,abc\n0.6,0.4,0.5\n",
        "# header only\nx0,x1,y\n\n",
        "# nothing\n\n",
        "",
        "y\n1.0\n",
        "x0,z\n1.0,2.0\n",
        "x0,y\n\xff\n",
        "x0,y\n0.1,0.2#3\n",
        "x0,y\n\"0.1\",0.2\n",
        "x0,y\n1_000, \u0661\x0c\n",
    ])
    def test_named_cases(self, tmp_path, text):
        path = tmp_path / "data.csv"
        path.write_bytes(text.encode("latin-1") if "\xff" in text else text.encode("utf-8"))
        assert_same_outcome(path)

    def test_large_file(self, tmp_path):
        rng = np.random.default_rng(4)
        path = tmp_path / "data.csv"
        rows = [f"{a!r},{b!r},{c!r}" for a, b, c in rng.normal(size=(5000, 3))]
        path.write_text("# stamp\nx0,x1,y\n" + "\n".join(rows) + "\n")
        assert_same_outcome(path)


@pytest.mark.parametrize("body,message", [
    ("0.1,0.2\n0.3,abc\n", ":3: could not convert string to float: 'abc'"),
    ("0.1,0.2\n0.3\n", ":3: expected 2 fields, got 1"),
    ("0.1,0.2\n0.3,inf\n", ":3: non-finite value"),
])
def test_bad_rows_exit_two(tmp_path, capsys, body, message):
    path = tmp_path / "data.csv"
    path.write_text("x0,y\n" + body)
    assert cli.main(["calibrate", "--data", str(path), "--out-dir", str(tmp_path / "out")]) == 2
    assert capsys.readouterr().err.splitlines() == [f"error: {path}{message}"]
