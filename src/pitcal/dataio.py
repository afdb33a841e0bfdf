"""CSV schema for calibration data."""

from __future__ import annotations

import numpy as np

from .calibrate import CalibrationSet
from .errors import ConfigError

__all__ = ["write_calibration_csv", "read_calibration_csv"]


def write_calibration_csv(path, cal: CalibrationSet, comment: str | None = None):
    """Rows ``x0,...,x{d-1},y`` with round-trip precision."""
    d = cal.dim
    header = ",".join(f"x{j}" for j in range(d)) + ",y"
    with open(path, "w", encoding="utf-8") as fh:
        if comment:
            fh.write(f"# {comment}\n")
        fh.write(header + "\n")
        for i in range(len(cal)):
            fh.write(",".join(repr(float(v)) for v in cal.xs[i]) + f",{float(cal.ys[i])!r}\n")


def read_calibration_csv(path) -> CalibrationSet:
    """Parse the data rows in one numpy pass; re-scan a bad file only to name its bad line."""
    try:
        with open(path, "r", encoding="utf-8") as fh:
            rows = [(n, s) for n, s in enumerate(map(str.strip, fh), 1) if s and s[0] != "#"]
    except UnicodeDecodeError as exc:
        raise ConfigError(f"{path}: not UTF-8 text: {exc.reason}") from exc
    header = rows[0][1].split(",") if rows else None
    if header and (header[-1] != "y"
                   or not all(c == f"x{j}" for j, c in enumerate(header[:-1]))):
        raise ConfigError(f"{path}: expected header x0,...,y, got {rows[0][1]!r}")
    if header and len(header) < 2:
        raise ConfigError(f"{path}: no feature column before y")
    if len(rows) < 2:
        raise ConfigError(f"{path}: no data rows")
    width = len(header)
    try:
        values = np.loadtxt([line for _, line in rows[1:]], delimiter=",", comments=None,
                            converters=float, ndmin=2)
    except ValueError:  # a bad value, or rows of unequal length
        values = None
    if values is None or values.shape[1] != width or not np.isfinite(values).all():
        for lineno, line in rows[1:]:  # name the first bad line, in file order
            parts = line.split(",")
            if len(parts) != width:
                raise ConfigError(f"{path}:{lineno}: expected {width} fields, got {len(parts)}")
            try:
                row = [float(v) for v in parts]
            except ValueError as exc:
                raise ConfigError(f"{path}:{lineno}: {exc}") from exc
            if not np.isfinite(row).all():
                raise ConfigError(f"{path}:{lineno}: non-finite value")
    return CalibrationSet(np.ascontiguousarray(values[:, :-1]), values[:, -1])
