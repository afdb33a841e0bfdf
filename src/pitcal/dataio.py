"""CSV schema for calibration data."""

from __future__ import annotations

import math

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
