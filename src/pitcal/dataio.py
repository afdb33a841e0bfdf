"""The writers of every JSON and CSV output file, and the calibration CSV reader.

JSON is UTF-8 with ``indent=1``. A CSV is an optional ``# comment`` line, a
header, then the rows; numbers go out as ``repr(float(v))``, which reads back
bit for bit.
"""

from __future__ import annotations

import json

import numpy as np

from .calibrate import CalibrationSet
from .errors import ConfigError

__all__ = ["write_json", "write_csv", "write_calibration_csv", "read_calibration_csv"]


def write_json(path, doc):
    """``doc`` as UTF-8 JSON with ``indent=1``."""
    with open(path, "w", encoding="utf-8") as fh:
        json.dump(doc, fh, indent=1)


def write_csv(path, header, rows, comment: str | None = None):
    """``# comment`` (when non-empty), the ``header`` names, then one line per row.

    Strings go out as given and numbers as ``repr(float(v))``.
    """
    with open(path, "w", encoding="utf-8") as fh:
        if comment:
            fh.write(f"# {comment}\n")
        fh.write(",".join(header) + "\n")
        fh.writelines(",".join(v if isinstance(v, str) else repr(float(v)) for v in row) + "\n"
                      for row in rows)


def write_calibration_csv(path, cal: CalibrationSet, comment: str | None = None):
    """Rows ``x0,...,x{d-1},y`` with round-trip precision."""
    write_csv(path, [f"x{j}" for j in range(cal.dim)] + ["y"],
              map(np.ndarray.tolist, np.column_stack((cal.xs, cal.ys))), comment=comment)


def read_calibration_csv(path) -> CalibrationSet:
    """Parse the data rows in one numpy pass; re-scan a bad file only to name its bad line.

    numpy's C parser reads ASCII values as ``float`` does but strips 0x1C-0x1F around them:
    it parses ASCII files without those or NUL, and ``float`` the rest and rows it rejects.
    """
    try:
        with open(path, "r", encoding="utf-8") as fh:
            stripped = list(map(str.strip, fh))
    except UnicodeDecodeError as exc:
        raise ConfigError(f"{path}: not UTF-8 text: {exc.reason}") from exc
    lines = [s for s in stripped if s and s[0] != "#"]
    header = lines[0].split(",") if lines else None
    if header and (header[-1] != "y"
                   or not all(c == f"x{j}" for j, c in enumerate(header[:-1]))):
        raise ConfigError(f"{path}: expected header x0,...,y, got {lines[0]!r}")
    if header and len(header) < 2:
        raise ConfigError(f"{path}: no feature column before y")
    if len(lines) < 2:
        raise ConfigError(f"{path}: no data rows")
    width, text, values = len(header), "\n".join(lines), None
    fast = text.isascii() and not any(c in text for c in "\x00\x1c\x1d\x1e\x1f")
    for converters in [None, float] if fast else [float]:
        try:
            values = np.loadtxt(lines[1:], delimiter=",", comments=None, converters=converters,
                                ndmin=2)
            break
        except ValueError:  # a bad value, or rows of unequal length
            pass
    if values is None or values.shape[1] != width or not np.isfinite(values).all():
        rows = [(n, s) for n, s in enumerate(stripped, 1) if s and s[0] != "#"]
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
