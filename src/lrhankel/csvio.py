"""CSV and config-file formats of the experiment harness.

All files are UTF-8 with LF line endings and a header row; a leading
byte-order mark, as some editors save "CSV UTF-8", is skipped on reading.
Floats are serialized with 17 significant digits so that runs reproduce
byte for byte; complex values occupy a re,im column pair. Signal files hold rows "t,re,im"
for every t; observation files hold the same rows for observed t only.
"""

import cmath
import os
from typing import Iterable, Sequence

import numpy as np

from .hankel import ObservationSet


Table = tuple[list[str], list[list[str]]]


class InputFileError(Exception):
    """Malformed or unreadable input file; message carries file and line."""


def fmt_float(x: float) -> str:
    return f"{float(x):.17g}"


def fmt_int(x: int) -> str:
    return str(int(x))


def write_csv(path, header: Sequence[str], rows: Iterable[Sequence[str]]) -> None:
    with open(path, "w", encoding="utf-8", newline="\n") as fh:
        fh.write(",".join(header) + "\n")
        for row in rows:
            fh.write(",".join(row) + "\n")


def sample_table(indices, values) -> Table:
    """The Table (header, formatted rows) t,re,im of a whole signal or of observed samples."""
    rows = [[fmt_int(t), fmt_float(v.real), fmt_float(v.imag)] for t, v in zip(indices, values)]
    return ["t", "re", "im"], rows


def _parse_rows(path) -> list[tuple[int, int, complex]]:
    """Shared reader for 't,re,im' files; returns (line_no, t, value) tuples."""
    if not os.path.isfile(path):
        raise InputFileError(f"{path}: no such file")
    out = []
    with open(path, encoding="utf-8-sig") as fh:
        for line_no, raw in enumerate(fh, start=1):
            line = raw.strip()
            if not line:
                continue
            if line_no == 1 and line.lower().replace(" ", "") == "t,re,im":
                continue
            parts = line.split(",")
            if len(parts) != 3:
                raise InputFileError(
                    f"{path}:{line_no}: expected 3 comma-separated fields, got {len(parts)}"
                )
            try:
                t = int(parts[0])
                value = complex(float(parts[1]), float(parts[2]))
            except ValueError as exc:
                raise InputFileError(f"{path}:{line_no}: {exc}") from None
            if not cmath.isfinite(value):
                raise InputFileError(f"{path}:{line_no}: sample value must be finite, got {line!r}")
            out.append((line_no, t, value))
    return out


def read_signal_file(path) -> np.ndarray:
    """Full signal: rows t,re,im with t = 0..2n-2 in order, odd length."""
    rows = _parse_rows(path)
    if not rows:
        raise InputFileError(f"{path}: file contains no samples")
    for position, (line_no, t, _) in enumerate(rows):
        if t != position:
            raise InputFileError(
                f"{path}:{line_no}: expected consecutive index {position}, got {t}"
            )
    if len(rows) % 2 == 0 or len(rows) < 3:
        raise InputFileError(
            f"{path}: signal length must be odd and at least 3, got {len(rows)}"
        )
    return np.array([v for _, _, v in rows], dtype=np.complex128)


def read_observation_file(path, n: int) -> ObservationSet:
    """Observed samples: rows t,re,im with strictly increasing t in [0, 2n-2]."""
    rows = _parse_rows(path)
    if not rows:
        raise InputFileError(f"{path}: file contains no observations")
    indices = []
    values = []
    for line_no, t, v in rows:
        if not 0 <= t <= 2 * n - 2:
            raise InputFileError(
                f"{path}:{line_no}: index {t} outside [0, {2 * n - 2}] for n={n}"
            )
        if indices and t <= indices[-1]:
            raise InputFileError(
                f"{path}:{line_no}: indices must be strictly increasing, got {t} after {indices[-1]}"
            )
        indices.append(t)
        values.append(v)
    return ObservationSet(n, np.array(indices), np.array(values))


def read_config_file(path) -> dict[str, str]:
    """Flat key=value configuration; blank lines and '#' comments ignored."""
    if not os.path.isfile(path):
        raise InputFileError(f"{path}: no such file")
    out: dict[str, str] = {}
    with open(path, encoding="utf-8-sig") as fh:
        for line_no, raw in enumerate(fh, start=1):
            line = raw.strip()
            if not line or line.startswith("#"):
                continue
            if "=" not in line:
                raise InputFileError(f"{path}:{line_no}: expected key=value, got {line!r}")
            key, _, value = line.partition("=")
            out[key.strip()] = value.strip()
    return out
