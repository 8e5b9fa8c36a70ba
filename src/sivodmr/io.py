"""CSV formats shared by the CLI: `odmr-csv v1` spectra and `sweep-csv v1` tables.

Both are one tagged-table format: a magic line, `# key=value` metadata
comments, a header row and full-precision rows of comma-separated floats.
Spectrum files fix the header to `frequency_hz,signal` and hold at least
two rows.
"""

from __future__ import annotations

import sys

import numpy as np

from .spectrum import OdmrSpectrum

SPECTRUM_MAGIC = "# odmr-csv v1"
SWEEP_MAGIC = "# sweep-csv v1"
SPECTRUM_HEADER = "frequency_hz,signal"


class CsvFormatError(ValueError):
    """Input file does not match the expected CSV format."""


def write_text(path: str | None, text: str) -> None:
    """Write text to path, or to stdout when path is None or "-"."""
    if path is None or path == "-":
        sys.stdout.write(text)
    else:
        with open(path, "w", encoding="utf-8") as fh:
            fh.write(text)


def _write_table(path: str, magic: str, header: list[str], columns, meta: dict | None) -> None:
    """Magic line, `# key=value` metadata, header, then one full-precision row per entry."""
    lines = [magic, *(f"# {key}={val}" for key, val in (meta or {}).items()), ",".join(header)]
    lines += [",".join(map(repr, row)) for row in zip(*(c.tolist() for c in columns))]
    write_text(path, "\n".join(lines) + "\n")


def _read_table(path: str, magic: str, header: str | None = None, min_rows: int = 1):
    """Header names, columns as a (ncol, nrow) array and metadata of a tagged table.

    The first line must be the magic line; `#` lines after it carry the
    metadata and the next line is the header, which must equal header when
    one is given.  Every non-blank line after it is a row of one number per
    header name, and there must be at least min_rows of them.  Raises
    CsvFormatError naming the path and, where there is one, the line.
    """
    with open(path, "r", encoding="utf-8") as fh:
        lines = fh.read().splitlines()
    if not lines or lines[0].strip() != magic:
        raise CsvFormatError(f"{path}:1: expected magic line {magic!r}")
    meta: dict = {}
    row = 1
    while row < len(lines) and lines[row].startswith("#"):
        body = lines[row][1:].strip()
        if "=" in body:
            key, _, val = body.partition("=")
            meta[key.strip()] = val.strip()
        row += 1
    if row >= len(lines):
        raise CsvFormatError(f"{path}:{row + 1}: missing header row")
    if header is not None and lines[row].strip() != header:
        raise CsvFormatError(f"{path}:{row + 1}: expected header {header!r}")
    names = [h.strip() for h in lines[row].split(",")]
    data = []
    for lineno in range(row + 1, len(lines)):
        line = lines[lineno].strip()
        if not line:
            continue
        parts = line.split(",")
        if len(parts) != len(names):
            raise CsvFormatError(
                f"{path}:{lineno + 1}: expected {len(names)} columns, got {len(parts)}"
            )
        try:
            data.extend(map(float, parts))
        except ValueError as err:
            raise CsvFormatError(f"{path}:{lineno + 1}: non-numeric value in {line!r}") from err
    rows = len(data) // len(names)
    if rows < min_rows:
        raise CsvFormatError(f"{path}: need at least {min_rows} data rows, got {rows}")
    return names, np.ascontiguousarray(np.reshape(data, (rows, len(names))).T), meta


def write_spectrum_csv(path: str, spec: OdmrSpectrum, meta: dict | None = None) -> None:
    columns = [spec.freq_hz, spec.signal]
    _write_table(path, SPECTRUM_MAGIC, SPECTRUM_HEADER.split(","), columns, meta)


def read_spectrum_csv(path: str) -> tuple[OdmrSpectrum, dict]:
    _, (freq, signal), meta = _read_table(path, SPECTRUM_MAGIC, SPECTRUM_HEADER, min_rows=2)
    return OdmrSpectrum(freq_hz=freq, signal=signal), meta


def write_sweep_csv(path: str, header: list[str], columns: list, meta: dict | None = None) -> None:
    arrays = [np.asarray(c, dtype=float).ravel() for c in columns]
    if len(arrays) != len(header) or any(a.shape != arrays[0].shape for a in arrays):
        raise ValueError("one equally sized column per header entry required")
    _write_table(path, SWEEP_MAGIC, header, arrays, meta)


def read_sweep_csv(path: str) -> tuple[list[str], np.ndarray, dict]:
    """Returns (header names, columns as a (ncol, nrow) array, metadata)."""
    return _read_table(path, SWEEP_MAGIC)
