"""CSV formats shared by the CLI: `odmr-csv v1` spectra and `sweep-csv v1` tables.

Spectrum files carry `# key=value` metadata comments after the magic line,
then a `frequency_hz,signal` header and full-precision rows.
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


def _read_tagged(path: str, magic: str) -> tuple[list[str], dict, int]:
    """Lines of a file, its `# key=value` metadata and the row after them.

    Raises CsvFormatError unless the first line is the magic line.
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
    return lines, meta, row


def write_spectrum_csv(path: str, spec: OdmrSpectrum, meta: dict | None = None) -> None:
    lines = [SPECTRUM_MAGIC]
    for key, val in (meta or {}).items():
        lines.append(f"# {key}={val}")
    lines.append(SPECTRUM_HEADER)
    for f_hz, s in zip(spec.freq_hz, spec.signal):
        lines.append(f"{float(f_hz)!r},{float(s)!r}")
    write_text(path, "\n".join(lines) + "\n")


def read_spectrum_csv(path: str) -> tuple[OdmrSpectrum, dict]:
    lines, meta, row = _read_tagged(path, SPECTRUM_MAGIC)
    if row >= len(lines) or lines[row].strip() != SPECTRUM_HEADER:
        raise CsvFormatError(f"{path}:{row + 1}: expected header {SPECTRUM_HEADER!r}")
    freqs, signals = [], []
    for lineno in range(row + 1, len(lines)):
        line = lines[lineno].strip()
        if not line:
            continue
        parts = line.split(",")
        if len(parts) != 2:
            raise CsvFormatError(f"{path}:{lineno + 1}: expected two columns, got {line!r}")
        try:
            freqs.append(float(parts[0]))
            signals.append(float(parts[1]))
        except ValueError as err:
            raise CsvFormatError(f"{path}:{lineno + 1}: non-numeric value in {line!r}") from err
    if len(freqs) < 2:
        raise CsvFormatError(f"{path}: fewer than two data rows")
    return OdmrSpectrum(freq_hz=np.array(freqs), signal=np.array(signals)), meta


def write_sweep_csv(path: str, header: list[str], columns: list, meta: dict | None = None) -> None:
    arrays = [np.asarray(c, dtype=float).ravel() for c in columns]
    if len(arrays) != len(header) or any(a.shape != arrays[0].shape for a in arrays):
        raise ValueError("one equally sized column per header entry required")
    lines = [SWEEP_MAGIC]
    for key, val in (meta or {}).items():
        lines.append(f"# {key}={val}")
    lines.append(",".join(header))
    for row in zip(*arrays):
        lines.append(",".join(repr(float(v)) for v in row))
    write_text(path, "\n".join(lines) + "\n")


def read_sweep_csv(path: str) -> tuple[list[str], np.ndarray, dict]:
    """Returns (header names, columns as a (ncol, nrow) array, metadata)."""
    lines, meta, row = _read_tagged(path, SWEEP_MAGIC)
    if row >= len(lines):
        raise CsvFormatError(f"{path}: missing header row")
    header = [h.strip() for h in lines[row].split(",")]
    data = []
    for lineno in range(row + 1, len(lines)):
        line = lines[lineno].strip()
        if not line:
            continue
        parts = line.split(",")
        if len(parts) != len(header):
            raise CsvFormatError(
                f"{path}:{lineno + 1}: expected {len(header)} columns, got {len(parts)}"
            )
        try:
            data.append([float(p) for p in parts])
        except ValueError as err:
            raise CsvFormatError(f"{path}:{lineno + 1}: non-numeric value in {line!r}") from err
    if not data:
        raise CsvFormatError(f"{path}: no data rows")
    return header, np.array(data).T, meta
