"""Deterministic file output: CSV curves and JSON summaries.

Determinism contract: every writer here is a pure function of its inputs.
Floats are rendered with ``repr`` (shortest round-trip form), JSON keys are
sorted, and line endings are LF regardless of platform, so a rerun with the
same data produces byte-identical files.
"""

from __future__ import annotations

import json
from typing import Iterable, Sequence

import numpy as np


__all__ = [
    "format_cell",
    "matrix_to_pairs",
    "write_csv",
    "write_json",
]


def format_cell(value) -> str:
    """Render one CSV cell; floats via repr of the Python float."""
    if isinstance(value, (bool, np.bool_)):
        return str(bool(value))
    if isinstance(value, (int, np.integer)):
        return str(int(value))
    if isinstance(value, (float, np.floating)):
        return repr(float(value))
    return str(value)


def write_csv(path, header: Sequence[str], rows: Iterable[Sequence]) -> None:
    """Write a UTF-8, LF-terminated CSV with a header row."""
    lines = [",".join(header)]
    for row in rows:
        lines.append(",".join(format_cell(v) for v in row))
    with open(path, "w", encoding="utf-8", newline="\n") as fh:
        fh.write("\n".join(lines) + "\n")


def _json_default(obj):
    """The JSON form of the numpy values json does not take: bools, ints and arrays."""
    if isinstance(obj, np.bool_):
        return bool(obj)
    if isinstance(obj, (np.integer, np.ndarray)):
        return obj.tolist()
    raise TypeError(f"{type(obj).__name__} is not JSON serializable")


def write_json(path, obj) -> None:
    """Write sorted-key, 2-space-indented JSON with a trailing newline."""
    with open(path, "w", encoding="utf-8", newline="\n") as fh:
        json.dump(obj, fh, sort_keys=True, indent=2, default=_json_default)
        fh.write("\n")


def matrix_to_pairs(matrix: np.ndarray) -> list:
    """Encode a complex matrix as nested [real, imag] pairs."""
    m = np.asarray(matrix, dtype=complex)
    return [[[float(v.real), float(v.imag)] for v in row] for row in m]

