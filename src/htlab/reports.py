"""Deterministic CSV and text report writers.

Every numeric file starts with comment lines naming the producing command
and the grid parameters, then a header row. Floats are written with repr
(shortest round-trip form), so identical runs produce byte-identical files.
"""

from __future__ import annotations

import os

import numpy as np


def _fmt(value) -> str:
    if isinstance(value, (float, np.floating)):
        return repr(float(value))
    return str(value)


def write_csv(path: str, columns: dict[str, np.ndarray],
              meta: dict | None = None):
    """Write equal-length 1-d columns under a '# key=value' preamble.

    `columns` maps each header name to its values. Each column is formatted
    by dtype: floats with repr of the Python float, everything else
    (integers) with str. Rows are formatted and joined lazily, one at a time,
    so neither a table of strings nor a list of Python numbers is held.
    """
    cells = []
    for values in columns.values():
        values = np.asarray(values)
        cells.append(map(repr, map(float, values))
                     if values.dtype.kind == "f" else map(str, values))
    os.makedirs(os.path.dirname(path) or ".", exist_ok=True)
    with open(path, "w", encoding="utf-8", newline="") as fh:
        if meta:
            for key in meta:
                fh.write(f"# {key}={_fmt(meta[key])}\n")
        fh.write(",".join(columns) + "\n")
        fh.writelines(",".join(row) + "\n" for row in zip(*cells, strict=True))


def write_text(path: str, lines: list[str]):
    os.makedirs(os.path.dirname(path) or ".", exist_ok=True)
    with open(path, "w", encoding="utf-8") as fh:
        for line in lines:
            fh.write(line + "\n")
