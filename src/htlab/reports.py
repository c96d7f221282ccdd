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


# Rows per formatted block: memory stays bounded whatever the table length.
_BLOCK_ROWS = 1 << 10


def _cells(values: np.ndarray) -> list[str]:
    """Format a 1-d block: floats by repr of the Python float, the rest by str.

    When fewer than half the values are distinct (time nodes, states, zero
    rates), each distinct value is formatted once. Floats are told apart by
    their 8 bytes, so -0.0 and 0.0, and NaNs of different sign or payload,
    stay distinct keys.
    """
    if values.dtype.kind == "f":
        values = values.astype(np.float64, copy=False)
        fmt, keys = repr, values.view(np.uint64)
    else:
        fmt, keys = str, values
    distinct, index = np.unique(keys, return_inverse=True)
    if 2 * distinct.size >= values.size:
        return list(map(fmt, values.tolist()))
    if fmt is repr:
        distinct = distinct.view(np.float64)
    strings = np.array(list(map(fmt, distinct.tolist())), dtype=object)
    return strings[index].tolist()


def write_csv(path: str, columns: dict[str, np.ndarray],
              meta: dict | None = None):
    """Write equal-length 1-d columns under a '# key=value' preamble.

    `columns` maps each header name to its values. Each column is formatted
    by dtype: floats with repr of the Python float, everything else
    (integers) with str. Unequal lengths raise ValueError before anything is
    written. Rows are formatted and written in blocks of _BLOCK_ROWS.
    """
    arrays = [np.asarray(values) for values in columns.values()]
    lengths = {len(values) for values in arrays}
    if len(lengths) > 1:
        raise ValueError(f"columns differ in length: {sorted(lengths)}")
    n_rows = lengths.pop() if lengths else 0
    os.makedirs(os.path.dirname(path) or ".", exist_ok=True)
    with open(path, "w", encoding="utf-8", newline="") as fh:
        if meta:
            for key in meta:
                fh.write(f"# {key}={_fmt(meta[key])}\n")
        fh.write(",".join(columns) + "\n")
        for start in range(0, n_rows, _BLOCK_ROWS):
            cells = [_cells(values[start:start + _BLOCK_ROWS])
                     for values in arrays]
            fh.write("\n".join(map(",".join, zip(*cells))) + "\n")


def write_text(path: str, lines: list[str]):
    os.makedirs(os.path.dirname(path) or ".", exist_ok=True)
    with open(path, "w", encoding="utf-8") as fh:
        for line in lines:
            fh.write(line + "\n")
