"""The column CSV writer against a row-by-row csv.writer reference.

The reference formats each value on its own: floats with repr of the
Python float, integers with str of the Python int, anything else with str.
"""

import csv

import numpy as np
import pytest

from htlab.reports import _BLOCK_ROWS, write_csv


def _fmt(value) -> str:
    if isinstance(value, (float, np.floating)):
        return repr(float(value))
    if isinstance(value, (int, np.integer)):
        return str(int(value))
    return str(value)


def reference_csv(path, columns, meta=None):
    with open(path, "w", encoding="utf-8", newline="") as fh:
        for key, value in (meta or {}).items():
            fh.write(f"# {key}={_fmt(value)}\n")
        writer = csv.writer(fh, lineterminator="\n")
        writer.writerow(list(columns))
        for row in zip(*columns.values()):
            writer.writerow([_fmt(v) for v in row])


SPECIAL = np.array([np.nan, np.inf, -np.inf, -0.0, 0.0, 5e-324, 1e22,
                    0.1 + 0.2, -1.5e-300, 1.0, 123456.789])

TABLES = {
    "special_floats": {"id": np.arange(len(SPECIAL)), "value": SPECIAL},
    "mixed": {"t": np.repeat(np.linspace(0.0, 1.0, 7), 3),
              "state": np.tile(np.arange(3, dtype=np.int64), 7),
              "big": np.arange(21, dtype=np.int64) * 10 ** 17 - 10 ** 18,
              "noise": np.random.default_rng(0).standard_normal(21)},
    "one_row": {"a": np.array([2**62]), "b": np.array([-0.0])},
    "zero_rows": {"t": np.zeros(0), "state": np.zeros(0, dtype=np.int64)},
    # Repeated columns take the format-each-distinct-value-once path.
    "signed_zeros": {"v": np.tile([-0.0, 0.0, 0.0], 8)},
    "nan_payloads": {"v": np.tile(np.array(
        [0x7FF8000000000000, 0xFFF8000000000000, 0x7FF0000000000001,
         0xFFF00000000ABCDE], dtype=np.uint64).view(np.float64), 5)},
    "infinities": {"v": np.tile([np.inf, -np.inf, 1.0], 7)},
    "repeated_int64": {"v": np.repeat(
        np.arange(-3, 3, dtype=np.int64) * 10 ** 17, 7)},
    # 10 distinct of 20 is exactly half; 10 of 21 is below it.
    "half_distinct": {"v": np.tile(np.arange(10) / 7.0, 2)},
    "below_half_distinct": {"v": np.append(np.tile(np.arange(10) / 7.0, 2),
                                           0.0)},
    "block_plus_one": {"t": (np.arange(_BLOCK_ROWS + 1) // 50) / 8.0,
                       "state": np.arange(_BLOCK_ROWS + 1) % 7,
                       "noise": np.random.default_rng(1).standard_normal(
                           _BLOCK_ROWS + 1)},
}


@pytest.mark.parametrize("name", sorted(TABLES))
@pytest.mark.parametrize("meta", [None, {"grid_N": 200, "tol": 1e-10,
                                         "process": "P", "x": 0.1 + 0.2}])
def test_columns_match_row_writer(tmp_path, name, meta):
    columns = TABLES[name]
    write_csv(str(tmp_path / "new.csv"), columns, meta=meta)
    reference_csv(tmp_path / "ref.csv", columns, meta=meta)
    assert (tmp_path / "new.csv").read_bytes() == \
        (tmp_path / "ref.csv").read_bytes()


def test_unequal_columns_are_refused(tmp_path):
    with pytest.raises(ValueError):
        write_csv(str(tmp_path / "bad.csv"),
                  {"a": np.arange(2), "b": np.zeros(3)})
