"""Results tables and the best-temperature rule shared by the sweeps' callers.

Sweeps return plain arrays in grid order; this module picks the best grid
temperature from such an array and writes and reads the fixed-layout
results CSV.
"""
from __future__ import annotations

import csv
from itertools import chain

import numpy as np

from .exceptions import EmptyInputError, MalformedRecordError, open_text


def best_temperature(temperatures, values) -> float:
    """Grid temperature with the smallest value; ties go to the smaller temperature.

    ``values`` holds one number per grid position.  To maximize a metric,
    pass its negation.
    """
    pairs = list(zip(values, temperatures))
    if not pairs:
        raise EmptyInputError("no temperatures to select from")
    return min(pairs)[1]


# cell types whose str() is format_cell's text: repr for a float, since
# Python 3 prints a float's shortest round-trip digits either way
_CSV_NATIVE = {float, int, str}


def format_cell(value) -> str:
    """Canonical text for one CSV cell: repr for floats (round-trips exactly),
    str for ints and strings."""
    if isinstance(value, bool):
        raise TypeError("booleans have no CSV representation here")
    # np.float64 subclasses float, so coerce before repr (numpy's own repr
    # wraps the digits in the type name)
    if isinstance(value, (float, np.floating)):
        return repr(float(value))
    if isinstance(value, (int, np.integer)):
        return str(int(value))
    if isinstance(value, str):
        return value
    raise TypeError(f"cannot serialize {type(value).__name__} to CSV")


def write_csv(path, header, rows):
    """Write a results table, a list of row tuples, with a fixed byte layout.

    Unix newlines and repr-based float formatting make the output a pure
    function of the values, so identical runs produce identical files.
    Python floats, ints and strings are written by the csv module itself,
    whose text for them is :func:`format_cell`'s; a table holding any other
    cell type, such as a numpy scalar, is formatted cell by cell.
    """
    if not set(map(type, chain.from_iterable(rows))) <= _CSV_NATIVE:
        rows = [[format_cell(v) for v in row] for row in rows]
    with open(path, "w", encoding="utf-8", newline="") as fh:
        writer = csv.writer(fh, lineterminator="\n")
        writer.writerow(header)
        writer.writerows(rows)


def read_csv(path):
    """Read a results table back as (header list, list of string-valued rows)."""
    with open_text(path, "utf-8", newline="") as fh:
        try:
            table = list(csv.reader(fh))
        except csv.Error as exc:  # such as a cell past the csv module's field limit
            raise MalformedRecordError(f"{path}: {exc}") from None
    if not table:
        return [], []
    header, rows = table[0], table[1:]
    for row in rows:
        if len(row) != len(header):
            raise MalformedRecordError(
                f"{path}: row with {len(row)} cells under {len(header)}-column header")
    return header, rows
