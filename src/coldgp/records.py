"""Tables and the best-temperature rule shared by the sweeps' callers.

Sweeps return plain arrays in grid order; this module picks the best grid
temperature from such an array.  It also owns the one table layout that
results, plots and datasets share: ASCII text, a header row, then one row
per record, comma-separated, unquoted and ended by ``"\n"``.
"""
from __future__ import annotations

import csv
from itertools import chain

from .exceptions import EmptyInputError, MalformedRecordError


def best_temperature(temperatures, values) -> float:
    """Grid temperature with the smallest value; ties go to the smaller temperature.

    ``values`` holds one number per grid position.  To maximize a metric,
    pass its negation.
    """
    pairs = list(zip(values, temperatures))
    if not pairs:
        raise EmptyInputError("no temperatures to select from")
    return min(pairs)[1]


# the cell types that the csv module writes as this layout wants: repr for
# a float (its shortest round-trip digits), str for an int and a string
_CSV_CELLS = {float, int, str}


def write_csv(path, header, rows):
    """Write a table, a header list and a list of rows, in the module's layout.

    Float cells are written as ``repr`` writes them, int and str cells as
    ``str`` does, so identical runs produce identical files.  Any other cell
    type, such as a numpy scalar or a bool, raises TypeError naming it.  A
    string holding a comma, a quote or a line break raises csv.Error, and
    one holding a non-ASCII character UnicodeEncodeError.
    """
    other = set(map(type, chain.from_iterable(rows))) - _CSV_CELLS
    if other:
        names = ", ".join(sorted(t.__name__ for t in other))
        raise TypeError(f"cannot write {names} cells to CSV; pass Python floats, ints or strings")
    with open(path, "w", encoding="ascii", newline="") as fh:
        writer = csv.writer(fh, lineterminator="\n", quoting=csv.QUOTE_NONE)
        writer.writerow(header)
        writer.writerows(rows)


def read_csv(path):
    """Read a table back as (header list, list of string-valued rows).

    A quote is an ordinary character.  MalformedRecordError names the file
    for a byte that is not ASCII and for a cell past the csv module's field
    limit, and names ``path:line`` for a row whose cell count differs from
    the header's, a blank line among them.
    """
    with open(path, "r", encoding="ascii", newline="") as fh:
        try:
            table = list(csv.reader(fh, quoting=csv.QUOTE_NONE))
        except UnicodeDecodeError as exc:
            raise MalformedRecordError(
                f"{path}: byte {exc.object[exc.start]:#04x} is not ascii text") from None
        except csv.Error as exc:
            raise MalformedRecordError(f"{path}: {exc}") from None
    if not table:
        return [], []
    header, rows = table[0], table[1:]
    for line, row in enumerate(rows, start=2):
        if len(row) != len(header):
            raise MalformedRecordError(
                f"{path}:{line}: expected {len(header)} fields, got {len(row)}")
    return header, rows
