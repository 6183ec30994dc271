"""The text format of every artifact a stage writes or reads.

CSV: a header row, then one `\\r\\n`-terminated row per record. Floats are
the shortest `repr` that reads back to the same float64, bools `0`/`1`,
ints `str`, and `None` an empty cell; text is quoted as the csv module's
QUOTE_MINIMAL does, so the bytes are those `csv.writer` would write.
JSON: `indent=2`, sorted keys and a trailing newline. Each file is written
beside its path and moved into place with `os.replace`, so a failed write
leaves the previous file as it was; missing parent directories are created
first.
Readers raise SchemaError, naming the file, on anything off-schema, a
non-finite float or a flag other than 0/1 included.
"""

import contextlib
import csv
import json
import os

import numpy as np

from .errors import SchemaError, ShapeError

_CHUNK_ROWS = 1 << 14  # rows formatted at a time, to bound the memory text takes
_SPECIAL = (",", '"', "\r", "\n")  # characters that make csv quote a cell
_FLAGS = ("0", "1")


@contextlib.contextmanager
def _replacing(path, *open_args, **open_kwargs):
    """Yield a temp file that replaces path if the block completes, else is removed."""
    tmp = os.fspath(path) + ".tmp"
    os.makedirs(os.path.dirname(tmp) or ".", exist_ok=True)
    try:
        with open(tmp, *open_args, **open_kwargs) as f:
            yield f
        os.replace(tmp, path)
    finally:
        if os.path.exists(tmp):
            os.remove(tmp)


def write_bytes(path, data):
    with _replacing(path, "wb") as f:
        f.write(data)


def write_json(path, payload):
    write_bytes(path, (json.dumps(payload, indent=2, sort_keys=True) + "\n").encode("utf-8"))


def read_json(path):
    try:
        with open(path, encoding="utf-8") as f:
            return json.load(f)
    except FileNotFoundError:
        raise SchemaError(f"missing {path}") from None
    except ValueError as e:
        raise SchemaError(f"{path} is not valid JSON: {e}") from None


def _cell(value):
    if isinstance(value, float):
        return repr(float(value))
    if isinstance(value, (bool, np.bool_)):
        return "1" if value else "0"
    return "" if value is None else str(value)


def _quoted(cells):
    """Text cells as csv's QUOTE_MINIMAL writes them: a cell holding `,`, `"`,
    `\\r` or `\\n` goes in quotes, with its own quotes doubled."""
    text = "".join(cells)
    if not any(c in text for c in _SPECIAL):
        return cells
    return ['"' + c.replace('"', '""') + '"' if any(s in c for s in _SPECIAL) else c
            for c in cells]


def _cells(column):
    """A column's cells as CSV text; only text can need quoting, so only text is scanned."""
    if isinstance(column, np.ndarray):
        kind, column = column.dtype.kind, column.tolist()
        if kind == "f":
            return list(map(repr, column))
        if kind == "b":
            return list(map(_FLAGS.__getitem__, column))
        if kind in "iu":
            return list(map(str, column))
    if set(map(type, column)) <= {str}:
        return _quoted(list(map(str, column)))
    return _quoted(list(map(_cell, column)))


def _lines(columns):
    """Rows given as per-column cell texts, joined into CSV lines."""
    if len(columns) == 1:  # csv writes a row of one empty cell as ""
        return "\r\n".join([c or '""' for c in columns[0]]) + "\r\n"
    return "\r\n".join(map(",".join, zip(*columns))) + "\r\n"


def write_csv(path, header, columns):
    """Write equal-length columns (arrays or sequences) under header."""
    n_rows = {len(c) for c in columns}
    if len(columns) != len(header) or len(n_rows) > 1:
        raise ShapeError(f"{path}: columns of lengths {[len(c) for c in columns]} for {header}")
    with _replacing(path, "w", newline="", encoding="utf-8") as f:
        f.write(_lines([_quoted([name]) for name in header]))
        for lo in range(0, n_rows.pop() if n_rows else 0, _CHUNK_ROWS):
            f.write(_lines([_cells(c[lo: lo + _CHUNK_ROWS]) for c in columns]))


class Columns(dict):
    """read_csv's result: header name -> the column's cells as strings."""

    def __init__(self, path, columns):
        super().__init__(columns)
        self.path = path

    def floats(self, name):
        values = self._parse(name, np.float64)
        if not np.isfinite(values).all():
            raise SchemaError(f"{self.path}: column {name!r} has a cell that is not "
                              "a finite number")
        return values

    def ints(self, name):
        return self._parse(name, np.int64)

    def bools(self, name):
        values = self._parse(name, np.int64)
        if not ((values == 0) | (values == 1)).all():
            raise SchemaError(f"{self.path}: column {name!r} has a cell that is not 0 or 1")
        return values.astype(bool)

    def _parse(self, name, dtype):
        try:
            return np.array(self[name], dtype=dtype)
        except (ValueError, OverflowError):
            raise SchemaError(f"{self.path}: column {name!r} has a cell that is not "
                              f"a valid {np.dtype(dtype).name}") from None


def read_csv(path, header):
    """Check the header and every row's width; return the Columns."""
    header = list(header)
    columns = [[] for _ in header]
    appends = [c.append for c in columns]
    with open(path, newline="", encoding="utf-8") as f:
        reader = csv.reader(f)
        if next(reader, None) != header:
            raise SchemaError(f"unexpected header in {path}")
        for row in reader:
            if len(row) != len(header):
                raise SchemaError(f"{path} line {reader.line_num}: {len(row)} cells "
                                  f"under a {len(header)}-column header")
            for append, cell in zip(appends, row):
                append(cell)
    return Columns(path, zip(header, columns))
