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
non-finite float or a flag other than 0/1 included. A reader parses each
column it declares block by block as it reads, so a cell's text lives no
longer than its block of rows.
"""

import contextlib
import csv
import itertools
import json
import os

import numpy as np

from .errors import SchemaError, ShapeError

_CHUNK_ROWS = 1 << 14  # rows formatted or parsed at a time, to bound the memory text takes
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


def _parse(path, name, cells, kind):
    """A column's text cells as an array of kind (np.float64, np.int64, bool
    or str), refused unless every cell parses, a float is finite and a
    flag is 0 or 1."""
    dtype = np.int64 if kind is bool else kind
    try:
        values = np.array(cells, dtype=dtype)
    except (ValueError, OverflowError):
        raise SchemaError(f"{path}: column {name!r} has a cell that is not "
                          f"a valid {np.dtype(dtype).name}") from None
    if kind is np.float64 and not np.isfinite(values).all():
        raise SchemaError(f"{path}: column {name!r} has a cell that is not "
                          "a finite number")
    if kind is bool:
        if not ((values == 0) | (values == 1)).all():
            raise SchemaError(f"{path}: column {name!r} has a cell that is not 0 or 1")
        return values.astype(bool)
    return values


class Columns(dict):
    """read_csv's result: header name -> the column as an array of its
    declared kind, or as its cells' text when it declared none."""

    def __init__(self, path, columns):
        super().__init__(columns)
        self.path = path

    def floats(self, name):
        return self._parse(name, np.float64)

    def ints(self, name):
        return self._parse(name, np.int64)

    def bools(self, name):
        return self._parse(name, bool)

    def _parse(self, name, kind):
        cells = self[name]
        return cells if isinstance(cells, np.ndarray) else _parse(self.path, name, cells, kind)


def _line_num(path, row):
    """The line on which data row `row` (from 0) of a CSV ends."""
    with open(path, newline="", encoding="utf-8") as f:
        reader = csv.reader(f)
        for _ in itertools.islice(reader, row + 2):
            pass
        return reader.line_num


def read_csv(path, header, kinds=None):
    """Check the header and every row's width; return the Columns.

    kinds maps a column name to np.float64, np.int64, bool or str. Such a
    column is parsed as each block of _CHUNK_ROWS rows is read, so no text
    of it outlives its block; every other column keeps its cells as text."""
    header, kinds = list(header), kinds or {}
    blocks = {name: [] for name in header}
    n_rows = 0
    with open(path, newline="", encoding="utf-8") as f:
        reader = csv.reader(f)
        if next(reader, None) != header:
            raise SchemaError(f"unexpected header in {path}")
        # rows as tuples: csv's row lists, once freed, linger on CPython's list
        # free list and keep the memory of their block's text from being returned
        while rows := list(map(tuple, itertools.islice(reader, _CHUNK_ROWS))):
            widths = list(map(len, rows))
            if widths.count(len(header)) != len(rows):
                i = next(i for i, w in enumerate(widths) if w != len(header))
                raise SchemaError(f"{path} line {_line_num(path, n_rows + i)}: {widths[i]} "
                                  f"cells under a {len(header)}-column header")
            n_rows += len(rows)
            for name, cells in zip(header, zip(*rows)):
                blocks[name].append(_parse(path, name, cells, kinds[name]) if name in kinds
                                    else cells)
            del rows, cells
    columns = {}
    for name, parts in blocks.items():  # each column's blocks are freed as it is joined
        if name not in kinds:
            columns[name] = list(itertools.chain.from_iterable(parts))
        elif not parts:
            columns[name] = _parse(path, name, (), kinds[name])
        else:  # one block is taken as it is, not copied
            columns[name] = parts[0] if len(parts) == 1 else np.concatenate(parts)
        parts.clear()
    return Columns(path, columns)
