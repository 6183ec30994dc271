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
non-finite float or a flag other than 0/1 included. A reader's schema is
one map from column name to kind, in header order, and every column is
parsed to its kind. The reader and the writer work block by block: a
reader parses a block of rows as it reads it, so a cell's text lives no
longer than its block, and a caller that takes the blocks one at a time
never holds the file.
"""

import contextlib
import csv
import itertools
import json
import os

import numpy as np

from .errors import SchemaError, ShapeError

# rows formatted or parsed at a time, to bound the memory text takes. A
# smaller block costs little time: on 100 counties over 9 years (2-vCPU
# host) the county inputs took 5.1 s to write and 4.3, 3.9 and 3.8 s to
# ingest at 16384, 4096 and 1024 rows, at traced peaks of 22.6, 12.7 and
# 10.8 MB to write and 26.4, 9.5 and 6.0 MB to ingest.
_CHUNK_ROWS = 1 << 12
_CHUNK_CELLS = 8 * _CHUNK_ROWS  # and cells, so a wide file's block holds fewer rows
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


def _open(path, *args, **kwargs):
    """open(), refusing a file it cannot open with a SchemaError naming it."""
    try:
        return open(path, *args, **kwargs)
    except FileNotFoundError:
        raise SchemaError(f"missing {path}") from None
    except OSError as e:
        raise SchemaError(f"cannot read {path}: {e.strerror}") from None


def read_bytes(path):
    with _open(path, "rb") as f:
        return f.read()


def read_json(path):
    with _open(path, encoding="utf-8") as f:
        try:
            return json.load(f)
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
        if kind == "U":  # tolist already made every cell a str
            return _quoted(column)
    if set(map(type, column)) <= {str}:
        return _quoted(list(map(str, column)))
    return _quoted(list(map(_cell, column)))


def _lines(columns):
    """Rows given as per-column cell texts, joined into CSV lines."""
    if len(columns) == 1:  # csv writes a row of one empty cell as ""
        return "\r\n".join([c or '""' for c in columns[0]]) + "\r\n"
    return "\r\n".join(map(",".join, zip(*columns))) + "\r\n"


def _block_rows(n_columns):
    """Rows of n_columns cells formatted or parsed at a time: at most
    _CHUNK_ROWS, and at most _CHUNK_CELLS cells."""
    return max(1, min(_CHUNK_ROWS, _CHUNK_CELLS // max(n_columns, 1)))


@contextlib.contextmanager
def csv_writer(path, header):
    """Yield write(columns), which appends a block of rows to a CSV under
    header, the column names in order (a reader's kinds map serves). A block
    is equal-length columns (arrays or sequences), one per header name; it
    is formatted _block_rows rows at a time, so no more text than that is
    held at once. The file replaces path when the with-block completes, and
    is removed if it raises."""
    step = _block_rows(len(header))
    with _replacing(path, "w", newline="", encoding="utf-8") as f:
        f.write(_lines([_quoted([name]) for name in header]))

        def write(columns):
            n_rows = {len(c) for c in columns}
            if len(columns) != len(header) or len(n_rows) > 1:
                raise ShapeError(f"{path}: columns of lengths {[len(c) for c in columns]} "
                                 f"for {list(header)}")
            for lo in range(0, n_rows.pop() if n_rows else 0, step):
                f.write(_lines([_cells(c[lo: lo + step]) for c in columns]))

        yield write


def write_csv_blocks(path, header, blocks):
    """Write a sequence of column blocks (csv_writer's) under header, each
    block's rows after the previous block's."""
    with csv_writer(path, header) as write:
        for columns in blocks:
            write(columns)
            del columns  # the next block is made without this one


def write_csv(path, header, columns):
    """Write equal-length columns (arrays or sequences) under header."""
    write_csv_blocks(path, header, [columns])


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


def _line_num(path, row):
    """The line on which data row `row` (from 0) of a CSV ends."""
    with open(path, newline="", encoding="utf-8") as f:
        reader = csv.reader(f)
        for _ in itertools.islice(reader, row + 2):
            pass
        return reader.line_num


def read_csv_blocks(path, kinds):
    """Yield each block of _block_rows rows in file order, or one empty block
    for a file without rows, as a dict from column name to array.

    kinds maps each column name, in header order, to np.float64, np.int64,
    bool or str. The file's header must be those names and each row as
    wide; a column is parsed as its block is read, so no text of it
    outlives the block."""
    header, n_rows = list(kinds), 0
    with _open(path, newline="", encoding="utf-8") as f:
        reader = csv.reader(f)
        if next(reader, None) != header:
            raise SchemaError(f"unexpected header in {path}")
        # rows as tuples: csv's row lists, once freed, linger on CPython's list
        # free list and keep the memory of their block's text from being returned
        while rows := list(map(tuple, itertools.islice(reader, _block_rows(len(header))))):
            widths = list(map(len, rows))
            if widths.count(len(header)) != len(rows):
                i = next(i for i, w in enumerate(widths) if w != len(header))
                raise SchemaError(f"{path} line {_line_num(path, n_rows + i)}: {widths[i]} "
                                  f"cells under a {len(header)}-column header")
            n_rows += len(rows)
            block = {name: _parse(path, name, cells, kinds[name])
                     for name, cells in zip(header, zip(*rows))}
            del rows  # the block's text goes before the block is handed out
            yield block
        if not n_rows:
            yield {name: _parse(path, name, (), kind) for name, kind in kinds.items()}


def read_csv(path, kinds):
    """read_csv_blocks' blocks joined into one dict of arrays."""
    blocks = list(read_csv_blocks(path, kinds))
    columns = {}
    for name in kinds:  # each column's blocks are freed as it is joined
        parts = [block.pop(name) for block in blocks]
        # a single block is taken as it is, not copied
        columns[name] = parts[0] if len(parts) == 1 else np.concatenate(parts)
        del parts
    return columns
