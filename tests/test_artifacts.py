import csv
import os

import numpy as np
import pytest

from kgmlsm import artifacts
from kgmlsm.errors import SchemaError, ShapeError

EDGE_FLOATS = [0.1, -0.0, 5e-324, 1e308, 1 / 3]


def bits(values):
    return np.asarray(values, dtype=np.float64).view(np.uint64).tolist()


@pytest.mark.parametrize("column", [np.array(EDGE_FLOATS), EDGE_FLOATS,
                                    [np.float64(x) for x in EDGE_FLOATS]],
                         ids=["array", "floats", "numpy_scalars"])
def test_floats_round_trip_bit_for_bit(column, tmp_path):
    path = tmp_path / "f.csv"
    artifacts.write_csv(path, ["x"], [column])
    assert path.read_text().split() == ["x", "0.1", "-0.0", "5e-324", "1e+308",
                                        "0.3333333333333333"]
    assert bits(artifacts.read_csv(path, ["x"]).floats("x")) == bits(EDGE_FLOATS)


def test_int_bool_and_none_cells(tmp_path):
    path = tmp_path / "c.csv"
    artifacts.write_csv(path, ["i", "b", "nb", "n", "s"],
                        [np.array([7, -2]), [True, False], np.array([False, True]),
                         [None, 2.5], ["a", "b"]])
    assert path.read_bytes() == b"i,b,nb,n,s\r\n7,1,0,,a\r\n-2,0,1,2.5,b\r\n"
    cols = artifacts.read_csv(path, ["i", "b", "nb", "n", "s"])
    assert cols["n"] == ["", "2.5"] and cols.ints("i").tolist() == [7, -2]


def _reference_csv(path, header, columns):
    """The writer's reference: csv.writer (QUOTE_MINIMAL) over each cell's
    text, which is a float's repr, 0/1 for a bool, empty for None and str
    for anything else. Returns the cell texts, column by column."""
    def text(value):
        if isinstance(value, float):
            return repr(float(value))
        if isinstance(value, (bool, np.bool_)):
            return "1" if value else "0"
        return "" if value is None else str(value)

    cells = [[text(v) for v in (c.tolist() if isinstance(c, np.ndarray) else c)] for c in columns]
    with open(path, "w", newline="", encoding="utf-8") as f:
        writer = csv.writer(f)
        writer.writerow(header)
        writer.writerows(zip(*cells))
    return cells


def _chunk_edge(n):
    rng = np.random.default_rng(n)
    return (["s", "x", "b"],
            [[("a", "b,c", "", 'd"e')[i % 4] for i in range(n)], rng.normal(size=n),
             rng.random(n) < 0.5])


WRITER_CASES = {
    "quoted_text": (["s,1", 'q"', "n"],
                    [["a,b", 'say "hi"', "cr\rx", "lf\nx", "crlf\r\n", '"', "plain"],
                     ['"x"', ",", "", "\n", "y", "z", "w"], list(range(7))]),
    "empty_and_none": (["s", "n", "f"], [["", "x", ""], [None, 2, None], [1.5, None, -2.0]]),
    "one_column_with_empty_cells": (["s"], [["", "a", "", '"']]),
    "one_column_of_none": (["n"], [[None, 1.0, None]]),
    "zero_rows": (["a", "b"], [[], np.zeros(0)]),
    "edge_floats_array": (["x"], [np.array([-0.0, 5e-324, 1e308, 0.1])]),
    "edge_floats_list": (["x"], [[-0.0, 5e-324, 1e308, np.float64(0.1)]]),
    "numpy_ints_and_bools": (["i32", "u8", "b", "li", "lb"],
                             [np.array([1, -2], dtype=np.int32), np.array([0, 255], dtype=np.uint8),
                              np.array([True, False]), [np.int64(3), np.int64(-4)],
                              [np.bool_(False), np.bool_(True)]]),
    "text_array": (["s"], [np.array(["a,b", "c", ""])]),
    **{f"chunk_rows{d:+d}": _chunk_edge(artifacts._CHUNK_ROWS + d) for d in (-1, 0, 1)},
}


@pytest.mark.parametrize("case", sorted(WRITER_CASES))
def test_writer_matches_the_csv_module(case, tmp_path):
    header, columns = WRITER_CASES[case]
    cells = _reference_csv(tmp_path / "reference.csv", header, columns)
    artifacts.write_csv(tmp_path / "written.csv", header, columns)
    assert (tmp_path / "written.csv").read_bytes() == (tmp_path / "reference.csv").read_bytes()
    back = artifacts.read_csv(tmp_path / "written.csv", header)
    assert [back[name] for name in header] == cells


def test_header_mismatch_names_the_file(tmp_path):
    path = tmp_path / "h.csv"
    artifacts.write_csv(path, ["a", "b"], [[1], [2]])
    with pytest.raises(SchemaError, match="h.csv"):
        artifacts.read_csv(path, ["a", "c"])


@pytest.mark.parametrize("line", ["1", "1,2,3"], ids=["short", "long"])
def test_row_of_wrong_width_names_file_and_line(line, tmp_path):
    path = tmp_path / "w.csv"
    path.write_text(f"a,b\n1,2\n{line}\n")
    with pytest.raises(SchemaError, match=r"w\.csv line 3"):
        artifacts.read_csv(path, ["a", "b"])


def test_unparsable_number_names_file_and_column(tmp_path):
    path = tmp_path / "n.csv"
    path.write_text("a,b\n1,2\n3,abc\n")
    cols = artifacts.read_csv(path, ["a", "b"])
    assert cols.floats("a").tolist() == [1.0, 3.0]
    with pytest.raises(SchemaError, match=r"n\.csv: column 'b'"):
        cols.floats("b")
    with pytest.raises(SchemaError, match=r"n\.csv: column 'b'"):
        cols.ints("b")


@pytest.mark.parametrize("cell", ["nan", "inf", "-inf"])
def test_non_finite_float_names_file_and_column(cell, tmp_path):
    path = tmp_path / "f.csv"
    path.write_text(f"a\n1.5\n{cell}\n")
    with pytest.raises(SchemaError, match=r"f\.csv: column 'a' has a cell that is not a finite"):
        artifacts.read_csv(path, ["a"]).floats("a")


def test_flags_are_0_or_1(tmp_path):
    path = tmp_path / "b.csv"
    path.write_text("ok,bad\n1,0\n0,2\n")
    cols = artifacts.read_csv(path, ["ok", "bad"])
    assert cols.bools("ok").tolist() == [True, False]
    with pytest.raises(SchemaError, match=r"b\.csv: column 'bad' has a cell that is not 0 or 1"):
        cols.bools("bad")


KINDS = {"s": str, "x": np.float64, "i": np.int64, "b": bool}  # "t" is left as text


@pytest.mark.parametrize("delta", [-1, 0, 1])
def test_declared_columns_equal_the_text_path_bit_for_bit(delta, tmp_path):
    n = artifacts._CHUNK_ROWS + delta
    rng = np.random.default_rng(n)
    path = tmp_path / "k.csv"
    artifacts.write_csv(path, ["s", "x", "i", "b", "t"], [
        [("a", "b,c", "", 'd"e', "x\r\ny")[i % 5] for i in range(n)],
        rng.normal(size=n) * 10.0 ** rng.integers(-300, 300, size=n),
        rng.integers(-2 ** 62, 2 ** 62, size=n), rng.random(n) < 0.5,
        [str(i) for i in range(n)]])
    text = artifacts.read_csv(path, ["s", "x", "i", "b", "t"])
    parsed = artifacts.read_csv(path, ["s", "x", "i", "b", "t"], KINDS)
    expected = {"s": np.array(text["s"]), "x": text.floats("x"), "i": text.ints("i"),
                "b": text.bools("b")}
    for name, values in expected.items():
        assert parsed[name].dtype == values.dtype
        assert parsed[name].tobytes() == values.tobytes()
    assert parsed["t"] == text["t"]
    # a parsed column is returned as it is
    assert parsed.floats("x") is parsed["x"] and parsed.bools("b") is parsed["b"]


def _write_rows(path, rows):
    """A CSV of columns s,i holding rows, each a line's text without its line end."""
    with open(path, "w", newline="", encoding="utf-8") as f:
        f.write("s,i\r\n" + "".join(row + "\r\n" for row in rows))


@pytest.mark.parametrize("kinds", [None, {"s": str, "i": np.int64}], ids=["text", "declared"])
@pytest.mark.parametrize("quoted_crlf", [False, True])
def test_short_row_in_a_later_block_names_its_line(kinds, quoted_crlf, tmp_path):
    bad = artifacts._CHUNK_ROWS + 2
    rows = [f"a,{i}" for i in range(bad + 5)]
    rows[bad] = "a"
    if quoted_crlf:
        rows[3] = '"x\r\ny",3'
    _write_rows(tmp_path / "r.csv", rows)
    line = bad + 2 + quoted_crlf  # the header is line 1, the quoted cell spans two
    with pytest.raises(SchemaError, match=rf"r\.csv line {line}: 1 cells under a 2-column header"):
        artifacts.read_csv(tmp_path / "r.csv", ["s", "i"], kinds)


@pytest.mark.parametrize("cell,kind,message", [
    ("abc", np.float64, "not a valid float64"), ("abc", np.int64, "not a valid int64"),
    ("nan", np.float64, "not a finite number"), ("2", bool, "not 0 or 1")])
def test_bad_cell_in_a_later_block_names_file_and_column(cell, kind, message, tmp_path):
    rows = ["a,1"] * (artifacts._CHUNK_ROWS + 5)
    rows[artifacts._CHUNK_ROWS + 2] = f"a,{cell}"
    _write_rows(tmp_path / "v.csv", rows)
    with pytest.raises(SchemaError, match=rf"v\.csv: column 'i' has a cell that is {message}"):
        artifacts.read_csv(tmp_path / "v.csv", ["s", "i"], {"s": str, "i": kind})


def test_header_only_file_gives_empty_arrays_of_the_declared_dtypes(tmp_path):
    path = tmp_path / "e.csv"
    artifacts.write_csv(path, ["s", "x", "i", "b", "t"], [[]] * 5)
    cols = artifacts.read_csv(path, ["s", "x", "i", "b", "t"], KINDS)
    assert {name: (cols[name].dtype.kind, cols[name].shape) for name in KINDS} == {
        "s": ("U", (0,)), "x": ("f", (0,)), "i": ("i", (0,)), "b": ("b", (0,))}
    assert cols["x"].dtype == np.float64 and cols["i"].dtype == np.int64
    assert cols["t"] == []


def test_columns_of_unequal_length_rejected(tmp_path):
    with pytest.raises(ShapeError):
        artifacts.write_csv(tmp_path / "u.csv", ["a", "b"], [[1, 2], [3]])
    assert os.listdir(tmp_path) == []


class Unprintable:
    def __str__(self):
        raise RuntimeError("cannot format")


def test_failed_write_keeps_previous_file_and_leaves_no_temp(tmp_path):
    path = tmp_path / "keep.csv"
    artifacts.write_csv(path, ["a"], [[1, 2]])
    before = path.read_bytes()
    rows = 3 * artifacts._CHUNK_ROWS  # the failure comes after some rows were written
    with pytest.raises(RuntimeError, match="cannot format"):
        artifacts.write_csv(path, ["a"], [[0] * (rows - 1) + [Unprintable()]])
    assert path.read_bytes() == before
    assert os.listdir(tmp_path) == ["keep.csv"]


def test_json_round_trip_and_format(tmp_path):
    path = tmp_path / "p.json"
    artifacts.write_json(path, {"b": [1, 0.1], "a": None})
    assert path.read_text() == '{\n  "a": null,\n  "b": [\n    1,\n    0.1\n  ]\n}\n'
    assert artifacts.read_json(path) == {"a": None, "b": [1, 0.1]}


@pytest.mark.parametrize("text", [None, "{", "\xff"], ids=["missing", "truncated", "not_utf8"])
def test_bad_json_names_the_file(text, tmp_path):
    path = tmp_path / "bad.json"
    if text is not None:
        path.write_bytes(text.encode("latin-1"))
    with pytest.raises(SchemaError, match="bad.json"):
        artifacts.read_json(path)
