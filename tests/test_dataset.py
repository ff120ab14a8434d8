import os
import re

import numpy as np
import pytest

from causalprobe import dataset
from causalprobe.dataset import (
    BinaryDataset,
    RawDataset,
    binarize,
    drop_columns,
    read_csv,
    to_binary,
    write_csv,
)
from causalprobe.errors import DataError


def make_raw():
    return RawDataset(
        ["color", "size", "sold"],
        [
            ("red", "big", "1"),
            ("blue", "small", "0"),
            ("red", "small", "1"),
            ("green", "big", "0"),
        ],
    )


class TestRawDataset:
    def test_basic(self):
        d = make_raw()
        assert d.n_rows == 4
        assert d.column_index("size") == 1

    def test_duplicate_columns_rejected(self):
        with pytest.raises(DataError):
            RawDataset(["a", "a"], [])

    def test_ragged_row_rejected(self):
        with pytest.raises(DataError):
            RawDataset(["a", "b"], [("1",)])

    def test_unknown_column(self):
        with pytest.raises(DataError):
            make_raw().column_index("weight")

    def test_no_columns_rejected(self):
        with pytest.raises(DataError):
            RawDataset([], [])


class TestBinaryDataset:
    def test_basic(self):
        d = BinaryDataset(["a", "b"], np.array([[0, 1], [1, 1]]))
        assert d.n_rows == 2
        assert list(d.column("b")) == [1, 1]

    def test_non_binary_rejected(self):
        with pytest.raises(DataError):
            BinaryDataset(["a"], np.array([[2]]))

    def test_shape_mismatch_rejected(self):
        with pytest.raises(DataError):
            BinaryDataset(["a", "b"], np.array([[0], [1]]))

    def test_values_read_only(self):
        d = BinaryDataset(["a"], np.array([[0], [1]]))
        with pytest.raises(ValueError):
            d.values[0, 0] = 1

    def test_defensive_copy(self):
        src = np.array([[0], [1]], dtype=np.uint8)
        d = BinaryDataset(["a"], src)
        src[0, 0] = 1
        assert d.values[0, 0] == 0


class TestCsv:
    def test_round_trip_raw(self, tmp_path):
        d = make_raw()
        p = str(tmp_path / "t.csv")
        write_csv(d, p)
        assert read_csv(p) == d

    def test_round_trip_binary(self, tmp_path):
        d = BinaryDataset(["a", "b"], np.array([[0, 1], [1, 0], [1, 1]]))
        p = str(tmp_path / "b.csv")
        write_csv(d, p)
        assert to_binary(read_csv(p)) == d

    def test_exact_bytes(self, tmp_path):
        d = BinaryDataset(["a", "b"], np.array([[0, 1]]))
        p = str(tmp_path / "b.csv")
        write_csv(d, p)
        with open(p, "rb") as fh:
            assert fh.read() == b"a,b\n0,1\n"

    def test_missing_file(self, tmp_path):
        with pytest.raises(DataError):
            read_csv(str(tmp_path / "absent.csv"))

    def test_oversized_cell_names_file_and_line(self, tmp_path):
        # The csv module refuses a field beyond 131,072 characters.
        p = str(tmp_path / "huge.csv")
        with open(p, "w") as fh:
            fh.write("a\n0\n" + "1" * 131_073 + "\n")
        with pytest.raises(DataError, match=rf"^{re.escape(p)}:3: "):
            read_csv(p)

    def test_failed_write_keeps_existing_file(self, tmp_path, monkeypatch):
        p = tmp_path / "t.csv"
        p.write_text("old\n")

        def failing_lines(rows):
            yield "color,size,sold\n"
            raise RuntimeError("write failed midway")

        monkeypatch.setattr(dataset, "_csv_lines", failing_lines)
        with pytest.raises(RuntimeError):
            write_csv(make_raw(), str(p))
        assert p.read_text() == "old\n"
        assert os.listdir(tmp_path) == ["t.csv"]

    def test_empty_file(self, tmp_path):
        p = tmp_path / "empty.csv"
        p.write_text("")
        with pytest.raises(DataError):
            read_csv(str(p))


class TestBinarize:
    def test_maps_and_drops(self):
        d = make_raw()
        out = binarize(d, "color", "blue", "red")
        # green row dropped; red -> 1, blue -> 0
        assert out.n_rows == 3
        assert [r[0] for r in out.rows] == ["1", "0", "1"]
        # untouched columns survive
        assert [r[1] for r in out.rows] == ["big", "small", "small"]

    def test_equal_values_rejected(self):
        with pytest.raises(DataError):
            binarize(make_raw(), "color", "red", "red")

    def test_unknown_column(self):
        with pytest.raises(DataError):
            binarize(make_raw(), "weight", "a", "b")

    def test_both_labels_absent_rejected(self):
        # A mapping that matches no cell at all is a misconfiguration.
        with pytest.raises(DataError):
            binarize(make_raw(), "color", "cyan", "magenta")

    def test_empty_input_stays_empty(self):
        empty = RawDataset(["color"], [])
        out = binarize(empty, "color", "red", "blue")
        assert out.n_rows == 0


class TestDropColumns:
    def test_raw(self):
        out = drop_columns(make_raw(), ["size"])
        assert out.columns == ("color", "sold")
        assert out.rows[0] == ("red", "1")

    def test_binary(self):
        d = BinaryDataset(["a", "b", "c"], np.array([[0, 1, 1]]))
        out = drop_columns(d, ["b"])
        assert out.columns == ("a", "c")
        assert list(out.values[0]) == [0, 1]

    def test_unknown(self):
        with pytest.raises(DataError):
            drop_columns(make_raw(), ["weight"])

    def test_cannot_drop_all(self):
        with pytest.raises(DataError):
            drop_columns(make_raw(), ["color", "size", "sold"])


class TestToBinary:
    def test_converts(self):
        d = RawDataset(["a", "b"], [("0", "1"), ("1", "1")])
        out = to_binary(d)
        assert list(out.values.ravel()) == [0, 1, 1, 1]

    def test_reports_location(self):
        d = RawDataset(["a", "b"], [("0", "1"), ("1", "yes")])
        with pytest.raises(DataError, match=r"row 1, column 'b'"):
            to_binary(d)
