import csv
import io
import os
import re
import tempfile

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st
from hypothesis.extra.numpy import arrays

from causalprobe import dataset
from causalprobe.dataset import BinaryDataset, read_csv, write_csv
from causalprobe.errors import DataError

PROPERTY = settings(
    derandomize=True, database=None, deadline=None, max_examples=100
)


def write_text(tmp_path, text, name="t.csv"):
    p = str(tmp_path / name)
    with open(p, "w", encoding="utf-8", newline="") as fh:
        fh.write(text)
    return p


class TestReadCsv:
    def test_basic(self, tmp_path):
        d = read_csv(write_text(tmp_path, "color,size,sold\n1,0,1\n0,0,1\n"))
        assert d.n_rows == 2
        assert d.column_index("size") == 1
        assert list(d.column("sold")) == [1, 1]

    def test_duplicate_columns_rejected(self, tmp_path):
        p = write_text(tmp_path, "a,a\n0,1\n")
        with pytest.raises(DataError, match=rf"^{re.escape(p)}: duplicate"):
            read_csv(p)

    def test_ragged_row_rejected(self, tmp_path):
        p = write_text(tmp_path, "a,b\n0,1\n1\n")
        with pytest.raises(
            DataError, match=rf"^{re.escape(p)}: row 1 has 1 cells, expected 2"
        ):
            read_csv(p)

    def test_unknown_column(self, tmp_path):
        d = read_csv(write_text(tmp_path, "a,b\n0,1\n"))
        with pytest.raises(DataError, match="'weight'"):
            d.column_index("weight")

    def test_no_columns_rejected(self, tmp_path):
        with pytest.raises(DataError, match="at least one column"):
            read_csv(write_text(tmp_path, "\n0\n"))

    def test_byte_order_mark_is_skipped(self, tmp_path):
        plain = read_csv(write_text(tmp_path, "season,rain\n0,1\n"))
        marked = read_csv(
            write_text(tmp_path, "\ufeffseason,rain\n0,1\n", "bom.csv")
        )
        assert marked.columns == ("season", "rain")
        assert marked == plain


class TestToBinary:
    """read_csv turns the text cells "0" and "1" into the uint8 matrix."""

    def test_converts(self, tmp_path):
        d = read_csv(write_text(tmp_path, "a,b\n0,1\n1,1\n"))
        assert d.values.dtype == np.uint8
        assert list(d.values.ravel()) == [0, 1, 1, 1]

    def test_reports_location(self, tmp_path):
        p = write_text(tmp_path, "a,b\n0,1\n1,yes\n2,no\n")
        with pytest.raises(
            DataError,
            match=rf"^{re.escape(p)}: cell at row 1, column 'b' is 'yes'",
        ):
            read_csv(p)

    def test_only_exact_0_and_1_cells_pass(self, tmp_path):
        for cell in (" 1", "1 ", "01", "", "1.0", "x" * 1000):
            p = write_text(tmp_path, f"a,b\n0,1\n1,{cell}\n")
            with pytest.raises(DataError, match="row 1, column 'b'"):
                read_csv(p)


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
    @PROPERTY
    @given(
        arrays(
            np.uint8,
            st.tuples(st.integers(0, 20), st.integers(1, 6)),
            elements=st.integers(0, 1),
        )
    )
    @example(np.zeros((0, 1), dtype=np.uint8))
    @example(np.ones((3, 1), dtype=np.uint8))
    def test_round_trip_binary(self, values):
        d = BinaryDataset([f"c{j}" for j in range(values.shape[1])], values)
        with tempfile.TemporaryDirectory() as tmp:
            p = os.path.join(tmp, "b.csv")
            write_csv(d, p)
            assert read_csv(p) == d

    def test_exact_bytes(self, tmp_path):
        d = BinaryDataset(["a", "b"], np.array([[0, 1]]))
        p = str(tmp_path / "b.csv")
        write_csv(d, p)
        with open(p, "rb") as fh:
            assert fh.read() == b"a,b\n0,1\n"
        # Names that need quoting and many rows, against the csv module.
        rng = np.random.default_rng(5)
        d = BinaryDataset(["x,y", 'q"t', "é"], rng.integers(0, 2, (500, 3)))
        write_csv(d, p)
        buf = io.StringIO()
        csv.writer(buf, lineterminator="\n").writerows([d.columns, *d.values.tolist()])
        with open(p, "rb") as fh:
            assert fh.read() == buf.getvalue().encode()

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
            yield "a,b\n"
            raise RuntimeError("write failed midway")

        monkeypatch.setattr(dataset, "_csv_lines", failing_lines)
        with pytest.raises(RuntimeError):
            write_csv(BinaryDataset(["a", "b"], np.eye(2)), str(p))
        assert p.read_text() == "old\n"
        assert os.listdir(tmp_path) == ["t.csv"]

    def test_empty_file(self, tmp_path):
        p = tmp_path / "empty.csv"
        p.write_text("")
        with pytest.raises(DataError):
            read_csv(str(p))
