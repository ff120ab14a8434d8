"""Binary 0/1 datasets and their CSV form.

A BinaryDataset is a dense uint8 matrix whose cells are all 0 or 1, with
one name per column. ``read_csv`` checks every cell as it reads and reports
the exact offending one.
"""

from __future__ import annotations

import contextlib
import csv
import io
import os
from dataclasses import dataclass
from typing import Iterable, Iterator, Sequence

import numpy as np

from .errors import DataError


def _check_columns(columns: Sequence[str]) -> tuple[str, ...]:
    cols = tuple(str(c) for c in columns)
    if not cols:
        raise DataError("a dataset needs at least one column")
    if len(set(cols)) != len(cols):
        raise DataError("duplicate column names")
    return cols


# eq=False keeps the array comparison below and leaves the type unhashable.
@dataclass(frozen=True, slots=True, eq=False)
class BinaryDataset:
    """Binary table: a read-only copy of the uint8 matrix of shape
    (n_rows, n_columns), cells in {0, 1}."""

    columns: Sequence[str]
    values: np.ndarray

    def __post_init__(self):
        cols = _check_columns(self.columns)
        arr = np.asarray(self.values, dtype=np.uint8)
        if arr.ndim != 2:
            raise DataError("values must be a 2-d array")
        if arr.shape[1] != len(cols):
            raise DataError(
                f"values have {arr.shape[1]} columns, expected {len(cols)}"
            )
        if arr.size and arr.max() > 1:
            raise DataError("binary values must be 0 or 1")
        arr = arr.copy()
        arr.setflags(write=False)
        object.__setattr__(self, "columns", cols)
        object.__setattr__(self, "values", arr)

    @property
    def n_rows(self) -> int:
        return int(self.values.shape[0])

    def column_index(self, name: str) -> int:
        try:
            return self.columns.index(name)
        except ValueError:
            raise DataError(f"unknown column {name!r}") from None

    def column(self, name: str) -> np.ndarray:
        return self.values[:, self.column_index(name)]

    def __eq__(self, other) -> bool:
        if not isinstance(other, BinaryDataset):
            return NotImplemented
        return self.columns == other.columns and np.array_equal(
            self.values, other.values
        )

    def __repr__(self) -> str:
        return f"BinaryDataset({self.n_rows} rows, columns={list(self.columns)})"


def read_csv(path: str) -> BinaryDataset:
    """Read a comma-separated file with a header row and 0/1 cells.

    A UTF-8 byte order mark before the header is skipped. A ragged row, or
    a cell other than "0" or "1", raises DataError naming the file, the
    row and the column.
    """
    try:
        with open(path, "r", newline="", encoding="utf-8-sig") as fh:
            reader = csv.reader(fh)
            try:
                header = next(reader)
                rows = list(reader)
            except StopIteration:
                raise DataError(f"{path}: empty file") from None
            except csv.Error as exc:
                raise DataError(f"{path}:{reader.line_num}: {exc}") from exc
    except OSError as exc:
        raise DataError(f"cannot read {path}: {exc}") from exc
    try:
        cols = _check_columns(header)
        for r, row in enumerate(rows):
            if len(row) != len(cols):
                raise DataError(
                    f"row {r} has {len(row)} cells, expected {len(cols)}"
                )
        # Object cells keep each string whole, so one long cell cannot
        # widen every cell of the array.
        cells = np.array(rows, dtype=object).reshape(len(rows), len(cols))
        ones = cells == "1"
        bad = ~ones & (cells != "0")
        if bad.any():
            r, j = np.argwhere(bad)[0]
            raise DataError(
                f"cell at row {r}, column {cols[j]!r} is {rows[r][j]!r}, "
                "expected '0' or '1'"
            )
        return BinaryDataset(cols, ones)
    except DataError as exc:
        raise DataError(f"{path}: {exc}") from exc


def _csv_lines(rows: Iterable[Sequence]) -> Iterator[str]:
    """Each row as one line of CSV text with an LF ending."""
    buf = io.StringIO()
    writer = csv.writer(buf, lineterminator="\n")
    for row in rows:
        writer.writerow(row)
        yield buf.getvalue()
        buf.seek(0)
        buf.truncate()


def _atomic_write(path: str, chunks: Iterable[str]) -> None:
    """Write ``chunks`` to a temporary file, then rename it over ``path``."""
    tmp = path + ".tmp"
    try:
        with open(tmp, "w", encoding="utf-8", newline="") as fh:
            fh.writelines(chunks)
        os.replace(tmp, path)
    except BaseException:
        with contextlib.suppress(OSError):
            os.remove(tmp)
        raise


def write_csv(data: BinaryDataset, path: str) -> None:
    """Write a dataset as comma-separated text with a header row and LF
    endings, atomically."""
    # csv quotes the names as needed; the 0/1 body is one character matrix:
    # digits at even positions, commas between them, a newline at the end.
    body = np.full((data.n_rows, 2 * len(data.columns)), ord(","), dtype=np.uint8)
    body[:, 0::2] = data.values + ord("0")
    body[:, -1] = ord("\n")
    try:
        _atomic_write(path, [*_csv_lines([data.columns]), body.tobytes().decode()])
    except OSError as exc:
        raise DataError(f"cannot write {path}: {exc}") from exc


def state_index(columns: Iterable[np.ndarray], size: int) -> np.ndarray:
    """Per-row joint state of 0/1 columns as int64, the first column being
    the most significant bit."""
    idx = np.zeros(size, dtype=np.int64)
    for col in columns:
        idx <<= 1
        idx |= col
    return idx
