"""Tabular datasets: raw string-valued CSV data and binary 0/1 matrices.

A RawDataset holds untyped string cells straight from a CSV file. A
BinaryDataset is the analysis-ready form: a dense uint8 matrix whose cells
are all 0 or 1. Conversion is explicit and reports the exact offending cell.
"""

from __future__ import annotations

import contextlib
import csv
import io
import itertools
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


@dataclass(frozen=True, slots=True)
class RawDataset:
    """String-valued table with named columns, kept as tuples of strings."""

    columns: Sequence[str]
    rows: Iterable[Sequence[str]]

    def __post_init__(self):
        cols = _check_columns(self.columns)
        frozen = []
        for r, row in enumerate(self.rows):
            row = tuple(str(x) for x in row)
            if len(row) != len(cols):
                raise DataError(
                    f"row {r} has {len(row)} cells, expected {len(cols)}"
                )
            frozen.append(row)
        object.__setattr__(self, "columns", cols)
        object.__setattr__(self, "rows", tuple(frozen))

    @property
    def n_rows(self) -> int:
        return len(self.rows)

    def column_index(self, name: str) -> int:
        try:
            return self.columns.index(name)
        except ValueError:
            raise DataError(f"unknown column {name!r}") from None

    def __repr__(self) -> str:
        return f"RawDataset({self.n_rows} rows, columns={list(self.columns)})"


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

    column_index = RawDataset.column_index

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


def read_csv(path: str) -> RawDataset:
    """Read a comma-separated file with a header row into a RawDataset."""
    try:
        with open(path, "r", newline="", encoding="utf-8") as fh:
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
        return RawDataset(header, rows)
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


def write_csv(data: RawDataset | BinaryDataset, path: str) -> None:
    """Write a dataset as comma-separated text with a header row and LF
    endings, atomically."""
    if isinstance(data, BinaryDataset):
        rows = ([int(x) for x in row] for row in data.values)
    else:
        rows = data.rows
    try:
        _atomic_write(path, _csv_lines(itertools.chain([data.columns], rows)))
    except OSError as exc:
        raise DataError(f"cannot write {path}: {exc}") from exc


def binarize(
    data: RawDataset, column: str, zero_value: str, one_value: str
) -> RawDataset:
    """Map one column onto {0, 1} and drop rows holding any other value.

    Cells equal to ``zero_value`` become "0" and cells equal to ``one_value``
    become "1"; rows whose cell matches neither are removed. If neither value
    occurs anywhere in the column the call is almost certainly misconfigured
    and raises DataError.
    """
    if zero_value == one_value:
        raise DataError("zero_value and one_value must differ")
    j = data.column_index(column)
    kept = []
    for row in data.rows:
        if row[j] == zero_value:
            kept.append(row[:j] + ("0",) + row[j + 1:])
        elif row[j] == one_value:
            kept.append(row[:j] + ("1",) + row[j + 1:])
    if data.n_rows and not kept:
        raise DataError(
            f"neither {zero_value!r} nor {one_value!r} occurs in column "
            f"{column!r}"
        )
    return RawDataset(data.columns, kept)


def drop_columns(
    data: RawDataset | BinaryDataset, names: Sequence[str]
) -> RawDataset | BinaryDataset:
    """Remove the named columns, preserving the order of the others."""
    drop = set(names)
    unknown = drop - set(data.columns)
    if unknown:
        raise DataError(f"unknown columns: {sorted(unknown)}")
    keep = [j for j, c in enumerate(data.columns) if c not in drop]
    if not keep:
        raise DataError("cannot drop every column")
    cols = [data.columns[j] for j in keep]
    if isinstance(data, BinaryDataset):
        return BinaryDataset(cols, data.values[:, keep])
    return RawDataset(cols, [tuple(row[j] for j in keep) for row in data.rows])


def to_binary(data: RawDataset) -> BinaryDataset:
    """Convert a raw table whose every cell is "0" or "1".

    Any other cell raises DataError naming the row and column.
    """
    arr = np.zeros((data.n_rows, len(data.columns)), dtype=np.uint8)
    for r, row in enumerate(data.rows):
        for j, cell in enumerate(row):
            if cell == "1":
                arr[r, j] = 1
            elif cell != "0":
                raise DataError(
                    f"cell at row {r}, column {data.columns[j]!r} is "
                    f"{cell!r}, expected '0' or '1'"
                )
    return BinaryDataset(data.columns, arr)


def state_index(columns: Iterable[np.ndarray], size: int) -> np.ndarray:
    """Per-row joint state of 0/1 columns as int64, the first column being
    the most significant bit."""
    idx = np.zeros(size, dtype=np.int64)
    for col in columns:
        idx <<= 1
        idx |= col
    return idx
