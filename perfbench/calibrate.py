"""Fixed reference work that tracks the host's speed.

The benchmark runs on a few cores of a shared host whose speed drifts by
tens of percent over minutes, as other jobs come and go. Every timed
section of a ``--trace 0`` run (an op, the writing of the outputs, an
import) sits between runs of a reference work, and its time is scaled by
the reference's nominal time over the reference time measured around it.
The result reads as seconds on a host where the reference takes its
nominal time: drift of the host cancels, a change of the program does not.

The host's drift does not slow every kind of work alike: pure-Python
parsing and numpy passes over large arrays drifted apart by tens of percent
in repeated runs of the same inputs. So each workload is scaled by the
reference of the kind of work that dominates it:

``rows``
    CSV text parsed by the ``csv`` module into Python lists, then packed
    into a numpy array; ``read_csv`` and ``to_binary`` do this.
``tables``
    passes over a 2**16-state joint table that gather from a small CPD by
    bit patterns of the state index and multiply the result in; the exact
    oracle does this.
``columns``
    least-squares solves and arithmetic over columns of 100,000 rows; BIC
    scoring and effect estimation on large samples do this.

The reference work uses nothing of the program, so no change to the program
moves it.
"""

from __future__ import annotations

import csv
import io
from time import perf_counter

import numpy as np

# Each reference's median time on the host the baseline was measured on
# (2-vCPU shared VM, Intel Xeon 2.1 GHz, Python 3.11, one BLAS thread).
NOMINAL_S = {"rows": 0.05, "tables": 0.055, "columns": 0.05}

TABLE_BITS = 16


class Reference:
    """One kind of reference work, on inputs fixed once and for all."""

    def __init__(self, kind: str):
        if kind not in NOMINAL_S:
            raise ValueError(f"unknown reference {kind!r}")
        self.kind = kind
        self.nominal_s = NOMINAL_S[kind]
        rng = np.random.default_rng(20220907)
        rows = rng.integers(0, 2, size=(20_000, 5)).tolist()
        self.text = "\n".join(",".join(map(str, r)) for r in rows)
        self.cpd = rng.random(8)
        self.design = rng.integers(0, 2, size=(100_000, 8)).astype(float)
        self.response = self.design @ rng.random(8) + rng.random(100_000)
        self.run()  # warm up

    def _rows(self) -> None:
        parsed = list(csv.reader(io.StringIO(self.text)))
        np.asarray([[int(v) for v in r] for r in parsed], dtype=np.uint8)

    def _tables(self) -> None:
        states = np.arange(1 << TABLE_BITS, dtype=np.int64)
        probs = np.ones(1 << TABLE_BITS)
        for v in range(TABLE_BITS):
            idx = np.zeros(states.shape, dtype=np.int64)
            for pos, shift in enumerate((1, 5, 9)):
                idx |= ((states >> ((v + shift) % TABLE_BITS)) & 1) << pos
            p_one = self.cpd[idx]
            probs *= np.where((states >> v) & 1 == 1, p_one, 1.0 - p_one)
        probs[(states >> 3) & 1 == 1].sum()

    def _columns(self) -> None:
        np.linalg.lstsq(self.design, self.response, rcond=None)
        centred = self.response - self.response.mean()
        (centred * centred).sum()

    def run(self) -> float:
        """Seconds the reference work takes now."""
        work, repeats = {"rows": (self._rows, 1), "tables": (self._tables, 4),
                         "columns": (self._columns, 4)}[self.kind]
        t0 = perf_counter()
        for _ in range(repeats):
            work()
        return perf_counter() - t0
