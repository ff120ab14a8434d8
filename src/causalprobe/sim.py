"""Parameterized simulation study.

Each run draws a random ground-truth network, samples data from it, hands
a share of the true edges to discovery as required-edge knowledge, runs
the end-to-end analysis against auto-generated probes whose expectations
come from the exact oracle, and records recovery and estimation metrics.
Runs are independent and individually seeded, so a study is reproducible
and parallelizes without affecting its output.
"""

from __future__ import annotations

import csv
import io
import itertools
import json
import math
import os
from concurrent.futures import ProcessPoolExecutor
from dataclasses import dataclass, fields
from functools import cache, partial
from typing import Iterable, Sequence

import numpy as np

from .bayesnet import Cbn, random_cpds, sample, true_ate
from .dataset import _atomic_write, _csv_lines, _read_text
from .discovery import pick_hint_edges
from .errors import (
    DataError,
    DegenerateNetworkError,
    GraphGenerationError,
    PipelineError,
)
from .estimation import METHOD_TRIVIAL_ZERO
from .graph import Dag, is_weakly_connected, random_dag, shd, to_text
from .pipeline import AnalysisConfig, run_end_to_end
from .probing import Point, ProbeSpec

__all__ = [
    "AggRow",
    "ProbeDetail",
    "RunRecord",
    "RUNS_CSV_COLUMNS",
    "AGG_CSV_COLUMNS",
    "SimParams",
    "TrendStat",
    "aggregate",
    "derive_seed",
    "filter_connected",
    "filter_outliers",
    "read_agg_csv",
    "read_runs_csv",
    "read_runs_jsonl",
    "run_study",
    "select_probes",
    "select_target",
    "simulate_run",
    "spearman",
    "splitmix64",
    "trend_stat",
    "write_agg_csv",
    "write_runs_csv",
    "write_runs_jsonl",
]

_MASK64 = (1 << 64) - 1

MAX_NETWORK_ATTEMPTS = 100

ATE_ZERO_TOLERANCE = 1e-12

OUTLIER_ABS_ERR = 0.2


def splitmix64(x: int) -> int:
    """One step of the splitmix64 generator; a 64-bit avalanche mix."""
    x = (x + 0x9E3779B97F4A7C15) & _MASK64
    z = ((x ^ (x >> 30)) * 0xBF58476D1CE4E5B9) & _MASK64
    z = ((z ^ (z >> 27)) * 0x94D049BB133111EB) & _MASK64
    return z ^ (z >> 31)


def derive_seed(master_seed: int, run_index: int, attempt: int = 0) -> int:
    """Per-attempt seed. Regeneration attempts get fresh, stable streams."""
    h = splitmix64(master_seed & _MASK64)
    h = splitmix64(h ^ (run_index & _MASK64))
    return splitmix64(h ^ (attempt & _MASK64))


@dataclass(frozen=True)
class SimParams:
    """Study parameters; defaults match the reference protocol."""

    n: int = 7
    p_edge: float = 0.1
    m: int = 1000
    p_hint: float = 0.3
    p_probe: float = 0.5
    eps_probe: float = 0.1
    n_runs: int = 100
    master_seed: int = 0
    penalty: float = 1.0

    def __post_init__(self):
        if not 2 <= self.n <= 25:
            raise ValueError("n must lie in [2, 25]")
        if self.m < 1:
            raise ValueError("m must be >= 1")
        for name in ("p_edge", "p_hint", "p_probe"):
            v = getattr(self, name)
            if not 0.0 <= v <= 1.0:
                raise ValueError(f"{name} must lie in [0, 1]")
        # select_probes draws floor(p_probe * n^2) pairs: none is no study.
        if math.floor(self.p_probe * self.n * self.n) < 1:
            raise ValueError(
                f"p_probe must be at least 1/{self.n * self.n} at n={self.n}, "
                "or no probe is drawn"
            )
        # A probe's tolerance, which a probe expectation needs finite.
        if not 0.0 <= self.eps_probe < math.inf:
            raise ValueError("eps_probe must be finite and >= 0")
        if self.n_runs < 0:
            raise ValueError("n_runs must be >= 0")
        if not 0.0 < self.penalty < math.inf:
            raise ValueError("penalty must be finite and > 0")


@dataclass(frozen=True, slots=True)
class ProbeDetail:
    """Per-probe outcome kept in the JSON-lines sidecar."""

    treatment: str
    outcome: str
    truth: float
    estimate: float
    passed: bool


@dataclass(frozen=True, slots=True)
class RunRecord:
    """Everything one simulation run produced."""

    run_index: int
    run_seed: int
    n: int
    p_edge: float
    m: int
    p_hint: float
    p_probe: float
    eps_probe: float
    target_treatment: str
    target_outcome: str
    true_ate: float
    est_ate: float
    abs_err: float
    rel_err: float
    shd: int
    hit_rate: float
    n_probes: int
    connected: bool
    failed: bool
    true_graph: str = ""
    discovered_graph: str = ""
    probes: tuple[ProbeDetail, ...] = ()
    error: str | None = None

    def __post_init__(self):
        object.__setattr__(self, "probes", tuple(self.probes))
        if not self.failed:
            if not math.isfinite(self.rel_err):
                raise ValueError("rel_err must be finite in a completed run")
            if not 0.0 <= self.hit_rate <= 1.0:
                raise ValueError("hit_rate must lie in [0, 1]")
            if self.shd < 0:
                raise ValueError("shd must be >= 0")


def select_target(
    net: Cbn, rng: np.random.Generator
) -> tuple[str, str]:
    """Pick a nontrivial target pair uniformly at random.

    Nontrivial means a directed treatment-to-outcome path exists and the
    exact effect is nonzero, which keeps relative errors well defined.
    """
    g = net.graph
    candidates = []
    for t in range(g.n):
        for o in sorted(g.descendants(t)):
            effect = true_ate(net, g.labels[t], g.labels[o])
            if abs(effect) > ATE_ZERO_TOLERANCE:
                candidates.append((g.labels[t], g.labels[o]))
    if not candidates:
        raise DegenerateNetworkError(
            "no treatment-outcome pair with a nonzero effect"
        )
    return candidates[int(rng.integers(len(candidates)))]


def select_probes(
    g: Dag,
    target: tuple[str, str],
    p_probe: float,
    rng: np.random.Generator,
) -> list[tuple[str, str]]:
    """Draw floor(p_probe * n^2) ordered pairs, never the target itself.

    When fewer candidate pairs exist than requested, all of them are taken.
    """
    if not 0.0 <= p_probe <= 1.0:
        raise ValueError("p_probe must lie in [0, 1]")
    k = int(math.floor(p_probe * g.n * g.n))
    candidates = [
        (g.labels[i], g.labels[j])
        for i in range(g.n)
        for j in range(g.n)
        if i != j and (g.labels[i], g.labels[j]) != tuple(target)
    ]
    if k >= len(candidates):
        return candidates
    chosen = rng.choice(len(candidates), size=k, replace=False)
    return [candidates[i] for i in sorted(int(c) for c in chosen)]


def _record(params: SimParams, run_index: int, run_seed: int, **outcome) -> RunRecord:
    """A run's record: its index, seed and study parameters, plus ``outcome``.
    Fields ``outcome`` leaves out read as in a failed run that measured nothing."""
    unmeasured = dict(
        target_treatment="",
        target_outcome="",
        true_ate=math.nan,
        est_ate=math.nan,
        abs_err=math.nan,
        rel_err=math.nan,
        shd=0,
        hit_rate=math.nan,
        n_probes=0,
        connected=False,
        failed=True,
    )
    return RunRecord(
        run_index=run_index,
        run_seed=run_seed,
        n=params.n,
        p_edge=params.p_edge,
        m=params.m,
        p_hint=params.p_hint,
        p_probe=params.p_probe,
        eps_probe=params.eps_probe,
        **{**unmeasured, **outcome},
    )


@cache
def _zero_probe(treatment: str, outcome: str) -> ProbeDetail:
    """Detail of a probe whose truth is exactly 0.0 and whose estimate is the
    trivial zero of a pair with no directed path in the discovered graph.

    Most probes of a sparse network are of this kind, and a study holds every
    run's record until it writes them, so runs share one detail per pair.
    Study labels are x0..x24, which bounds the cache.
    """
    return ProbeDetail(treatment, outcome, 0.0, 0.0, True)


def simulate_run(params: SimParams, run_index: int) -> RunRecord:
    """One fully seeded simulation run; deterministic in its arguments."""
    for attempt in range(MAX_NETWORK_ATTEMPTS):
        seed = derive_seed(params.master_seed, run_index, attempt)
        rng = np.random.default_rng(seed)
        try:
            graph = random_dag(params.n, params.p_edge, rng)
        except GraphGenerationError as exc:
            return _record(params, run_index, seed, error=str(exc))
        net = random_cpds(graph, rng)
        data = sample(net, params.m, rng)
        hints = pick_hint_edges(graph, params.p_hint, rng)
        try:
            target = select_target(net, rng)
        except DegenerateNetworkError:
            continue
        probe_pairs = select_probes(graph, target, params.p_probe, rng)
        break
    else:
        return _record(
            params,
            run_index,
            seed,
            error=f"degenerate network in {MAX_NETWORK_ATTEMPTS} attempts",
            true_graph=to_text(graph),
        )

    truth = true_ate(net, *target)
    probe_truths = [true_ate(net, a, b) for a, b in probe_pairs]
    specs = tuple(
        ProbeSpec(a, b, Point(tr, params.eps_probe))
        for (a, b), tr in zip(probe_pairs, probe_truths)
    )
    cfg = AnalysisConfig(
        target=target,
        probes=specs,
        knowledge=hints,
        penalty=params.penalty,
    )
    known = dict(
        target_treatment=target[0],
        target_outcome=target[1],
        true_ate=truth,
        connected=is_weakly_connected(graph),
        true_graph=to_text(graph),
    )
    try:
        result = run_end_to_end(data, cfg)
    except PipelineError as exc:
        return _record(params, run_index, seed, error=str(exc), **known)

    est = result.report.target.value
    details = tuple(
        _zero_probe(r.spec.treatment, r.spec.outcome)
        if tr == 0.0 and r.estimate.method == METHOD_TRIVIAL_ZERO
        else ProbeDetail(
            r.spec.treatment,
            r.spec.outcome,
            tr,
            r.estimate.value,
            r.passed,
        )
        for r, tr in zip(result.report.probes, probe_truths)
    )
    return _record(
        params,
        run_index,
        seed,
        est_ate=est,
        abs_err=abs(est - truth),
        rel_err=abs((est - truth) / truth),
        shd=shd(result.discovered, graph),
        hit_rate=result.report.hit_rate,
        n_probes=len(details),
        failed=False,
        discovered_graph=to_text(result.discovered),
        probes=details,
        **known,
    )


def run_study(params: SimParams, threads: int | None = None) -> list[RunRecord]:
    """The study's records in run order, independent of the thread count."""
    if threads is None:
        threads = os.cpu_count() or 1
    if threads < 1:
        raise ValueError("threads must be >= 1")
    indices = range(params.n_runs)
    if threads == 1 or params.n_runs <= 1:
        return [simulate_run(params, i) for i in indices]
    with ProcessPoolExecutor(max_workers=threads) as pool:
        return list(pool.map(partial(simulate_run, params), indices))


@dataclass(frozen=True)
class AggRow:
    """Per-hit-rate summary row."""

    hit_rate: float
    count: int
    mean_abs_err: float
    mean_rel_err: float
    mean_shd: float


def aggregate(records: Sequence[RunRecord]) -> list[AggRow]:
    """Group completed runs by exact hit rate and average their metrics."""
    kept = [r for r in records if not r.failed]
    if not kept:
        raise ValueError("no completed runs to aggregate")
    n_probes = {r.n_probes for r in kept}
    if len(n_probes) != 1:
        raise ValueError(
            f"records mix probe counts {sorted(n_probes)}; "
            "hit rates are not comparable"
        )
    groups: dict[float, list[RunRecord]] = {}
    for r in kept:
        groups.setdefault(r.hit_rate, []).append(r)
    rows = []
    for rate in sorted(groups):
        members = groups[rate]
        rows.append(
            AggRow(
                hit_rate=rate,
                count=len(members),
                mean_abs_err=float(np.mean([r.abs_err for r in members])),
                mean_rel_err=float(np.mean([r.rel_err for r in members])),
                mean_shd=float(np.mean([r.shd for r in members])),
            )
        )
    return rows


def filter_connected(records: Sequence[RunRecord]) -> list[RunRecord]:
    """Keep runs whose true graph is one weakly connected component."""
    return [r for r in records if r.connected]


def filter_outliers(records: Sequence[RunRecord]) -> list[RunRecord]:
    """Runs that look perfect by probing (hit rate 1.0) yet estimate the
    target badly (absolute error at least OUTLIER_ABS_ERR)."""
    return [
        r for r in records if r.hit_rate >= 1.0 and r.abs_err >= OUTLIER_ABS_ERR
    ]


def _average_ranks(values: np.ndarray) -> np.ndarray:
    order = np.argsort(values, kind="stable")
    ranks = np.empty(len(values), dtype=float)
    i = 0
    while i < len(values):
        j = i
        while j + 1 < len(values) and values[order[j + 1]] == values[order[i]]:
            j += 1
        ranks[order[i : j + 1]] = (i + j) / 2.0 + 1.0
        i = j + 1
    return ranks


def spearman(x: Sequence[float], y: Sequence[float]) -> float:
    """Spearman rank correlation with average ranks for ties."""
    xa = np.asarray(x, dtype=float)
    ya = np.asarray(y, dtype=float)
    if xa.shape != ya.shape or xa.ndim != 1:
        raise ValueError("x and y must be equal-length 1-d sequences")
    if len(xa) < 2:
        raise ValueError("need at least two points")
    rx = _average_ranks(xa)
    ry = _average_ranks(ya)
    sx = rx.std()
    sy = ry.std()
    if sx == 0.0 or sy == 0.0:
        raise ValueError("correlation undefined for a constant sequence")
    return float(((rx - rx.mean()) * (ry - ry.mean())).mean() / (sx * sy))


@dataclass(frozen=True)
class TrendStat:
    """Rank correlations of per-run errors against the hit rate."""

    rho_abs_err: float
    rho_shd: float


def trend_stat(records: Sequence[RunRecord]) -> TrendStat:
    """Quantifies the hit-rate-versus-error trend across completed runs."""
    kept = [r for r in records if not r.failed]
    rates = [r.hit_rate for r in kept]
    return TrendStat(
        rho_abs_err=spearman(rates, [r.abs_err for r in kept]),
        rho_shd=spearman(rates, [float(r.shd) for r in kept]),
    )


RUNS_CSV_COLUMNS = (
    "run_index",
    "run_seed",
    "n",
    "p_edge",
    "m",
    "p_hint",
    "p_probe",
    "eps_probe",
    "target_treatment",
    "target_outcome",
    "true_ate",
    "est_ate",
    "abs_err",
    "rel_err",
    "shd",
    "hit_rate",
    "n_probes",
    "connected",
    "failed",
)

AGG_CSV_COLUMNS = ("hit_rate", "count", "mean_abs_err", "mean_rel_err", "mean_shd")


def _format_cell(value) -> str:
    if isinstance(value, bool):
        return "true" if value else "false"
    if isinstance(value, float):
        return repr(value)
    return str(value)


def _parse_cell(kind: str, column: str, text: str):
    """Parse one cell as its field's declared type (``kind``)."""
    if kind == "bool":
        if text not in ("true", "false"):
            raise DataError(f"bad boolean {text!r} in column {column!r}")
        return text == "true"
    if kind == "str":
        return text
    try:
        return int(text) if kind == "int" else float(text)
    except ValueError:
        noun = "integer" if kind == "int" else "number"
        raise DataError(f"bad {noun} {text!r} in column {column!r}") from None


def _write_table(path: str, columns: tuple[str, ...], rows: Iterable) -> None:
    """Write the named attributes of ``rows`` as CSV, one line at a time."""
    cells = ([_format_cell(getattr(r, c)) for c in columns] for r in rows)
    _atomic_write(path, _csv_lines(itertools.chain([columns], cells)))


def _read_table(path: str, cls: type, columns: tuple[str, ...], what: str) -> list:
    """Rows of a CSV file written by :func:`_write_table`, rebuilt as ``cls``;
    each column is parsed as the type its field declares."""
    kinds = {f.name: f.type for f in fields(cls)}
    out = []
    reader = csv.reader(io.StringIO(_read_text(path)[1], newline=""))
    try:
        if tuple(next(reader, ())) != columns:
            raise DataError(f"{path}: not {what} file")
        for row in reader:
            where = f"{path}:{reader.line_num}"
            if len(row) != len(columns):
                raise DataError(f"{where}: ragged row {row!r}")
            try:
                out.append(cls(**{
                    c: _parse_cell(kinds[c], c, text)
                    for c, text in zip(columns, row)
                }))
            except (DataError, ValueError) as exc:
                raise DataError(f"{where}: bad record: {exc}") from exc
    except csv.Error as exc:
        raise DataError(f"{path}:{reader.line_num}: {exc}") from exc
    return out


def write_runs_csv(path: str, records: Sequence[RunRecord]) -> None:
    _write_table(path, RUNS_CSV_COLUMNS, records)


def read_runs_csv(path: str) -> list[RunRecord]:
    """Rebuild records from the flat CSV; graph and probe detail stay empty."""
    return _read_table(path, RunRecord, RUNS_CSV_COLUMNS, "a runs.csv")


_RECORD_FIELDS = tuple(f.name for f in fields(RunRecord))
_PROBE_FIELDS = tuple(f.name for f in fields(ProbeDetail))
# Float fields whose null in runs.jsonl (a missing value, NaN) reads back as NaN.
_RECORD_FLOATS = frozenset(f.name for f in fields(RunRecord) if f.type == "float")
_PROBE_FLOATS = frozenset(f.name for f in fields(ProbeDetail) if f.type == "float")


def _nan_to_null(v):
    return None if isinstance(v, float) and math.isnan(v) else v


def _null_to_nan(d: dict, floats: frozenset) -> dict:
    return {k: math.nan if v is None and k in floats else v for k, v in d.items()}


def _record_to_dict(r: RunRecord) -> dict:
    d = {k: _nan_to_null(getattr(r, k)) for k in _RECORD_FIELDS}
    d["probes"] = [
        [_nan_to_null(getattr(p, k)) for k in _PROBE_FIELDS] for p in r.probes
    ]
    return d


def _probe_from_json(row: list) -> ProbeDetail:
    """A probe from its row, in field order."""
    if not isinstance(row, list):
        raise TypeError(f"a probe must be a row, got {type(row).__name__}")
    d = dict(zip(_PROBE_FIELDS, row, strict=True))
    return ProbeDetail(**_null_to_nan(d, _PROBE_FLOATS))


def _record_from_dict(d: dict) -> RunRecord:
    d = _null_to_nan(d, _RECORD_FLOATS)
    d["probes"] = tuple(_probe_from_json(p) for p in d.get("probes", ()))
    return RunRecord(**d)


def write_runs_jsonl(path: str, records: Sequence[RunRecord]) -> None:
    """One strict-JSON object per run; a missing (NaN) value is written as
    null, and each probe as a row [treatment, outcome, truth, estimate,
    passed]."""
    _atomic_write(
        path,
        (
            json.dumps(
                _record_to_dict(r),
                sort_keys=True,
                allow_nan=False,
                separators=(",", ":"),
            )
            + "\n"
            for r in records
        ),
    )


def read_runs_jsonl(path: str) -> list[RunRecord]:
    records = []
    for lineno, line in enumerate(_read_text(path)[1].split("\n"), start=1):
        line = line.strip()
        if not line:
            continue
        try:
            records.append(_record_from_dict(json.loads(line)))
        except (ValueError, TypeError, KeyError, AttributeError) as exc:
            raise DataError(f"{path}:{lineno}: bad record: {exc}") from exc
    return records


def write_agg_csv(path: str, rows: Sequence[AggRow]) -> None:
    _write_table(path, AGG_CSV_COLUMNS, rows)


def read_agg_csv(path: str) -> list[AggRow]:
    return _read_table(path, AggRow, AGG_CSV_COLUMNS, "an agg.csv")
