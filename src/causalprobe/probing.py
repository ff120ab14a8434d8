"""Quantitative probes: expected causal effects a model must reproduce.

A probe pairs a (treatment, outcome) effect with an expectation about its
value. Estimating every probe on a candidate model and checking the
expectations yields a hit rate; a low hit rate falsifies the model, a high
one means the model survived the probing attempt.
"""

from __future__ import annotations

import dataclasses
import math
from dataclasses import dataclass
from typing import Sequence, Union

from .errors import DataError
from .estimation import AteEstimate
from .graph import _check_labels


@dataclass(frozen=True)
class _Finite:
    """Base of the expectation types: every field is a finite number, which
    the probe text format can write and read back."""

    def __post_init__(self):
        for f in dataclasses.fields(self):
            if not math.isfinite(getattr(self, f.name)):
                raise ValueError(f"{f.name} must be finite")


@dataclass(frozen=True)
class Point(_Finite):
    """Pass iff |value - target| <= tol (closed on both sides)."""

    target: float
    tol: float

    def __post_init__(self):
        super().__post_init__()
        if self.tol < 0:
            raise ValueError("tolerance must be nonnegative")


@dataclass(frozen=True)
class Interval(_Finite):
    """Pass iff lo <= value <= hi."""

    lo: float
    hi: float

    def __post_init__(self):
        super().__post_init__()
        if self.lo > self.hi:
            raise ValueError(f"empty interval [{self.lo}, {self.hi}]")


@dataclass(frozen=True)
class GreaterThan(_Finite):
    """Pass iff value > threshold (strict)."""

    threshold: float


@dataclass(frozen=True)
class LessThan(_Finite):
    """Pass iff value < threshold (strict)."""

    threshold: float


@dataclass(frozen=True)
class NonZero(_Finite):
    """Pass iff |value| > margin; the margin keeps a noisy near-zero
    estimate from counting as a nonzero effect."""

    margin: float

    def __post_init__(self):
        super().__post_init__()
        if self.margin <= 0:
            raise ValueError("nonzero margin must be positive")


Expectation = Union[Point, Interval, GreaterThan, LessThan, NonZero]


@dataclass(frozen=True)
class ProbeSpec:
    """One known causal effect and the expectation its estimate must meet."""

    treatment: str
    outcome: str
    expectation: Expectation

    def __post_init__(self):
        if self.treatment == self.outcome:
            raise ValueError("probe treatment and outcome must differ")
        if not isinstance(
            self.expectation, (Point, Interval, GreaterThan, LessThan, NonZero)
        ):
            raise ValueError(f"unknown expectation {self.expectation!r}")


def evaluate_probe(spec: ProbeSpec, value: float) -> bool:
    """Decide whether an estimated value meets the probe's expectation."""
    e = spec.expectation
    if isinstance(e, Point):
        return abs(value - e.target) <= e.tol
    if isinstance(e, Interval):
        return e.lo <= value <= e.hi
    if isinstance(e, GreaterThan):
        return value > e.threshold
    if isinstance(e, LessThan):
        return value < e.threshold
    return abs(value) > e.margin


@dataclass(frozen=True)
class ProbeResult:
    """A probe together with its estimate and pass/fail decision."""

    spec: ProbeSpec
    estimate: AteEstimate

    @property
    def passed(self) -> bool:
        return evaluate_probe(self.spec, self.estimate.value)


@dataclass(frozen=True)
class ValidationReport:
    """Outcome of probing one candidate model."""

    target: AteEstimate
    probes: tuple[ProbeResult, ...]

    def __post_init__(self):
        object.__setattr__(self, "probes", tuple(self.probes))
        if not self.probes:
            raise ValueError("a report needs at least one probe")

    @property
    def hit_rate(self) -> float:
        """Fraction of probes that passed."""
        return sum(1 for p in self.probes if p.passed) / len(self.probes)


def validate(
    target: AteEstimate,
    probe_estimates: Sequence[AteEstimate],
    specs: Sequence[ProbeSpec],
) -> ValidationReport:
    """Assemble a validation report: one estimate per probe spec.

    The target estimate is carried through untouched; validation never
    changes estimation.
    """
    probe_estimates = tuple(probe_estimates)
    specs = tuple(specs)
    if len(probe_estimates) != len(specs):
        raise ValueError(
            f"{len(specs)} probe specs but {len(probe_estimates)} estimates"
        )
    results = []
    for spec, est in zip(specs, probe_estimates):
        if (est.treatment, est.outcome) != (spec.treatment, spec.outcome):
            raise ValueError(
                f"probe {spec.treatment}->{spec.outcome} paired with "
                f"estimate {est.treatment}->{est.outcome}"
            )
        results.append(ProbeResult(spec, est))
    return ValidationReport(target, results)


def format_expectation(e: Expectation) -> str:
    """Render one expectation in the syntax accepted by :func:`parse_probes`."""
    if isinstance(e, Point):
        return f"{e.target!r} +/- {e.tol!r}"
    if isinstance(e, Interval):
        return f"in [{e.lo!r}, {e.hi!r}]"
    if isinstance(e, GreaterThan):
        return f"> {e.threshold!r}"
    if isinstance(e, LessThan):
        return f"< {e.threshold!r}"
    return f"nonzero {e.margin!r}"


def format_probes(specs: Sequence[ProbeSpec]) -> str:
    """Render probes in the line format accepted by :func:`parse_probes`.

    Raises ValueError for a node name that format would not read back.
    """
    _check_labels(
        (x for s in specs for x in (s.treatment, s.outcome)), "#", "->", " expect "
    )
    lines = [
        f"probe {s.treatment} -> {s.outcome} expect "
        f"{format_expectation(s.expectation)}"
        for s in specs
    ]
    return "\n".join(lines) + "\n" if lines else ""


def _parse_float(token: str, lineno: int) -> float:
    try:
        return float(token)
    except ValueError:
        raise DataError(f"line {lineno}: expected a number, got {token!r}") from None


def _parse_expectation(rest: str, lineno: int) -> Expectation:
    rest = rest.strip()
    if rest.startswith(">"):
        return GreaterThan(_parse_float(rest[1:].strip(), lineno))
    if rest.startswith("<"):
        return LessThan(_parse_float(rest[1:].strip(), lineno))
    if rest.startswith("in"):
        body = rest[2:].strip()
        if not (body.startswith("[") and body.endswith("]")) or "," not in body:
            raise DataError(f"line {lineno}: expected 'in [lo, hi]', got {rest!r}")
        lo, hi = body[1:-1].split(",", 1)
        return Interval(_parse_float(lo.strip(), lineno), _parse_float(hi.strip(), lineno))
    if rest.startswith("nonzero"):
        return NonZero(_parse_float(rest[len("nonzero"):].strip(), lineno))
    if "+/-" in rest:
        target, tol = rest.split("+/-", 1)
        return Point(
            _parse_float(target.strip(), lineno), _parse_float(tol.strip(), lineno)
        )
    raise DataError(f"line {lineno}: cannot parse expectation {rest!r}")


def parse_probes(text: str) -> tuple[ProbeSpec, ...]:
    """Parse probe lines like `probe t -> o expect 0.62 +/- 0.1`.

    Supported expectation forms: `x +/- tol`, `> x`, `< x`, `in [lo, hi]`,
    `nonzero margin`. `#` starts a comment.
    """
    specs = []
    for lineno, raw in enumerate(text.splitlines(), 1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        fields = line.split(None, 1)
        if fields[0] != "probe" or len(fields) != 2:
            raise DataError(f"line {lineno}: expected 'probe t -> o expect ...'")
        pair, sep, expectation = fields[1].partition(" expect ")
        if not sep or "->" not in pair:
            raise DataError(f"line {lineno}: expected 'probe t -> o expect ...'")
        left, right = pair.split("->", 1)
        t, o = left.strip(), right.strip()
        if not t or not o:
            raise DataError(f"line {lineno}: missing node name")
        try:
            specs.append(ProbeSpec(t, o, _parse_expectation(expectation, lineno)))
        except ValueError as exc:
            raise DataError(f"line {lineno}: {exc}") from exc
    return tuple(specs)
