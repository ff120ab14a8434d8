import math

import numpy as np
import pytest

from causalprobe.errors import DataError
from causalprobe.estimation import AteEstimate, METHOD_LINEAR, METHOD_TRIVIAL_ZERO
from causalprobe.probing import (
    GreaterThan,
    Interval,
    LessThan,
    NonZero,
    Point,
    ProbeResult,
    ProbeSpec,
    ValidationReport,
    evaluate_probe,
    format_probes,
    hit_rate,
    parse_probes,
    validate,
)


def est(t, o, value, method=METHOD_LINEAR):
    return AteEstimate(t, o, value, method)


def spec(t="t", o="o", expectation=GreaterThan(0.0)):
    return ProbeSpec(t, o, expectation)


class TestExpectationTypes:
    def test_point_negative_tol(self):
        with pytest.raises(ValueError):
            Point(0.5, -0.1)

    def test_interval_empty(self):
        with pytest.raises(ValueError):
            Interval(0.4, 0.2)

    def test_nonzero_margin_must_be_positive(self):
        with pytest.raises(ValueError):
            NonZero(0.0)

    def test_numbers_must_be_finite(self):
        for bad in (math.inf, -math.inf, math.nan):
            for make in (
                lambda x: Point(x, 0.1),
                lambda x: Point(0.5, x),
                lambda x: Interval(x, 1.0) if x < 0 else Interval(0.0, x),
                GreaterThan,
                LessThan,
                NonZero,
            ):
                with pytest.raises(ValueError, match="finite"):
                    make(bad)

    def test_same_treatment_outcome(self):
        with pytest.raises(ValueError):
            ProbeSpec("a", "a", GreaterThan(0))

    def test_expectation_type_checked(self):
        with pytest.raises(ValueError):
            ProbeSpec("a", "b", 0.5)


class TestEvaluateProbe:
    def test_point_acceptance_interval(self):
        # expectation 0.07 +/- 0.1 accepts any value in [-0.03, 0.17]
        s = spec(expectation=Point(0.07, 0.1))
        assert evaluate_probe(s, 0.0)
        assert evaluate_probe(s, 0.17)
        assert evaluate_probe(s, -0.03)
        assert not evaluate_probe(s, 0.171)

    def test_point_boundary_closed(self):
        assert evaluate_probe(spec(expectation=Point(0.5, 0.1)), 0.6)

    def test_greater_than_strict(self):
        s = spec(expectation=GreaterThan(0.0))
        assert not evaluate_probe(s, 0.0)
        assert evaluate_probe(s, 1e-9)
        assert not evaluate_probe(s, -0.2)

    def test_less_than_strict(self):
        s = spec(expectation=LessThan(0.0))
        assert not evaluate_probe(s, 0.0)
        assert evaluate_probe(s, -1e-9)

    def test_interval_closed(self):
        s = spec(expectation=Interval(0.2, 0.4))
        assert evaluate_probe(s, 0.2)
        assert evaluate_probe(s, 0.4)
        assert not evaluate_probe(s, 0.41)

    def test_nonzero_margin(self):
        s = spec(expectation=NonZero(0.05))
        assert not evaluate_probe(s, 0.05)
        assert not evaluate_probe(s, -0.03)
        assert evaluate_probe(s, -0.2)
        assert evaluate_probe(s, 0.0500001)

    def test_point_monotone_in_tolerance(self):
        rng = np.random.default_rng(5)
        for _ in range(200):
            target, value = rng.normal(size=2)
            t1, t2 = sorted(rng.random(2))
            s1 = spec(expectation=Point(target, t1))
            s2 = spec(expectation=Point(target, t2))
            if evaluate_probe(s1, value):
                assert evaluate_probe(s2, value)


class TestHitRate:
    def make_results(self, outcomes):
        out = []
        for i, passed in enumerate(outcomes):
            s = spec("t", f"o{i}", GreaterThan(0.0))
            value = 1.0 if passed else -1.0
            out.append(ProbeResult(s, est("t", f"o{i}", value), passed))
        return out

    def test_all_pass(self):
        assert hit_rate(self.make_results([True] * 5) ) == 1.0

    def test_half(self):
        assert hit_rate(self.make_results([True] * 12 + [False] * 12)) == 0.5

    def test_empty_errors(self):
        with pytest.raises(ValueError):
            hit_rate([])

    def test_permutation_invariant(self):
        results = self.make_results([True, False, True, True, False])
        assert hit_rate(results) == hit_rate(list(reversed(results)))

    def test_exact_rational(self):
        assert hit_rate(self.make_results([True, False, False, False])) == 0.25


class TestProbeResult:
    def test_consistency_enforced(self):
        s = spec(expectation=GreaterThan(0.0))
        with pytest.raises(ValueError):
            ProbeResult(s, est("t", "o", -1.0), True)


class TestValidate:
    def test_sprinkler_style_half(self):
        specs = [
            ProbeSpec("sprinkler", "wet", GreaterThan(0.0)),
            ProbeSpec("wet", "slippery", GreaterThan(0.0)),
        ]
        estimates = [
            est("sprinkler", "wet", 0.0, METHOD_TRIVIAL_ZERO),
            est("wet", "slippery", 0.8),
        ]
        target = est("sprinkler", "slippery", 0.0, METHOD_TRIVIAL_ZERO)
        report = validate(target, estimates, specs)
        assert report.hit_rate == 0.5
        assert not report.probes[0].passed
        assert report.probes[1].passed
        assert report.target is target

    def test_zero_tolerance_identical_values_pass(self):
        specs = [ProbeSpec("a", "b", Point(0.3125, 0.0))]
        report = validate(est("x", "y", 1.0), [est("a", "b", 0.3125)], specs)
        assert report.hit_rate == 1.0

    def test_count_mismatch(self):
        with pytest.raises(ValueError):
            validate(est("x", "y", 1.0), [], [spec()])

    def test_pair_mismatch(self):
        with pytest.raises(ValueError):
            validate(est("x", "y", 1.0), [est("t", "zz", 1.0)], [spec()])

    def test_pure_and_reproducible(self):
        specs = [spec(), spec("t", "o2", Point(0.1, 0.2))]
        estimates = [est("t", "o", 0.5), est("t", "o2", 0.15)]
        target = est("x", "y", 0.25)
        assert validate(target, estimates, specs) == validate(
            target, estimates, specs
        )

    def test_report_invariants_enforced(self):
        with pytest.raises(ValueError):
            ValidationReport(est("x", "y", 1.0), (), 1.0)
        s = spec()
        r = ProbeResult(s, est("t", "o", 1.0), True)
        with pytest.raises(ValueError):
            ValidationReport(est("x", "y", 1.0), (r,), 0.5)


class TestProbesFile:
    def test_parse_all_forms(self):
        text = (
            "# probes for the demo\n"
            "probe a -> b expect 0.62 +/- 0.1\n"
            "probe b -> c expect > 0\n"
            "probe c -> d expect in [0.2, 0.4]\n"
            "probe d -> e expect nonzero 0.05\n"
            "probe e -> f expect < -0.1  # trailing comment\n"
        )
        specs = parse_probes(text)
        assert specs[0].expectation == Point(0.62, 0.1)
        assert specs[1].expectation == GreaterThan(0.0)
        assert specs[2].expectation == Interval(0.2, 0.4)
        assert specs[3].expectation == NonZero(0.05)
        assert specs[4].expectation == LessThan(-0.1)
        assert specs[0].treatment == "a"
        assert specs[0].outcome == "b"

    def test_round_trip(self):
        specs = parse_probes(
            "probe a -> b expect 0.62 +/- 0.1\n"
            "probe b -> c expect > 0\n"
            "probe c -> d expect in [0.2, 0.4]\n"
            "probe d -> e expect nonzero 0.05\n"
        )
        assert parse_probes(format_probes(specs)) == specs

    def test_format_empty(self):
        assert format_probes([]) == ""

    def test_parse_errors(self):
        with pytest.raises(DataError):
            parse_probes("probe a -> b\n")
        with pytest.raises(DataError):
            parse_probes("probe a b expect > 0\n")
        with pytest.raises(DataError):
            parse_probes("probe a -> b expect maybe\n")
        with pytest.raises(DataError):
            parse_probes("probe a -> b expect 0.5 +/- banana\n")
        with pytest.raises(DataError):
            parse_probes("check a -> b expect > 0\n")

    def test_arrow_only_after_expect_is_reported_with_its_line(self):
        with pytest.raises(DataError, match="line 2"):
            parse_probes("\nprobe a expect -> b expect 0.5 +/- 0.1\n")

    def test_parse_invalid_semantics(self):
        with pytest.raises(DataError):
            parse_probes("probe a -> b expect in [0.4, 0.2]\n")
        with pytest.raises(DataError):
            parse_probes("probe a -> a expect > 0\n")

    def test_non_finite_numbers_are_reported_with_their_line(self):
        for text in ("nan +/- 0.1", "0.5 +/- inf", "> inf", "< -inf",
                     "in [0.0, nan]", "nonzero inf"):
            with pytest.raises(DataError, match="line 1"):
                parse_probes(f"probe a -> b expect {text}\n")
