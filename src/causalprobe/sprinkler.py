"""The five-variable sprinkler network used by the demo and the tests.

Season influences whether the sprinkler runs and whether it rains; both
wet the grass; wet grass is slippery. All variables are binary (season is
1 for the dry half of the year). The CPD numbers are fixture values chosen
so every edge carries a clearly nonzero effect.
"""

from __future__ import annotations

import numpy as np

from .bayesnet import Cbn, Cpd, sample, true_ate
from .dataset import BinaryDataset
from .discovery import Knowledge
from .graph import Dag
from .pipeline import AnalysisConfig, AnalysisResult, run_end_to_end
from .probing import GreaterThan, ProbeSpec

__all__ = [
    "SPRINKLER_TARGET",
    "correct_knowledge",
    "oracle_target_ate",
    "flipped_knowledge",
    "run_sprinkler_demo",
    "sprinkler_config",
    "sprinkler_data",
    "sprinkler_net",
    "sprinkler_probes",
]

SPRINKLER_TARGET = ("sprinkler", "slippery")


def sprinkler_net() -> Cbn:
    graph = Dag(
        ["season", "sprinkler", "rain", "wet", "slippery"],
        [(0, 1), (0, 2), (1, 3), (2, 3), (3, 4)],
    )
    return Cbn(
        graph,
        [
            Cpd("season", [], [0.5]),
            Cpd("sprinkler", ["season"], [0.15, 0.7]),
            Cpd("rain", ["season"], [0.75, 0.25]),
            Cpd("wet", ["sprinkler", "rain"], [0.02, 0.8, 0.85, 0.99]),
            Cpd("slippery", ["wet"], [0.05, 0.9]),
        ],
    )


def correct_knowledge() -> Knowledge:
    """The qualitative facts a gardener would assert about the system."""
    return Knowledge(
        required=[("sprinkler", "wet"), ("rain", "wet")],
        forbidden=[("sprinkler", "rain"), ("season", "wet")],
    )


def flipped_knowledge() -> Knowledge:
    """Every knowledge edge reversed: deliberately wrong causal directions."""
    return Knowledge(
        required=[("wet", "sprinkler"), ("wet", "rain")],
        forbidden=[("rain", "sprinkler"), ("wet", "season")],
    )


def sprinkler_probes() -> tuple[ProbeSpec, ProbeSpec]:
    """Two known-positive effects: sprinkler wets grass, wet grass slips."""
    return (
        ProbeSpec("sprinkler", "wet", GreaterThan(0.0)),
        ProbeSpec("wet", "slippery", GreaterThan(0.0)),
    )


def sprinkler_config(flip: bool = False) -> AnalysisConfig:
    return AnalysisConfig(
        target=SPRINKLER_TARGET,
        probes=sprinkler_probes(),
        knowledge=flipped_knowledge() if flip else correct_knowledge(),
    )


def sprinkler_data(m: int = 10_000, seed: int = 0) -> BinaryDataset:
    return sample(sprinkler_net(), m, np.random.default_rng(seed))


def run_sprinkler_demo(seed: int = 0, flip: bool = False) -> AnalysisResult:
    """Sample the fixture and run the end-to-end analysis on it."""
    return run_end_to_end(sprinkler_data(seed=seed), sprinkler_config(flip))


def oracle_target_ate() -> float:
    """Exact target effect of the fixture, for checking demo output."""
    return true_ate(sprinkler_net(), *SPRINKLER_TARGET)
