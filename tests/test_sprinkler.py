import re
from pathlib import Path

import numpy as np
import pytest

from causalprobe.bayesnet import true_ate
from causalprobe.discovery import parse_knowledge
from causalprobe.estimation import METHOD_TRIVIAL_ZERO
from causalprobe.graph import shd
from causalprobe.pipeline import run_end_to_end
from causalprobe.probing import evaluate_probe, parse_probes
from causalprobe.sprinkler import (
    SPRINKLER_TARGET,
    correct_knowledge,
    flipped_knowledge,
    oracle_target_ate,
    run_sprinkler_demo,
    sprinkler_config,
    sprinkler_data,
    sprinkler_net,
    sprinkler_probes,
)
from reference import joint, marginal


class TestFixture:
    def test_graph_shape(self):
        g = sprinkler_net().graph
        assert g.labels == ("season", "sprinkler", "rain", "wet", "slippery")
        assert g.edges == frozenset(
            {(0, 1), (0, 2), (1, 3), (2, 3), (3, 4)}
        )

    def test_rain_marginal(self):
        # p(rain=1) = 0.5*0.75 + 0.5*0.25 = 0.5 by hand.
        net = sprinkler_net()
        assert marginal(net.graph.labels, joint(net), "rain") == pytest.approx(0.5, abs=1e-12)

    def test_oracle_edge_effects(self):
        # do-calculus by hand: p(wet|do(spr=1)) = .5*.85+.5*.99 = .92,
        # p(wet|do(spr=0)) = .5*.02+.5*.80 = .41, difference .51.
        net = sprinkler_net()
        assert true_ate(net, "sprinkler", "wet") == pytest.approx(
            0.51, abs=1e-9
        )
        assert true_ate(net, "wet", "slippery") == pytest.approx(
            0.85, abs=1e-9
        )

    def test_oracle_target(self):
        # p(slip|do(spr=1)) = .92*.9+.08*.05 = .832,
        # p(slip|do(spr=0)) = .41*.9+.59*.05 = .3985, difference .4335.
        assert oracle_target_ate() == pytest.approx(0.4335, abs=1e-9)

    def test_flipped_is_reversal_of_correct(self):
        c, f = correct_knowledge(), flipped_knowledge()
        assert f.required == frozenset((b, a) for a, b in c.required)
        assert f.forbidden == frozenset((b, a) for a, b in c.forbidden)

    def test_probes_are_positive_effect_checks(self):
        specs = sprinkler_probes()
        assert [(s.treatment, s.outcome) for s in specs] == [
            ("sprinkler", "wet"),
            ("wet", "slippery"),
        ]

    def test_data_is_deterministic(self):
        a = sprinkler_data(m=200, seed=5)
        b = sprinkler_data(m=200, seed=5)
        assert np.array_equal(a.values, b.values)


class TestCorrectKnowledge:
    def test_recovers_true_graph(self):
        res = run_sprinkler_demo()
        assert shd(res.discovered, sprinkler_net().graph) == 0

    def test_all_probes_pass(self):
        res = run_sprinkler_demo()
        assert res.report.hit_rate == 1.0

    def test_target_near_oracle(self):
        res = run_sprinkler_demo()
        assert abs(res.report.target.value - oracle_target_ate()) < 0.1


class TestFlippedKnowledge:
    def test_target_exactly_zero(self):
        res = run_sprinkler_demo(flip=True)
        assert res.report.target.value == 0.0
        assert res.report.target.method == METHOD_TRIVIAL_ZERO

    def test_no_directed_path_to_slippery(self):
        res = run_sprinkler_demo(flip=True)
        assert not res.discovered.has_directed_path(
            res.discovered.index("sprinkler"),
            res.discovered.index("slippery"),
        )

    def test_probe_outcomes(self):
        res = run_sprinkler_demo(flip=True)
        outcomes = {
            (r.spec.treatment, r.spec.outcome): r.passed
            for r in res.report.probes
        }
        assert outcomes[("sprinkler", "wet")] is False
        assert outcomes[("wet", "slippery")] is True
        assert res.report.hit_rate == 0.5

    def test_required_reversed_edges_present(self):
        res = run_sprinkler_demo(flip=True)
        g = res.discovered
        edges = {(g.labels[a], g.labels[b]) for a, b in g.edges}
        assert ("wet", "sprinkler") in edges
        assert ("wet", "rain") in edges


class TestDeterminism:
    def test_identical_reports(self):
        first, second = (
            run_end_to_end(sprinkler_data(m=2000), sprinkler_config())
            for _ in range(2)
        )
        assert first == second

    def test_target_constant(self):
        assert SPRINKLER_TARGET == ("sprinkler", "slippery")


def _readme_block(heading):
    """The first fenced block after the bold ``heading`` in the README."""
    readme = Path(__file__).resolve().parents[1] / "README.md"
    text = readme.read_text(encoding="utf-8")
    found = re.search(
        rf"\*\*{heading}\*\*.*?```\n(.*?)```", text, flags=re.DOTALL
    )
    assert found, heading
    return found.group(1)


class TestReadmeExamples:
    def test_example_probes_and_knowledge_fit_the_network(self):
        net = sprinkler_net()
        probes = parse_probes(_readme_block("Probe files"))
        assert len(probes) == 5
        for p in probes:
            truth = true_ate(net, p.treatment, p.outcome)
            assert evaluate_probe(p, truth), (p, truth)
        knowledge = parse_knowledge(_readme_block("Knowledge files"))
        g = net.graph
        edges = {(g.labels[a], g.labels[b]) for a, b in g.edges}
        assert knowledge.required and knowledge.required <= edges
        assert knowledge.forbidden and not knowledge.forbidden & edges
