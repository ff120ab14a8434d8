import json

import numpy as np
import pytest

from causalprobe.bayesnet import Cbn, Cpd, sample, true_ate
from causalprobe.dataset import BinaryDataset, RawDataset
from causalprobe.discovery import Knowledge
from causalprobe.errors import DataError, PipelineError
from causalprobe.estimation import METHOD_TRIVIAL_ZERO
from causalprobe.graph import Dag, shd
from causalprobe.pipeline import (
    AnalysisConfig,
    AnalysisResult,
    Binarize,
    DropColumns,
    GraphEdit,
    apply_graph_edits,
    report_to_json,
    report_to_text,
    run_end_to_end,
)
from causalprobe.probing import GreaterThan, NonZero, Point, ProbeSpec


def chain_net(p0=0.5, lo=0.1, hi=0.9):
    g = Dag(["x0", "x1", "x2"], [(0, 1), (1, 2)])
    return Cbn(
        g,
        [
            Cpd("x0", [], [p0]),
            Cpd("x1", ["x0"], [lo, hi]),
            Cpd("x2", ["x1"], [lo, hi]),
        ],
    )


def chain_data(m=4000, seed=7):
    return sample(chain_net(), m, np.random.default_rng(seed))


def chain_config(**overrides):
    net = chain_net()
    base = dict(
        target=("x0", "x2"),
        probes=(
            ProbeSpec("x0", "x1", GreaterThan(0.0)),
            ProbeSpec("x1", "x2", Point(true_ate(net, "x1", "x2"), 0.1)),
        ),
        knowledge=Knowledge(required=[("x0", "x1")]),
    )
    base.update(overrides)
    return AnalysisConfig(**base)


class TestGraphEdits:
    def setup_method(self):
        self.g = Dag(["a", "b", "c"], [(0, 1), (1, 2)])

    def test_empty_list_is_identity(self):
        assert apply_graph_edits(self.g, []) == self.g

    def test_add(self):
        out = apply_graph_edits(self.g, [GraphEdit("add", "a", "c")])
        assert out.edges == frozenset({(0, 1), (0, 2), (1, 2)})

    def test_remove(self):
        out = apply_graph_edits(self.g, [GraphEdit("remove", "b", "c")])
        assert out.edges == frozenset({(0, 1)})

    def test_reverse(self):
        out = apply_graph_edits(self.g, [GraphEdit("reverse", "b", "c")])
        assert set(out.edges) == {(0, 1), (2, 1)}

    def test_sequence_applies_in_order(self):
        out = apply_graph_edits(
            self.g,
            [GraphEdit("remove", "a", "b"), GraphEdit("add", "b", "a")],
        )
        assert set(out.edges) == {(1, 0), (1, 2)}

    def test_cycle_rejected(self):
        g = Dag(["a", "b", "c"], [(0, 1), (1, 2), (0, 2)])
        with pytest.raises(ValueError):
            apply_graph_edits(g, [GraphEdit("reverse", "a", "c")])

    def test_add_creating_cycle_rejected(self):
        with pytest.raises(ValueError):
            apply_graph_edits(self.g, [GraphEdit("add", "c", "a")])

    def test_add_existing_rejected(self):
        with pytest.raises(ValueError):
            apply_graph_edits(self.g, [GraphEdit("add", "a", "b")])

    def test_remove_missing_rejected(self):
        with pytest.raises(ValueError):
            apply_graph_edits(self.g, [GraphEdit("remove", "a", "c")])

    def test_unknown_node_rejected(self):
        with pytest.raises(ValueError):
            apply_graph_edits(self.g, [GraphEdit("add", "a", "z")])

    def test_unknown_action_rejected(self):
        with pytest.raises(ValueError):
            GraphEdit("orient", "a", "b")


class TestConfigValidation:
    def test_target_must_be_distinct(self):
        with pytest.raises(ValueError):
            chain_config(target=("x0", "x0"))

    def test_probes_required(self):
        with pytest.raises(ValueError):
            chain_config(probes=())

    def test_penalty_positive(self):
        with pytest.raises(ValueError):
            chain_config(penalty=0.0)


class TestEndToEnd:
    def test_chain_recovery_and_report(self):
        net = chain_net()
        data = chain_data()
        res = run_end_to_end(data, chain_config())
        assert shd(res.discovered, net.graph) == 0
        assert res.report.hit_rate == 1.0
        truth = true_ate(net, "x0", "x2")
        assert abs(res.report.target.value - truth) < 0.1

    def test_stage_purity(self):
        data = chain_data()
        cfg = chain_config()
        assert run_end_to_end(data, cfg) == run_end_to_end(data, cfg)
        assert report_to_json(run_end_to_end(data, cfg)) == report_to_json(
            run_end_to_end(data, cfg)
        )

    def test_pure_noise_gives_empty_graph_and_trivial_zeros(self):
        rng = np.random.default_rng(0)
        data = BinaryDataset(
            ["a", "b", "c", "d"], rng.integers(0, 2, size=(500, 4))
        )
        cfg = AnalysisConfig(
            target=("a", "d"),
            probes=(
                ProbeSpec("a", "b", Point(0.0, 0.01)),
                ProbeSpec("b", "c", Point(0.0, 0.2)),
                ProbeSpec("a", "c", GreaterThan(0.0)),
                ProbeSpec("c", "d", NonZero(0.05)),
            ),
        )
        res = run_end_to_end(data, cfg)
        assert res.discovered.edges == frozenset()
        assert res.report.target.value == 0.0
        assert res.report.target.method == METHOD_TRIVIAL_ZERO
        flags = [r.passed for r in res.report.probes]
        assert flags == [True, True, False, False]
        assert res.report.hit_rate == 0.5

    def test_graph_edit_can_sever_target_path(self):
        data = chain_data()
        cfg = chain_config(graph_edits=(GraphEdit("remove", "x0", "x1"),))
        res = run_end_to_end(data, cfg)
        assert res.report.target.value == 0.0
        assert res.report.target.method == METHOD_TRIVIAL_ZERO

    def test_binary_input_accepted_directly(self):
        data = chain_data(m=2000)
        assert isinstance(data, BinaryDataset)
        res = run_end_to_end(data, chain_config())
        assert isinstance(res, AnalysisResult)


class TestPreprocessing:
    def make_raw(self):
        rows = []
        rng = np.random.default_rng(3)
        net = chain_net()
        d = sample(net, 800, rng)
        for i in range(d.n_rows):
            x0 = "yes" if d.values[i, 0] else "no"
            rows.append(
                (x0, str(d.values[i, 1]), str(d.values[i, 2]), "junk")
            )
        return RawDataset(["x0", "x1", "x2", "note"], rows)

    def test_steps_apply_in_order(self):
        raw = self.make_raw()
        cfg = chain_config(
            preprocessing=(
                Binarize("x0", "no", "yes"),
                DropColumns(["note"]),
            )
        )
        res = run_end_to_end(raw, cfg)
        assert set(res.discovered.labels) == {"x0", "x1", "x2"}

    def test_wrong_order_fails_in_preprocessing_stage(self):
        raw = self.make_raw()
        cfg = chain_config(
            preprocessing=(
                DropColumns(["x0"]),
                Binarize("x0", "no", "yes"),
            )
        )
        with pytest.raises(PipelineError) as exc:
            run_end_to_end(raw, cfg)
        assert exc.value.stage == "preprocessing"
        assert isinstance(exc.value.cause, DataError)

    def test_binarize_on_binary_data_rejected(self):
        cfg = chain_config(preprocessing=(Binarize("x0", "no", "yes"),))
        with pytest.raises(PipelineError) as exc:
            run_end_to_end(chain_data(m=100), cfg)
        assert exc.value.stage == "preprocessing"


class TestStageAnnotation:
    def test_unknown_target_column(self):
        cfg = chain_config(target=("x0", "zz"))
        with pytest.raises(PipelineError) as exc:
            run_end_to_end(chain_data(m=100), cfg)
        assert exc.value.stage == "config"
        assert "zz" in str(exc.value)

    def test_unknown_probe_column(self):
        cfg = chain_config(
            probes=(ProbeSpec("x0", "ghost", GreaterThan(0.0)),)
        )
        with pytest.raises(PipelineError) as exc:
            run_end_to_end(chain_data(m=100), cfg)
        assert exc.value.stage == "config"
        assert "ghost" in str(exc.value)

    def test_unknown_knowledge_column(self):
        cfg = chain_config(knowledge=Knowledge(required=[("x0", "nope")]))
        with pytest.raises(PipelineError) as exc:
            run_end_to_end(chain_data(m=100), cfg)
        assert exc.value.stage == "config"
        assert "nope" in str(exc.value)

    def test_discovery_stage_error(self):
        # Every name is known, but there are no rows to score.
        empty = BinaryDataset(["x0", "x1", "x2"], np.zeros((0, 3)))
        with pytest.raises(PipelineError) as exc:
            run_end_to_end(empty, chain_config())
        assert exc.value.stage == "discovery"
        assert isinstance(exc.value.cause, DataError)

    def test_graph_edit_stage_error(self):
        cfg = chain_config(graph_edits=(GraphEdit("remove", "x2", "x0"),))
        with pytest.raises(PipelineError) as exc:
            run_end_to_end(chain_data(), cfg)
        assert exc.value.stage == "graph-edit"


class TestReportRendering:
    def run(self):
        return run_end_to_end(chain_data(), chain_config())

    def test_json_schema(self):
        res = self.run()
        doc = json.loads(report_to_json(res))
        assert set(doc) == {
            "discovered_graph",
            "target",
            "probes",
            "hit_rate",
        }
        assert set(doc["target"]) == {"pair", "estimate", "method"}
        assert doc["target"]["pair"] == ["x0", "x2"]
        assert doc["target"]["estimate"] == res.report.target.value
        for entry, r in zip(doc["probes"], res.report.probes):
            assert set(entry) == {"pair", "expectation", "estimate", "passed"}
            assert entry["pair"] == [r.spec.treatment, r.spec.outcome]
            assert entry["estimate"] == r.estimate.value
            assert entry["passed"] == r.passed
        assert doc["hit_rate"] == res.report.hit_rate

    def test_graph_serialization_embedded(self):
        doc = json.loads(report_to_json(self.run()))
        assert doc["discovered_graph"].startswith("nodes: x0, x1, x2\n")
        assert "x0 -> x1" in doc["discovered_graph"]

    def test_text_rendering(self):
        res = self.run()
        text = report_to_text(res)
        assert "discovered graph:" in text
        assert "target x0 -> x2:" in text
        assert "[pass]" in text
        assert "hit rate: 1.0 (2/2)" in text
        assert text.endswith("\n")

    def test_text_marks_failures(self):
        data = chain_data()
        cfg = chain_config(
            probes=(
                ProbeSpec("x0", "x1", GreaterThan(0.0)),
                ProbeSpec("x2", "x0", NonZero(0.05)),
            )
        )
        res = run_end_to_end(data, cfg)
        text = report_to_text(res)
        assert "[FAIL] x2 -> x0" in text
