"""The package"s public surface: exactly these names, each importable."""

import causalprobe

EXPORTS = {
    "AGG_CSV_COLUMNS", "AggRow", "AnalysisConfig", "AnalysisResult",
    "AteEstimate", "Binarize", "BinaryDataset", "CapacityError",
    "CausalProbeError", "Cbn", "Cpd", "Cpdag", "Dag", "DataError",
    "DegenerateNetworkError", "DropColumns", "GraphEdit",
    "GraphGenerationError", "GreaterThan", "Interval", "Knowledge",
    "KnowledgeError", "LessThan", "MAX_EXACT_NODES", "METHOD_LINEAR",
    "METHOD_TRIVIAL_ZERO", "NonZero", "OrientationError", "PipelineError",
    "Point", "ProbeDetail", "ProbeResult", "ProbeSpec", "RUNS_CSV_COLUMNS",
    "RawDataset", "RunRecord", "SPRINKLER_TARGET", "SimParams", "TrendStat",
    "ValidationReport", "__version__", "adjustment_set", "aggregate",
    "apply_graph_edits", "binarize", "correct_knowledge", "dag_to_cpdag",
    "derive_seed", "drop_columns", "estimate_ate_linear", "evaluate_probe",
    "filter_connected", "filter_outliers", "flipped_knowledge",
    "format_expectation", "format_knowledge", "format_probes", "from_text",
    "ges", "histogram_svg", "hit_rate", "is_weakly_connected", "means_svg",
    "oracle_target_ate", "orient_to_dag", "parse_knowledge", "parse_probes",
    "pick_hint_edges", "random_cpds", "random_dag", "read_agg_csv",
    "read_csv", "read_runs_csv", "read_runs_jsonl", "report_to_json",
    "report_to_text", "run_end_to_end", "run_sprinkler_demo", "run_study",
    "sample", "scatter_svg", "shd", "simulate_run", "spearman",
    "splitmix64", "sprinkler_config", "sprinkler_data", "sprinkler_net",
    "sprinkler_probes", "to_binary", "to_text", "trend_stat", "true_ate",
    "validate", "write_agg_csv", "write_csv", "write_runs_csv",
    "write_runs_jsonl",
}


def test_all_lists_exactly_the_public_names():
    assert len(causalprobe.__all__) == len(EXPORTS)
    assert set(causalprobe.__all__) == EXPORTS


def test_every_exported_name_resolves():
    for name in causalprobe.__all__:
        assert hasattr(causalprobe, name), name
