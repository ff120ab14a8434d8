"""Quantitative probing for causal models.

A causal analysis typically produces one number: the estimated effect of
a treatment on an outcome.  Whether that number deserves trust depends
on whether the model behind it also reproduces effects that are already
known.  This package turns such known effects into *probes*, runs them
through the same discover-then-estimate pipeline as the target effect,
and reports the fraction that pass.  A high hit rate is evidence the
pipeline got the causal structure right; a low one is a warning that the
target estimate rests on a shaky model.

The main entry points are :func:`run_end_to_end` for analyzing a single
dataset and :func:`run_study` for seeded simulation studies over random
ground-truth models.  The ``causalprobe`` command exposes both from the
shell.
"""

from types import ModuleType as _ModuleType

from .bayesnet import (
    MAX_EXACT_NODES,
    Cbn,
    Cpd,
    random_cpds,
    sample,
    true_ate,
)
from .dataset import (
    BinaryDataset,
    RawDataset,
    binarize,
    drop_columns,
    read_csv,
    to_binary,
    write_csv,
)
from .discovery import (
    Cpdag,
    Knowledge,
    dag_to_cpdag,
    format_knowledge,
    ges,
    orient_to_dag,
    parse_knowledge,
    pick_hint_edges,
)
from .errors import (
    CapacityError,
    CausalProbeError,
    DataError,
    DegenerateNetworkError,
    GraphGenerationError,
    KnowledgeError,
    OrientationError,
    PipelineError,
)
from .estimation import (
    METHOD_LINEAR,
    METHOD_TRIVIAL_ZERO,
    AteEstimate,
    adjustment_set,
    estimate_ate_linear,
)
from .graph import (
    Dag,
    from_text,
    is_weakly_connected,
    random_dag,
    shd,
    to_text,
)
from .pipeline import (
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
from .probing import (
    GreaterThan,
    Interval,
    LessThan,
    NonZero,
    Point,
    ProbeResult,
    ProbeSpec,
    ValidationReport,
    evaluate_probe,
    format_expectation,
    format_probes,
    hit_rate,
    parse_probes,
    validate,
)
from .sim import (
    AGG_CSV_COLUMNS,
    RUNS_CSV_COLUMNS,
    AggRow,
    ProbeDetail,
    RunRecord,
    SimParams,
    TrendStat,
    aggregate,
    derive_seed,
    filter_connected,
    filter_outliers,
    read_agg_csv,
    read_runs_csv,
    read_runs_jsonl,
    run_study,
    simulate_run,
    spearman,
    splitmix64,
    trend_stat,
    write_agg_csv,
    write_runs_csv,
    write_runs_jsonl,
)
from .sprinkler import (
    SPRINKLER_TARGET,
    correct_knowledge,
    oracle_target_ate,
    flipped_knowledge,
    run_sprinkler_demo,
    sprinkler_config,
    sprinkler_data,
    sprinkler_net,
    sprinkler_probes,
)
from .svgplot import histogram_svg, means_svg, scatter_svg

__version__ = "0.1.0"

# Every public name imported above is exported; submodules are not.
__all__ = ["__version__"] + sorted(
    name
    for name, value in globals().items()
    if not name.startswith("_") and not isinstance(value, _ModuleType)
)
