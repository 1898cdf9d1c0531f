"""Experiment runners, one per paper figure/table (see DESIGN.md index)."""

from repro.eval.experiments.common import (
    FULL_SCALE,
    QUICK_SCALE,
    SCALES,
    SMOKE_SCALE,
    ExperimentScale,
    cross_context_methods,
    get_scale,
    select_target_contexts,
)
from repro.eval.experiments.ablations import (
    ABLATION_VARIANTS,
    AblationResult,
    AblationVariant,
    get_variant,
    neutralize_context,
    neutralize_dataset,
    run_ablation_experiment,
)
from repro.eval.experiments.cross_context import (
    CrossContextResult,
    run_cross_context_experiment,
)
from repro.eval.experiments.cross_environment import (
    CROSS_ENV_STRATEGIES,
    CrossEnvironmentResult,
    cross_environment_methods,
    run_cross_environment_experiment,
)
from repro.eval.experiments.online_drift import (
    OnlineDriftRecord,
    OnlineDriftResult,
    run_online_drift_experiment,
)
from repro.eval.experiments.fig2_variance import (
    VarianceSummary,
    normalized_context_curves,
    run_fig2,
    runtime_variance_summary,
)
from repro.eval.experiments.fig4_codes import (
    PAPER_EXAMPLE_CONTEXTS,
    CodeVisualization,
    code_distance,
    context_codes,
    run_fig4,
)

__all__ = [
    "ABLATION_VARIANTS",
    "AblationResult",
    "AblationVariant",
    "CROSS_ENV_STRATEGIES",
    "CodeVisualization",
    "CrossContextResult",
    "CrossEnvironmentResult",
    "ExperimentScale",
    "FULL_SCALE",
    "OnlineDriftRecord",
    "OnlineDriftResult",
    "PAPER_EXAMPLE_CONTEXTS",
    "QUICK_SCALE",
    "SCALES",
    "SMOKE_SCALE",
    "VarianceSummary",
    "code_distance",
    "context_codes",
    "cross_context_methods",
    "cross_environment_methods",
    "get_scale",
    "get_variant",
    "neutralize_context",
    "neutralize_dataset",
    "normalized_context_curves",
    "run_ablation_experiment",
    "run_cross_context_experiment",
    "run_cross_environment_experiment",
    "run_fig2",
    "run_online_drift_experiment",
    "run_fig4",
    "runtime_variance_summary",
    "select_target_contexts",
]
