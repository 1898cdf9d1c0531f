"""Evaluation harness: metrics, protocol, experiment runners, reporting."""

from repro.eval import experiments, reporting
from repro.eval.records_io import load_records, save_records
from repro.eval.metrics import (
    absolute_errors,
    mae,
    mape,
    mre,
    r_squared,
    relative_errors,
    rmse,
    smape,
    summary,
)
from repro.eval.protocol import (
    EvaluationRecord,
    MethodSpec,
    ProtocolConfig,
    aggregate,
    ecdf,
    epochs_distribution,
    evaluate_context,
    evaluate_method_on_split,
    mean_absolute_error,
    mean_fit_seconds,
    mean_relative_error,
    unique_fits,
)

__all__ = [
    "EvaluationRecord",
    "MethodSpec",
    "ProtocolConfig",
    "absolute_errors",
    "aggregate",
    "ecdf",
    "epochs_distribution",
    "evaluate_context",
    "evaluate_method_on_split",
    "experiments",
    "load_records",
    "mae",
    "mape",
    "mean_absolute_error",
    "mean_fit_seconds",
    "mean_relative_error",
    "mre",
    "r_squared",
    "relative_errors",
    "reporting",
    "rmse",
    "save_records",
    "smape",
    "summary",
    "unique_fits",
]
