"""Ad hoc cross-context learning study (paper §IV-C1; Figs. 5, 6, 7 and the
training-time numbers).

Runs the evaluation protocol on the C3O data: for each algorithm, a set of
target contexts is chosen; for each target, NNLS, Bell, and the three Bellamy
variants (local / filtered / full) are fitted on sub-sampled splits and
scored on interpolation and extrapolation test points. One run produces the
records behind all three figures plus the time-to-fit statistics.
"""

from __future__ import annotations

import time
from dataclasses import dataclass, field
from typing import Dict, List, Optional, Sequence, Tuple

from repro.api.session import Session
from repro.core.config import BellamyConfig
from repro.data.dataset import ExecutionDataset
from repro.data.schema import JobContext
from repro.eval.experiments.common import (
    ExperimentScale,
    QUICK_SCALE,
    cross_context_methods,
    select_target_contexts,
)
from repro.eval.protocol import (
    EvaluationRecord,
    ProtocolConfig,
    evaluate_context,
)
from repro.runtime import executor_map
from repro.utils.rng import derive_seed


@dataclass
class CrossContextResult:
    """All records of one cross-context run, plus pre-training diagnostics."""

    records: List[EvaluationRecord] = field(default_factory=list)
    pretrain_seconds: Dict[str, float] = field(default_factory=dict)
    wall_seconds: float = 0.0
    scale_name: str = ""

    def methods(self) -> List[str]:
        """Distinct method names, stable order."""
        seen: Dict[str, None] = {}
        for record in self.records:
            seen.setdefault(record.method, None)
        return list(seen)

    def algorithms(self) -> List[str]:
        """Distinct algorithms, stable order."""
        seen: Dict[str, None] = {}
        for record in self.records:
            seen.setdefault(record.algorithm, None)
        return list(seen)


#: One parallel work unit: everything a worker needs to evaluate one target.
_TargetTask = Tuple[ExecutionDataset, JobContext, ExperimentScale, int,
                    Optional[BellamyConfig]]


def _evaluate_target(
    task: _TargetTask,
) -> Tuple[List[EvaluationRecord], Dict[str, List[float]]]:
    """Evaluate all methods on one target context (process-pool safe).

    Module-level (picklable) and self-contained: the worker builds its own
    pre-training :class:`Session`. All randomness derives from per-target
    seeds, so results are bit-identical regardless of which process runs
    the task.
    """
    dataset, target, scale, seed, base_config = task
    config = scale.bellamy_config(base_config)
    session = Session(dataset, config=config, seed=seed)
    context_data = dataset.for_context(target.context_id)
    methods = cross_context_methods(session, target, scale, seed=seed)
    protocol = ProtocolConfig(
        n_train_values=scale.n_train_values,
        max_splits=scale.max_splits,
        seed=derive_seed(seed, "protocol", target.algorithm, target.context_id),
    )
    records = evaluate_context(methods, context_data, protocol)
    by_variant: Dict[str, List[float]] = {}
    for (_algo, variant, _ctx), seconds in session.pretrain_seconds.items():
        by_variant.setdefault(variant, []).append(seconds)
    return records, by_variant


def run_cross_context_experiment(
    dataset: ExecutionDataset,
    scale: ExperimentScale = QUICK_SCALE,
    seed: int = 0,
    base_config: Optional[BellamyConfig] = None,
    algorithms: Optional[Sequence[str]] = None,
    n_workers: Optional[int] = None,
) -> CrossContextResult:
    """Run the full cross-context study.

    Parameters
    ----------
    dataset:
        The (synthetic) C3O dataset.
    scale:
        Experiment sizes (splits, epochs, contexts per algorithm).
    seed:
        Root seed for context selection and split sampling.
    base_config:
        Optional architecture overrides; training budgets come from ``scale``.
    algorithms:
        Optional subset of algorithms (defaults to the scale's list).
    n_workers:
        Process-pool size for evaluating target contexts in parallel
        (0 = serial, negative = all cores, ``None`` = the ``REPRO_JOBS``
        environment default). Results are identical for every worker
        count — randomness is seed-derived per target.
    """
    started = time.perf_counter()
    tasks: List[_TargetTask] = []
    for algorithm in algorithms or scale.algorithms:
        targets = select_target_contexts(
            dataset, algorithm, scale.contexts_per_algorithm, seed=seed
        )
        tasks.extend((dataset, target, scale, seed, base_config) for target in targets)

    outcomes = executor_map(_evaluate_target, tasks, jobs=n_workers)

    result = CrossContextResult(scale_name=scale.name)
    by_variant: Dict[str, List[float]] = {}
    for records, variant_seconds in outcomes:
        result.records.extend(records)
        for variant, values in variant_seconds.items():
            by_variant.setdefault(variant, []).extend(values)
    # Mean pre-training time per corpus variant (not part of time-to-fit).
    result.pretrain_seconds = {
        variant: sum(values) / len(values) for variant, values in by_variant.items()
    }
    result.wall_seconds = time.perf_counter() - started
    return result
