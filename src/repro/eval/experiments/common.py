"""Shared experiment infrastructure: scales, target selection, method sets.

Every experiment runner accepts an :class:`ExperimentScale`. ``FULL`` mirrors
the paper's counts (200/500 splits, 2500 epochs, 7 contexts per algorithm);
``QUICK`` shrinks them so the whole benchmark suite completes in minutes on a
laptop while preserving the qualitative shapes. EXPERIMENTS.md records which
scale produced the reported numbers.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, List, Optional, Tuple

from repro.api.session import Session
from repro.core.config import BellamyConfig
from repro.data.dataset import ExecutionDataset
from repro.data.schema import JobContext
from repro.eval.protocol import MethodSpec
from repro.utils.rng import derive_seed, new_rng


@dataclass(frozen=True)
class ExperimentScale:
    """Size knobs of an experiment run."""

    name: str
    pretrain_epochs: int
    finetune_max_epochs: int
    finetune_patience: int
    #: Unique splits per (context, n_train) in the cross-context study.
    max_splits: int
    #: Unique splits in the cross-environment study (paper: 500).
    max_splits_crossenv: int
    #: Target contexts per algorithm (paper: 7).
    contexts_per_algorithm: int
    #: Algorithms included.
    algorithms: Tuple[str, ...]
    #: Training-set sizes.
    n_train_values: Tuple[int, ...]

    def bellamy_config(self, base: Optional[BellamyConfig] = None) -> BellamyConfig:
        """Bellamy configuration with this scale's budget overrides."""
        base = base or BellamyConfig()
        return base.with_overrides(
            pretrain_epochs=self.pretrain_epochs,
            finetune_max_epochs=self.finetune_max_epochs,
            finetune_patience=self.finetune_patience,
        )


#: Paper-scale experiment sizes.
FULL_SCALE = ExperimentScale(
    name="full",
    pretrain_epochs=2500,
    finetune_max_epochs=2500,
    finetune_patience=1000,
    max_splits=200,
    max_splits_crossenv=500,
    contexts_per_algorithm=7,
    algorithms=("grep", "sort", "pagerank", "sgd", "kmeans"),
    n_train_values=(0, 1, 2, 3, 4, 5, 6),
)

#: Laptop-scale sizes used by the benchmark harness.
QUICK_SCALE = ExperimentScale(
    name="quick",
    pretrain_epochs=800,
    finetune_max_epochs=600,
    finetune_patience=250,
    max_splits=6,
    max_splits_crossenv=6,
    contexts_per_algorithm=2,
    algorithms=("grep", "sort", "pagerank", "sgd", "kmeans"),
    n_train_values=(0, 1, 2, 3, 4, 6),
)

#: Minimal sizes for integration tests.
SMOKE_SCALE = ExperimentScale(
    name="smoke",
    pretrain_epochs=40,
    finetune_max_epochs=120,
    finetune_patience=80,
    max_splits=2,
    max_splits_crossenv=2,
    contexts_per_algorithm=1,
    algorithms=("grep", "sgd"),
    n_train_values=(0, 2, 3),
)

SCALES: Dict[str, ExperimentScale] = {
    scale.name: scale for scale in (FULL_SCALE, QUICK_SCALE, SMOKE_SCALE)
}


def get_scale(name: str) -> ExperimentScale:
    """Look up a scale by name."""
    try:
        return SCALES[name]
    except KeyError:
        raise ValueError(f"unknown scale {name!r}; available: {sorted(SCALES)}") from None


def select_target_contexts(
    dataset: ExecutionDataset,
    algorithm: str,
    count: int,
    seed: int = 0,
) -> List[JobContext]:
    """Choose target contexts for one algorithm.

    Mirrors the paper's sampling: random contexts, "assuring that each node
    type is present at least once in one of the contexts" — achieved by
    first picking contexts with distinct node types, then filling randomly.
    """
    contexts = dataset.for_algorithm(algorithm).contexts()
    if not contexts:
        raise ValueError(f"no contexts for algorithm {algorithm!r}")
    count = min(count, len(contexts))
    rng = new_rng(derive_seed(seed, "target-contexts", algorithm))
    shuffled = list(contexts)
    rng.shuffle(shuffled)
    chosen: List[JobContext] = []
    seen_nodes: set = set()
    for context in shuffled:  # distinct node types first
        if context.node_type not in seen_nodes:
            chosen.append(context)
            seen_nodes.add(context.node_type)
        if len(chosen) == count:
            return chosen
    for context in shuffled:  # fill up with the rest
        if context not in chosen:
            chosen.append(context)
        if len(chosen) == count:
            break
    return chosen


def cross_context_methods(
    session: Session,
    target: JobContext,
    scale: ExperimentScale,
    seed: int = 0,
) -> List[MethodSpec]:
    """The five methods of the cross-context study (paper Fig. 5/6/7).

    All methods are resolved through the estimator registry
    (:mod:`repro.api`); pre-trained base models come from ``session`` and
    are resolved eagerly (outside the split loop) so their cost is not
    attributed to time-to-fit — matching the paper, where time-to-fit
    covers pipeline preparation, model loading, and fine-tuning. The
    corpus policies follow the paper: *full* uses every execution of the
    algorithm except the target context's own, *filtered* additionally
    keeps only substantially different contexts.
    """
    config = scale.bellamy_config()
    filtered_base = session.base_model(target.algorithm, variant="filtered", target=target)
    full_base = session.base_model(target.algorithm, variant="full", target=target)

    specs = [
        MethodSpec.from_registry("nnls", name="NNLS"),
        MethodSpec.from_registry("bell", name="Bell"),
        MethodSpec.from_registry(
            "bellamy-local",
            name="Bellamy (local)",
            config=config,
            max_epochs=scale.finetune_max_epochs,
            seed=seed,
            seed_salt="local",
            label="Bellamy (local)",
        ),
    ]
    for label, base in (
        ("Bellamy (filtered)", filtered_base),
        ("Bellamy (full)", full_base),
    ):
        specs.append(
            MethodSpec.from_registry(
                "bellamy-ft",
                name=label,
                base_model=base,
                max_epochs=scale.finetune_max_epochs,
                label=label,
            )
        )
    return specs
