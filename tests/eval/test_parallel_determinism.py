"""Determinism of the parallel experiment executor.

The guarantee: for every experiment runner, a process-pool run produces the
exact same records — methods, targets, predictions, seeds-derived splits,
epochs — as the serial run, because every work unit derives its randomness
from per-unit seeds. Only wall-clock diagnostics may differ.
"""

from __future__ import annotations

import pytest

from repro.data import generate_bell_dataset, generate_c3o_dataset
from repro.eval.experiments import (
    run_ablation_experiment,
    run_cross_context_experiment,
    run_cross_environment_experiment,
)
from repro.eval.experiments.common import SMOKE_SCALE
from repro.runtime import JOBS_ENV, executor_map, jobs_from_env, resolve_jobs


def record_key(record):
    """Everything except wall-clock diagnostics (fit_seconds)."""
    return (
        record.method,
        record.algorithm,
        record.context_id,
        record.n_train,
        record.task,
        record.actual_s,
        record.predicted_s,
        record.epochs_trained,
        record.split_index,
    )


@pytest.fixture(scope="module")
def c3o():
    return generate_c3o_dataset(seed=0)


@pytest.fixture(scope="module")
def bell():
    return generate_bell_dataset(seed=0)


class TestJobsKnob:
    def test_env_default_is_serial(self, monkeypatch):
        monkeypatch.delenv(JOBS_ENV, raising=False)
        assert jobs_from_env() is None
        assert resolve_jobs(None, n_tasks=10) == 1

    def test_env_sets_job_count(self, monkeypatch):
        monkeypatch.setenv(JOBS_ENV, "3")
        assert jobs_from_env() == 3
        assert resolve_jobs(None, n_tasks=10) == 3

    def test_env_garbage_is_ignored(self, monkeypatch):
        monkeypatch.setenv(JOBS_ENV, "many")
        assert jobs_from_env() is None

    def test_explicit_argument_beats_env(self, monkeypatch):
        monkeypatch.setenv(JOBS_ENV, "4")
        assert resolve_jobs(2, n_tasks=10) == 2
        assert resolve_jobs(0, n_tasks=10) == 1  # explicit serial wins

    def test_workers_never_exceed_tasks(self, monkeypatch):
        monkeypatch.delenv(JOBS_ENV, raising=False)
        assert resolve_jobs(8, n_tasks=3) == 3

    def test_executor_map_orders_results(self):
        assert executor_map(_square, [3, 1, 2], jobs=2) == [9, 1, 4]


def _square(value):
    return value * value


class TestCrossContextDeterminism:
    def test_serial_equals_two_workers(self, c3o):
        serial = run_cross_context_experiment(
            c3o, SMOKE_SCALE, seed=0, algorithms=("grep",), n_workers=0
        )
        pooled = run_cross_context_experiment(
            c3o, SMOKE_SCALE, seed=0, algorithms=("grep",), n_workers=2
        )
        assert serial.records, "experiment produced no records"
        assert [record_key(r) for r in serial.records] == [
            record_key(r) for r in pooled.records
        ]


class TestCrossEnvironmentDeterminism:
    def test_serial_equals_two_workers(self, c3o, bell):
        serial = run_cross_environment_experiment(
            c3o, bell, SMOKE_SCALE, seed=0, algorithms=("grep",), n_workers=0
        )
        pooled = run_cross_environment_experiment(
            c3o, bell, SMOKE_SCALE, seed=0, algorithms=("grep",), n_workers=2
        )
        assert serial.records, "experiment produced no records"
        assert [record_key(r) for r in serial.records] == [
            record_key(r) for r in pooled.records
        ]
        assert set(serial.pretrain_seconds) == set(pooled.pretrain_seconds)


class TestCrossAlgorithmDeterminism:
    def test_serial_equals_two_workers(self, c3o):
        from repro.core.cross_algorithm import run_cross_algorithm_experiment

        serial = run_cross_algorithm_experiment(
            c3o, SMOKE_SCALE, seed=0, algorithms=("grep",), n_workers=0
        )
        pooled = run_cross_algorithm_experiment(
            c3o, SMOKE_SCALE, seed=0, algorithms=("grep",), n_workers=2
        )
        assert serial.records, "experiment produced no records"
        assert [record_key(r) for r in serial.records] == [
            record_key(r) for r in pooled.records
        ]


class TestAblationDeterminism:
    def test_serial_equals_two_workers(self, c3o):
        kwargs = dict(
            scale=SMOKE_SCALE,
            seed=0,
            algorithms=("grep",),
            variants=("bellamy", "no-optional"),
        )
        serial = run_ablation_experiment(c3o, n_workers=0, **kwargs)
        pooled = run_ablation_experiment(c3o, n_workers=2, **kwargs)
        assert serial.records, "experiment produced no records"
        assert [record_key(r) for r in serial.records] == [
            record_key(r) for r in pooled.records
        ]
