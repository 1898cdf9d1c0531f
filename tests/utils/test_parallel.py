"""Tests for parallel mapping (``repro.runtime.executor_map``) and
experiment determinism across worker counts."""

from __future__ import annotations

import os

import pytest

from repro.runtime import executor_map, resolve_workers


def _square(x: int) -> int:
    return x * x


class TestResolveWorkers:
    def test_none_is_serial(self):
        assert resolve_workers(None, 10) == 1

    def test_zero_is_serial(self):
        assert resolve_workers(0, 10) == 1

    def test_negative_means_all_cores(self):
        assert resolve_workers(-1, 1000) == (os.cpu_count() or 1)

    def test_capped_by_tasks(self):
        assert resolve_workers(16, 3) == 3

    def test_no_tasks(self):
        assert resolve_workers(8, 0) == 1


class TestParallelMap:
    @pytest.fixture(autouse=True)
    def _no_env_jobs(self, monkeypatch):
        monkeypatch.delenv("REPRO_JOBS", raising=False)

    def test_serial_path(self):
        assert executor_map(_square, [1, 2, 3]) == [1, 4, 9]

    def test_empty(self):
        assert executor_map(_square, []) == []
        assert executor_map(_square, [], jobs=2) == []

    def test_order_preserved_across_processes(self):
        items = list(range(20))
        assert executor_map(_square, items, jobs=4) == [x * x for x in items]

    def test_serial_equals_parallel(self):
        items = list(range(12))
        assert executor_map(_square, items, jobs=1) == executor_map(
            _square, items, jobs=3
        )


class TestWorkerResolutionOrder:
    """``executor_map`` sizes its pool like every other runtime entry
    point: an explicit ``jobs`` (0 included) beats ``REPRO_JOBS``, ``None``
    falls back to the environment, and the default is serial."""

    @pytest.fixture
    def built(self, monkeypatch):
        """The ``(kind, workers)`` of every executor ``executor_map`` builds."""
        from repro.runtime import executor as executor_module

        built = []
        real_get_executor = executor_module.get_executor

        def spy(jobs, n_tasks, kind):
            executor = real_get_executor(jobs, n_tasks, kind=kind)
            built.append((executor.kind, executor.workers))
            return executor

        monkeypatch.setattr(executor_module, "get_executor", spy)
        return built

    def test_none_falls_back_to_repro_jobs(self, monkeypatch, built):
        monkeypatch.setenv("REPRO_JOBS", "3")
        assert executor_map(_square, [1, 2, 3, 4], kind="thread") == [1, 4, 9, 16]
        assert built == [("thread", 3)]

    def test_explicit_argument_beats_environment(self, monkeypatch, built):
        monkeypatch.setenv("REPRO_JOBS", "7")
        executor_map(_square, [1, 2, 3, 4], jobs=2, kind="thread")
        assert built == [("thread", 2)]
        # Explicit 0 (serial) also wins over the environment.
        executor_map(_square, [1, 2, 3, 4], jobs=0, kind="thread")
        assert built[-1] == ("serial", 1)

    def test_default_without_environment_is_serial(self, monkeypatch, built):
        monkeypatch.delenv("REPRO_JOBS", raising=False)
        executor_map(_square, [1, 2, 3, 4], kind="thread")
        assert built == [("serial", 1)]

    def test_repro_jobs_changes_real_execution(self, monkeypatch):
        """End to end (no spy): REPRO_JOBS=2 actually runs processes and
        returns the same ordered results as serial."""
        monkeypatch.setenv("REPRO_JOBS", "2")
        assert executor_map(_square, list(range(8))) == [x * x for x in range(8)]


class TestExperimentDeterminismAcrossWorkers:
    @pytest.mark.slow
    def test_cross_context_records_identical(self):
        """The cross-context study is bit-identical for any worker count."""
        from repro.data.c3o import generate_c3o_contexts
        from repro.data.dataset import ExecutionDataset
        from repro.eval.experiments.common import SMOKE_SCALE
        from repro.eval.experiments.cross_context import (
            run_cross_context_experiment,
        )
        from repro.simulator.traces import TraceGenerator

        contexts = [
            c for c in generate_c3o_contexts(seed=5) if c.algorithm in ("grep", "sgd")
        ]
        generator = TraceGenerator(seed=5)
        dataset = ExecutionDataset()
        per_algo: dict = {}
        for context in contexts:
            kept = per_algo.setdefault(context.algorithm, [])
            if len(kept) < 3:
                kept.append(context)
                dataset.extend(
                    generator.executions_for_context(context, (2, 4, 6, 8), 2)
                )

        serial = run_cross_context_experiment(dataset, SMOKE_SCALE, seed=0)
        parallel = run_cross_context_experiment(
            dataset, SMOKE_SCALE, seed=0, n_workers=2
        )
        assert len(serial.records) == len(parallel.records)
        for a, b in zip(serial.records, parallel.records):
            assert a.method == b.method
            assert a.context_id == b.context_id
            assert a.n_train == b.n_train
            assert a.task == b.task
            assert a.predicted_s == pytest.approx(b.predicted_s, rel=1e-12)
