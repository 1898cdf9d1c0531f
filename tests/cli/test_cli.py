"""Tests of the command-line interface (repro.cli)."""

from __future__ import annotations

import numpy as np
import pytest

from repro.cli import build_parser, main
from repro.core.persistence import ModelStore
from repro.core.pretraining import pretrain
from repro.data.c3o import generate_c3o_contexts
from repro.data.dataset import ExecutionDataset
from repro.data.io import write_csv
from repro.simulator.traces import TraceGenerator

CONTEXT_FLAGS = [
    "--algorithm", "sgd",
    "--node-type", "m4.2xlarge",
    "--dataset-mb", "19353",
    "--characteristics", "dense-features",
    "--param", "max_iterations=50",
    "--param", "step_size=0.1",
]


@pytest.fixture(scope="module")
def tiny_traces_csv(tmp_path_factory):
    """A small SGD trace CSV for offline pretraining."""
    contexts = [c for c in generate_c3o_contexts(seed=6) if c.algorithm == "sgd"][:3]
    generator = TraceGenerator(seed=6)
    dataset = ExecutionDataset()
    for context in contexts:
        dataset.extend(generator.executions_for_context(context, (2, 4, 6, 8), 2))
    path = tmp_path_factory.mktemp("traces") / "sgd.csv"
    write_csv(path, dataset)
    return path


@pytest.fixture(scope="module")
def store_with_model(tmp_path_factory, tiny_traces_csv):
    """A model store holding one quickly pre-trained SGD model."""
    store_dir = tmp_path_factory.mktemp("store")
    rc = main(
        [
            "pretrain",
            "--traces", str(tiny_traces_csv),
            "--algorithm", "sgd",
            "--epochs", "15",
            "--store", str(store_dir),
            "--name", "sgd-quick",
        ]
    )
    assert rc == 0
    return store_dir


class TestParser:
    def test_requires_subcommand(self):
        with pytest.raises(SystemExit):
            build_parser().parse_args([])

    def test_dataset_defaults(self):
        args = build_parser().parse_args(["dataset"])
        assert args.which == "c3o" and args.seed == 0

    def test_experiment_choices(self):
        with pytest.raises(SystemExit):
            build_parser().parse_args(["experiment", "bogus"])

    def test_select_candidate_defaults(self):
        args = build_parser().parse_args(
            ["select", *CONTEXT_FLAGS, "--store", "s", "--name", "n", "--target", "100"]
        )
        assert args.candidates == [2, 4, 6, 8, 10, 12]


class TestDatasetCommand:
    def test_summary_only(self, capsys):
        assert main(["dataset", "--which", "bell"]) == 0
        out = capsys.readouterr().out
        assert "executions" in out

    def test_csv_export_roundtrip(self, tmp_path, capsys):
        out_path = tmp_path / "bell.csv"
        assert main(["dataset", "--which", "bell", "--out", str(out_path)]) == 0
        from repro.data.io import read_csv

        dataset = read_csv(out_path)
        assert len(dataset) == 315  # 3 contexts x 15 scale-outs x 7 repeats


class TestPretrainPredictSelect:
    def test_pretrain_saves_model(self, store_with_model):
        store = ModelStore(store_with_model)
        # The named model plus the session's provenance-keyed cache copy.
        assert "sgd-quick" in store.names()
        assert store.metadata("sgd-quick")["algorithm"] == "sgd"

    def test_predict_prints_table(self, store_with_model, capsys):
        rc = main(
            [
                "predict", *CONTEXT_FLAGS,
                "--machines", "2", "6",
                "--store", str(store_with_model),
                "--name", "sgd-quick",
            ]
        )
        assert rc == 0
        out = capsys.readouterr().out
        assert "predicted runtime" in out

    def test_select_unreachable_target_fails(self, store_with_model, capsys):
        rc = main(
            [
                "select", *CONTEXT_FLAGS,
                "--store", str(store_with_model),
                "--name", "sgd-quick",
                "--target", "0.001",
            ]
        )
        assert rc == 1
        assert "no candidate" in capsys.readouterr().out

    def test_select_generous_target_recommends(self, store_with_model, capsys):
        rc = main(
            [
                "select", *CONTEXT_FLAGS,
                "--store", str(store_with_model),
                "--name", "sgd-quick",
                "--target", "1e9",
            ]
        )
        assert rc == 0
        assert "recommendation:" in capsys.readouterr().out

    def test_min_cost_requires_price(self, store_with_model, capsys):
        rc = main(
            [
                "select", *CONTEXT_FLAGS,
                "--store", str(store_with_model),
                "--name", "sgd-quick",
                "--target", "1e9",
                "--objective", "min_cost",
            ]
        )
        assert rc == 2  # ValueError surfaces as exit code 2
        assert "error:" in capsys.readouterr().err

    def test_missing_model_is_reported(self, tmp_path, capsys):
        rc = main(
            [
                "predict", *CONTEXT_FLAGS,
                "--machines", "2",
                "--store", str(tmp_path),
                "--name", "missing",
            ]
        )
        assert rc == 2
        assert "error:" in capsys.readouterr().err

    def test_malformed_param_is_reported(self, store_with_model, capsys):
        rc = main(
            [
                "predict",
                "--algorithm", "sgd",
                "--node-type", "m4.2xlarge",
                "--dataset-mb", "19353",
                "--param", "not-a-pair",
                "--machines", "2",
                "--store", str(store_with_model),
                "--name", "sgd-quick",
            ]
        )
        assert rc == 2

    def test_pretrain_graph_model_type(self, tmp_path, tiny_traces_csv):
        rc = main(
            [
                "pretrain",
                "--traces", str(tiny_traces_csv),
                "--algorithm", "sgd",
                "--epochs", "10",
                "--model-type", "graph",
                "--store", str(tmp_path),
                "--name", "sgd-graph",
            ]
        )
        assert rc == 0
        from repro.core.graph_model import GraphBellamyModel

        model = ModelStore(tmp_path).load("sgd-graph")
        assert isinstance(model, GraphBellamyModel)

    def test_gnn_requires_algorithm(self, tmp_path, tiny_traces_csv, capsys):
        rc = main(
            [
                "pretrain",
                "--traces", str(tiny_traces_csv),
                "--epochs", "5",
                "--model-type", "gnn",
                "--store", str(tmp_path),
                "--name", "oops",
            ]
        )
        assert rc == 2


class TestModelsCommand:
    def test_lists_estimators_and_store(self, store_with_model, capsys):
        rc = main(["models", "--store", str(store_with_model)])
        assert rc == 0
        out = capsys.readouterr().out
        assert "bellamy-ft" in out
        assert "sgd-quick" in out

    def test_gc_sweeps_orphaned_temp_files(self, store_with_model, capsys):
        import os
        import time

        from repro.runtime import ArtifactStore

        shard = ArtifactStore(store_with_model).shard_dir("sgd-quick")
        orphan = shard / "sgd-quick.npz.1.0.tmp"
        orphan.write_text("partial")
        ancient = time.time() - 7200
        os.utime(orphan, (ancient, ancient))
        rc = main(["models", "--store", str(store_with_model), "--gc"])
        assert rc == 0
        out = capsys.readouterr().out
        assert "swept 1 orphaned temp file(s)" in out
        assert "sgd-quick" in out
        assert not orphan.exists()

    def test_gc_without_store_is_an_error(self, capsys):
        rc = main(["models", "--gc"])
        assert rc == 2
        assert "error:" in capsys.readouterr().err
