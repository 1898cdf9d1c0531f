"""Tests of the experiment runners (smoke scale) and reporting."""

from __future__ import annotations

import numpy as np
import pytest

from repro.eval.experiments import (
    PAPER_EXAMPLE_CONTEXTS,
    SMOKE_SCALE,
    code_distance,
    get_scale,
    normalized_context_curves,
    run_fig2,
    run_fig4,
    runtime_variance_summary,
    select_target_contexts,
)
from repro.api.session import Session
from repro.eval.experiments.common import cross_context_methods
from repro.eval import reporting
from repro.eval.protocol import EvaluationRecord


class TestScales:
    def test_get_scale(self):
        assert get_scale("quick").name == "quick"
        assert get_scale("full").max_splits == 200
        assert get_scale("full").max_splits_crossenv == 500
        assert get_scale("full").contexts_per_algorithm == 7

    def test_unknown_scale(self):
        with pytest.raises(ValueError):
            get_scale("galactic")

    def test_bellamy_config_applies_budgets(self):
        config = SMOKE_SCALE.bellamy_config()
        assert config.pretrain_epochs == SMOKE_SCALE.pretrain_epochs
        assert config.finetune_max_epochs == SMOKE_SCALE.finetune_max_epochs


class TestTargetSelection:
    def test_count_respected(self, c3o_dataset):
        targets = select_target_contexts(c3o_dataset, "sgd", 7, seed=0)
        assert len(targets) == 7

    def test_node_type_coverage_first(self, c3o_dataset):
        targets = select_target_contexts(c3o_dataset, "pagerank", 7, seed=0)
        node_types = [t.node_type for t in targets]
        assert len(set(node_types)) == 7  # all distinct while possible

    def test_deterministic(self, c3o_dataset):
        a = select_target_contexts(c3o_dataset, "sgd", 3, seed=1)
        b = select_target_contexts(c3o_dataset, "sgd", 3, seed=1)
        assert [c.context_id for c in a] == [c.context_id for c in b]

    def test_count_capped_at_available(self, c3o_dataset):
        targets = select_target_contexts(c3o_dataset, "sort", 100, seed=0)
        assert len(targets) == 21

    def test_unknown_algorithm(self, c3o_dataset):
        with pytest.raises(ValueError):
            select_target_contexts(c3o_dataset, "wordcount", 2)


class TestPretrainedCache:
    """The experiments' pre-trained base models come from a Session."""

    def test_corpus_policies(self, c3o_dataset):
        config = SMOKE_SCALE.bellamy_config()
        session = Session(c3o_dataset, config=config, seed=0)
        target = c3o_dataset.for_algorithm("grep").contexts()[0]
        full = session.corpus_for("grep", "full", target)
        filtered = session.corpus_for("grep", "filtered", target)
        assert len(filtered) < len(full) < len(c3o_dataset)
        assert all(e.context.context_id != target.context_id for e in full)
        with pytest.raises(ValueError):
            session.corpus_for("grep", "everything", target)

    def test_memoization(self, c3o_dataset):
        config = SMOKE_SCALE.bellamy_config().with_overrides(pretrain_epochs=3)
        session = Session(c3o_dataset, config=config, seed=0)
        target = c3o_dataset.for_algorithm("grep").contexts()[0]
        a = session.base_model("grep", variant="full", target=target)
        b = session.base_model("grep", variant="full", target=target)
        assert a is b
        assert len(session.pretrain_seconds) == 1

    def test_cross_context_methods_pretrain_each_variant_once(self, c3o_dataset):
        scale = SMOKE_SCALE
        config = scale.bellamy_config().with_overrides(pretrain_epochs=3)
        session = Session(c3o_dataset, config=config, seed=0)
        target = c3o_dataset.for_algorithm("grep").contexts()[0]
        first = cross_context_methods(session, target, scale)
        second = cross_context_methods(session, target, scale)
        assert [m.name for m in first] == [
            "NNLS", "Bell", "Bellamy (local)", "Bellamy (filtered)", "Bellamy (full)"
        ]
        assert [m.name for m in first] == [m.name for m in second]
        assert {variant for _, variant, _ in session.pretrain_seconds} == {
            "filtered", "full"
        }


class TestFig2:
    def test_normalized_curves_max_one(self, c3o_dataset):
        curves = normalized_context_curves(c3o_dataset.for_algorithm("grep"))
        for curve in curves.values():
            assert curve.max() == pytest.approx(1.0)
            assert (curve > 0).all()

    def test_summary_quantiles_ordered(self, c3o_dataset):
        summary = runtime_variance_summary(c3o_dataset, "sgd")
        for quantile in summary.quantiles.values():
            assert list(quantile) == sorted(quantile)

    def test_nontrivial_algorithms_have_higher_spread(self, c3o_dataset):
        # The motivation of the paper's Fig. 2: SGD/K-Means runtimes vary more
        # across contexts than Sort/Grep.
        spreads = {
            s.algorithm: s.spread for s in run_fig2(c3o_dataset)
        }
        assert spreads["sgd"] > spreads["sort"]
        assert spreads["kmeans"] > spreads["sort"]

    def test_unknown_algorithm(self, c3o_dataset):
        with pytest.raises(ValueError):
            runtime_variance_summary(c3o_dataset, "wordcount")


class TestFig4:
    def test_paper_contexts_defined(self):
        a, b = PAPER_EXAMPLE_CONTEXTS
        assert a.node_type == "m4.2xlarge" and a.dataset_mb == 19353
        assert b.node_type == "r4.2xlarge" and b.dataset_mb == 14540

    def test_codes_shape_and_distance(self, c3o_dataset):
        visualizations = run_fig4(c3o_dataset, epochs=5, seed=0)
        assert len(visualizations) == 2
        for viz in visualizations:
            assert viz.codes.shape == (4, 4)  # essential properties x code dim
            assert len(viz.property_labels) == 4
        assert code_distance(*visualizations) > 0

    def test_code_distance_requires_matching_shapes(self, c3o_dataset):
        a, b = run_fig4(c3o_dataset, epochs=3, seed=0)
        b.codes = b.codes[:2]
        with pytest.raises(ValueError):
            code_distance(a, b)


def make_records():
    rows = [
        ("NNLS", "grep", 2, "interpolation", 100.0, 90.0, 0, 0, 0.001),
        ("NNLS", "grep", 3, "interpolation", 100.0, 95.0, 0, 0, 0.001),
        ("Bellamy (full)", "grep", 2, "interpolation", 100.0, 99.0, 1, 12, 0.5),
        ("Bellamy (full)", "grep", 2, "extrapolation", 110.0, 100.0, 1, 12, 0.5),
        ("Bellamy (full)", "sgd", 3, "interpolation", 300.0, 250.0, 0, 80, 1.0),
    ]
    return [
        EvaluationRecord(
            method=m,
            algorithm=algo,
            context_id="ctx",
            n_train=n,
            task=task,
            actual_s=actual,
            predicted_s=predicted,
            fit_seconds=fit_s,
            epochs_trained=epochs,
            split_index=split,
        )
        for m, algo, n, task, actual, predicted, split, epochs, fit_s in rows
    ]


class TestReporting:
    def test_fig5_series_structure(self):
        series = reporting.fig5_series(make_records(), "interpolation")
        assert "grep" in series and "Total" in series
        assert series["grep"]["NNLS"][2] == pytest.approx(0.1)

    def test_render_fig5_contains_methods(self):
        text = reporting.render_fig5(make_records(), "interpolation")
        assert "NNLS" in text and "Bellamy (full)" in text

    def test_mae_bars(self):
        bars = reporting.mae_bars(make_records())
        assert bars["grep"]["NNLS"] == pytest.approx(7.5)
        assert bars["sgd"]["Bellamy (full)"] == pytest.approx(50.0)

    def test_render_mae_bars(self):
        text = reporting.render_mae_bars(make_records())
        assert "algorithm" in text and "grep" in text

    def test_fig7_ecdfs_only_bellamy(self):
        curves = reporting.fig7_ecdfs(make_records())
        assert all("Bellamy" in m for per in curves.values() for m in per)

    def test_render_fig7(self):
        text = reporting.render_fig7(make_records())
        assert "p50" in text

    def test_training_time_table(self):
        table = reporting.training_time_table(make_records())
        assert table["Bellamy (full)"] == pytest.approx(0.75)

    def test_render_training_time(self):
        assert "time-to-fit" in reporting.render_training_time(make_records())
