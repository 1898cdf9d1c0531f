"""The CI bench gate (``benchmarks/check_regression.py``)."""

from __future__ import annotations

import copy
import importlib.util
import json
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[2]
BASELINE = ROOT / "BENCH_micro.json"


@pytest.fixture(scope="module")
def gate():
    spec = importlib.util.spec_from_file_location(
        "check_regression", ROOT / "benchmarks" / "check_regression.py"
    )
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def _run(gate, tmp_path, monkeypatch, current: dict) -> int:
    current_path = tmp_path / "current.json"
    current_path.write_text(json.dumps(current))
    monkeypatch.setattr(
        sys, "argv", ["check_regression.py", str(BASELINE), str(current_path)]
    )
    return gate.main()


@pytest.fixture()
def committed() -> dict:
    return json.loads(BASELINE.read_text())


def test_committed_baseline_passes_against_itself(gate, tmp_path, monkeypatch, committed):
    assert _run(gate, tmp_path, monkeypatch, committed) == 0


def test_compiled_as_fast_as_eager_fails_the_floor(
    gate, tmp_path, monkeypatch, capsys, committed
):
    """A tape that stopped engaging reads ~1.0x compiled vs. eager."""
    current = copy.deepcopy(committed)
    step = current["step_level"]
    step["compiled_tape_us"] = step["eager_fused_us"]
    step["speedup_vs_eager"] = 1.0
    assert _run(gate, tmp_path, monkeypatch, current) == 1
    assert "step_level.speedup_vs_eager fell to 1.00x" in capsys.readouterr().err


@pytest.mark.parametrize(
    "path",
    [("step_level", "speedup_vs_eager"), ("op_level", "huber_speedup")],
)
def test_missing_gated_key_fails_cleanly(
    gate, tmp_path, monkeypatch, capsys, committed, path
):
    current = copy.deepcopy(committed)
    del current[path[0]][path[1]]
    assert _run(gate, tmp_path, monkeypatch, current) == 1
    err = capsys.readouterr().err
    assert f"{'.'.join(path)} missing from the current run" in err
    assert "Traceback" not in err


def test_inference_building_graphs_again_fails_the_floor(
    gate, tmp_path, monkeypatch, capsys, committed
):
    """A zero-shot predict back on the Tensor forward reads ~1.0x."""
    current = copy.deepcopy(committed)
    zero_shot = current["serving_level"]["zero_shot_forward"]
    zero_shot["frozen_us"] = zero_shot["tensor_us"]
    zero_shot["speedup"] = 1.0
    assert _run(gate, tmp_path, monkeypatch, current) == 1
    assert (
        "serving_level.zero_shot_forward.speedup fell to 1.00x"
        in capsys.readouterr().err
    )


@pytest.mark.parametrize(
    "path",
    [
        ("serving_level", "batch_of_8_same_context", "outputs_match"),
        ("serving_level", "zero_shot_forward", "bit_identical"),
    ],
)
def test_false_correctness_flag_fails(
    gate, tmp_path, monkeypatch, capsys, committed, path
):
    current = copy.deepcopy(committed)
    current[path[0]][path[1]][path[2]] = False
    assert _run(gate, tmp_path, monkeypatch, current) == 1
    assert f"{'.'.join(path)} is false" in capsys.readouterr().err
