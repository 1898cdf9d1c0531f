"""The HTTP load harness (``benchmarks/load_test.py``) against a live server."""

from __future__ import annotations

import importlib.util
import sys
from pathlib import Path

import numpy as np
import pytest

from repro.api import Session
from repro.core.config import BellamyConfig
from repro.serve import PredictionServer
from repro.serve.schemas import predict_payload

ROOT = Path(__file__).resolve().parents[2]


@pytest.fixture(scope="module")
def load_test():
    spec = importlib.util.spec_from_file_location(
        "load_test", ROOT / "benchmarks" / "load_test.py"
    )
    module = importlib.util.module_from_spec(spec)
    sys.modules[spec.name] = module  # dataclasses resolve their module by name
    try:
        spec.loader.exec_module(module)
        yield module
    finally:
        sys.modules.pop(spec.name, None)


@pytest.fixture(scope="module")
def served(c3o_dataset):
    """A warm session plus predict payloads and their serial answers."""
    session = Session(
        c3o_dataset, config=BellamyConfig(seed=0).with_overrides(pretrain_epochs=20)
    )
    contexts = c3o_dataset.for_algorithm("sgd").contexts()[:4]
    combos = [(contexts[i % 4], [2 + i, 8]) for i in range(6)]
    expected = [session.predict(ctx, machines) for ctx, machines in combos]
    payloads = [predict_payload(ctx, machines) for ctx, machines in combos]
    return session, payloads, expected


def _assert_bit_identical(result, expected):
    for i, body in enumerate(result.bodies):
        got = np.asarray(body["predictions_s"], dtype=np.float64)
        np.testing.assert_array_equal(got, expected[i % len(expected)])


def test_keepalive_mode_reuses_one_connection_per_client(load_test, served):
    session, payloads, expected = served
    with PredictionServer(session, port=0, cache=False) as server:
        result = load_test.run_keepalive_test(
            server.url, payloads, n_requests=60, clients=3, capture=True, timeout_s=60.0
        )
    assert (result.completed, result.errors) == (60, 0)
    assert result.connections == 3
    _assert_bit_identical(result, expected)


def test_default_mode_opens_a_connection_per_request(load_test, served):
    session, payloads, expected = served
    with PredictionServer(session, port=0, cache=False) as server:
        result = load_test.run_load_test(
            server.url, payloads, n_requests=12, rps=500.0, max_open=4,
            capture=True, timeout_s=60.0,
        )
    assert (result.completed, result.errors) == (12, 0)
    assert result.connections == 12
    _assert_bit_identical(result, expected)
