"""The process that runs ``refresh_sweep``: the program in-process, no server.

Usage::

    PYTHONPATH=src python perfbench/sweep_worker.py CONFIG.json

Set-up (import, trace generation, pre-training, first store commit, filling
the observation buffer) ends with a ``READY`` line. A ``sweep COUNT`` line
on stdin then runs that many forced sweeps -- the path of ``repro-bellamy
refresh --force`` --, checks every group's swept weights against its own
serial fine-tune and prints ``RESULT {json}``. The count is fixed rather
than the time: the process grows a little with every sweep, so a time
budget would make a faster program report a higher peak RSS.
``quit`` ends the process.
"""

from __future__ import annotations

import json
import sys
import time

import numpy as np

from loadgen import metric_sum, parse_metrics


def main() -> int:
    config = json.loads(open(sys.argv[1], encoding="utf-8").read())
    recorder = None
    if config["spans"]:
        from tracing import Recorder, instrument

        recorder = Recorder()
        instrument(recorder)

    from repro.api import Session
    from repro.core.config import BellamyConfig
    from repro.core.finetuning import finetune
    from repro.data.c3o import generate_c3o_dataset
    from repro.metrics import MetricsRegistry
    from repro.online import OnlineSession, RefreshPolicy
    from repro.online.observations import Observation
    from repro.serve.schemas import context_from_payload

    corpus = generate_c3o_dataset(seed=0)
    session = Session(
        corpus,
        config=BellamyConfig(seed=0).with_overrides(pretrain_epochs=config["epochs"]),
        store=config["store"],
        seed=0,
    )
    registry = MetricsRegistry()
    session.store.rebind_metrics(registry)
    session.base_model("sgd")
    online = OnlineSession(session, RefreshPolicy(max_epochs=config["refresh_epochs"]))
    groups = {}
    for item in config["observations"]:
        context = context_from_payload(item["context"])
        groups[context.context_id] = context
        online.buffer.add(Observation(context, item["machines"], item["runtime_s"]))
    print("READY", flush=True)

    for line in sys.stdin:
        command = line.split()
        if command[0] == "quit":
            break
        count = int(command[1])
        print("RESULT " + json.dumps(_sweeps(online, groups, count, registry, recorder, finetune,
                                             config["refresh_epochs"])), flush=True)
        if recorder is not None:
            recorder.dump(config["spans"])
    return 0


def _sweeps(online, groups, count, registry, recorder, finetune, refresh_epochs):
    """Timed forced sweeps, each from the same state; then the weight check."""
    session = online.session
    sweeps, windows, traced = [], [], []
    commits_before = metric_sum(parse_metrics(registry.render()), "repro_store_ops_total", op="commit")
    for index in range(count):
        if recorder is not None:
            # Alternate untraced and traced sweeps: their ratio is the
            # tracing overhead, and the traced ones give the layer spans.
            recorder.enabled = index % 2 == 1
        started = time.perf_counter()
        reports = online.scan(refresh=True, force=True)
        ended = time.perf_counter()
        refreshed = {r.group: r.refreshed.model_name for r in reports if r.refreshed is not None}
        sweeps.append({"seconds": ended - started, "refreshed": len(refreshed)})
        if recorder is not None:
            traced.append(recorder.enabled)
            if recorder.enabled:
                windows.append((started, ended))
            recorder.enabled = False
        if index < count - 1:
            # Untimed reset: the next sweep starts from the base models again.
            for name in refreshed.values():
                session.store.delete(name)
            session.serving_overrides.clear()
    commits = metric_sum(parse_metrics(registry.render()), "repro_store_ops_total", op="commit") - commits_before

    mismatched = []
    for group, name in sorted(refreshed.items()):
        context = groups[group]
        machines, runtimes = online.buffer.samples(group, newest=online.policy.refresh_samples)
        serial = finetune(session.base_model(context.algorithm), context, machines, runtimes,
                          max_epochs=refresh_epochs).model.full_state_dict()
        swept = session.store.load(name).full_state_dict()
        if set(serial) != set(swept) or any(not np.array_equal(serial[k], swept[k]) for k in serial):
            mismatched.append(group)
    return {
        "sweeps": sweeps,
        "traced": traced,
        "windows": windows,
        "groups": len(groups),
        "refreshed_last": len(refreshed),
        "mismatched": mismatched,
        "commits": commits,
    }


if __name__ == "__main__":
    raise SystemExit(main())
