"""CI regression gate over ``BENCH_micro.json``.

Compares a freshly measured benchmark file against the committed baseline
and fails (exit 1) on a >2x performance regression. Absolute timings are
**not** compared across machines — CI runners are arbitrarily slower than
the machine that produced the baseline. Instead the gate compares
*same-machine speedup ratios*: an optimized path against its in-tree
reference, both measured in the current run (fused kernels vs. their
composed ``*_reference`` ops, the compiled tape vs. eager autograd, the
store index vs. a directory scan). Those ratios are machine-independent,
so a drop of more than the allowed factor — or below a hard floor — means
the optimization genuinely degraded (e.g. the tape silently stopped
engaging and compiled reads as fast as eager), not that the runner is
slow or noisy. A gated key missing from the current run is a failure.

Usage::

    python benchmarks/check_regression.py BASELINE.json CURRENT.json [--factor 2.0]
"""

from __future__ import annotations

import argparse
import json
import sys
from pathlib import Path

#: Same-machine speedup ratios gated against the committed baseline: the
#: current ratio must not fall below baseline_ratio / factor.
GATED_RATIOS = (
    ("op_level", "linear_selu_speedup"),
    ("op_level", "huber_speedup"),
    ("step_level", "speedup_vs_eager"),
    # Index-backed names() vs. a full directory walk of the sharded store —
    # same machine, same run, so the ratio travels across runners.
    ("runtime_level", "sharded_store", "names_speedup_vs_scan"),
)

#: Hard floors on the current run, whatever the baseline says. A tape that
#: stopped engaging reads ~1.0x compiled vs. eager; 24 interleaved
#: ``bench_step`` runs on a 2-CPU VM read 1.25-1.71x. Zero-shot predict
#: through the plain-array forward vs. the Tensor forward it replaced reads
#: ~1.0x once inference builds graphs again; a 2-CPU VM measured ~2x.
RATIO_FLOORS = (
    (("step_level", "speedup_vs_eager"), 1.2),
    (("serving_level", "zero_shot_forward", "speedup"), 1.5),
)

#: Correctness flags of the current run that must read true: grouped
#: serving answers byte-equal to serial ones, and the plain-array forward
#: byte-equal to the Tensor forward.
REQUIRED_TRUE = (
    ("serving_level", "batch_of_8_same_context", "outputs_match"),
    ("serving_level", "zero_shot_forward", "bit_identical"),
)

#: Same-run store-backend slowdown ratios (sqlite vs local FS at 10k
#: entries; >1 = sqlite slower). Gated inversely to GATED_RATIOS: the
#: current ratio must not *grow* past baseline * factor.
GATED_SLOWDOWNS = (
    ("store_backends", "sqlite_vs_local_fs", "exists_slowdown"),
    ("store_backends", "sqlite_vs_local_fs", "names_slowdown"),
    ("store_backends", "sqlite_vs_local_fs", "commit_slowdown"),
)

#: Hard ceilings on those slowdowns, whatever the baseline says. The
#: commit bound is the backend's headline claim: one row-level upsert must
#: beat the local backend's whole-index rewrite at 10k entries.
SLOWDOWN_CEILINGS = (
    (("store_backends", "sqlite_vs_local_fs", "commit_slowdown"), 1.0),
)

#: Absolute per-operation ceilings (nanoseconds) on the metric primitives.
#: Unlike wall-clock timings these are gated absolutely: a lock plus an
#: add should cost well under a microsecond on any runner, and crossing
#: these bounds means instrumentation became a tax on every request.
ABSOLUTE_CEILINGS_NS = (
    (("metrics_level", "counter_inc_ns"), 1000.0),
    (("metrics_level", "counter_labels_inc_ns"), 3000.0),
    (("metrics_level", "gauge_set_ns"), 1000.0),
    (("metrics_level", "histogram_observe_ns"), 2000.0),
    (("metrics_level", "timed_overhead_ns"), 5000.0),
    # The fault-injection guard on instrumented hot paths must stay free
    # when no chaos run is active (the ISSUE's acceptance bound).
    (("resilience_level", "hook_disabled_guard_ns"), 100.0),
    (("resilience_level", "fault_point_noop_ns"), 1000.0),
    (("resilience_level", "breaker_allow_ns"), 5000.0),
    (("resilience_level", "deadline_check_ns"), 5000.0),
)


#: The 4-worker fleet must clear this throughput multiple of 1 worker —
#: but only on runners with the cores to scale onto (see the gate).
FLEET_SCALING_FLOOR_AT_4 = 2.5

#: The fused batched fine-tune must beat the serial per-group loop by this
#: factor at 50 groups — on runners with cores for the stacked BLAS calls.
BATCHED_REFRESH_FLOOR_AT_50 = 5.0

#: Cross-worker refresh propagation must land within this many
#: generation-check intervals plus slack (cross-runner scheduling noise).
FLEET_PROPAGATION_INTERVALS = 4.0
FLEET_PROPAGATION_SLACK_S = 1.0


def _lookup(payload: dict, path) -> float:
    node = payload
    for key in path:
        node = node[key]
    return float(node)


def _lookup_current(current: dict, path, failures: list):
    """``path`` in the current run, or ``None`` after recording a failure."""
    try:
        return _lookup(current, path)
    except KeyError:
        failures.append(f"{'.'.join(path)} missing from the current run")
        return None


def _check_serve_fleet(current: dict, failures: list) -> None:
    """Gate the pre-fork fleet section of the current run.

    Correctness legs (bit-identity, zero dropped requests, refresh
    propagation within a few generation-check intervals) are gated
    unconditionally. The 4-worker scaling floor is gated **only when the
    run's recorded CPU count is >= 4**: worker processes scale across
    cores, and a 1-CPU runner serializes them — an honest ratio there
    hovers near 1x and says nothing about the fleet.
    """
    fleet = current.get("serve_fleet")
    if fleet is None:
        failures.append("serve_fleet missing from the current run")
        return
    for workers in sorted(fleet.get("curves", {}), key=int):
        entry = fleet["curves"][workers]
        label = f"serve_fleet.curves.{workers}"
        if not entry.get("bit_identical_to_serial"):
            failures.append(f"{label} responses not bit-identical to serial")
        dropped = int(entry.get("errors", 0)) + int(
            entry.get("requests", 0) - entry.get("completed", 0)
        )
        status = "ok" if dropped == 0 else "REGRESSION"
        print(
            f"{label}: {entry.get('requests_per_s', 0):.0f} req/s, "
            f"{dropped} dropped, bit-identical="
            f"{bool(entry.get('bit_identical_to_serial'))} [{status}]"
        )
        if dropped:
            failures.append(f"{label} dropped {dropped} request(s)")

    interval = float(fleet.get("generation_check_s", 1.0))
    ceiling = interval * FLEET_PROPAGATION_INTERVALS + FLEET_PROPAGATION_SLACK_S
    propagation = float(fleet.get("refresh_propagation_s", float("inf")))
    status = "ok" if propagation <= ceiling else "REGRESSION"
    print(
        f"serve_fleet.refresh_propagation_s: {propagation:.2f}s "
        f"(ceiling {ceiling:.2f}s at {interval}s checks) [{status}]"
    )
    if status != "ok":
        failures.append(
            f"serve_fleet refresh propagation took {propagation:.2f}s "
            f"(> {ceiling:.2f}s)"
        )

    cpus = int(fleet.get("cpus") or current.get("environment", {}).get("cpus") or 1)
    scaling = fleet.get("scaling_vs_1_worker", {}).get("4")
    if cpus < 4:
        print(
            f"serve_fleet.scaling_vs_1_worker.4: "
            f"{'%.2fx' % scaling if scaling is not None else 'n/a'} "
            f"(floor waived: only {cpus} cpu(s) on this runner) [skipped]"
        )
        return
    if scaling is None:
        failures.append(
            "serve_fleet 4-worker scaling missing on a >=4-cpu runner"
        )
        return
    status = "ok" if scaling >= FLEET_SCALING_FLOOR_AT_4 else "REGRESSION"
    print(
        f"serve_fleet.scaling_vs_1_worker.4: {scaling:.2f}x "
        f"(hard floor {FLEET_SCALING_FLOOR_AT_4}x on {cpus} cpus) [{status}]"
    )
    if status != "ok":
        failures.append(
            f"serve_fleet 4-worker scaling fell to {scaling:.2f}x "
            f"(< {FLEET_SCALING_FLOOR_AT_4}x on a {cpus}-cpu runner)"
        )


def _check_batched_refresh(current: dict, failures: list) -> None:
    """Gate the fused multi-group fine-tuning section of the current run.

    The correctness leg — every group's batched weights bit-identical to
    its serial fine-tune — is gated unconditionally; the bench already
    refuses to report a speedup without it, so a missing or false flag
    means the identity discipline broke. The >=5x-at-50-groups floor is
    gated **only when the run's recorded CPU count is >= 4** (like the
    fleet scaling floor): the stacked ``(50, batch, features)`` matmuls
    lean on BLAS threading, and a 1-CPU runner honestly measuring 3x says
    nothing about the fused pass.
    """
    batched = current.get("batched_refresh")
    if batched is None:
        failures.append("batched_refresh missing from the current run")
        return
    for n_groups in sorted(batched.get("curves", {}), key=int):
        entry = batched["curves"][n_groups]
        label = f"batched_refresh.curves.{n_groups}"
        status = "ok" if entry.get("bit_identical") else "REGRESSION"
        print(
            f"{label}: {entry.get('speedup', 0.0):.2f}x vs serial, "
            f"bit-identical={bool(entry.get('bit_identical'))} [{status}]"
        )
        if status != "ok":
            failures.append(f"{label} not bit-identical to the serial loop")

    cpus = int(batched.get("cpus") or current.get("environment", {}).get("cpus") or 1)
    speedup = batched.get("speedup_at_50")
    if cpus < 4:
        print(
            f"batched_refresh.speedup_at_50: "
            f"{'%.2fx' % speedup if speedup is not None else 'n/a'} "
            f"(floor waived: only {cpus} cpu(s) on this runner) [skipped]"
        )
        return
    if speedup is None:
        failures.append(
            "batched_refresh 50-group speedup missing on a >=4-cpu runner"
        )
        return
    status = "ok" if speedup >= BATCHED_REFRESH_FLOOR_AT_50 else "REGRESSION"
    print(
        f"batched_refresh.speedup_at_50: {speedup:.2f}x "
        f"(hard floor {BATCHED_REFRESH_FLOOR_AT_50}x on {cpus} cpus) [{status}]"
    )
    if status != "ok":
        failures.append(
            f"batched_refresh 50-group speedup fell to {speedup:.2f}x "
            f"(< {BATCHED_REFRESH_FLOOR_AT_50}x on a {cpus}-cpu runner)"
        )


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("baseline", type=Path)
    parser.add_argument("current", type=Path)
    parser.add_argument("--factor", type=float, default=2.0)
    args = parser.parse_args()

    baseline = json.loads(args.baseline.read_text())
    current = json.loads(args.current.read_text())

    failures = []
    for path in GATED_RATIOS:
        label = ".".join(path)
        now = _lookup_current(current, path, failures)
        if now is None:
            continue
        try:
            base = _lookup(baseline, path)
        except KeyError:
            failures.append(f"{label} missing from the baseline")
            continue
        floor = base / args.factor
        status = "ok" if now >= floor else "REGRESSION"
        print(
            f"{label}: baseline {base:.2f}x -> current {now:.2f}x "
            f"(floor {floor:.2f}x) [{status}]"
        )
        if status != "ok":
            failures.append(
                f"{label} fell from {base:.2f}x to {now:.2f}x "
                f"(> {args.factor}x regression)"
            )

    for path, floor in RATIO_FLOORS:
        now = _lookup_current(current, path, failures)
        if now is None:
            continue
        status = "ok" if now >= floor else "REGRESSION"
        print(f"{'.'.join(path)}: {now:.2f}x (hard floor {floor}x) [{status}]")
        if status != "ok":
            failures.append(f"{'.'.join(path)} fell to {now:.2f}x (< {floor}x)")

    for path in REQUIRED_TRUE:
        now = _lookup_current(current, path, failures)
        if now is None:
            continue
        status = "ok" if now else "REGRESSION"
        print(f"{'.'.join(path)}: {bool(now)} (must be true) [{status}]")
        if status != "ok":
            failures.append(f"{'.'.join(path)} is false")

    for path in GATED_SLOWDOWNS:
        label = ".".join(path)
        now = _lookup_current(current, path, failures)
        if now is None:
            continue
        try:
            base = _lookup(baseline, path)
        except KeyError:
            print(f"{label}: {now:.2f}x (no baseline yet) [ok]")
            continue
        ceiling = base * args.factor
        status = "ok" if now <= ceiling else "REGRESSION"
        print(
            f"{label}: baseline {base:.2f}x -> current {now:.2f}x "
            f"(ceiling {ceiling:.2f}x) [{status}]"
        )
        if status != "ok":
            failures.append(
                f"{label} grew from {base:.2f}x to {now:.2f}x "
                f"(> {args.factor}x regression)"
            )

    for path, ceiling in SLOWDOWN_CEILINGS:
        label = ".".join(path)
        now = _lookup_current(current, path, failures)
        if now is None:
            continue
        status = "ok" if now <= ceiling else "REGRESSION"
        print(f"{label}: {now:.2f}x (hard ceiling {ceiling}x) [{status}]")
        if status != "ok":
            failures.append(f"{label} is {now:.2f}x (> {ceiling}x ceiling)")

    for path, ceiling in ABSOLUTE_CEILINGS_NS:
        label = ".".join(path)
        now = _lookup_current(current, path, failures)
        if now is None:
            continue
        status = "ok" if now <= ceiling else "REGRESSION"
        print(f"{label}: {now:.0f}ns (ceiling {ceiling:.0f}ns) [{status}]")
        if status != "ok":
            failures.append(f"{label} is {now:.0f}ns (> {ceiling:.0f}ns ceiling)")

    _check_serve_fleet(current, failures)
    _check_batched_refresh(current, failures)

    if failures:
        print("\n".join(["", "FAILED:"] + failures), file=sys.stderr)
        return 1
    print("no performance regressions")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
