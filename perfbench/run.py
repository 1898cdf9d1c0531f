"""End-to-end benchmark of serving, online refresh and refresh sweeps.

Usage, from the root of a checkout::

    python3 perfbench/run.py --workload serve_zeroshot --seed 1 --seconds 10 --trace 0

``--trace 0`` measures the end-to-end metrics with nothing recorded inside
the program; ``--trace 1`` is a separate run that records spans around
each layer's public functions and reports the per-layer metrics. Every
metric is printed as ``name value unit (n=samples)`` after the workload's
correctness gate; the last line of standard output is one JSON object with
``correct``, ``attempted``, ``failed`` and ``metrics``. A failed gate
prints ``correct: false`` with no metrics and exits 1.

The program is imported from ``src/`` of the same checkout; without it the
benchmark exits 2.
"""

from __future__ import annotations

import argparse
import json
import os
import shutil
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"

END_TO_END = ("setup_s", "latency_p50_ms", "ops_per_s", "peak_rss_mb")


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if not (SRC / "repro" / "__init__.py").is_file():
        print(f"error: no program sources at {SRC}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))

    import procs
    import workloads

    if args.workload not in workloads.WORKLOADS:
        print(f"error: unknown workload {args.workload!r}; "
              f"known: {sorted(workloads.WORKLOADS)}", file=sys.stderr)
        return 2
    work = ROOT / ".perfbench_work" / f"{args.workload}-{os.getpid()}"
    work.mkdir(parents=True, exist_ok=True)
    run = workloads.Run(args.seed, args.seconds, bool(args.trace), work)
    try:
        outcome = workloads.WORKLOADS[args.workload](run)
    finally:
        procs.stop_all()
        shutil.rmtree(work, ignore_errors=True)
        try:
            work.parent.rmdir()
        except OSError:
            pass

    shown = dict(outcome.report)
    shown.update(outcome.e2e)
    shown.update(outcome.layers)
    if not outcome.correct:
        for problem in outcome.problems:
            print(f"gate failed: {problem}")
        print(json.dumps({"correct": False, "attempted": outcome.attempted,
                          "failed": outcome.failed, "metrics": {}}))
        return 1
    print(f"# {args.workload} seed={args.seed} seconds={args.seconds:g} trace={args.trace}: gate passed")
    for name in sorted(shown):
        value, unit, samples = shown[name]
        print(f"{name} {value:.6g} {unit} (n={samples})")
    chosen = outcome.layers if args.trace else {k: outcome.e2e[k] for k in END_TO_END}
    metrics = {name: {"value": value, "unit": unit} for name, (value, unit, _) in chosen.items()}
    print(json.dumps({"correct": True, "attempted": outcome.attempted,
                      "failed": outcome.failed, "metrics": metrics}))
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
