"""Run ``repro.cli`` with spans recorded around each layer's public functions.

Usage::

    PYTHONPATH=src python perfbench/traced_serve.py SPANS.json serve [options]

SIGUSR1 pauses recording and SIGUSR2 resumes it (the benchmark measures
tracing overhead that way). The spans are written to ``SPANS.json`` when the
command returns, e.g. after SIGTERM drains the server.
"""

from __future__ import annotations

import signal
import sys

from tracing import Recorder, instrument


def main() -> int:
    spans_path, argv = sys.argv[1], sys.argv[2:]
    recorder = Recorder()
    instrument(recorder)

    def pause(signum, frame) -> None:
        recorder.enabled = False

    def resume(signum, frame) -> None:
        recorder.enabled = True

    signal.signal(signal.SIGUSR1, pause)
    signal.signal(signal.SIGUSR2, resume)
    from repro.cli.main import main as cli_main

    try:
        return cli_main(argv)
    finally:
        recorder.dump(spans_path)


if __name__ == "__main__":
    raise SystemExit(main())
