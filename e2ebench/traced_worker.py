"""Traced shard worker: install the worker-side wrappers, then serve.

Usage (spawned by the router of :mod:`traced_serve`):
``traced_worker.py TRACE_DIR``.  Spans are written to ``TRACE_DIR`` when
the router shuts the worker down.
"""

from __future__ import annotations

import sys
from pathlib import Path

from repro.service.worker import worker_main

import spans


def main(argv) -> int:
    recorder = spans.SpanRecorder()
    spans.install_worker(recorder)
    try:
        return worker_main()
    finally:
        recorder.dump(Path(argv[0]), "worker")


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
