"""Traced launcher: the steps of ``python -m repro.cli serve``, with spans.

Usage: ``traced_serve.py TRACE_DIR <serve arguments...>``.

Arguments are parsed by the CLI's own parser, and the service is assembled
exactly as the CLI's ``serve`` command does, with one difference: the router
spawns :mod:`traced_worker` as its shard worker entry point.  The front-end,
router and frame wrappers of :mod:`spans` are installed in this process;
spans are written to ``TRACE_DIR`` on exit.
"""

from __future__ import annotations

import sys
import threading
from pathlib import Path

from repro.cli import _pricing_policy, build_parser
from repro.service.http import ServiceFrontend
from repro.service.router import ShardedWarehouse
from repro.xmlio.parse import probtree_from_xml

import spans


def main(argv) -> int:
    trace_dir = Path(argv[0])
    arguments = build_parser().parse_args(["serve", *argv[1:]])
    recorder = spans.SpanRecorder()
    spans.install_frontend(recorder)
    worker = Path(__file__).resolve().with_name("traced_worker.py")
    documents = [
        (Path(path).stem, probtree_from_xml(Path(path).read_text()))
        for path in arguments.documents
    ]
    try:
        with ShardedWarehouse(
            shards=arguments.shards,
            engine=arguments.engine,
            matcher=arguments.matcher,
            max_cached_answers=arguments.max_cached_answers,
            pricing=_pricing_policy(arguments),
            formula_pool_node_limit=arguments.formula_pool_node_limit,
            isolation=arguments.isolation,
            worker_command=[sys.executable, str(worker), str(trace_dir)],
        ) as warehouse:
            for name, probtree in documents:
                warehouse.add_document(name, probtree)
            frontend = ServiceFrontend(
                warehouse, host=arguments.host, port=arguments.port
            ).start()
            print(
                f"serving {len(documents)} document(s) on "
                f"{arguments.shards} shard(s) at "
                f"http://{frontend.host}:{frontend.port}",
                flush=True,
            )
            try:
                threading.Event().wait()
            except KeyboardInterrupt:
                pass
            finally:
                frontend.stop()
    finally:
        recorder.dump(trace_dir, "frontend")
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
