"""The benchmark's own span recorder, and the wrappers that feed it.

No program file changes: each layer is timed from outside by wrapping the
public callables the layer above calls.  A name is patched where its caller
looks it up (``repro.service.router.read_frame``, not
``repro.service.protocol.read_frame``); methods are patched on their class.
Every wrapper uses :func:`functools.wraps`, so ``inspect.signature`` (which
``repro.core.context`` uses to decide which keyword arguments a query method
takes) sees the wrapped callable's own signature.

A span is ``(id, name, start_ns, end_ns, parent_id, pid, size)``: the parent
is the innermost open span on the same thread, timestamps are
``time.monotonic_ns()`` (one clock for every process on the host, used only
to keep the spans inside the measured window), and ``size`` is the frame
byte count for frame writes.  Spans stay in memory and are written out as
JSON when the process ends.  Self time is a span's duration minus its child
spans' durations; across processes only aggregated durations are ever
subtracted.
"""

from __future__ import annotations

import functools
import itertools
import json
import os
import threading
import time
from collections import defaultdict
from pathlib import Path
from typing import Dict, Iterable, List, Tuple

#: The span clock: one monotonic clock shared by every process on the host.
now = time.monotonic_ns


class SpanRecorder:
    """Spans of one process, kept in memory until :meth:`dump`."""

    def __init__(self) -> None:
        self.spans: List[Tuple] = []
        self._ids = itertools.count()
        self._local = threading.local()
        self.pid = os.getpid()

    def _stack(self) -> List[int]:
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    def timed(self, name: str, func):
        """*func*, recording one span per call under *name*."""

        @functools.wraps(func)
        def wrapper(*args, **kwargs):
            stack = self._stack()
            span = next(self._ids)
            parent = stack[-1] if stack else None
            stack.append(span)
            start = now()
            try:
                return func(*args, **kwargs)
            finally:
                end = now()
                stack.pop()
                self.spans.append((span, name, start, end, parent, self.pid, 0))

        return wrapper

    def timed_async(self, name: str, func):
        """Coroutine-function variant; no parent, since coroutines interleave."""

        @functools.wraps(func)
        async def wrapper(*args, **kwargs):
            start = now()
            try:
                return await func(*args, **kwargs)
            finally:
                self.spans.append((next(self._ids), name, start, now(), None, self.pid, 0))

        return wrapper

    def timed_frame_write(self, name: str, func):
        """A ``write_frame(stream, message)`` wrapper that also counts frame bytes."""

        @functools.wraps(func)
        def wrapper(stream, message):
            stack = self._stack()
            span = next(self._ids)
            parent = stack[-1] if stack else None
            counting = _CountingStream(stream)
            start = now()
            try:
                return func(counting, message)
            finally:
                end = now()
                self.spans.append((span, name, start, end, parent, self.pid, counting.count))

        return wrapper

    def dump(self, directory: Path, role: str) -> None:
        path = Path(directory) / f"spans-{role}-{self.pid}.json"
        path.write_text(json.dumps(self.spans))


class _CountingStream:
    __slots__ = ("stream", "count")

    def __init__(self, stream) -> None:
        self.stream = stream
        self.count = 0

    def write(self, data) -> int:
        self.count += len(data)
        return self.stream.write(data)

    def flush(self) -> None:
        self.stream.flush()


def _patch(owner, attribute: str, wrapper_factory, name: str, installed: List) -> None:
    original = getattr(owner, attribute)
    setattr(owner, attribute, wrapper_factory(name, original))
    installed.append((owner, attribute, original))


def install_frontend(recorder: SpanRecorder) -> List:
    """Wrap the HTTP front-end, xmlio-from-HTTP, router and router frames."""
    import repro.service.http as http
    import repro.service.router as router

    installed: List = []
    _patch(http.ServiceFrontend, "_dispatch", recorder.timed_async, "http.dispatch", installed)
    _patch(http, "datatree_from_xml", recorder.timed, "xmlio.parse", installed)
    _patch(http, "datatree_to_xml", recorder.timed, "xmlio.serialize", installed)
    for method in ("batch_on_shard", "insert", "delete"):
        _patch(router.ShardedWarehouse, method, recorder.timed, "router.call", installed)
    _patch(router, "write_frame", recorder.timed_frame_write, "protocol.write", installed)
    _patch(router, "read_frame", recorder.timed, "protocol.read", installed)
    return installed


def install_worker(recorder: SpanRecorder) -> List:
    """Wrap worker dispatch and frames, the warehouse, matching, indexes,
    pricing and updates, inside a shard worker process."""
    import repro.core.context as context
    import repro.core.engine as engine
    import repro.core.probability as probability
    import repro.queries.plan as plan
    import repro.service.worker as worker
    import repro.trees.columnar as columnar
    import repro.updates.operations as operations
    import repro.updates.probtree_updates as probtree_updates

    installed: List = []
    _patch(worker.ShardWorker, "dispatch", recorder.timed, "worker.dispatch", installed)
    _patch(worker, "write_frame", recorder.timed_frame_write, "protocol.write", installed)
    for method in ("query", "probability", "apply"):
        _patch(engine.ProbXMLWarehouse, method, recorder.timed, f"warehouse.{method}", installed)
    _patch(engine, "apply_update_to_probtree", recorder.timed, "update.apply", installed)
    _patch(context.ExecutionContext, "result_node_sets", recorder.timed, "match", installed)
    _patch(context.ExecutionContext, "migrate_answers", recorder.timed, "update.migrate", installed)
    for module in (context, plan, probtree_updates, operations):
        _patch(module, "tree_index", recorder.timed, "trees.index", installed)
    for module in (plan, columnar):
        _patch(module, "columnar_tree", recorder.timed, "trees.index", installed)
    for method in ("condition_probability", "dnf_probability"):
        _patch(probability.ProbabilityEngine, method, recorder.timed, "price", installed)
    return installed


def uninstall(installed: Iterable) -> None:
    for owner, attribute, original in reversed(list(installed)):
        setattr(owner, attribute, original)


# -- aggregation ----------------------------------------------------------------


class SpanTotals:
    """Per-name totals over the spans that lie inside a window."""

    def __init__(self) -> None:
        self.total: Dict[str, int] = defaultdict(int)
        self.self_time: Dict[str, int] = defaultdict(int)
        self.count: Dict[str, int] = defaultdict(int)
        self.size: Dict[str, int] = defaultdict(int)
        #: Duration of spans with no parent, per name (for nested names
        #: such as a batch's per-item worker dispatch).
        self.top: Dict[str, int] = defaultdict(int)

    def ms(self, table: Dict[str, int], *names: str) -> float:
        return sum(table[name] for name in names) / 1e6


def load_spans(directory: Path, role: str) -> List[List]:
    spans = []
    for path in sorted(Path(directory).glob(f"spans-{role}-*.json")):
        spans.extend(json.loads(path.read_text()))
    return spans


def totals(spans: List[List], start_ns: int, end_ns: int) -> SpanTotals:
    """Aggregate one process role's spans that start and end in the window."""
    inside = [span for span in spans if start_ns <= span[2] and span[3] <= end_ns]
    child_time: Dict[Tuple[int, int], int] = defaultdict(int)
    for span_id, _, start, end, parent, pid, _ in inside:
        if parent is not None:
            child_time[(pid, parent)] += end - start
    result = SpanTotals()
    for span_id, name, start, end, parent, pid, size in inside:
        duration = end - start
        result.total[name] += duration
        result.self_time[name] += duration - child_time[(pid, span_id)]
        result.count[name] += 1
        result.size[name] += size
        if parent is None:
            result.top[name] += duration
    return result
