"""Seeded inputs of the end-to-end service benchmark.

Every workload is a function of ``(name, seed, seconds)``: the corpus (as
``<probtree>`` XML text, one document per file the service is launched
with), one warm-up request per document, the measured request sequence and,
for the read workloads, a trailing write probe.  The client generates all of
it; the service only ever sees XML files and HTTP requests.

Workloads (closed loop: each connection waits for its reply before sending
the next request):

``read_hot``
    32 small post-extraction warehouses (8 sources x 40 entities, ~200
    nodes each); Zipf(1.1) traffic over 128 (document, path) pairs, half
    ``/query`` and half ``/probability``, over 2 keep-alive connections.
    After warm-up nearly every read hits the answer cache, so the time goes
    to HTTP, the router, pickle frames and worker dispatch; it is also the
    only workload where the front-end's per-shard batching can batch.
``read_scan``
    Two large post-extraction warehouses, one per shard (200 sources x 5000
    entities, ~25k nodes and ~5.6k events each; 30% of entities carry a
    shared per-source retraction event).  Per-source analyst paths drawn
    from a pool larger than the per-document answer cache, plus ~5% broad
    paths (``/warehouse/*/movie`` and 15 like it, ~1.2k answers each), over
    1 connection: most reads miss, so matching, pricing and answer
    serialization dominate.
``extract_stream``
    The paper's scenario: two crawl documents fed interleaved
    ``HiddenWebScenario(source_count=32, deletion_ratio=0.1)`` extraction
    events as ``POST /update`` (~10% retractions), with one ``/query`` or
    ``/probability`` after every second update, over 1 connection so every
    response can be checked in order.

The amount of work is fixed per run (``RATES[name] * seconds`` requests), not
time-bounded: the same seed then sends exactly the same requests, so the
service's counter deltas repeat exactly, and a faster program is not handed a
larger (slower-growing) document in ``extract_stream``.  The rates are sized
so a run measures ``seconds`` to ``1.6 * seconds`` over all its launches on an
idle 2-vCPU x86-64 host; ``extract_stream``'s window, which every launch
replays whole, takes about ``seconds / 3``.

The read workloads never write inside their measured window; after it they
send a fixed *write probe* of extraction updates into their own documents
(16 per small and 3 per large document), so every workload reports
``/update`` latency.

Document names are chosen with :meth:`ShardedWarehouse.shard_of` until the
documents cover every shard (for ``read_scan``, exactly one per shard), so no
workload silently measures a single worker.
"""

from __future__ import annotations

import json
import random
from dataclasses import dataclass, field
from types import SimpleNamespace
from typing import Dict, List, Sequence, Tuple

from repro.core.events import ProbabilityDistribution
from repro.core.probtree import ProbTree
from repro.formulas.literals import Condition
from repro.queries.treepattern import EDGE_DESCENDANT
from repro.service.router import VIRTUAL_NODES, ShardedWarehouse, _ring_points
from repro.trees.datatree import DataTree
from repro.updates.operations import Insertion
from repro.workloads.scenarios import HiddenWebScenario
from repro.xmlio import datatree_to_xml, probtree_to_xml

SHARDS = 2
ENTITY_TYPES = ("movie", "person", "conference", "product")
TITLE_WORDS = ("nights", "shadows", "journey", "garden", "engine", "archive")

#: Measured-window requests per second of ``--seconds`` (fixed work, see the
#: module docstring).
RATES = {"read_hot": 2400, "read_scan": 150, "extract_stream": 90}

#: Service launches per ``--trace 0`` run (see :meth:`Workload.slices`).
#: ``extract_stream`` replays its whole window on each, so more launches of a
#: shorter stream sample more moments of a noisy host.
LAUNCHES = {"read_hot": 5, "read_scan": 3, "extract_stream": 5}

#: Write-probe updates per document after a read workload's window.
PROBE_UPDATES_PER_DOCUMENT = {"read_hot": 16, "read_scan": 3}

#: Why each workload exists, with its sizes, loop type and connections; the
#: same sentences are the ``why`` lines of ``BENCHMARK.json``.
WHY = {
    "read_hot": (
        "32 seeded docs x ~200 nodes, Zipf(1.1) over 128 paths, closed loop, 2 conns: "
        "reads hit the answer cache, so HTTP, router, frames and dispatch dominate"
    ),
    "read_scan": (
        "2 seeded docs x ~25k nodes, one per shard; path pool > answer cache, 5% broad "
        "paths, closed loop, 1 conn: matching, pricing, answer serialization"
    ),
    "extract_stream": (
        "seeded HiddenWebScenario updates into 2 growing docs, a read after every 2nd "
        "update, closed loop, 1 conn: parse, oplog, apply, migration, cache misses"
    ),
}


@dataclass
class Request:
    """One HTTP request of a workload: endpoint, JSON body and connection."""

    endpoint: str  # "query" | "probability" | "update"
    body: Dict[str, object]
    connection: int = 0

    def payload(self) -> bytes:
        return json.dumps(self.body).encode("utf-8")


@dataclass
class Workload:
    name: str
    seed: int
    documents: Dict[str, str]  # name -> <probtree> XML text, in load order
    connections: int
    warmup: List[Request]
    window: List[Request]
    probe: List[Request] = field(default_factory=list)

    def slices(self, count: int) -> List[Tuple[List[Request], List[Request]]]:
        """``(window, probe)`` parts for *count* launches of the service.

        Reads of documents that do not change, and the probe's inserts
        (each launch is a fresh service), split into contiguous slices, one
        per launch.  A window with writes changes its documents, so it cannot
        be split: every launch replays it whole.
        """
        if any(request.endpoint == "update" for request in self.window):
            return [(self.window, self.probe) for _ in range(count)]
        return list(zip(_split(self.window, count), _split(self.probe, count)))

    def describe(self) -> Dict[str, object]:
        """Placement and provenance, for the run report."""
        placement = _placement()
        return {
            "workload": self.name,
            "why": WHY[self.name],
            "seed": self.seed,
            "loop": "closed",
            "connections": self.connections,
            "documents": {
                name: {"shard": ShardedWarehouse.shard_of(placement, name), "xml_bytes": len(text)}
                for name, text in self.documents.items()
            },
            "window_requests": len(self.window),
            "probe_requests": len(self.probe),
        }


def _split(requests: List[Request], count: int) -> List[List[Request]]:
    size = -(-len(requests) // count)
    return [requests[index * size : (index + 1) * size] for index in range(count)]


# -- placement ----------------------------------------------------------------


def _placement():
    """A ring-only stand-in, so ``ShardedWarehouse.shard_of`` runs unbound.

    ``shard_of`` reads only the consistent-hash ring and the shard count;
    building a real router here would spawn worker processes.
    """
    return SimpleNamespace(
        _ring=_ring_points(SHARDS, VIRTUAL_NODES), _shards=[None] * SHARDS
    )


def covering_names(prefix: str, count: int, one_per_shard: bool = False) -> List[str]:
    """*count* document names whose shards cover every shard.

    Candidates ``prefix0, prefix1, ...`` are taken in order; a candidate is
    skipped when taking it would leave too few slots to cover the remaining
    shards (or, with *one_per_shard*, when its shard is already used).
    """
    placement = _placement()
    chosen: List[str] = []
    used: Dict[int, int] = {}
    candidate = 0
    while len(chosen) < count:
        name = f"{prefix}{candidate}"
        candidate += 1
        shard = ShardedWarehouse.shard_of(placement, name)
        missing = SHARDS - len(used) - (0 if shard in used else 1)
        if one_per_shard and shard in used:
            continue
        if count - len(chosen) - 1 < missing:
            continue
        chosen.append(name)
        used[shard] = used.get(shard, 0) + 1
    return chosen


# -- corpora ------------------------------------------------------------------


def extracted_warehouse(
    rng: random.Random,
    sources: int,
    entities: int,
    retraction_share: float,
    retractions_per_source: int = 3,
) -> ProbTree:
    """A post-extraction warehouse, built directly as a prob-tree.

    ``warehouse/source{s}/{type}/{title,url}/text``: every entity hangs on
    its own extraction event ``w{e}``; a *retraction_share* of them also
    carry ``not r{s}_{k}``, a retraction event shared within their source.
    Replaying that many updates through the engine would take minutes.
    """
    tree = DataTree("warehouse")
    source_nodes = [tree.add_child(tree.root, f"source{s}") for s in range(1, sources + 1)]
    probabilities: Dict[str, float] = {}
    conditions = {}
    for s in range(1, sources + 1):
        for k in range(retractions_per_source):
            probabilities[f"r{s}_{k}"] = round(rng.uniform(0.4, 0.8), 2)
    for e in range(entities):
        s = e % sources + 1
        kind = rng.choice(ENTITY_TYPES)
        node = tree.add_child(source_nodes[s - 1], kind)
        event = f"w{e}"
        probabilities[event] = round(rng.uniform(0.5, 0.95), 2)
        atoms = [event]
        if rng.random() < retraction_share:
            atoms.append(f"not r{s}_{rng.randrange(retractions_per_source)}")
        conditions[node] = Condition.of(*atoms)
        title = tree.add_child(node, "title")
        tree.add_child(title, f"{rng.choice(TITLE_WORDS)}-{e}")
        url = tree.add_child(node, "url")
        tree.add_child(url, f"http://s{s}.example/{e}")
    return ProbTree(tree, ProbabilityDistribution(probabilities), conditions)


def _zipf_weights(count: int, exponent: float) -> List[float]:
    return [1.0 / (rank ** exponent) for rank in range(1, count + 1)]


# -- extraction events as HTTP bodies ------------------------------------------


def pattern_path(pattern) -> str:
    """Render a chain :class:`TreePattern` as the path syntax ``parse_path`` reads."""
    parts = []
    for index, node in enumerate(pattern.pattern_nodes()):
        edge = "//" if index and node.edge == EDGE_DESCENDANT else "/"
        parts.append(f"{edge}{node.label}")
    return "".join(parts)


def update_body(update, name: str) -> Dict[str, object]:
    """The ``POST /update`` body of one scenario update against document *name*."""
    operation = update.operation
    body: Dict[str, object] = {
        "query": pattern_path(operation.query),
        "confidence": update.confidence,
        "name": name,
    }
    if isinstance(operation, Insertion):
        body["kind"] = "insert"
        body["subtree"] = datatree_to_xml(operation.subtree, pretty=False)
    else:
        body["kind"] = "delete"
    return body


def _probe(rng: random.Random, names: Sequence[str], per_document: int, sources: int) -> List[Request]:
    """Extraction inserts into each read document, round-robin over documents."""
    probe = []
    for step in range(per_document):
        for name in names:
            source = rng.randint(1, sources)
            kind = rng.choice(ENTITY_TYPES)
            subtree = (
                f'<node label="{kind}"><node label="title">'
                f'<node label="probe-{step}" /></node></node>'
            )
            probe.append(
                Request(
                    "update",
                    {
                        "kind": "insert",
                        "query": f"/warehouse/source{source}",
                        "subtree": subtree,
                        "confidence": round(rng.uniform(0.5, 0.95), 2),
                        "name": name,
                    },
                )
            )
    return probe


# -- workloads ----------------------------------------------------------------


def read_hot(seed: int, seconds: float) -> Workload:
    rng = random.Random(f"read_hot:{seed}")
    names = covering_names("hot", 32)
    sources = 8
    documents = {
        name: probtree_to_xml(extracted_warehouse(rng, sources, 40, 0.3), pretty=False)
        for name in names
    }
    forms = (
        "/warehouse/source{s}/{t}/title",
        "/warehouse/source{s}//title",
        "/warehouse/*/{t}",
        "/warehouse/source{s}/{t}",
    )
    pairs = set()
    while len(pairs) < 128:
        form = rng.choice(forms)
        path = form.format(s=rng.randint(1, sources), t=rng.choice(ENTITY_TYPES))
        pairs.add((rng.choice(names), path))
    pairs = sorted(pairs)
    rng.shuffle(pairs)
    weights = _zipf_weights(len(pairs), 1.1)
    window = []
    for index, (name, path) in enumerate(
        rng.choices(pairs, weights=weights, k=int(RATES["read_hot"] * seconds))
    ):
        endpoint = "query" if rng.random() < 0.5 else "probability"
        window.append(Request(endpoint, {"query": path, "name": name}, index % 2))
    warmup = [Request("query", {"query": "/warehouse/*/movie", "name": name}) for name in names]
    probe = _probe(rng, names, PROBE_UPDATES_PER_DOCUMENT["read_hot"], sources)
    return Workload("read_hot", seed, documents, 2, warmup, window, probe)


def read_scan(seed: int, seconds: float) -> Workload:
    rng = random.Random(f"read_scan:{seed}")
    names = covering_names("scan", SHARDS, one_per_shard=True)
    sources = 200
    documents = {
        name: probtree_to_xml(extracted_warehouse(rng, sources, 5000, 0.3), pretty=False)
        for name in names
    }
    # 11 forms x 200 sources = 2200 paths per document, about twice the
    # per-document answer-cache bound (MAX_CACHED_ANSWERS = 1024).
    forms = [
        "/warehouse/source{s}/" + kind + "/title" for kind in ENTITY_TYPES
    ] + [
        "/warehouse/source{s}/" + kind + "/url" for kind in ENTITY_TYPES
    ] + [
        "/warehouse/source{s}//title",
        "/warehouse/source{s}/*/url",
        "/warehouse/source{s}//url",
    ]
    # Enough broad paths that nearly every broad read is a first (cold) one:
    # the tail percentiles then sit inside one cluster of similar requests.
    broad = [
        form.format(kind)
        for kind in ENTITY_TYPES
        for form in ("/warehouse/*/{}", "/warehouse/*/{}/title", "/warehouse/*/{}/url", "/warehouse//{}")
    ]
    # Endpoints, documents, forms and the broad-path slots follow a fixed
    # cycle; the seed draws only the sources, so seeds differ in what is
    # asked, not in how much of each kind.  Each launch's slice then holds
    # the same share of the slowest per-source form (``/*/url``), and the
    # p90s stay inside its cluster instead of drifting to a cluster edge.
    window = []
    narrow = 0
    for index in range(int(RATES["read_scan"] * seconds)):
        if index % 40 < 2:
            path = broad[(index // 40) % len(broad)]
        else:
            path = forms[narrow % len(forms)].format(s=rng.randint(1, sources))
            narrow += 1
        endpoint = "query" if index % 2 == 0 else "probability"
        window.append(Request(endpoint, {"query": path, "name": names[(index // 2) % 2]}))
    warmup = [Request("query", {"query": "/warehouse/source1//title", "name": name}) for name in names]
    probe = _probe(rng, names, PROBE_UPDATES_PER_DOCUMENT["read_scan"], sources)
    return Workload("read_scan", seed, documents, 1, warmup, window, probe)


def extract_stream(seed: int, seconds: float) -> Workload:
    rng = random.Random(f"extract_stream:{seed}")
    names = covering_names("crawl", SHARDS, one_per_shard=True)
    total = int(RATES["extract_stream"] * seconds)
    updates = (2 * total) // 3
    per_crawl = (updates + 1) // 2
    scenarios = [
        HiddenWebScenario(
            source_count=32,
            event_count=per_crawl,
            deletion_ratio=0.1,
            seed=rng.randrange(1 << 30),
        )
        for _ in names
    ]
    documents = {
        name: probtree_to_xml(ProbTree.certain(scenario.initial_document()), pretty=False)
        for name, scenario in zip(names, scenarios)
    }
    analyst = [pattern_path(pattern) for _, pattern in scenarios[0].queries()]
    streams = [scenario.events() for scenario in scenarios]
    window = []
    for step in range(per_crawl):
        for name, events in zip(names, streams):
            window.append(Request("update", update_body(events[step].update, name)))
            if len(window) % 3 == 2:
                # Fixed cycle of endpoint, document and path kind, as in
                # read_scan; the seed draws the per-source paths.
                read = len(window) // 3
                if (read // 4) % 2 == 0:
                    path = analyst[(read // 8) % len(analyst)]
                else:
                    path = (
                        f"/warehouse/source{rng.randint(1, 32)}/"
                        f"{rng.choice(ENTITY_TYPES)}/title"
                    )
                endpoint = "query" if read % 2 == 0 else "probability"
                window.append(Request(endpoint, {"query": path, "name": names[(read // 2) % 2]}))
    warmup = [Request("query", {"query": analyst[0], "name": name}) for name in names]
    return Workload("extract_stream", seed, documents, 1, warmup, window)


BUILDERS = {"read_hot": read_hot, "read_scan": read_scan, "extract_stream": extract_stream}


def build(name: str, seed: int, seconds: float) -> Workload:
    try:
        make = BUILDERS[name]
    except KeyError:
        raise ValueError(f"unknown workload {name!r}; expected one of {sorted(BUILDERS)}") from None
    return make(seed, seconds)
