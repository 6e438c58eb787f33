"""The output check: a single-process warehouse answering the same requests.

The oracle loads the same ``<probtree>`` XML files into one
:class:`~repro.core.engine.ProbXMLWarehouse` and replays the same request
sequence, rendering each reply exactly as the HTTP front-end does.  The
sharded service's bit-determinism contract makes every reply byte-identical
(answer ``xml`` strings and probabilities included), so responses are
compared as bytes.  It runs outside the timed window.
"""

from __future__ import annotations

import json
from pathlib import Path
from typing import Dict, List, Sequence, Tuple

from repro.core.context import ExecutionContext
from repro.core.engine import ProbXMLWarehouse
from repro.formulas.sampling import PricingPolicy
from repro.xmlio import datatree_from_xml, datatree_to_xml, probtree_from_xml

from workloads import Request


def load(documents: Dict[str, Path]) -> ProbXMLWarehouse:
    """The oracle warehouse, configured like ``serve``'s defaults."""
    context = ExecutionContext(engine="formula", matcher="indexed", pricing=PricingPolicy())
    warehouse = ProbXMLWarehouse(context=context)
    for name, path in documents.items():
        warehouse.add_document(name, probtree_from_xml(path.read_text()))
    return warehouse


def _reply(warehouse: ProbXMLWarehouse, request: Request) -> Dict[str, object]:
    body = request.body
    if request.endpoint == "query":
        answers = warehouse.query(body["query"], name=body.get("name"))
        return {
            "answers": [
                {"xml": datatree_to_xml(answer.tree, pretty=False), "probability": answer.probability}
                for answer in answers
            ]
        }
    if request.endpoint == "probability":
        return {"probability": warehouse.probability(body["query"], name=body.get("name"))}
    confidence = float(body.get("confidence", 1.0))
    if body["kind"] == "insert":
        update = warehouse.insert(
            body["query"], datatree_from_xml(body["subtree"]),
            confidence=confidence, name=body.get("name"),
        )
    else:
        update = warehouse.delete(body["query"], confidence=confidence, name=body.get("name"))
    return {"applied": True, "event": update.event}


def expected_bodies(warehouse: ProbXMLWarehouse, requests: Sequence[Request]) -> List[bytes]:
    """The byte-exact reply body of every request, replayed in order.

    Reads are memoized per ``(endpoint, document, path)`` until the next
    update of that document, since the same read of an unchanged document
    has one reply.
    """
    memo: Dict[Tuple[str, str, str], bytes] = {}
    expected = []
    for request in requests:
        name = request.body.get("name")
        if request.endpoint == "update":
            memo = {key: value for key, value in memo.items() if key[1] != name}
            expected.append(json.dumps(_reply(warehouse, request)).encode("utf-8"))
            continue
        key = (request.endpoint, name, request.body["query"])
        if key not in memo:
            memo[key] = json.dumps(_reply(warehouse, request)).encode("utf-8")
        expected.append(memo[key])
    return expected


def failures(results: Sequence[Tuple[int, bytes, float]], expected: Sequence[bytes]) -> List[str]:
    """One line per failed request: non-200, transport error or wrong answer."""
    problems = []
    for index, ((status, body, _), want) in enumerate(zip(results, expected)):
        if status == 0:
            problems.append(f"request {index}: transport error {body[:200]!r}")
        elif status != 200:
            problems.append(f"request {index}: status {status} {body[:200]!r}")
        elif body != want:
            problems.append(
                f"request {index}: answer differs from the oracle "
                f"(got {body[:120]!r}, want {want[:120]!r})"
            )
    if len(results) != len(expected):
        problems.append(f"{len(results)} responses for {len(expected)} requests")
    return problems
