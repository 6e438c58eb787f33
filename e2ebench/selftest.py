"""Self-tests of the benchmark itself (not part of the repository's suite).

Run from the repository root (about two minutes)::

    python3 e2ebench/selftest.py

* the output check catches a corrupted reply, a non-200 status and a
  transport error;
* every timing wrapper keeps the wrapped callable's ``inspect.signature``,
  and answers computed with the wrappers installed equal those without;
* a traced service run passes the output check (its replies equal the
  untraced oracle's, byte for byte);
* two same-seed runs of ``read_scan`` and of ``extract_stream`` give
  identical ``GET /stats`` counter deltas;
* ``BENCHMARK.json`` carries the workloads' ``why`` lines, and every
  workload's documents cover both shards.
"""

from __future__ import annotations

import inspect
import json
import subprocess
import sys
import tempfile
import unittest
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = Path.cwd()
sys.path.insert(0, str(ROOT / "src"))

import oracle  # noqa: E402
import spans  # noqa: E402
import workloads  # noqa: E402


def _documents(workload, directory: Path):
    documents = {}
    for name, text in workload.documents.items():
        documents[name] = directory / f"{name}.xml"
        documents[name].write_text(text)
    return documents


def _run(workload: str, seed: int, trace: int) -> dict:
    completed = subprocess.run(
        [sys.executable, str(HERE / "run.py"), "--workload", workload, "--seed", str(seed),
         "--seconds", "1", "--trace", str(trace)],
        cwd=ROOT, capture_output=True, text=True, timeout=300,
    )
    if completed.returncode != 0:
        raise AssertionError(f"run failed ({completed.returncode}):\n{completed.stderr}")
    report = ROOT / ".bench_build" / "e2ebench-reports" / f"{workload}-seed{seed}-trace{trace}.json"
    return {"result": json.loads(completed.stdout.splitlines()[-1]), **json.loads(report.read_text())}


class OutputCheck(unittest.TestCase):
    def test_corrupted_reply_is_caught(self):
        workload = workloads.build("extract_stream", 3, 0.2)
        requests = workload.warmup + workload.window
        with tempfile.TemporaryDirectory(dir=ROOT / ".bench_build") as directory:
            expected = oracle.expected_bodies(
                oracle.load(_documents(workload, Path(directory))), requests
            )
        results = [(200, body, 0.001) for body in expected]
        self.assertEqual(oracle.failures(results, expected), [])
        read = next(i for i, r in enumerate(requests) if r.endpoint == "probability")
        corrupted = list(results)
        body = expected[read]
        digit = next(i for i, c in enumerate(body) if chr(c).isdigit())
        flipped = bytes([body[digit] ^ 1])
        corrupted[read] = (200, body[:digit] + flipped + body[digit + 1:], 0.001)
        corrupted[0] = (500, b'{"error": "boom"}', 0.001)
        corrupted[1] = (0, b"ConnectionResetError()", 0.001)
        problems = oracle.failures(corrupted, expected)
        self.assertEqual(len(problems), 3, problems)
        self.assertIn("differs from the oracle", problems[-1])


class TracedRunFidelity(unittest.TestCase):
    def test_wrappers_keep_signatures_and_answers(self):
        workload = workloads.build("extract_stream", 4, 0.2)
        requests = workload.warmup + workload.window
        with tempfile.TemporaryDirectory(dir=ROOT / ".bench_build") as directory:
            documents = _documents(workload, Path(directory))
            untraced = oracle.expected_bodies(oracle.load(documents), requests)
            recorder = spans.SpanRecorder()
            installed = spans.install_frontend(recorder) + spans.install_worker(recorder)
            try:
                for owner, attribute, original in installed:
                    wrapped = getattr(owner, attribute)
                    self.assertIsNot(wrapped, original)
                    self.assertEqual(
                        inspect.signature(wrapped), inspect.signature(original),
                        f"{owner.__name__}.{attribute}",
                    )
                traced = oracle.expected_bodies(oracle.load(documents), requests)
            finally:
                spans.uninstall(installed)
        self.assertEqual(traced, untraced)
        self.assertTrue(any(span[1] == "match" for span in recorder.spans))

    def test_traced_service_run_is_correct(self):
        run = _run("extract_stream", 5, 1)
        self.assertTrue(run["result"]["correct"], run["problems"])
        self.assertEqual(run["result"]["failed"], 0)


class Provenance(unittest.TestCase):
    def test_benchmark_json_why_lines_match_workloads(self):
        declared = json.loads((ROOT / "BENCHMARK.json").read_text())["workloads"]
        self.assertEqual({w["name"]: w["why"] for w in declared}, workloads.WHY)

    def test_documents_cover_both_shards(self):
        for name in workloads.BUILDERS:
            described = workloads.build(name, 1, 0.1).describe()
            shards = {doc["shard"] for doc in described["documents"].values()}
            self.assertEqual(shards, set(range(workloads.SHARDS)), name)


class CounterDeltas(unittest.TestCase):
    def test_same_seed_runs_repeat_exactly(self):
        for workload in ("read_scan", "extract_stream"):
            first = _run(workload, 7, 0)["counter_deltas"]
            second = _run(workload, 7, 0)["counter_deltas"]
            self.assertEqual(first, second, workload)


if __name__ == "__main__":
    (ROOT / ".bench_build").mkdir(exist_ok=True)
    unittest.main()
