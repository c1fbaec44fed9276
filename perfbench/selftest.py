"""Self-tests of the benchmark itself.

    python3 perfbench/selftest.py

They check that the query generator is deterministic per seed and distinct
across seeds, that corrupted outputs count as failed queries, that tracing
leaves the package unpatched, and that run.py refuses to run without the
package sources.
"""

from __future__ import annotations

import io
import json
import re
import shutil
import subprocess
import sys
import unittest
from contextlib import redirect_stdout
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path.insert(0, str(HERE))
sys.path.insert(0, str(ROOT / "src"))

import quotientfree.cli as cli  # noqa: E402
from checks import Checker, digest  # noqa: E402
from player import Player  # noqa: E402
from tracing import Tracer  # noqa: E402
from workloads import CYCLE, WORKLOADS, QueryStream  # noqa: E402


def _corrupt(text: str) -> str:
    """Change one digit of the result: the first one after '"result"', or in the CSV body."""
    start = text.find('"result"')
    if start < 0:
        start = text.find("\n")  # CSV: skip the header
    match = re.compile(r"\d").search(text, start)
    digit = match.group()
    return text[:match.start()] + str((int(digit) + 1) % 10) + text[match.end():]


class _CorruptingCli:
    """Stands in for quotientfree.cli: runs the real main, then corrupts what it wrote."""

    def main(self, argv):
        buffer = io.StringIO()
        with redirect_stdout(buffer):
            rc = cli.main(argv)
        sys.stdout.write(_corrupt(buffer.getvalue()))
        return rc


def _first_of_each_family(workload: str) -> list:
    chosen = {}
    for query in QueryStream(workload, 7).next_pass():
        chosen.setdefault(query.family, query)
    return list(chosen.values())


class GeneratorTest(unittest.TestCase):
    def test_deterministic_per_seed(self):
        for workload in WORKLOADS:
            first, second = QueryStream(workload, 3), QueryStream(workload, 3)
            for _ in range(2):
                self.assertEqual([q.argv for q in first.next_pass()],
                                 [q.argv for q in second.next_pass()])

    def test_distinct_across_seeds(self):
        for workload in WORKLOADS:
            a = {q.argv for q in QueryStream(workload, 3).next_pass()}
            b = {q.argv for q in QueryStream(workload, 4).next_pass()}
            self.assertNotEqual(a, b)

    def test_no_query_repeats_within_a_run(self):
        for workload in WORKLOADS:
            stream = QueryStream(workload, 5)
            argvs = [q.argv for _ in range(CYCLE) for q in stream.next_pass()]
            self.assertEqual(len(argvs), len(set(argvs)))


class CheckTest(unittest.TestCase):
    def test_corrupted_outputs_fail(self):
        for workload in WORKLOADS:
            queries = _first_of_each_family(workload)
            honest = Player(cli, Checker()).play(queries)
            self.assertEqual(honest.failures, [], workload)
            corrupted = Player(_CorruptingCli(), Checker()).play(queries)
            self.assertEqual(len(corrupted.failures), len(queries), workload)

    def test_pinned_digest_mismatch_fails(self):
        query = QueryStream("counting", 1).next_pass()[0]
        buffer = io.StringIO()
        with redirect_stdout(buffer):
            rc = cli.main(list(query.argv))
        honest = Checker()
        canonical, problems = honest.check(query, rc, buffer.getvalue())
        self.assertEqual(problems, [])
        pinned = Checker({digest(query.key): digest(canonical + "x")})
        _, problems = pinned.check(query, rc, buffer.getvalue())
        self.assertIn("result differs from its pinned digest", problems)


def _bindings() -> dict:
    """Every function bound in a package module or on a traced class."""
    out = {}
    for name, module in sorted(sys.modules.items()):
        if name == "quotientfree" or name.startswith("quotientfree."):
            for attr, obj in vars(module).items():
                if callable(obj):
                    out[(name, attr)] = obj
    geometry = sys.modules["quotientfree.geometry"]
    for cls in (geometry.SimplexSpec, geometry.ExactReal):
        for attr, obj in vars(cls).items():
            out[(cls.__name__, attr)] = obj
    return out


class TracingTest(unittest.TestCase):
    def test_tracing_leaves_package_unpatched(self):
        before = _bindings()
        tracer = Tracer()
        tracer.install()
        try:
            patched = _bindings()
            self.assertTrue(any(patched[k] is not before[k] for k in before))
            queries = _first_of_each_family("geometry")[:3]
            Player(cli, Checker()).play(queries, tracer)
        finally:
            self.assertTrue(tracer.restore())
        after = _bindings()
        self.assertEqual(before.keys(), after.keys())
        for key, obj in before.items():
            self.assertIs(after[key], obj, key)
        metrics = tracer.metrics()
        self.assertGreater(metrics["trace.query_s"], 0)
        self.assertAlmostEqual(metrics["trace.unattributed_s"], 0, places=9)


class EntryTest(unittest.TestCase):
    def test_refuses_without_package_sources(self):
        bare = HERE / "out" / "selftest-bare"
        shutil.rmtree(bare, ignore_errors=True)
        try:
            bare.mkdir(parents=True)
            shutil.copy(ROOT / "BENCHMARK.json", bare)
            shutil.copytree(HERE, bare / "perfbench",
                            ignore=shutil.ignore_patterns("out", "__pycache__"))
            proc = subprocess.run(
                [sys.executable, "perfbench/run.py", "--workload", "counting", "--seed", "1",
                 "--seconds", "1", "--trace", "0"],
                cwd=bare, capture_output=True, text=True, timeout=180)
            self.assertNotEqual(proc.returncode, 0)
            self.assertEqual(proc.stdout.strip(), "")
        finally:
            shutil.rmtree(bare, ignore_errors=True)

    def test_result_line(self):
        proc = subprocess.run(
            [sys.executable, str(HERE / "run.py"), "--workload", "geometry", "--seed", "2",
             "--seconds", "1", "--trace", "0"],
            cwd=ROOT, capture_output=True, text=True, timeout=180)
        self.assertEqual(proc.returncode, 0, proc.stderr)
        result = json.loads(proc.stdout.strip().splitlines()[-1])
        self.assertEqual(set(result), {"correct", "attempted", "failed", "metrics"})
        spec = json.loads((ROOT / "BENCHMARK.json").read_text())
        self.assertEqual(set(result["metrics"]), {m["name"] for m in spec["end_to_end"]})
        self.assertTrue(result["correct"])


if __name__ == "__main__":
    unittest.main()
