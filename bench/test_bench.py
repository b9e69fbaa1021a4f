"""Smoke test of the benchmark harness at a tiny scope.

    python3 -m unittest discover -s bench -p "test_*.py"
"""

from __future__ import annotations

import io
import json
import shutil
import subprocess
import sys
import tempfile
import unittest
from contextlib import redirect_stdout
from pathlib import Path

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
SPEC = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))


def _run(cwd, workload, trace):
    argv = [sys.executable, "bench/run.py", "--workload", workload, "--seed", "3"]
    argv += ["--seconds", "0.5", "--trace", str(trace), "--scope", "tiny"]
    return subprocess.run(argv, cwd=cwd, capture_output=True, text=True, timeout=300)


class HarnessSmokeTest(unittest.TestCase):
    def test_every_metric_is_emitted_with_its_unit(self):
        for workload in (w["name"] for w in SPEC["workloads"]):
            for trace, section in ((0, "end_to_end"), (1, "per_layer")):
                with self.subTest(workload=workload, trace=trace):
                    proc = _run(ROOT, workload, trace)
                    self.assertEqual(proc.returncode, 0, proc.stderr)
                    lines = proc.stdout.strip().splitlines()
                    result = json.loads(lines[-1])
                    self.assertEqual(set(result), {"correct", "attempted", "failed", "metrics"})
                    self.assertTrue(result["correct"], proc.stdout)
                    self.assertGreater(result["attempted"], 0)
                    self.assertEqual(result["failed"], 0)
                    self.assertIn("failed_frac 0 ", proc.stdout)
                    want = {m["name"]: m["unit"] for m in SPEC[section]}
                    got = {name: m["unit"] for name, m in result["metrics"].items()}
                    self.assertEqual(got, want)
                    values = [m["value"] for m in result["metrics"].values()]
                    self.assertTrue(all(isinstance(v, (int, float)) for v in values))
                    if trace == 0:
                        self.assertTrue(all(v > 0 for v in values), values)
                    if trace == 1 and workload == "additive-exhaustive":
                        matching = [
                            m["value"]
                            for name, m in result["metrics"].items()
                            if name.startswith("matching.")
                        ]
                        self.assertEqual(set(matching), {0})

    def test_exits_nonzero_without_the_sources(self):
        with tempfile.TemporaryDirectory() as tmp:
            shutil.copy(ROOT / "BENCHMARK.json", tmp)
            shutil.copytree(
                BENCH, Path(tmp) / "bench", ignore=shutil.ignore_patterns("out", "__pycache__")
            )
            proc = _run(tmp, "census-selfmatch", 0)
            self.assertNotEqual(proc.returncode, 0)
            self.assertNotIn("metrics", proc.stdout)


class OracleTest(unittest.TestCase):
    """The answer checks reject wrong answers, not only accept right ones."""

    @classmethod
    def setUpClass(cls):
        sys.path[:0] = [str(BENCH), str(ROOT / "src")]
        import matchroid
        import matchroid.cli
        import queries
        import suites

        cls.mr, cls.queries, cls.suites = matchroid, queries, suites

    def test_queries_are_accepted_and_corruptions_rejected(self):
        with tempfile.TemporaryDirectory() as tmp:
            pool = self.queries.build(7, Path(tmp), 1)
            for query in pool:
                out = io.StringIO()
                with redirect_stdout(out):
                    code = self.mr.cli.run(list(query.argv))
                stdout = out.getvalue()
                with self.subTest(argv=" ".join(query.argv)):
                    self.assertEqual(self.queries.check(self.mr, query, code, stdout), [])
                    self.assertNotEqual(self.queries.check(self.mr, query, 1 - code, stdout), [])
                    self.assertNotEqual(self.queries.check(self.mr, query, code, "{}"), [])

    def test_scope_totals_must_match_exactly(self):
        calls, scopes = self.suites.build("additive-exhaustive", self.mr, tiny=True)
        scope = scopes[0]
        docs = [
            self.mr.verify(c.theorem, bounds=c.bounds).to_json()
            for c in calls
            if c.scope == scope.name
        ]
        total = self.suites.combine(docs)
        self.assertEqual(self.suites.mismatches(scope.expect, total), [])
        total["checked"] += 1
        self.assertNotEqual(self.suites.mismatches(scope.expect, total), [])


if __name__ == "__main__":
    unittest.main()
