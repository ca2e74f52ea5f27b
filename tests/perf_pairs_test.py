#!/usr/bin/env python3
"""Tests for scripts/perf_pairs.py on synthetic perfbench results.

Fake perfbench binaries (small Python scripts) print a result line whose
metric values (a scale: below 1 is better on every metric) and failure
counts the test chooses, so the verdict rules can be pinned without
building or running the real benchmark.

    python3 tests/perf_pairs_test.py
"""

import contextlib
import importlib.util
import io
import json
import os
import stat
import tempfile
import unittest

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
_spec = importlib.util.spec_from_file_location(
    "perf_pairs", os.path.join(ROOT, "scripts", "perf_pairs.py"))
perf_pairs = importlib.util.module_from_spec(_spec)
_spec.loader.exec_module(perf_pairs)

with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
    METRICS = json.load(f)["end_to_end"]
WRITE_P50 = next(m for m in METRICS if m["name"] == "write_p50_ms")

FAKE = """#!/usr/bin/env python3
import json, sys, time
seed = int(sys.argv[sys.argv.index("--seed") + 1])
if seed == {hang_seed}:
    time.sleep(30)
lower = {lower}
scale = {scale}
print(json.dumps({{"correct": True, "attempted": 1000, "failed": {failed},
                  "metrics": {{n: {{"value": (scale if low else 1 / scale)
                                            * (1 + seed / 1000.0)}}
                              for n, low in lower.items()}}}}))
"""


class VerdictTest(unittest.TestCase):
    def test_clear_win_is_a_gain(self):
        row = perf_pairs.verdict(WRITE_P50, [1.0, 1.01, 1.02, 0.99], [0.7, 0.71, 0.69, 0.7])
        self.assertEqual(row["verdict"], "gain")
        self.assertEqual(row["wins"], 4)

    def test_gain_with_more_failures_is_void(self):
        row = perf_pairs.verdict(WRITE_P50, [1.0, 1.01, 1.02, 0.99], [0.7, 0.71, 0.69, 0.7],
                                 more_failures=True)
        self.assertEqual(row["verdict"], "gain-void")

    def test_slower_beyond_bound_is_worse(self):
        row = perf_pairs.verdict(WRITE_P50, [1.0, 1.0, 1.0], [1.5, 1.5, 1.5])
        self.assertEqual(row["verdict"], "worse")

    def test_timeout_grows_with_the_run(self):
        self.assertGreater(perf_pairs.run_timeout_s(160), 160 + 5)


class MainTest(unittest.TestCase):
    def setUp(self):
        self.tmp = tempfile.TemporaryDirectory()
        self.lower = {m["name"]: m["better"] == "lower" for m in METRICS}

    def tearDown(self):
        self.tmp.cleanup()

    def fake(self, name, scale, failed=0, hang_seed=-1):
        path = os.path.join(self.tmp.name, name)
        with open(path, "w") as f:
            f.write(FAKE.format(hang_seed=hang_seed, lower=self.lower,
                                failed=failed, scale=scale))
        os.chmod(path, os.stat(path).st_mode | stat.S_IXUSR)
        return path

    def run_main(self, parent, change, seeds):
        out = io.StringIO()
        with contextlib.redirect_stdout(out):
            code = perf_pairs.main(["--parent", parent, "--change", change,
                                    "--workload", "w", "--seeds", seeds,
                                    "--seconds", "1"])
        return code, out.getvalue()

    def row(self, output, metric):
        return next(l for l in output.splitlines() if l.startswith(metric + " "))

    def test_faster_change_with_equal_failures_gains(self):
        code, out = self.run_main(self.fake("p", 1.0, failed=1),
                                  self.fake("c", 0.5, failed=1), "1,2,3,4")
        self.assertEqual(code, 0, out)
        self.assertTrue(self.row(out, "write_p50_ms").endswith("gain"), out)

    def test_faster_change_that_fails_more_is_refused(self):
        code, out = self.run_main(self.fake("p", 1.0, failed=0),
                                  self.fake("c", 0.5, failed=3), "1,2,3,4")
        self.assertEqual(code, 1, out)
        self.assertTrue(self.row(out, "write_p50_ms").endswith("gain-void"), out)

    def test_timeout_reports_the_pairs_already_run(self):
        original = perf_pairs.run_timeout_s
        perf_pairs.run_timeout_s = lambda seconds: 2
        try:
            code, out = self.run_main(self.fake("p", 1.0),
                                      self.fake("c", 1.0, hang_seed=3), "1,2,3,4")
        finally:
            perf_pairs.run_timeout_s = original
        self.assertEqual(code, 1, out)
        self.assertIn("seed 3: change run timed out", out)
        self.assertIn("2 pairs", out)


if __name__ == "__main__":
    unittest.main()
