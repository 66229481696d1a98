"""Tests of the benchmark's own code.

    python3 -m unittest discover -s perfbench -p 'test_*.py'

`MetricNamesTest` builds the program and runs the cheapest workload once
per mode (about half a minute warm); set PERFBENCH_SKIP_RUN=1 to skip it.
"""

import json
import os
import shutil
import stat
import subprocess
import sys
import unittest

sys.path.insert(0, os.path.dirname(os.path.abspath(__file__)))
import run  # noqa: E402


class PercentileTest(unittest.TestCase):
    def test_highest_percentile_with_ten_samples_beyond(self):
        self.assertIsNone(run.tail_percentile(19))
        self.assertEqual(run.tail_percentile(20), 50)
        self.assertEqual(run.tail_percentile(100), 90)
        self.assertEqual(run.tail_percentile(199), 90)
        self.assertEqual(run.tail_percentile(200), 95)
        self.assertEqual(run.tail_percentile(1000), 99)
        self.assertEqual(run.tail_percentile(10000), 99.9)

    def test_nearest_rank_leaves_ten_samples_beyond_p95_of_200(self):
        xs = list(range(1, 201))
        p95 = run.nearest_rank(xs, 95)
        self.assertEqual(p95, 190)
        self.assertEqual(sum(x > p95 for x in xs), 10)
        self.assertEqual(run.nearest_rank(xs, 50), 100)
        self.assertEqual(run.nearest_rank([7], 95), 7)

    def test_summary_reports_the_sample_count(self):
        st = run.summarize([3.0, 1.0, 2.0])
        self.assertEqual(st, {"median": 2.0, "tail": None, "n": 3})
        self.assertEqual(run.summarize([]), {"median": None, "tail": None, "n": 0})


class SelfTimeTest(unittest.TestCase):
    def span(self, id, parent, start, end):
        return {"id": id, "parent": parent, "start_ns": start, "end_ns": end}

    def test_self_time_subtracts_the_union_of_children(self):
        spans = [
            self.span(0, None, 0, 100),
            self.span(1, 0, 10, 40),   # overlaps the next child
            self.span(2, 0, 30, 50),
            self.span(3, 0, 70, 80),
            self.span(4, 1, 15, 20),   # grandchild: counts for span 1 only
        ]
        st = run.self_times(spans)
        self.assertEqual(st[0], 100 - (50 - 10) - (80 - 70))
        self.assertEqual(st[1], 30 - 5)
        self.assertEqual(st[2], 20)
        self.assertEqual(st[4], 5)

    def test_leaf_self_time_is_its_duration(self):
        self.assertEqual(run.self_times([self.span(7, None, 5, 9)]), {7: 4})


class FailureAccountingTest(unittest.TestCase):
    """A verb child that aborts, or exits outside its contract, is one
    failed operation and does not end the run."""

    def setUp(self):
        # One child per sample, so each call below is one operation.
        self.op_min_s, run.OP_MIN_S = run.OP_MIN_S, 0.0
        # Not the default seed, so no pinned digest applies.
        self.run = run.Run("stencil-64", 12345, 0.0, ("unused", "unused"))
        self.tool = os.path.join(self.run.work, "fake-mpgtool")
        self.run.dirs = {"mw": self.run.work}

    def tearDown(self):
        run.OP_MIN_S = self.op_min_s
        self.run.cleanup()

    def fake(self, body):
        with open(self.tool, "w") as f:
            f.write(f"#!{sys.executable}\nimport os, sys\n{body}\n")
        os.chmod(self.tool, os.stat(self.tool).st_mode | stat.S_IEXEC)
        self.run.mpgtool = self.tool

    def test_aborting_child_is_one_failed_operation(self):
        self.fake("os.abort()")
        self.assertEqual(self.run.verb_op("lint", ["mw"], [], "lint")(), [])
        self.assertEqual((self.run.attempted, self.run.failed), (1, 1))
        self.assertIn("killed by signal 6", self.run.failures[0])

    def test_failed_repeats_leave_no_samples_and_the_run_goes_on(self):
        self.fake("os.abort() if sys.argv[1] == 'lint' else print('ok')")
        failing = run.Lane(self.run.verb_op("lint", ["mw"], [], "lint"), 1.0)
        passing = run.Lane(self.run.verb_op("replay", ["mw"], [], "replay"), 1.0)
        self.run.interleave([failing, passing])
        self.assertEqual(failing.samples, [])
        self.assertEqual(len(passing.samples), run.MIN_REPS)
        self.assertEqual(self.run.failed, run.MIN_REPS)
        self.assertEqual(self.run.attempted, 2 * run.MIN_REPS)

    def test_exit_code_contract(self):
        self.fake("print('x'); sys.exit(1)")
        self.assertEqual(len(self.run.verb_op("lint", ["mw"], [], "lint")()), 1)
        self.assertEqual(self.run.verb_op("replay", ["mw"], [], "replay")(), [])
        self.fake("sys.exit(2)")
        self.assertEqual(self.run.verb_op("lint", ["mw"], [], "lint")(), [])
        self.assertEqual((self.run.attempted, self.run.failed), (3, 2))

    def test_a_pass_with_different_output_fails_its_sample(self):
        run.OP_MIN_S = 10.0
        self.fake("import random; print(random.random())")
        self.assertEqual(self.run.verb_op("replay", ["mw"], [], "replay")(), [])
        self.assertEqual((self.run.attempted, self.run.failed), (2, 1))

    def test_a_repeat_with_different_output_is_a_failure(self):
        results = [(1.0, "aa", None), (2.0, "bb", None), (3.0, "aa", None)]
        kept = self.run.check_digests("replay", results)
        self.assertEqual([r[0] for r in kept], [1.0, 3.0])
        self.assertEqual(self.run.failed, 1)

    def test_address_space_cap_applies_to_children(self):
        grab = [sys.executable, "-c", "b = bytearray(512 << 20)"]
        self.assertNotEqual(run.run_child(grab, self.run.work, cap=256 << 20).rc, 0)
        self.assertEqual(run.run_child(grab, self.run.work, cap=None).rc, 0)
        self.assertEqual(run.run_child(grab, self.run.work).rc, 0)


@unittest.skipIf(os.environ.get("PERFBENCH_SKIP_RUN"), "PERFBENCH_SKIP_RUN is set")
class MetricNamesTest(unittest.TestCase):
    """Every emitted metric name and unit matches BENCHMARK.json."""

    def check(self, trace, section):
        with open(run.BENCHMARK_JSON) as f:
            spec = json.load(f)[section]
        p = subprocess.run([sys.executable, os.path.join(run.HERE, "run.py"), "--workload",
                            "serve-mix", "--seconds", "1", "--trace", str(trace)],
                           cwd=run.ROOT, capture_output=True, text=True, timeout=900)
        self.assertEqual(p.returncode, 0, p.stderr[-2000:])
        result = json.loads(p.stdout.strip().splitlines()[-1])
        self.assertEqual(sorted(result), ["attempted", "correct", "failed", "metrics"])
        self.assertTrue(result["correct"])
        self.assertEqual([(n, m["unit"]) for n, m in result["metrics"].items()],
                         [(m["name"], m["unit"]) for m in spec])
        for name, m in result["metrics"].items():
            self.assertIsInstance(m["value"], (int, float), name)

    def test_end_to_end(self):
        self.check(0, "end_to_end")

    def test_per_layer(self):
        self.check(1, "per_layer")


if __name__ == "__main__":
    unittest.main()
