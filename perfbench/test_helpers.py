#!/usr/bin/env python3
"""Self-tests of the benchmark's own helpers.

    python3 perfbench/test_helpers.py

Covers the percentile rule (ten samples beyond), span self time, the /proc
parsers and the backlog-growth rule from run.py, and runs the harness's
`selftest` subcommand (open-loop due-time arithmetic, answer-line parsing)
when the harness has been built by an earlier run.py invocation.
"""

import os
import statistics
import subprocess
import sys
import unittest
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent))
import run  # noqa: E402


class PercentileRule(unittest.TestCase):
    def test_nearest_rank(self):
        values = list(range(100, 0, -1))  # unsorted input
        self.assertEqual(run.percentile(values, 50), 50)
        self.assertEqual(run.percentile(values, 90), 90)
        self.assertEqual(run.percentile(values, 99), 99)
        self.assertEqual(run.percentile(values, 100), 100)
        self.assertEqual(run.percentile([7.0], 99), 7.0)

    def test_failed_requests_sort_last(self):
        values = [1.0] * 98 + [float("inf")] * 2
        self.assertEqual(run.percentile(values, 98), 1.0)
        self.assertEqual(run.percentile(values, 99), float("inf"))

    def test_ten_samples_beyond(self):
        self.assertEqual(run.samples_beyond(100, 90), 10)
        self.assertTrue(run.supported(100, 90))
        self.assertFalse(run.supported(99, 90))
        self.assertTrue(run.supported(1000, 99))
        self.assertFalse(run.supported(999, 99))
        self.assertTrue(run.supported(20, 50))
        self.assertFalse(run.supported(19, 50))

    def test_min_samples(self):
        self.assertEqual(run.min_samples(50), 20)
        self.assertEqual(run.min_samples(90), 100)
        self.assertEqual(run.min_samples(99), 1000)

    def test_segments_outvote_one_stall(self):
        values = [1.0] * 4000
        values[1000:1050] = [500.0] * 50  # one stall inside segment 2 of 4
        self.assertEqual(run.percentile(values, 99), 500.0)
        self.assertEqual(run.segmented(values, 99, 4), 1.0)

    def test_segments_shrink_to_what_the_sample_supports(self):
        values = list(range(1, 151))  # 150 samples: one p90 segment only
        self.assertEqual(run.segmented(values, 90, 20),
                         run.percentile(values, 90))
        self.assertEqual(run.segmented(list(range(200)), 90, 20),
                         statistics.median([89, 189]))

    def test_empty_sample_is_an_error(self):
        with self.assertRaises(ValueError):
            run.percentile([], 50)


def span(sid, parent, start, end):
    return {"id": sid, "parent": parent, "start_ns": start, "end_ns": end}


class SelfTime(unittest.TestCase):
    def test_leaf_is_all_self(self):
        self.assertEqual(run.self_times([span("a", None, 0, 10)]), {"a": 10})

    def test_overlapping_children_count_once(self):
        spans = [span("p", None, 0, 100), span("c1", "p", 10, 40),
                 span("c2", "p", 30, 60), span("c3", "p", 80, 90)]
        self.assertEqual(run.self_times(spans)["p"], 100 - 50 - 10)

    def test_children_are_clipped_to_the_parent(self):
        spans = [span("p", None, 0, 100), span("c", "p", 90, 150)]
        own = run.self_times(spans)
        self.assertEqual(own["p"], 90)
        self.assertEqual(own["c"], 60)

    def test_grandchildren_only_reduce_their_parent(self):
        spans = [span("p", None, 0, 100), span("c", "p", 0, 50),
                 span("g", "c", 0, 50)]
        own = run.self_times(spans)
        self.assertEqual(own["p"], 50)
        self.assertEqual(own["c"], 0)
        self.assertEqual(own["g"], 50)


class ProcParsing(unittest.TestCase):
    STATUS = ("Name:\tnas_served\nState:\tS (sleeping)\nVmHWM:\t   70352 kB\n"
              "VmRSS:\t   70100 kB\nThreads:\t2\n"
              "voluntary_ctxt_switches:\t1234\n"
              "nonvoluntary_ctxt_switches:\t56\n")

    def test_status_fields(self):
        fields = run.parse_proc_status(self.STATUS)
        self.assertEqual(fields["VmHWM"], 70352)
        self.assertEqual(fields["voluntary_ctxt_switches"], 1234)
        self.assertEqual(fields["nonvoluntary_ctxt_switches"], 56)
        self.assertNotIn("State", fields)
        self.assertNotIn("Name", fields)

    def test_stat_cpu_with_awkward_command_name(self):
        # Fields 14 and 15 (utime, stime) are 250 and 50 clock ticks.
        line = ("4242 (nas served) x) S 1 4242 4242 0 -1 4194560 100 0 0 0 "
                "250 50 0 0 20 0 2 0 12345 1000000 500 18446744073709551615")
        self.assertAlmostEqual(run.parse_proc_stat_cpu_s(line, 100), 3.0)

    def test_live_proc_files_parse(self):
        own = Path(f"/proc/{os.getpid()}")
        if not own.is_dir():
            self.skipTest("no /proc")
        self.assertIn("VmHWM", run.parse_proc_status((own / "status").read_text()))
        self.assertGreaterEqual(
            run.parse_proc_stat_cpu_s((own / "stat").read_text(), 100), 0.0)


class BacklogRule(unittest.TestCase):
    def test_steady_backlog_is_valid(self):
        self.assertFalse(run.backlog_growing([18, 21, 19, 10, 11, 20, 17, 16]))

    def test_growing_backlog_is_invalid(self):
        self.assertTrue(run.backlog_growing([10, 20, 40, 80, 160, 320]))

    def test_small_spikes_do_not_count(self):
        self.assertFalse(run.backlog_growing([2, 3, 2, 50, 60, 40]))

    def test_short_windows_are_not_judged(self):
        self.assertFalse(run.backlog_growing([1, 500, 1000]))


class HarnessSelfTest(unittest.TestCase):
    def test_due_times_and_answer_parsing(self):
        build_dir = Path(os.environ.get("CARGO_TARGET_DIR", ".bench_build"))
        harness = build_dir / "nas_perfbench"
        if not harness.is_file():
            self.skipTest(f"{harness} not built yet (run perfbench/run.py once)")
        done = subprocess.run([str(harness), "selftest"], capture_output=True,
                              text=True)
        self.assertEqual(done.returncode, 0, done.stderr)


if __name__ == "__main__":
    unittest.main()
