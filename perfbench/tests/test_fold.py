"""Self-time folding and peak concurrency on hand-built traces."""

import json
import os
import sys
import tempfile
import unittest

sys.path.insert(0, os.path.dirname(os.path.dirname(os.path.abspath(__file__))))

import fold  # noqa: E402


def span(name, start, end, cat="db", pid=1, tid=1):
    return (pid, tid, start, end, name, cat)


class FoldSelfTimeTest(unittest.TestCase):
    def test_children_and_overlapping_verbs(self):
        spans = [
            span("A", 0, 100),
            span("B", 10, 40),
            span("C", 30, 60),            # Overlaps B: a sibling, not a child.
            span("READ", 15, 25, "verb"),  # Inside B.
            span("READ", 35, 80, "verb"),  # Crosses B and C: child of A.
            span("READ", 36, 38, "verb"),  # Inside C (verbs are never parents).
            span("A", 0, 10, tid=2),       # Same name on another thread.
        ]
        got = fold.fold_self_time(spans)
        # A covers [10, 60] by B and C plus [35, 80] by a verb: 70 of 100.
        self.assertEqual(got["A"], (2, 110, 30 + 10))
        self.assertEqual(got["B"], (1, 30, 20))
        self.assertEqual(got["C"], (1, 30, 28))
        self.assertEqual(got["READ"], (3, 10 + 45 + 2, 10 + 45 + 2))

    def test_self_times_add_up_to_root_duration_when_nested(self):
        spans = [span("root", 0, 50), span("mid", 5, 45), span("leaf", 10, 20),
                 span("leaf", 30, 40)]
        got = fold.fold_self_time(spans)
        self.assertEqual(sum(v[2] for v in got.values()), 50)
        self.assertEqual(got["mid"][2], 20)

    def test_same_start_longer_span_is_parent(self):
        got = fold.fold_self_time([span("inner", 0, 5), span("outer", 0, 9)])
        self.assertEqual(got["outer"], (1, 9, 4))
        self.assertEqual(got["inner"], (1, 5, 5))


class PeakConcurrencyTest(unittest.TestCase):
    def test_counts_only_verbs_of_chosen_processes(self):
        spans = [
            span("READ", 15, 25, "verb"),
            span("READ", 20, 30, "verb"),
            span("WRITE", 22, 24, "verb"),
            span("READ", 21, 23, "verb", pid=2),  # Other process.
            span("Get", 0, 100),                  # Not a verb.
        ]
        self.assertEqual(fold.peak_concurrency(spans, {1}), 3)
        self.assertEqual(fold.peak_concurrency(spans, {2}), 1)
        self.assertEqual(fold.peak_concurrency(spans, set()), 0)

    def test_touching_intervals_do_not_overlap(self):
        spans = [span("READ", 0, 10, "verb"), span("READ", 10, 20, "verb"),
                 span("READ", 20, 20, "verb")]
        self.assertEqual(fold.peak_concurrency(spans, {1}), 1)


class LoadEventsTest(unittest.TestCase):
    def test_reads_chrome_trace(self):
        doc = {"traceEvents": [
            {"ph": "M", "name": "process_name", "pid": 3,
             "args": {"name": "compute"}},
            {"ph": "M", "name": "thread_name", "pid": 3, "tid": 9,
             "args": {"name": "client"}},
            {"ph": "X", "name": "Get", "cat": "db", "ts": 1.5, "dur": 2.25,
             "pid": 3, "tid": 9},
            {"ph": "i", "name": "read_retry", "ts": 2.0, "pid": 3, "tid": 9},
        ]}
        with tempfile.TemporaryDirectory() as d:
            path = os.path.join(d, "t.json")
            with open(path, "w", encoding="utf-8") as f:
                json.dump(doc, f)
            spans, processes = fold.load_events(path)
        self.assertEqual(spans, [(3, 9, 1500, 3750, "Get", "db")])
        self.assertEqual(processes, {3: "compute"})


if __name__ == "__main__":
    unittest.main()
