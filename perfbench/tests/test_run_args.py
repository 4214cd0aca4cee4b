"""Command-line strictness and metric lists of perfbench/run.py."""

import contextlib
import io
import json
import os
import sys
import unittest

HERE = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
sys.path.insert(0, HERE)

import run  # noqa: E402

GOOD = ["--workload", "get_uniform", "--seed", "3", "--seconds", "10",
        "--trace", "0"]


def rejects(argv):
    with contextlib.redirect_stderr(io.StringIO()):
        try:
            run.parse_args(argv)
        except SystemExit as e:
            return e.code != 0
    return False


class ParseArgsTest(unittest.TestCase):
    def test_accepts_contract_form(self):
        args = run.parse_args(GOOD)
        self.assertEqual((args.workload, args.seed, args.seconds, args.trace),
                         ("get_uniform", 3, 10, 0))

    def test_rejects_unknown_and_abbreviated_flags(self):
        self.assertTrue(rejects(GOOD + ["--sed", "1"]))
        self.assertTrue(rejects(GOOD[:2] + ["--se", "3"] + GOOD[4:]))

    def test_rejects_malformed_values(self):
        for i, bad in ((1, "nope"), (3, "-1"), (3, "1e3"), (3, "x"),
                       (3, str(2**64)), (5, "0"), (5, "61"), (7, "2")):
            argv = list(GOOD)
            argv[i] = bad
            self.assertTrue(rejects(argv), argv)

    def test_requires_every_flag(self):
        for i in range(0, len(GOOD), 2):
            self.assertTrue(rejects(GOOD[:i] + GOOD[i + 2:]), GOOD[i])


class MetricListsTest(unittest.TestCase):
    def test_names_are_unique(self):
        self.assertEqual(len(set(run.PER_LAYER)), len(run.PER_LAYER))
        self.assertEqual(len(set(run.END_TO_END)), len(run.END_TO_END))

    def test_match_benchmark_json(self):
        path = os.path.join(os.path.dirname(HERE), "BENCHMARK.json")
        if not os.path.isfile(path):
            self.skipTest("no BENCHMARK.json beside perfbench/")
        with open(path, encoding="utf-8") as f:
            spec = json.load(f)
        self.assertEqual([m["name"] for m in spec["end_to_end"]],
                         run.END_TO_END)
        self.assertEqual([m["name"] for m in spec["per_layer"]], run.PER_LAYER)
        self.assertEqual([w["name"] for w in spec["workloads"]], run.WORKLOADS)


if __name__ == "__main__":
    unittest.main()
