#!/usr/bin/env python3
"""The benchmark's own tests.

    python3 perfbench/test_perfbench.py

The unit tests need nothing built. The smoke tests build qpbench (through
run.py) and run every workload at tiny scale: once clean, asserting each
answer check ran, and once per check with that check's input corrupted on
purpose, asserting the run fails and prints no result.
"""

import json
import subprocess
import sys
import unittest
from pathlib import Path

import metrics

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
RATES = "50,100,150"


def request(latency, lag=0.001, query=0, algo="ppa"):
    return {"status": "ok", "algo": algo, "query": query, "lag_s": lag,
            "latency_s": latency, "first_s": latency / 2, "queue_s": 0.0,
            "service_s": latency}


def rung(name, rate, latencies, failed=0, lag=0.001, wall=10.0):
    requests = [request(x, lag) for x in latencies]
    requests += [{"status": "shed", "algo": "ppa", "query": 0,
                  "lag_s": lag}] * failed
    return {"rung": name, "rate": rate, "wall_s": wall, "cpu_s": 1.0,
            "max_lag_s": lag, "requests": requests}


class PercentileRuleTest(unittest.TestCase):

    def test_p99_needs_ten_samples_beyond(self):
        # 1000 samples: p99 is rank 989 (0-based), with 10 above it.
        value, pct, n = metrics.tail(list(range(1000)), 0.99)
        self.assertEqual((value, n), (989, 1000))
        self.assertAlmostEqual(pct, 0.99)

    def test_fewer_samples_lower_the_percentile(self):
        # 200 samples: p99 would leave 2 above; the rule reports rank 189,
        # which leaves exactly 10 above, i.e. p95.
        value, pct, n = metrics.tail(list(range(200)), 0.99)
        self.assertEqual(value, 189)
        self.assertEqual(sum(1 for x in range(200) if x > value), 10)
        self.assertAlmostEqual(pct, 0.95)

    def test_never_below_the_median(self):
        value, _, n = metrics.tail([5, 1, 4, 2, 3], 0.99)
        self.assertEqual((value, n), (3, 5))

    def test_unsorted_input(self):
        xs = [float(x) for x in range(500)]
        xs.reverse()
        self.assertEqual(metrics.tail(xs, 0.99)[0], 489.0)


class GoodputTest(unittest.TestCase):

    LIMIT = 0.25

    def test_highest_passing_rung(self):
        ladder = [rung("low", 25, [0.01] * 100),
                  rung("mid", 50, [0.02] * 200),
                  rung("high", 75, [0.30] * 300)]  # every answer too late
        rps, name = metrics.goodput(ladder, self.LIMIT)
        self.assertEqual(name, "mid")
        self.assertAlmostEqual(rps, 200 / 10.0)

    def test_one_percent_may_miss(self):
        ladder = [rung("low", 25, [0.01] * 99 + [0.5]),
                  rung("mid", 50, [0.01] * 197 + [0.5] * 3)]
        self.assertEqual(metrics.goodput(ladder, self.LIMIT)[1], "low")

    def test_shed_requests_count_as_misses(self):
        ladder = [rung("low", 25, [0.01] * 100),
                  rung("mid", 50, [0.01] * 196, failed=4)]
        self.assertEqual(metrics.goodput(ladder, self.LIMIT)[1], "low")

    def test_partial_answers_do_not_count(self):
        high = rung("high", 75, [0.01] * 100)
        for r in high["requests"][:2]:
            r["status"] = "partial"
        ladder = [rung("low", 25, [0.01] * 100), high]
        self.assertEqual(metrics.goodput(ladder, self.LIMIT)[1], "low")

    def test_lagging_generator_fails_the_rung(self):
        ladder = [rung("low", 25, [0.01] * 100),
                  rung("mid", 50, [0.01] * 100, lag=0.2)]
        self.assertEqual(metrics.goodput(ladder, self.LIMIT)[1], "low")

    def test_one_stall_does_not_fail_the_rung(self):
        mid = rung("mid", 50, [0.01] * 200)
        mid["requests"][7]["lag_s"] = 0.2
        ladder = [rung("low", 25, [0.01] * 100), mid]
        self.assertEqual(metrics.goodput(ladder, self.LIMIT)[1], "mid")

    def test_late_submits_are_counted_not_ranked(self):
        # 1% of a 300-request rung may be late; 2% is a lagging generator,
        # though a percentile with 10 samples beyond it would not see it.
        high = rung("high", 75, [0.01] * 300)
        for r in high["requests"][:3]:
            r["lag_s"] = 0.02
        self.assertTrue(metrics.kept_pace(high))
        for r in high["requests"][3:6]:
            r["lag_s"] = 0.02
        self.assertFalse(metrics.kept_pace(high))
        ladder = [rung("low", 25, [0.01] * 100), high]
        self.assertEqual(metrics.goodput(ladder, self.LIMIT)[1], "low")

    def test_no_rung_passes(self):
        ladder = [rung("low", 25, [1.0] * 100)]
        self.assertEqual(metrics.goodput(ladder, self.LIMIT), (0.0, None))


class ClassMedianTest(unittest.TestCase):

    def test_share_weighted_class_medians(self):
        low = {"rung": "low", "wall_s": 10.0, "requests": (
            [request(x, query=0) for x in (0.001, 0.002, 0.009)]
            + [request(x, query=1) for x in (0.040, 0.050, 0.300)]
            + [request(0.020, query=1, algo="spa")])}
        value, n = metrics.rung_median(low)
        self.assertEqual(n, 7)
        self.assertAlmostEqual(value, (3 * 0.002 + 3 * 0.050 + 0.020) / 7)
        self.assertEqual(metrics.rung_median(low, algo="spa"), (0.020, 1))

    def test_unanswered_class_reads_the_rung_span(self):
        low = rung("low", 25, [], failed=3)
        self.assertEqual(metrics.rung_median(low), (10.0, 3))


class BenchmarkJsonTest(unittest.TestCase):

    def test_names_and_units_match(self):
        spec = json.loads((ROOT / "BENCHMARK.json").read_text())
        self.assertEqual(
            {m["name"]: m["unit"] for m in spec["end_to_end"]},
            metrics.END_TO_END)
        self.assertEqual(
            {m["name"]: m["unit"] for m in spec["per_layer"]},
            metrics.PER_LAYER)


def run(workload, trace=0, inject=""):
    command = [sys.executable, str(HERE / "run.py"), "--workload", workload,
               "--seed", "3", "--seconds", "2", "--trace", str(trace),
               "--scale", "tiny", "--rates", RATES]
    if inject:
        command += ["--inject", inject]
    return subprocess.run(command, cwd=ROOT, capture_output=True, text=True,
                          timeout=900)


def provenance(done):
    line = next(l for l in done.stdout.splitlines() if l.startswith("# "))
    return json.loads(line[2:])


class SmokeTest(unittest.TestCase):
    """Each workload at tiny scale: clean runs pass every check they make,
    and corrupting one check's input fails the run without a result."""

    CHECKS = {
        "serve_mixed": ["serve_matches_cold"],
        "serve_churn": ["serve_matches_cold"],
    }

    def test_workloads(self):
        for workload, checks in self.CHECKS.items():
            for trace in (0, 1):
                with self.subTest(workload=workload, trace=trace):
                    done = run(workload, trace)
                    self.assertEqual(done.returncode, 0, done.stderr)
                    result = json.loads(done.stdout.splitlines()[-1])
                    self.assertEqual(set(result),
                                     {"correct", "attempted", "failed",
                                      "metrics"})
                    self.assertTrue(result["correct"])
                    self.assertGreater(result["attempted"], 0)
                    self.assertEqual(result["failed"], 0)
                    expected = (metrics.PER_LAYER if trace
                                else metrics.END_TO_END)
                    self.assertEqual(set(result["metrics"]), set(expected))
                    ran = provenance(done)["checks"]
                    for check in checks:
                        self.assertGreater(ran.get(check, 0), 0, check)
                    if trace:
                        self.assertGreater(ran["replay_matches_session"], 0)

    def test_stalled_slice_is_offered_again(self):
        done = run("serve_mixed", inject="late_submits")
        self.assertEqual(done.returncode, 0, done.stderr)
        self.assertEqual(provenance(done)["reoffered_slices"], 1)

    def test_generator_that_falls_behind_fails_the_run(self):
        done = run("serve_mixed", inject="generator_behind")
        self.assertNotEqual(done.returncode, 0)
        self.assertIn("generator fell behind", done.stderr)
        self.assertNotIn('"metrics"', done.stdout)

    def test_injected_mismatches_fail(self):
        for workload, checks in self.CHECKS.items():
            for check in checks:
                with self.subTest(workload=workload, check=check):
                    done = run(workload, inject=check)
                    self.assertNotEqual(done.returncode, 0)
                    self.assertIn(check, done.stderr)
                    self.assertNotIn('"metrics"', done.stdout)


if __name__ == "__main__":
    unittest.main()
