#!/usr/bin/env python3
"""Unit tests for perfbench's percentile, sample-count and digest-gate code.

    python3 perfbench/test_metrics.py
"""

import os
import sys
import unittest

sys.path.insert(0, os.path.dirname(os.path.abspath(__file__)))

import metrics  # noqa: E402


def registry(counters=None, timers=None, histograms=None):
    return {"schema": "msn-run-stats-v1", "counters": counters or {},
            "timers": timers or {}, "histograms": histograms or {}}


class PercentileTest(unittest.TestCase):
    def test_nearest_rank_on_one_to_hundred(self):
        values = list(range(100, 0, -1))  # Unsorted on purpose.
        self.assertEqual(metrics.percentile(values, 50), 50)
        self.assertEqual(metrics.percentile(values, 90), 90)
        self.assertEqual(metrics.percentile(values, 99), 99)
        self.assertEqual(metrics.percentile(values, 100), 100)

    def test_returns_a_sample(self):
        self.assertEqual(metrics.percentile([7.5], 99), 7.5)
        self.assertEqual(metrics.percentile([1, 2, 3, 4], 80), 4)
        self.assertEqual(metrics.percentile([1, 2, 3, 4], 75), 3)

    def test_rejects_empty_and_bad_levels(self):
        with self.assertRaises(ValueError):
            metrics.percentile([], 50)
        with self.assertRaises(ValueError):
            metrics.percentile([1], 0)
        with self.assertRaises(ValueError):
            metrics.percentile([1], 101)


class SampleCountTest(unittest.TestCase):
    def test_samples_beyond(self):
        self.assertEqual(metrics.samples_beyond(100, 90), 10)
        self.assertEqual(metrics.samples_beyond(1000, 99), 10)
        self.assertEqual(metrics.samples_beyond(50, 80), 10)
        self.assertEqual(metrics.samples_beyond(80, 80), 16)
        self.assertEqual(metrics.samples_beyond(1, 50), 0)

    def test_default_tail_levels_hold_at_default_run_sizes(self):
        # Sample counts a 30 s run collects on a 4-core x86 box (see
        # METRICS.md): every fixed tail keeps at least ten samples beyond.
        counts = {("msri_table4", "primary"): 90,
                  ("msri_table4", "secondary"): 90,
                  ("serve_mixed", "primary"): 8000,
                  ("serve_mixed", "secondary"): 900,
                  ("closure", "primary"): 80}
        for key, n in counts.items():
            self.assertGreaterEqual(
                metrics.samples_beyond(n, metrics.TAIL_LEVELS[key]),
                metrics.MIN_BEYOND, key)

    def test_timing_summary(self):
        t = metrics.timing(list(range(1, 101)), 90)
        self.assertEqual((t["p50"], t["tail"], t["n"], t["beyond"]),
                         (50.5, 90, 100, 10))
        m = metrics.timing([3.0, 1.0, 2.0, 4.0], 75)
        self.assertEqual((m["p50"], m["tail"], m["beyond"]), (2.5, 3.0, 1))

    def test_timing_median_over_inputs(self):
        # Three passes over four inputs.  The plain median averages the
        # slowest sample of input 2 and the fastest of input 3; the median
        # over inputs averages those inputs' own medians.
        runs = {1: [1.0, 1.2, 1.1], 2: [2.0, 2.8, 2.2], 3: [5.0, 5.5, 5.2],
                4: [9.0, 9.9, 9.3]}
        values = [v for p in range(3) for k in runs for v in [runs[k][p]]]
        inputs = [k for p in range(3) for k in runs]
        self.assertAlmostEqual(metrics.timing(values, 50)["p50"], 3.9)
        t = metrics.timing(values, 75, inputs)
        self.assertAlmostEqual(t["p50"], 3.7)
        self.assertEqual((t["tail"], t["n"], t["beyond"]), (5.5, 12, 3))
        with self.assertRaises(ValueError):
            metrics.timing(values, 50, inputs[:-1])

    def test_rate(self):
        self.assertAlmostEqual(metrics.rate_per_s([250.0, 250.0]), 4.0)
        with self.assertRaises(ValueError):
            metrics.rate_per_s([])


class DigestGateTest(unittest.TestCase):
    REFERENCE = {"r1": "00000000000000aa", "s1": "00000000000000bb"}

    def raw(self, digests, errors=(), attempted=10, uses=None):
        return {"attempted": attempted, "errors": list(errors),
                "digests": digests, "digest_uses": uses or {}}

    def test_matching_digests_pass(self):
        a, f, msgs = metrics.gate(self.raw(dict(self.REFERENCE)),
                                  self.REFERENCE)
        self.assertEqual((a, f, msgs), (10, 0, []))
        self.assertEqual(metrics.error_rate(a, f), 0.0)

    def test_known_mismatch_raises_error_rate(self):
        observed = dict(self.REFERENCE, s1="00000000000000cc")
        a, f, msgs = metrics.gate(self.raw(observed), self.REFERENCE)
        self.assertEqual(f, 1)
        self.assertIn("s1", msgs[0])
        self.assertAlmostEqual(metrics.error_rate(a, f), 0.1)

    def test_every_operation_on_a_mismatched_input_fails(self):
        observed = dict(self.REFERENCE, s1="00000000000000cc")
        a, f, msgs = metrics.gate(self.raw(observed, uses={"r1": 4, "s1": 6}),
                                  self.REFERENCE)
        self.assertEqual((a, f, len(msgs)), (10, 6, 1))
        self.assertAlmostEqual(metrics.error_rate(a, f), 0.6)

    def test_unknown_key_fails(self):
        observed = dict(self.REFERENCE, r9="00000000000000aa")
        self.assertEqual(metrics.digest_mismatches(observed, self.REFERENCE),
                         {"r9": "r9: no reference digest"})

    def test_program_errors_count_with_mismatches(self):
        observed = {"r1": "ffffffffffffffff"}
        a, f, msgs = metrics.gate(
            self.raw(observed, errors=["d3: warm run made 4 DP runs"]),
            self.REFERENCE)
        self.assertEqual(f, 2)
        self.assertEqual(len(msgs), 2)

    def test_failed_never_exceeds_attempted(self):
        observed = {"r1": "x", "s1": "y"}
        a, f, _ = metrics.gate(self.raw(observed, attempted=1),
                               self.REFERENCE)
        self.assertEqual((a, f), (1, 1))

    def test_error_rate_needs_an_attempt(self):
        with self.assertRaises(ValueError):
            metrics.error_rate(0, 0)


class MetricDerivationTest(unittest.TestCase):
    def test_msri_end_to_end_at_reference_speed(self):
        ref = metrics.PROBE_REF_MS
        raw = {"setup_s": [0.3, 0.1, 0.2], "peak_rss_mb": 12.0,
               "samples": {"repeater_ms": [100.0, 300.0],
                           "repeater_ms.probe": [0, 2],
                           "sizing_ms": [10.0, 30.0],
                           "sizing_ms.probe": [1, 3],
                           "repeater_ms.net": [1, 2],
                           "sizing_ms.net": [1, 2],
                           "probe_mem_ms": [ref, ref, ref, ref],
                           "probe_text_ms": [ref, ref, ref, ref],
                           "setup.probe_mem_ms": [ref / 4] * 3,
                           "setup.probe_text_ms": [ref / 4] * 3}}
        # The host ran at half the reference speed, and at twice it during
        # set-up: times halve, rates double, the set-up time doubles and
        # memory is untouched.
        e2e, p, q = metrics.end_to_end("msri_table4", raw)
        self.assertEqual(set(e2e), {n for n, _ in metrics.END_TO_END})
        self.assertEqual(e2e["setup_s"], (0.4, "s"))
        self.assertEqual(e2e["peak_rss_mb"], (12.0, "MB"))
        self.assertAlmostEqual(e2e["ops_per_s"][0], 10.0)
        self.assertEqual(e2e["primary_p50_ms"][0], 100.0)
        self.assertEqual(e2e["secondary_tail_ms"][0], 15.0)

    def test_each_time_is_scaled_by_the_probes_around_it(self):
        ref = metrics.PROBE_REF_MS
        w = metrics.PROBE_WINDOW
        # The host runs at the reference speed, then at half of it.
        probes = [ref] * (3 * w) + [2 * ref] * (3 * w)
        samples = {"probe_mem_ms": [p / 2 for p in probes],
                   "probe_text_ms": [p / 2 for p in probes],
                   "op_ms": [10.0, 20.0, 20.0],
                   "op_ms.probe": [w, 3 * w + w, len(probes) - 1]}
        self.assertEqual(metrics.scaled(samples, "op_ms"), [10.0, 10.0, 10.0])
        samples["op_ms.probe"] = [len(probes) + w + 1, 0, 0]
        with self.assertRaises(ValueError):
            metrics.scaled(samples, "op_ms")

    def test_speed_factor_of_one_probe_series(self):
        ref = metrics.PROBE_REF_MS
        samples = {"probe_mem_ms": [ref / 2], "probe_text_ms": [ref / 2],
                   "setup.probe_mem_ms": [ref / 4] * 3,
                   "setup.probe_text_ms": [ref / 4] * 3}
        self.assertEqual(metrics.speed_factor(samples), 1.0)
        self.assertEqual(metrics.speed_factor(samples, "setup."), 2.0)
        with self.assertRaises(ValueError):
            metrics.speed_factor({"repeater_ms": [1.0]})

    def test_core_layer_ratios(self):
        reg = registry(
            counters={"mfs.comparisons": 100, "mfs.predictive_skipped": 60,
                      "mfs.pruned_full": 4, "mfs.pruned_partial": 6,
                      "msri.join_candidates": 50,
                      "msri.join_pruned_early": 5},
            timers={"msri.total": {"calls": 2, "total_ms": 10.0},
                    "mfs.time": {"calls": 9, "total_ms": 8.0}},
            histograms={"pwl.max.segments": {"max": 5},
                        "pwl.shift.segments": {"max": 3}})
        core = metrics.core_layer(reg)
        self.assertAlmostEqual(core["mfs.prune_yield"], 10 / 40)
        self.assertAlmostEqual(core["mfs.share"], 0.8)
        self.assertAlmostEqual(core["mfs.ms"], 4.0)
        self.assertAlmostEqual(core["msri.join_early_reject_ratio"], 0.1)
        self.assertEqual(core["pwl.max_segments"], 5)

    def test_core_layer_of_an_empty_registry_is_zero(self):
        core = metrics.core_layer(registry())
        self.assertTrue(all(v == 0.0 for v in core.values()))


if __name__ == "__main__":
    unittest.main()
