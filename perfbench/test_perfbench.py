"""The campaign benchmark's own tests.

    python3 -m unittest discover -s perfbench -p 'test_*.py'

They need no build: they check the metric declarations against
BENCHMARK.json and the traced harness's source, the metric assembly for
every workload, the correctness gate and the percentile helper.
"""
import json
import math
import os
import re
import unittest

import metrics as M

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)


def fake_report(**answer):
    """A run report with the fields the gate and the metrics read."""
    report = {
        "interrupted": False, "elapsed_s": 2.0, "evaluated": 1000,
        "ssf": 0.001, "std_error": 3e-05, "ess": 240.5, "successes": 12,
        "retried": 0,
        "paths": {"masked": 900, "analytical": 50, "rtl": 50, "failed": 0},
        "precharac_cache": {"outcome": "hit", "stored": False},
        "metrics": {"counters": {
            "eval.batch_lanes": 990, "eval.batch_groups": 185,
            "eval.samples": 1000, "eval.batch_restore_saved": 805,
            "gate.injection_cycles": 195, "gate.settle_passes": 195,
            "rtl.resume_cycles": 6000, "journal.commits": 5,
            "journal.bytes_written": 75000}},
    }
    report.update(answer)
    return report


class MetricNames(unittest.TestCase):
    def test_every_name_and_unit_is_valid(self):
        tables = (M.END_TO_END, M.PER_LAYER, M.PRINTED_ONLY)
        for table in tables:
            for name, unit in table.items():
                self.assertRegex(name, M.NAME_RE)
                self.assertRegex(unit, M.UNIT_RE)
        names = [name for table in tables for name in table]
        self.assertEqual(len(names), len(set(names)))

    def test_benchmark_json_declares_exactly_these_metrics(self):
        with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
            bench = json.load(f)
        e2e = {m["name"]: m for m in bench["end_to_end"]}
        self.assertEqual({n: m["unit"] for n, m in e2e.items()}, M.END_TO_END)
        self.assertEqual({m["name"]: m["unit"] for m in bench["per_layer"]},
                         M.PER_LAYER)
        self.assertEqual(e2e["setup_s"]["bound"],
                         max(m["bound"] for m in e2e.values()))
        for m in e2e.values():
            self.assertEqual(m["better"], "higher" if m["unit"] == "1/s"
                             else "lower")
            self.assertLessEqual(m["bound"], 0.25)
        self.assertEqual([w["name"] for w in bench["workloads"]],
                         ["sampled-warm", "exhaustive-cold", "served-mix"])

    def test_traced_harness_emits_its_metrics(self):
        with open(os.path.join(HERE, "native", "trace.cpp")) as f:
            emitted = set(re.findall(r'm\["([^"]+)"\]', f.read()))
        self.assertEqual(emitted, set(M.PB_TRACE_METRICS))


class EmittedPerWorkload(unittest.TestCase):
    def test_cli_workloads_emit_every_end_to_end_metric(self):
        runs = [{"wall": 2.1 + i / 10, "rss": 130.0, "report": fake_report()}
                for i in range(3)]
        m, notes = M.cli_end_to_end(runs)
        self.assertEqual(M.missing_metrics(m, M.END_TO_END), [])
        self.assertTrue(all(v > 0 for v in m.values()))
        self.assertAlmostEqual(m["setup_s"], 0.2)
        self.assertAlmostEqual(m["samples_per_s"], 500.0)

    def test_served_mix_emits_every_end_to_end_metric(self):
        kinds = ("radiation", "clock-glitch", "voltage-glitch")
        campaigns = [{"kind": kinds[i % 3], "latency_s": 0.1 + (i % 3) / 10,
                      "ok": True, "report": fake_report()}
                     for i in range(120)]
        m, _ = M.served_end_to_end(campaigns, 10.0, [0.003] * 5, 120.0,
                                   failed_latency=165)
        self.assertEqual(M.missing_metrics(m, M.END_TO_END), [])
        self.assertEqual(set(m) - set(M.END_TO_END), set(M.PRINTED_ONLY))
        self.assertAlmostEqual(m["wall_s"], 0.2)
        self.assertAlmostEqual(m["campaigns_per_s"], 12.0)

    def test_traced_run_covers_every_per_layer_metric(self):
        counts, bases = M.report_counts([fake_report()])
        produced = (set(counts) | set(M.PB_TRACE_METRICS) |
                    set(M.SERVE_METRICS) | {"failed_fraction"})
        self.assertEqual(produced, set(M.PER_LAYER))
        self.assertAlmostEqual(counts["mc.lane_occupancy"], 990 / 185)
        self.assertIn("eval.batch_groups 185", bases["mc.lane_occupancy"])


class CorrectnessGate(unittest.TestCase):
    def setUp(self):
        self.report = fake_report()
        self.reference = M.answer_of(self.report)

    def test_matching_answer_passes(self):
        gate = M.Gate()
        gate.record("c0", M.campaign_problems(0, self.report, "hit",
                                              self.reference))
        self.assertTrue(gate.correct)

    def test_perturbed_reference_fails(self):
        for field in ("ssf", "std_error", "ess"):
            ref = dict(self.reference)
            ref[field] = math.nextafter(ref[field], 1.0)
            gate = M.Gate()
            gate.record("c0", M.campaign_problems(0, self.report, "hit", ref))
            self.assertFalse(gate.correct, field)
            self.assertEqual((gate.attempted, gate.failed), (1, 1))
        ref = dict(self.reference, paths=dict(self.reference["paths"], rtl=51))
        self.assertTrue(M.campaign_problems(0, self.report, "hit", ref))

    def test_stored_references_round_trip(self):
        with open(os.path.join(HERE, "references.json")) as f:
            stored = json.load(f)
        ref = stored["exhaustive-cold"]
        report = fake_report(**{k: v for k, v in ref.items()})
        self.assertEqual(M.campaign_problems(0, report, "hit", ref), [])
        ref = dict(ref, ssf=ref["ssf"] * (1 + 2 ** -52))
        self.assertTrue(M.campaign_problems(0, report, "hit", ref))

    def test_cache_guards(self):
        cold = fake_report(precharac_cache={"outcome": "miss",
                                            "stored": True})
        self.assertEqual(M.campaign_problems(0, cold, "miss", None), [])
        self.assertTrue(M.campaign_problems(0, cold, "hit", None))
        unstored = fake_report(precharac_cache={"outcome": "miss",
                                                "stored": False})
        self.assertTrue(M.campaign_problems(0, unstored, "miss", None))

    def test_failures_count(self):
        failed = fake_report(paths={"masked": 1, "analytical": 0, "rtl": 0,
                                    "failed": 1})
        self.assertTrue(M.campaign_problems(0, failed, "hit", None))
        self.assertTrue(M.campaign_problems(3, None, "hit", None))


class Percentile(unittest.TestCase):
    def test_p90_needs_ten_samples_beyond_it(self):
        self.assertIsNone(M.percentile(list(range(99)), 0.9))
        self.assertEqual(M.percentile(list(range(100)), 0.9), 89)
        self.assertEqual(M.percentile(list(range(1, 101)), 0.9), 90)

    def test_p50(self):
        self.assertIsNone(M.percentile(list(range(19)), 0.5))
        self.assertEqual(M.percentile(list(range(20)), 0.5), 9)

    def test_failures_miss_the_limit(self):
        values = [0.1] * 95 + [math.inf] * 15
        self.assertEqual(M.percentile(values, 0.9), math.inf)


if __name__ == "__main__":
    unittest.main()
