"""Tests of the benchmark's own rules.

  python3 -B -m unittest discover -s mtrbench -p 'test_*.py'
"""

import json
import sys
import unittest
from pathlib import Path

sys.dont_write_bytecode = True
import benchlib  # noqa: E402

HERE = Path(__file__).resolve().parent


class TailPercentileTest(unittest.TestCase):
    def test_picks_highest_rung_with_ten_beyond(self):
        # 120 cells: p90 leaves 12 beyond it, p95 only 6.
        q, value, n = benchlib.tail_percentile(range(1, 121))
        self.assertEqual((q, value, n), (0.9, 108, 120))

    def test_boundary_exactly_ten_beyond(self):
        # 100 samples: p90 is rank 90 with exactly 10 beyond it.
        self.assertEqual(benchlib.tail_percentile(range(1, 101))[:2], (0.9, 90))
        # 99 samples: p90 is rank 90 with 9 beyond, so p75 (rank 75).
        self.assertEqual(benchlib.tail_percentile(range(1, 100))[:2], (0.75, 75))

    def test_large_sample_reaches_p99(self):
        q, value, _ = benchlib.tail_percentile(range(1, 1001))
        self.assertEqual((q, value), (0.99, 990))

    def test_too_few_samples_report_the_maximum(self):
        self.assertEqual(benchlib.tail_percentile([3, 1, 2]), (1.0, 3, 3))
        # 20 samples: the median leaves exactly 10 beyond it.
        self.assertEqual(benchlib.tail_percentile(range(20))[:2], (0.5, 9))

    def test_order_does_not_matter(self):
        xs = [5, 1, 4, 2, 3] * 10
        self.assertEqual(benchlib.tail_percentile(xs),
                         benchlib.tail_percentile(sorted(xs)))

    def test_empty_is_an_error(self):
        with self.assertRaises(ValueError):
            benchlib.tail_percentile([])


def span(id_, parent, ts, dur, cat="x"):
    return {"id": id_, "parent": parent, "ts": ts, "dur": dur, "cat": cat,
            "name": cat}


class SelfTimeTest(unittest.TestCase):
    def test_leaf_keeps_its_duration(self):
        self.assertEqual(benchlib.self_times([span(1, 0, 0, 10)]), {1: 10})

    def test_children_are_subtracted(self):
        spans = [span(1, 0, 0, 100), span(2, 1, 10, 20), span(3, 1, 50, 30)]
        self.assertEqual(benchlib.self_times(spans), {1: 50, 2: 20, 3: 30})

    def test_overlapping_children_count_once(self):
        # Two workers writing at once: [10, 40) and [30, 60) cover 50.
        spans = [span(1, 0, 0, 100), span(2, 1, 10, 30), span(3, 1, 30, 30)]
        self.assertEqual(benchlib.self_times(spans)[1], 50)

    def test_children_are_clipped_to_the_parent(self):
        spans = [span(1, 0, 10, 20), span(2, 1, 0, 15), span(3, 1, 25, 100)]
        self.assertEqual(benchlib.self_times(spans)[1], 10)

    def test_grandchildren_only_reduce_their_parent(self):
        spans = [span(1, 0, 0, 100, "a"), span(2, 1, 0, 60, "b"),
                 span(3, 2, 0, 40, "c")]
        self.assertEqual(benchlib.self_times(spans), {1: 40, 2: 20, 3: 40})
        self.assertEqual(benchlib.layer_self_times(spans),
                         {"a": 40, "b": 20, "c": 40})

    def test_sequential_layers_sum_to_the_root(self):
        spans = [span(1, 0, 0, 100, "bench"), span(2, 1, 5, 50, "core"),
                 span(3, 2, 10, 5, "report"), span(4, 2, 20, 5, "report"),
                 span(5, 1, 70, 20, "dist")]
        self.assertEqual(benchlib.layer_self_times(spans),
                         {"bench": 30, "core": 40, "report": 10, "dist": 20})

    def test_chrome_events_round_trip(self):
        trace = {"traceEvents": [
            {"name": "w", "cat": "bench", "ph": "X", "ts": 0.0, "dur": 9.0,
             "pid": 1, "tid": 1, "args": {"id": 1, "parent": 0, "run": "r"}},
            {"name": "m", "ph": "M", "pid": 1, "args": {}}]}
        self.assertEqual(benchlib.chrome_spans(trace),
                         [{"id": 1, "parent": 0, "ts": 0.0, "dur": 9.0,
                           "cat": "bench", "name": "w"}])


class RelativeMetricsTest(unittest.TestCase):
    REPS = [{"wall_s": w, "cpu_s": 3 * w, "steal_s": 0.0,
             "peak_rss_MB": 100.0 + w, "sim_s": 50.0, "io_MB": 1.0}
            for w in (2.0, 1.0, 4.0)]
    PROBES = [{"cpu_s": c} for c in (1.0, 0.5, 2.0)]

    def metrics(self, reps, probes):
        return benchlib.relative_metrics(reps, probes, threads=4, busy_threads=4)

    def test_medians_over_medians(self):
        self.assertEqual(self.metrics(self.REPS, self.PROBES),
                         {"wall_rel": 8.0, "cpu_rel": 6.0, "sim_rate_rel": 6.25,
                          "io_rate_rel": 0.125, "pool_util": 0.75,
                          "peak_rss_MB": 102.0})

    def test_probe_waiting_does_not_count(self):
        # Only the probe's CPU time is the unit; its wall may be anything.
        waited = [{**p, "wall_s": 99.0, "steal_s": 50.0} for p in self.PROBES]
        self.assertEqual(self.metrics(self.REPS, waited),
                         self.metrics(self.REPS, self.PROBES))

    def test_a_host_slower_throughout_changes_nothing(self):
        # Everything, the probe too, takes 1.7 times as long.
        def slow(rows):
            return [{k: v * 1.7 if k in ("wall_s", "cpu_s") else v
                     for k, v in r.items()} for r in rows]
        fast = self.metrics(self.REPS, self.PROBES)
        for k, v in self.metrics(slow(self.REPS), slow(self.PROBES)).items():
            self.assertAlmostEqual(v, fast[k], msg=k)

    def test_stolen_time_is_taken_out(self):
        # Every rep waited a further second on each of its 4 vCPUs.
        stolen = [{**r, "wall_s": r["wall_s"] + 1, "steal_s": 4.0}
                  for r in self.REPS]
        self.assertEqual(self.metrics(stolen, self.PROBES),
                         self.metrics(self.REPS, self.PROBES))

    def test_steal_share_is_capped(self):
        row = {"wall_s": 1.0, "steal_s": 100.0}
        self.assertAlmostEqual(benchlib.ran_s(row, 1), 0.1)
        self.assertEqual(benchlib.ran_s({"wall_s": 2.0, "steal_s": 1.0}, 1), 1.0)

    def test_every_end_to_end_metric_is_produced(self):
        declared = {m["name"] for m in json.loads(
            (HERE.parent / "BENCHMARK.json").read_text())["end_to_end"]}
        self.assertEqual(set(benchlib.RELATIVE_METRICS) | {"setup_s"}, declared)


class AbVerdictTest(unittest.TestCase):
    def test_clear_gain(self):
        parent = [10.0, 10.2, 9.9, 10.1, 10.0, 10.3, 9.8, 10.1, 10.0, 10.2]
        change = [x - 2 for x in parent]
        r = benchlib.ab_verdict(parent, change, "lower")
        self.assertEqual((r["wins"], r["verdict"]), (1.0, "gain"))

    def test_ties_count_for_neither(self):
        r = benchlib.ab_verdict([1.0] * 10, [1.0] * 10, "lower")
        self.assertEqual((r["wins"], r["losses"]), (0.0, 0.0))
        self.assertEqual(r["verdict"], "no clear change")

    def test_small_shift_inside_parent_spread_is_no_gain(self):
        parent = [10, 12, 9, 11, 10, 13, 8, 11, 10, 12]
        change = [x - 0.5 for x in parent]
        r = benchlib.ab_verdict(parent, change, "lower")
        self.assertEqual(r["wins"], 1.0)
        self.assertEqual(r["verdict"], "no clear change")

    def test_higher_is_better_and_regressions(self):
        parent = [100.0 + i * 0.1 for i in range(10)]
        change = [x - 20 for x in parent]
        self.assertEqual(benchlib.ab_verdict(parent, change, "higher")["verdict"],
                         "regression")


class BenchmarkSpecTest(unittest.TestCase):
    def spec(self):
        return json.loads((HERE.parent / "BENCHMARK.json").read_text())

    def test_checked_in_spec_is_valid(self):
        self.assertEqual(benchlib.validate_benchmark(self.spec()), [])

    def test_metric_names(self):
        ok = ["wall_s", "core.idle_s", "kernel.busy_ns_per_event", "9lives",
              "a" * 64]
        bad = ["", "_x", ".x", "a b", "a/b", "a" * 65, "wall-s!"]
        for n in ok:
            self.assertTrue(benchlib.NAME_RE.fullmatch(n), n)
        for n in bad:
            self.assertFalse(benchlib.NAME_RE.fullmatch(n), n)

    def test_units(self):
        for u in ("s", "ms", "1/s", "MB/s", "count", "%", "s/s"):
            self.assertTrue(benchlib.UNIT_RE.fullmatch(u), u)
        for u in ("", "m s", "x" * 17, "µs"):
            self.assertFalse(benchlib.UNIT_RE.fullmatch(u), u)

    def test_violations_are_reported(self):
        spec = self.spec()
        spec["per_layer"].append(dict(spec["per_layer"][0]))
        spec["end_to_end"][0]["bound"] = 0.3
        spec["workloads"][0]["why"] = "x" * 201
        spec["command"].append("../outside")
        errors = " ".join(benchlib.validate_benchmark(spec))
        for needle in ("more than once", "bound", "why", "leaves the repo"):
            self.assertIn(needle, errors)

    def test_setup_metric_is_required(self):
        spec = self.spec()
        spec["end_to_end"] = [m for m in spec["end_to_end"]
                              if m["name"] != "setup_s"]
        self.assertIn("setup_s", " ".join(benchlib.validate_benchmark(spec)))

    def test_every_per_layer_metric_is_produced(self):
        # run.py must emit exactly the names BENCHMARK.json declares.
        sys.path.insert(0, str(HERE))
        import run  # noqa: E402
        raw = {"kernel": {k: 1 for k in (
                   "events_popped", "charges_enqueued", "charge_flushes",
                   "context_switches", "timer_ticks", "idle_leaps",
                   "running_leaps", "ticks_coalesced")},
               "cell_seconds": [0.1] * 30, "threads": 4, "pool_wall_s": 1.0,
               "busy_s": 3.0, "runs": 60, "witness_steps": 1,
               "sha256_MBps": 1.0, "minor_faults": 1, "major_faults": 1,
               "destroy_space_us": 1.0, "touch_fault_ns": 1.0,
               "population_s": 1.0, "tenants": 1, "construct_us": 1.0,
               "csv_write_s": 1.0, "jsonl_write_s": 1.0, "report_bytes": 1,
               "dist": {"scan_s": 1.0, "scan_bytes": 1, "merge_s": 1.0,
                        "metrics_fold_s": 1.0, "resume_scan_s": 1.0,
                        "records": 1}}
        layers = ("bench", "core", "report", "crypto", "mm", "sim",
                  "workloads", "dist")
        spans = [span(i + 1, 0, 0, 1, c) for i, c in enumerate(layers)]
        produced = set(run.layer_metrics(raw, spans)) | {"bench.trace_overhead"}
        declared = {m["name"] for m in self.spec()["per_layer"]}
        self.assertEqual(produced, declared)


if __name__ == "__main__":
    unittest.main()
