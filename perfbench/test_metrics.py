"""Tests for the benchmark's own arithmetic (metrics.py).

    python3 -m unittest discover -s perfbench -p 'test_*.py'
"""

import unittest

import metrics


def counters(**values):
    names = ("input_records", "input_bytes", "bytes_decoded", "blocks_skipped",
             "map_output_records", "map_output_bytes", "output_records",
             "output_bytes", "shuffle_spilled_runs", "shuffle_spilled_bytes",
             "task_retries", "speculative_launches", "tasks_failed",
             "native_tasks", "native_bailout_records")
    return {name: values.get(name, 0) for name in names}


def job(seconds=1.0, ok=True, match=True, traced=False, param=0, **kw):
    return {"param": param, "traced": traced, "seconds": seconds, "ok": ok,
            "match": match, "error": "", "access_path": kw.pop("path", "seqscan"),
            "est_selectivity": kw.pop("est", -1), "map_tasks": kw.pop("tasks", 1),
            "phases": kw.pop("phases", {}), "counters": counters(**kw)}


def span(name, start, end, parent=-1, job_id=0):
    return {"name": name, "start_ns": start, "end_ns": end, "parent": parent,
            "job": job_id}


class TailTest(unittest.TestCase):
    def test_leaves_exactly_ten_samples_beyond(self):
        samples = list(range(100, 0, -1))  # 1..100, unsorted
        value, percentile, n = metrics.tail(samples)
        self.assertEqual(value, 90)
        self.assertEqual(sum(1 for s in samples if s > value), 10)
        self.assertAlmostEqual(percentile, 90.0)
        self.assertEqual(n, 100)

    def test_smallest_sample_count(self):
        value, percentile, n = metrics.tail([5.0] + [9.0] * 10)
        self.assertEqual(value, 5.0)
        self.assertAlmostEqual(percentile, 100.0 / 11)
        self.assertEqual(n, 11)

    def test_too_few_samples(self):
        with self.assertRaises(ValueError):
            metrics.tail([1.0] * 10)


class SelfTimeTest(unittest.TestCase):
    def test_subtracts_children_once(self):
        spans = [
            span("job", 0, 100),
            span("a", 10, 30, parent=0),
            span("b", 20, 50, parent=0),  # overlaps a: 10..50 covered once
            span("c", 40, 45, parent=2),  # grandchild: only b loses it
        ]
        own = metrics.self_times(spans)
        self.assertAlmostEqual(own[0], 60e-9)
        self.assertAlmostEqual(own[1], 20e-9)
        self.assertAlmostEqual(own[2], 25e-9)
        self.assertAlmostEqual(own[3], 5e-9)

    def test_child_clipped_to_parent(self):
        own = metrics.self_times([span("p", 0, 10), span("c", 5, 20, parent=0)])
        self.assertAlmostEqual(own[0], 5e-9)

    def test_replay_layers_sum_self_time_per_replay(self):
        spans = [
            span("replay", 0, 100, job_id=3),
            span("mril.map", 0, 40, parent=0, job_id=3),
            span("exec.emit", 10, 20, parent=1, job_id=3),
            span("mril.map", 50, 60, parent=0, job_id=3),
            span("replay", 200, 300, job_id=3),  # same job replayed again
            span("mril.map", 200, 210, parent=4, job_id=3),
            span("mril.map", 400, 500, job_id=3),  # outside any replay
        ]
        layers = metrics._replay_layer_seconds(spans)
        self.assertEqual(len(layers), 2)
        self.assertAlmostEqual(layers[0]["mril.map"], 40e-9)
        self.assertAlmostEqual(layers[0]["exec.emit"], 10e-9)
        self.assertAlmostEqual(layers[1]["mril.map"], 10e-9)


class FailedRatioTest(unittest.TestCase):
    def test_counts_errors_and_mismatches(self):
        jobs = [job(), job(ok=False, match=False), job(match=False), job()]
        self.assertEqual(metrics.failed_jobs(jobs), 2)
        self.assertEqual(metrics.failed_ratio(jobs), 0.5)

    def test_no_jobs(self):
        self.assertEqual(metrics.failed_ratio([]), 0.0)


def raw_record(jobs, **extra):
    raw = {"jobs": jobs, "baselines": [], "replays": [], "spans": [],
           "builds": [], "setup_s": [1.0], "input_bytes": 1000,
           "index_programs": 0, "peak_rss_kb": 2048}
    raw.update(extra)
    return raw


class EndToEndTest(unittest.TestCase):
    def test_metrics_and_bases(self):
        jobs = [job(seconds=float(i), input_bytes=10, map_output_bytes=20,
                    output_bytes=i) for i in range(1, 22)]
        jobs.append(job(seconds=100.0, ok=False, match=False))
        raw = raw_record(
            jobs, setup_s=[3.0, 1.0, 2.0],
            baselines=[{"param": 0, "seconds": s, "ok": True,
                        "input_records": 1, "map_output_records": 1}
                       for s in (4.0, 6.0)],
            builds=[{"signature": "x", "seconds": 1, "artifact_bytes": 250},
                    {"signature": "y", "seconds": 1, "artifact_bytes": 250}])
        values, notes = metrics.end_to_end(raw)
        self.assertEqual(values["job_p50_s"], (11.5, "s"))
        self.assertEqual(values["job_tail_s"][0], 12.0)  # 10 samples above
        self.assertEqual(values["baseline_p50_s"], (5.0, "s"))
        self.assertEqual(values["setup_s"], (2.0, "s"))
        self.assertEqual(values["peak_rss_mb"], (2.0, "MiB"))
        # (input + artifacts) / input: bytes stored per input byte.
        self.assertEqual(values["stored_bytes_ratio"], (1.5, "ratio"))
        # Failed jobs carry no counters: median over the 21 ok jobs.
        self.assertEqual(values["bytes_moved_per_job"], (41, "bytes"))
        self.assertEqual(notes["job_samples"], 22)
        self.assertAlmostEqual(notes["failed_ratio"], 1 / 22)


class PerLayerTest(unittest.TestCase):
    def test_ratios_and_bases(self):
        jobs = [
            job(traced=False, seconds=2.0, param=1, est=0.02, path="btree",
                input_records=100, output_records=50, map_output_records=50,
                native_tasks=3, tasks=4, phases={"map": 1.0}),
            job(traced=True, seconds=3.0, param=2, est=0.5,
                input_records=100, output_records=0, map_output_records=10,
                native_tasks=0, tasks=4, shuffle_spilled_runs=5,
                phases={"map": 3.0}),
        ]
        raw = raw_record(
            jobs,
            baselines=[
                {"param": 1, "seconds": 1, "ok": True, "input_records": 1000,
                 "map_output_records": 10},   # observed 0.01 vs est 0.02
                {"param": 2, "seconds": 1, "ok": True, "input_records": 1000,
                 "map_output_records": 1000},  # observed 1.0 vs est 0.5
            ],
            replays=[{"job": 0, "param": 1, "ok": True, "match": True,
                      "error": "", "map_steps": 1000, "reduce_steps": 500}],
            spans=[
                span("job", 0, 2_200_000_000, job_id=1),
                span("replay", 0, 10_000, job_id=0),
                span("columnar.read", 0, 1_000, parent=1),
                span("columnar.scan", 1_000, 4_000, parent=1),
                span("mril.map", 4_000, 6_000, parent=1),
                span("exec.merge", 6_000, 7_000, parent=1),
                span("exec.group", 7_000, 10_000, parent=1),
            ])
        values = {k: v for k, (v, _) in metrics.per_layer(raw).items()}
        self.assertAlmostEqual(values["bench.trace_overhead"], 1.1)  # 2.2 / 2.0
        self.assertEqual(values["optimizer.btree_share"], 0.5)
        self.assertEqual(values["optimizer.selectivity_drift"], 2.0)
        # Jobs without output are left out of examined-per-output.
        self.assertEqual(values["index.examined_per_output"], 2.0)
        self.assertEqual(values["exec.map_selectivity"], 0.3)
        self.assertEqual(values["codegen.native_task_share"], 3 / 8)
        self.assertAlmostEqual(values["columnar.decode_s"], 2e-6)
        self.assertAlmostEqual(values["mril.ns_per_instruction"], 2.0)
        self.assertEqual(values["mril.instructions"], 1500)
        self.assertAlmostEqual(values["exec.group_s"], 2e-6)
        self.assertEqual(values["exec.spilled_runs_min"], 0)
        self.assertEqual(values["exec.map_s"], 2.0)

    def test_empty_bases_give_zero(self):
        values = {k: v for k, (v, _) in metrics.per_layer(raw_record([job()])).items()}
        self.assertEqual(values["mril.ns_per_instruction"], 0.0)
        self.assertEqual(values["optimizer.selectivity_drift"], 0.0)
        self.assertEqual(values["index.examined_per_output"], 0.0)


if __name__ == "__main__":
    unittest.main()
