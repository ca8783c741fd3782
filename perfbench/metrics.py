"""Reduces one raw perfbench_measure record to the benchmark's metrics.

The C++ measuring process only records raw samples (per-job times and
counters, setup times, spans); every statistic and ratio the benchmark
reports is computed here, where test_metrics.py checks it. Metric
definitions are in perfbench/README.md.
"""

import statistics

# Samples a tail percentile must leave above itself.
TAIL_BEYOND = 10

# Spans the replay records, by layer (replay.h).
REPLAY_LAYERS = (
    "columnar.read", "index.seek", "columnar.scan", "mril.map", "exec.emit",
    "exec.merge", "exec.group", "mril.reduce", "exec.output_write",
)


def median(values):
    """Median of `values`; 0 for an empty list."""
    values = list(values)
    return statistics.median(values) if values else 0.0


def ratio(numerator, base):
    """numerator / base, or 0 when the base is 0."""
    return numerator / base if base else 0.0


def tail(samples):
    """The highest percentile that still has TAIL_BEYOND samples above it.

    Returns (value, percentile, sample count). The value is the sample
    with exactly TAIL_BEYOND larger-ranked samples; its percentile is
    the share of samples at or below it. Needs TAIL_BEYOND + 1 samples.
    """
    ordered = sorted(samples)
    n = len(ordered)
    if n <= TAIL_BEYOND:
        raise ValueError(f"{n} samples cannot leave {TAIL_BEYOND} beyond a tail")
    return ordered[n - 1 - TAIL_BEYOND], 100.0 * (n - TAIL_BEYOND) / n, n


def self_times(spans):
    """Self time of each span in seconds: its duration minus the part of
    its interval that its child spans cover (overlapping children count
    once)."""
    children = {}
    for i, span in enumerate(spans):
        if span["parent"] >= 0:
            children.setdefault(span["parent"], []).append(i)
    result = []
    for i, span in enumerate(spans):
        start, end = span["start_ns"], span["end_ns"]
        covered, cursor = 0, start
        intervals = sorted(
            (max(spans[c]["start_ns"], start), min(spans[c]["end_ns"], end))
            for c in children.get(i, []))
        for lo, hi in intervals:
            lo = max(lo, cursor)
            if hi > lo:
                covered += hi - lo
                cursor = hi
        result.append((end - start - covered) / 1e9)
    return result


def failed_jobs(jobs):
    """Jobs that returned an error or whose output differs from RunBaseline's."""
    return sum(1 for job in jobs if not (job["ok"] and job["match"]))


def failed_ratio(jobs):
    return ratio(failed_jobs(jobs), len(jobs))


def _counter(jobs, name):
    return [job["counters"][name] for job in jobs if job["ok"]]


def bytes_moved(job):
    c = job["counters"]
    return c["input_bytes"] + c["map_output_bytes"] + c["output_bytes"]


def end_to_end(raw):
    """Metrics of a --trace 0 record: {name: (value, unit)}, plus notes."""
    jobs = raw["jobs"]
    times = [job["seconds"] for job in jobs]
    tail_value, tail_pct, n = tail(times)
    stored = raw["input_bytes"] + sum(b["artifact_bytes"] for b in raw["builds"])
    metrics = {
        "job_p50_s": (median(times), "s"),
        "job_tail_s": (tail_value, "s"),
        "baseline_p50_s": (median(b["seconds"] for b in raw["baselines"]), "s"),
        "setup_s": (median(raw["setup_s"]), "s"),
        "peak_rss_mb": (raw["peak_rss_kb"] / 1024.0, "MiB"),
        "stored_bytes_ratio": (ratio(stored, raw["input_bytes"]), "ratio"),
        "bytes_moved_per_job": (median(bytes_moved(j) for j in jobs if j["ok"]),
                                "bytes"),
    }
    notes = {
        "job_tail_percentile": tail_pct,
        "job_samples": n,
        "failed_ratio": failed_ratio(jobs),
    }
    return metrics, notes


def _replay_layer_seconds(spans):
    """Per replay, the summed self time of each layer's spans under its
    "replay" span."""
    own = self_times(spans)
    replays = {i: {layer: 0.0 for layer in REPLAY_LAYERS}
               for i, s in enumerate(spans) if s["name"] == "replay"}
    for i, span in enumerate(spans):
        if span["name"] not in REPLAY_LAYERS:
            continue
        root = span["parent"]
        while root >= 0 and root not in replays:
            root = spans[root]["parent"]
        if root >= 0:
            replays[root][span["name"]] += own[i]
    return list(replays.values())


def per_layer(raw):
    """Metrics of a --trace 1 record: {name: (value, unit)}."""
    jobs = raw["jobs"]
    ok_jobs = [job for job in jobs if job["ok"]]
    spans = raw["spans"]

    def span_seconds(name):
        return [(s["end_ns"] - s["start_ns"]) / 1e9 for s in spans
                if s["name"] == name]

    untraced = [job["seconds"] for job in jobs if not job["traced"]]
    traced = span_seconds("job")
    baseline_selectivity = {
        b["param"]: ratio(b["map_output_records"], b["input_records"])
        for b in raw["baselines"] if b["ok"]}
    drift = []
    for job in ok_jobs:
        est = job["est_selectivity"]
        obs = baseline_selectivity.get(job["param"], 0)
        if est > 0 and obs > 0:
            drift.append(max(est / obs, obs / est))

    layers = _replay_layer_seconds(spans)

    def layer(name):
        return median(r[name] for r in layers)

    read_s, scan_s = layer("columnar.read"), layer("columnar.scan")
    map_s = layer("mril.map")
    map_steps = median(r["map_steps"] for r in raw["replays"])
    map_tasks = sum(job["map_tasks"] for job in ok_jobs)

    def phases(name):
        return median(job["phases"].get(name, 0) for job in ok_jobs)

    spilled_runs = _counter(jobs, "shuffle_spilled_runs")

    return {
        "analyzer.analyze_s": (median(span_seconds("analyzer.Analyze")), "s"),
        "analyzer.index_programs": (raw["index_programs"], "count"),
        "optimizer.build_plan_s": (median(span_seconds("optimizer.BuildPlan")), "s"),
        "optimizer.btree_share": (ratio(
            sum(1 for j in ok_jobs if j["access_path"] == "btree"),
            len(ok_jobs)), "ratio"),
        "optimizer.selectivity_drift": (median(drift), "ratio"),
        "core.submit_s": (median(span_seconds("core.SubmitWithReport")), "s"),
        "index.build_s": (sum(b["seconds"] for b in raw["builds"]), "s"),
        "index.artifact_bytes": (sum(b["artifact_bytes"] for b in raw["builds"]),
                                 "bytes"),
        "index.seek_s": (layer("index.seek"), "s"),
        "index.examined_per_output": (median(
            ratio(j["counters"]["input_records"], j["counters"]["output_records"])
            for j in ok_jobs if j["counters"]["output_records"]), "ratio"),
        "columnar.read_s": (read_s, "s"),
        "columnar.scan_s": (scan_s, "s"),
        "columnar.decode_s": (scan_s - read_s if read_s else 0.0, "s"),
        "columnar.bytes_read": (median(_counter(jobs, "input_bytes")), "bytes"),
        "columnar.bytes_decoded": (median(_counter(jobs, "bytes_decoded")), "bytes"),
        "columnar.blocks_skipped": (median(_counter(jobs, "blocks_skipped")),
                                    "count"),
        "mril.map_eval_s": (map_s, "s"),
        "mril.reduce_eval_s": (layer("mril.reduce"), "s"),
        "mril.instructions": (median(r["map_steps"] + r["reduce_steps"]
                                     for r in raw["replays"]), "count"),
        "mril.ns_per_instruction": (ratio(map_s * 1e9, map_steps), "ns"),
        "codegen.native_task_share": (ratio(
            sum(_counter(jobs, "native_tasks")), map_tasks), "ratio"),
        "codegen.bailout_records": (median(_counter(jobs, "native_bailout_records")),
                                    "count"),
        "codegen.compile_s": (median(span_seconds("codegen.compile")), "s"),
        "exec.plan_s": (phases("plan"), "s"),
        "exec.map_s": (phases("map"), "s"),
        "exec.reduce_s": (phases("reduce"), "s"),
        "exec.shuffle_bytes": (median(_counter(jobs, "map_output_bytes")), "bytes"),
        "exec.spilled_runs": (median(spilled_runs), "count"),
        "exec.spilled_runs_min": (min(spilled_runs, default=0), "count"),
        "exec.spilled_bytes": (median(_counter(jobs, "shuffle_spilled_bytes")),
                               "bytes"),
        "exec.emit_s": (layer("exec.emit"), "s"),
        "exec.merge_s": (layer("exec.merge"), "s"),
        "exec.group_s": (median(r["exec.group"] - r["exec.merge"] for r in layers),
                         "s"),
        "exec.output_write_s": (layer("exec.output_write"), "s"),
        "exec.map_selectivity": (median(
            ratio(j["counters"]["map_output_records"], j["counters"]["input_records"])
            for j in ok_jobs), "ratio"),
        "exec.task_retries": (sum(_counter(jobs, "task_retries")), "count"),
        "exec.speculative_launches": (sum(_counter(jobs, "speculative_launches")),
                                      "count"),
        "exec.tasks_failed": (sum(_counter(jobs, "tasks_failed")), "count"),
        "bench.trace_overhead": (ratio(median(traced), median(untraced)), "ratio"),
    }
